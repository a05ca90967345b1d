#include <benchmark/benchmark.h>

#include "consensus/messages.hpp"
#include "runtime/cluster.hpp"
#include "smr/batch.hpp"

/// Index of every experiment: README.md, "Experiments".
///
/// Experiment E9b: wall-clock cost of message
/// serialization/parsing and of the full simulation substrate (events/sec),
/// grounding the simulated-time results in real machine cost.

namespace fastbft::consensus {
namespace {

std::shared_ptr<const crypto::KeyStore> bench_keys() {
  static auto keys = std::make_shared<const crypto::KeyStore>(3, 16);
  return keys;
}

ProposeMsg make_propose() {
  auto keys = bench_keys();
  Value x = Value::of_string("a-realistic-command-batch-payload");
  ProposeMsg m;
  m.v = 9;
  m.x = x;
  for (ProcessId p = 0; p < 3; ++p) {
    m.sigma.acks.push_back(SignatureEntry{
        p, crypto::Signer(keys, p).sign(kDomCertAck, certack_preimage(x, 9))});
  }
  m.tau = crypto::Signer(keys, 0).sign(kDomPropose, propose_preimage(x, 9));
  return m;
}

void BM_SerializePropose(benchmark::State& state) {
  ProposeMsg m = make_propose();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.serialize());
  }
}
BENCHMARK(BM_SerializePropose);

void BM_ParsePropose(benchmark::State& state) {
  Bytes wire = make_propose().serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_message(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_ParsePropose);

void BM_ParseAck(benchmark::State& state) {
  Bytes wire = AckMsg{4, Value::of_string("v")}.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_message(wire));
  }
}
BENCHMARK(BM_ParseAck);

void BM_EncodeBatch(benchmark::State& state) {
  std::vector<smr::Command> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(smr::Command::put("key" + std::to_string(i),
                                      "value" + std::to_string(i), 1,
                                      static_cast<std::uint64_t>(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(smr::encode_batch(batch));
  }
}
BENCHMARK(BM_EncodeBatch);

void BM_DecodeBatch(benchmark::State& state) {
  // Exercises the nested zero-copy decode: batch -> per-command views.
  std::vector<smr::Command> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(smr::Command::put("key" + std::to_string(i),
                                      "value" + std::to_string(i), 1,
                                      static_cast<std::uint64_t>(i)));
  }
  Value wire = smr::encode_batch(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(smr::decode_batch(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DecodeBatch);

void BM_ValidateVoteRecord(benchmark::State& state) {
  auto keys = bench_keys();
  auto cfg = QuorumConfig::create(7, 2, 1);
  crypto::Verifier verifier(keys);
  LeaderFn leader = round_robin_leader(7);
  Value x = Value::of_string("X");
  VoteRecord r;
  r.voter = 1;
  ProgressCert cert;
  for (ProcessId p = 0; p < cfg.cert_quorum(); ++p) {
    cert.acks.push_back(SignatureEntry{
        p, crypto::Signer(keys, p).sign(kDomCertAck, certack_preimage(x, 3))});
  }
  r.vote = Vote::of(x, 3, cert,
                    crypto::Signer(keys, leader(3))
                        .sign(kDomPropose, propose_preimage(x, 3)));
  r.phi = crypto::Signer(keys, 1).sign(kDomVote, vote_preimage(r.vote, r.cc, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_vote_record(verifier, cfg, leader, r, 5));
  }
}
BENCHMARK(BM_ValidateVoteRecord);

void BM_FullConsensusSimulation(benchmark::State& state) {
  // Wall-clock cost of one complete simulated consensus instance
  // (n processes, no faults) — the substrate's events/sec grounding.
  const auto f = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t n = 5 * f - 1;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    runtime::ClusterOptions options;
    options.cfg = QuorumConfig::vanilla(n, f);
    options.net.delta = 100;
    options.net.min_delay = 100;
    options.net.seed = seed++;
    std::vector<Value> inputs(n, Value::of_string("in"));
    runtime::Cluster cluster(options, std::move(inputs));
    cluster.start();
    bool ok = cluster.run_until_all_correct_decided(10'000);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_FullConsensusSimulation)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace fastbft::consensus

BENCHMARK_MAIN();
