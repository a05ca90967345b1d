#include <benchmark/benchmark.h>

#include "consensus/types.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

/// Experiment E9 (DESIGN.md §5): wall-clock microbenchmarks of the crypto
/// substrate — the per-message costs a deployment would pay.

namespace fastbft::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(64)->Arg(256)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x11);
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_Sign(benchmark::State& state) {
  auto keys = std::make_shared<const KeyStore>(1, 4);
  Signer signer(keys, 0);
  Bytes msg(128, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.sign("propose", msg));
  }
}
BENCHMARK(BM_Sign);

void BM_SignDigest(benchmark::State& state) {
  // What every ack, acksig and certack pays: a MAC over the short frame
  // domain ‖ 32-byte digest, the statement already hashed.
  auto keys = std::make_shared<const KeyStore>(1, 4);
  Signer signer(keys, 0);
  Digest digest = message_digest(Bytes(1024, 0x22));
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.sign_digest("ack", digest));
  }
}
BENCHMARK(BM_SignDigest);

void BM_Verify(benchmark::State& state) {
  auto keys = std::make_shared<const KeyStore>(1, 4);
  Signer signer(keys, 0);
  Verifier verifier(keys);
  Bytes msg(128, 0x22);
  Signature sig = signer.sign("propose", msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify(0, "propose", msg, sig));
  }
}
BENCHMARK(BM_Verify);

void BM_VerifyDigest(benchmark::State& state) {
  // The hot-path form: the message was hashed once and the digest is
  // shared across signers — each check is a short constant-size MAC.
  auto keys = std::make_shared<const KeyStore>(1, 4);
  Signer signer(keys, 0);
  Verifier verifier(keys);
  Bytes msg(1024, 0x22);
  Digest digest = message_digest(msg);
  Signature sig = signer.sign_digest("propose", digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verifier.verify_digest(0, "propose", digest, sig));
  }
}
BENCHMARK(BM_VerifyDigest);

void BM_VerifyDigestMemoHit(benchmark::State& state) {
  auto keys = std::make_shared<const KeyStore>(1, 4);
  Signer signer(keys, 0);
  Verifier verifier(keys, std::make_shared<VerificationCache>());
  Bytes msg(1024, 0x22);
  Digest digest = message_digest(msg);
  Signature sig = signer.sign_digest("propose", digest);
  verifier.verify_digest_memo(0, "propose", digest, sig);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verifier.verify_digest_memo(0, "propose", digest, sig));
  }
}
BENCHMARK(BM_VerifyDigestMemoHit);

void BM_VerifyProgressCert(benchmark::State& state) {
  // Certificate verification cost by f (f+1 signature checks).
  const auto f = static_cast<std::uint32_t>(state.range(0));
  auto cfg = consensus::QuorumConfig::create(
      consensus::QuorumConfig::min_processes(f, 1), f, 1);
  auto keys = std::make_shared<const KeyStore>(1, cfg.n);
  Verifier verifier(keys);
  Value x = Value::of_string("value");
  consensus::ProgressCert cert;
  for (ProcessId p = 0; p < cfg.cert_quorum(); ++p) {
    cert.acks.push_back(consensus::SignatureEntry{
        p, Signer(keys, p).sign(consensus::kDomCertAck,
                                consensus::certack_preimage(x, 5))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        consensus::verify_progress_cert(verifier, cfg, x, 5, cert));
  }
}
BENCHMARK(BM_VerifyProgressCert)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_VerifyCommitCert(benchmark::State& state) {
  const auto f = static_cast<std::uint32_t>(state.range(0));
  auto cfg = consensus::QuorumConfig::create(
      consensus::QuorumConfig::min_processes(f, f), f, f);
  auto keys = std::make_shared<const KeyStore>(1, cfg.n);
  Verifier verifier(keys);
  Value x = Value::of_string("value");
  consensus::CommitCert cc;
  cc.x = x;
  cc.v = 5;
  for (ProcessId p = 0; p < cfg.commit_quorum(); ++p) {
    cc.sigs.push_back(consensus::SignatureEntry{
        p, Signer(keys, p).sign(consensus::kDomAck,
                                consensus::ack_preimage(x, 5))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(consensus::verify_commit_cert(verifier, cfg, cc));
  }
}
BENCHMARK(BM_VerifyCommitCert)->Arg(1)->Arg(2)->Arg(4);

void BM_VerifyCommitCertMemoHit(benchmark::State& state) {
  // Steady-state cost of re-verifying a certificate whose signatures were
  // all seen before (the engine wiring: one cache per node).
  const auto f = static_cast<std::uint32_t>(state.range(0));
  auto cfg = consensus::QuorumConfig::create(
      consensus::QuorumConfig::min_processes(f, f), f, f);
  auto keys = std::make_shared<const KeyStore>(1, cfg.n);
  Verifier verifier(keys, std::make_shared<VerificationCache>());
  Value x = Value::of_string("value");
  consensus::CommitCert cc;
  cc.x = x;
  cc.v = 5;
  for (ProcessId p = 0; p < cfg.commit_quorum(); ++p) {
    cc.sigs.push_back(consensus::SignatureEntry{
        p, Signer(keys, p).sign(consensus::kDomAck,
                                consensus::ack_preimage(x, 5))});
  }
  consensus::verify_commit_cert(verifier, cfg, cc);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(consensus::verify_commit_cert(verifier, cfg, cc));
  }
}
BENCHMARK(BM_VerifyCommitCertMemoHit)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace fastbft::crypto

BENCHMARK_MAIN();
