#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "consensus/messages.hpp"
#include "consensus/types.hpp"
#include "crypto/hmac.hpp"
#include "crypto/signer.hpp"
#include "crypto/verify_cache.hpp"
#include "net/sim_network.hpp"
#include "net/stats.hpp"
#include "sim/scheduler.hpp"
#include "smr/reply.hpp"
#include "smr/shard.hpp"
#include "smr/service.hpp"

/// Unit tests for the zero-copy hot path (PR 4): ByteView decoding,
/// streaming hashing, the signature-verification cache and the
/// shared-payload broadcast accounting — and the sharded-SMR (PR 6)
/// invariants layered on them: per-group broadcasts still allocate once,
/// and a node's group engines share one verification cache.

// --- Allocation counting ------------------------------------------------------
//
// This binary replaces the global operator new/delete so a test can count
// heap allocations across a code path. The array, nothrow and sized forms
// default to these two; aligned allocations are not counted.

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// Out of line, so that GCC does not inline free() into callers of new and
// flag the (deliberate) pairing as -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fastbft {
namespace {

std::uint64_t heap_allocations() {
  return g_news.load(std::memory_order_relaxed);
}

// --- ByteView / codec --------------------------------------------------------

TEST(ByteView, SubClampsToBounds) {
  Bytes data{1, 2, 3, 4, 5};
  ByteView v(data);
  EXPECT_EQ(v.sub(1, 3).size(), 3u);
  EXPECT_EQ(v.sub(1, 3)[0], 2);
  EXPECT_EQ(v.sub(4, 100).size(), 1u);
  EXPECT_EQ(v.sub(100, 1).size(), 0u);
  EXPECT_TRUE(v.sub(5, 0).empty());
}

TEST(ByteView, DecoderBytesViewAliasesInput) {
  Encoder enc;
  enc.bytes(Bytes{10, 11, 12});
  enc.u32(7);
  Bytes wire = std::move(enc).take();

  Decoder dec(wire);
  ByteView field = dec.bytes_view();
  ASSERT_EQ(field.size(), 3u);
  // Zero-copy: the view points INTO the wire buffer.
  EXPECT_GE(field.data(), wire.data());
  EXPECT_LT(field.data(), wire.data() + wire.size());
  EXPECT_EQ(dec.u32(), 7u);
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.at_end());
}

TEST(ByteView, NestedDecodeRoundtripWithoutCopies) {
  // envelope(bytes(inner)) where inner = bytes(payload) — the shape of
  // SMR_WRAPPED -> consensus message -> batch nesting.
  Bytes payload{0xde, 0xad, 0xbe, 0xef};
  Encoder inner;
  inner.bytes(payload);
  Encoder outer;
  outer.bytes(inner.view());
  Bytes wire = std::move(outer).take();

  Decoder outer_dec(wire);
  ByteView inner_view = outer_dec.bytes_view();
  ASSERT_TRUE(outer_dec.ok());
  Decoder inner_dec(inner_view);
  ByteView payload_view = inner_dec.bytes_view();
  ASSERT_TRUE(inner_dec.ok());
  EXPECT_EQ(payload_view.to_bytes(), payload);
  // Both levels alias the single wire buffer.
  EXPECT_GE(payload_view.data(), wire.data());
  EXPECT_LT(payload_view.data(), wire.data() + wire.size());
}

TEST(ByteView, TruncatedLengthPrefixFailsDecode) {
  Encoder enc;
  enc.bytes(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  Bytes wire = std::move(enc).take();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(len));
    Decoder dec(truncated);
    ByteView v = dec.bytes_view();
    EXPECT_FALSE(dec.ok()) << "len=" << len;
    EXPECT_TRUE(v.empty()) << "len=" << len;
  }
}

TEST(ByteView, OversizedLengthPrefixIsBoundsChecked) {
  Encoder enc;
  enc.u32(0xffffffffu);  // claims 4 GiB of payload
  enc.u8(0x01);
  Bytes wire = std::move(enc).take();
  Decoder dec(wire);
  EXPECT_TRUE(dec.bytes_view().empty());
  EXPECT_FALSE(dec.ok());
}

TEST(ByteView, SplitChunkViewsAliasOneBuffer) {
  Bytes data(100, 0x5a);
  auto views = split_chunk_views(ByteView(data), 33);
  ASSERT_EQ(views.size(), 4u);
  std::size_t total = 0;
  for (const auto& v : views) {
    total += v.size();
    EXPECT_GE(v.data(), data.data());
    EXPECT_LE(v.data() + v.size(), data.data() + data.size());
  }
  EXPECT_EQ(total, data.size());
  // Equivalent to the copying form.
  auto copies = split_chunks(data, 33);
  ASSERT_EQ(copies.size(), views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].to_bytes(), copies[i]);
  }
}

TEST(Encoder, ScratchRecyclesCapacityAndClears) {
  const std::uint8_t* first_data = nullptr;
  {
    Encoder enc = Encoder::scratch();
    enc.raw(Bytes(512, 0xaa));
    first_data = enc.data().data();
    ASSERT_NE(first_data, nullptr);
  }  // returns the 512-capacity buffer to the thread-local pool
  {
    Encoder enc = Encoder::scratch();
    EXPECT_EQ(enc.size(), 0u);  // cleared...
    enc.u8(1);
    // ...but backed by the pooled allocation (same block, no realloc).
    EXPECT_EQ(enc.data().data(), first_data);
  }
}

TEST(Encoder, ScratchTakeDetachesFromPool) {
  Encoder enc = Encoder::scratch();
  enc.str("keep me");
  Bytes owned = std::move(enc).take();
  EXPECT_EQ(owned.size(), 4u + 7u);
  // The capacity left with `owned`; destroying `enc` must not recycle it.
  Encoder again = Encoder::scratch();
  again.u8(1);
  EXPECT_NE(again.data().data(), owned.data());
}

// --- Streaming hashing -------------------------------------------------------

TEST(StreamingSha, PiecewiseUpdateMatchesOneShot) {
  Bytes data(300, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  crypto::Digest one_shot = crypto::sha256(data);
  for (std::size_t split : {0ul, 1ul, 63ul, 64ul, 65ul, 299ul, 300ul}) {
    crypto::Sha256 h;
    h.update(ByteView(data.data(), split));
    h.update(ByteView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finalize(), one_shot) << "split=" << split;
  }
}

TEST(StreamingSha, UpdateU32MatchesEncoderFraming) {
  Encoder enc;
  enc.u32(0xdeadbeefu);
  enc.str("tail");
  crypto::Sha256 streamed;
  streamed.update_u32(0xdeadbeefu);
  streamed.update_u32(4);  // str() length prefix
  const char* tail = "tail";
  streamed.update(reinterpret_cast<const std::uint8_t*>(tail), 4);
  EXPECT_EQ(streamed.finalize(), crypto::sha256(enc.view()));
}

TEST(StreamingHmac, PiecewiseMatchesOneShot) {
  Bytes key(32, 0x42);
  Bytes msg(200, 0x17);
  crypto::Digest one_shot = crypto::hmac_sha256(key, msg);
  crypto::HmacSha256 mac(key);
  mac.update(ByteView(msg.data(), 77));
  mac.update(ByteView(msg.data() + 77, msg.size() - 77));
  EXPECT_EQ(mac.finalize(), one_shot);

  // Long keys are hashed down per RFC 2104.
  Bytes long_key(100, 0x0f);
  EXPECT_EQ(crypto::hmac_sha256(long_key, msg),
            [&] {
              crypto::HmacSha256 m(long_key);
              m.update(msg);
              return m.finalize();
            }());
}

TEST(StreamingHmac, SignEqualsSignDigest) {
  auto keys = std::make_shared<const crypto::KeyStore>(7, 4);
  crypto::Signer signer(keys, 2);
  Bytes msg = to_bytes("a message body");
  crypto::Signature a = signer.sign("dom", msg);
  crypto::Signature b =
      signer.sign_digest("dom", crypto::message_digest(msg));
  EXPECT_EQ(a, b);
  crypto::Verifier verifier(keys);
  EXPECT_TRUE(verifier.verify(2, "dom", msg, a));
  EXPECT_TRUE(
      verifier.verify_digest(2, "dom", crypto::message_digest(msg), a));
  EXPECT_FALSE(verifier.verify(2, "other", msg, a));  // domain separation
  EXPECT_FALSE(verifier.verify(1, "dom", msg, a));    // wrong signer
}

// --- Verification cache ------------------------------------------------------

TEST(VerifyCache, HitMissAndNegativeCaching) {
  auto keys = std::make_shared<const crypto::KeyStore>(1, 4);
  auto cache = std::make_shared<crypto::VerificationCache>();
  crypto::Signer signer(keys, 0);
  crypto::Verifier verifier(keys, cache);

  Bytes msg = to_bytes("statement");
  crypto::Digest d = crypto::message_digest(msg);
  crypto::Signature sig = signer.sign("dom", msg);

  EXPECT_TRUE(verifier.verify_digest_memo(0, "dom", d, sig));
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->hits(), 0u);
  EXPECT_TRUE(verifier.verify_digest_memo(0, "dom", d, sig));
  EXPECT_EQ(cache->hits(), 1u);

  // Invalid verdicts are memoized too.
  crypto::Signature bad = sig;
  bad.bytes[0] ^= 0xff;
  EXPECT_FALSE(verifier.verify_digest_memo(0, "dom", d, bad));
  EXPECT_FALSE(verifier.verify_digest_memo(0, "dom", d, bad));
  EXPECT_EQ(cache->hits(), 2u);
  EXPECT_EQ(cache->misses(), 2u);
  EXPECT_EQ(cache->size(), 2u);
}

TEST(VerifyCache, LruEviction) {
  auto keys = std::make_shared<const crypto::KeyStore>(1, 4);
  auto cache = std::make_shared<crypto::VerificationCache>(2);
  crypto::Signer signer(keys, 0);
  crypto::Verifier verifier(keys, cache);

  auto entry = [&](std::uint8_t tag) {
    Bytes msg{tag};
    return std::make_pair(crypto::message_digest(msg),
                          signer.sign("dom", msg));
  };
  auto [d1, s1] = entry(1);
  auto [d2, s2] = entry(2);
  auto [d3, s3] = entry(3);

  verifier.verify_digest_memo(0, "dom", d1, s1);
  verifier.verify_digest_memo(0, "dom", d2, s2);
  verifier.verify_digest_memo(0, "dom", d1, s1);  // refresh 1 -> 2 is LRU
  verifier.verify_digest_memo(0, "dom", d3, s3);  // evicts 2
  EXPECT_EQ(cache->evictions(), 1u);
  EXPECT_EQ(cache->size(), 2u);

  std::uint64_t hits = cache->hits();
  verifier.verify_digest_memo(0, "dom", d1, s1);  // kept: hit
  EXPECT_EQ(cache->hits(), hits + 1);
  std::uint64_t misses = cache->misses();
  verifier.verify_digest_memo(0, "dom", d2, s2);  // gone: miss again
  EXPECT_EQ(cache->misses(), misses + 1);
}

TEST(VerifyCache, VerdictNeverOutlivesKeyChange) {
  // Two keystores (different master seeds) sharing one cache: a verdict
  // cached under the first key material must not be served under the
  // second — the keystore fingerprint is part of every cache key.
  auto keys_a = std::make_shared<const crypto::KeyStore>(11, 4);
  auto keys_b = std::make_shared<const crypto::KeyStore>(22, 4);
  ASSERT_NE(keys_a->fingerprint(), keys_b->fingerprint());
  auto cache = std::make_shared<crypto::VerificationCache>();

  Bytes msg = to_bytes("cross-keystore statement");
  crypto::Digest d = crypto::message_digest(msg);
  crypto::Signature sig = crypto::Signer(keys_a, 0).sign("dom", msg);

  crypto::Verifier va(keys_a, cache);
  EXPECT_TRUE(va.verify_digest_memo(0, "dom", d, sig));
  EXPECT_EQ(cache->size(), 1u);

  // Same signer id, digest and signature — different key material. The
  // cached TRUE verdict must not leak through; the signature is invalid
  // under keys_b and must verify as such.
  crypto::Verifier vb(keys_b, cache);
  std::uint64_t hits_before = cache->hits();
  EXPECT_FALSE(vb.verify_digest_memo(0, "dom", d, sig));
  EXPECT_EQ(cache->hits(), hits_before);  // no stale hit
}

TEST(VerifyCache, SharedAcrossCertificateVerifications) {
  // The engine wiring: one cache serves every cert check on a node, so a
  // commit certificate re-presenting already-verified signatures costs
  // table probes, not HMACs.
  using namespace consensus;
  auto cfg = QuorumConfig::create(4, 1, 1);
  auto keys = std::make_shared<const crypto::KeyStore>(3, 4);
  auto cache = std::make_shared<crypto::VerificationCache>();
  crypto::Verifier verifier(keys, cache);

  Value x = Value::of_string("decided-value");
  CommitCert cc;
  cc.x = x;
  cc.v = 2;
  for (ProcessId p = 0; p < cfg.commit_quorum(); ++p) {
    cc.sigs.push_back(SignatureEntry{
        p, crypto::Signer(keys, p).sign(kDomAck, ack_preimage(x, 2))});
  }
  ASSERT_TRUE(verify_commit_cert(verifier, cfg, cc));
  std::uint64_t misses = cache->misses();
  ASSERT_TRUE(verify_commit_cert(verifier, cfg, cc));  // all hits now
  EXPECT_EQ(cache->misses(), misses);
  EXPECT_GE(cache->hits(), cfg.commit_quorum());
}

// --- Shared-payload broadcast accounting -------------------------------------

TEST(PayloadStats, BroadcastAllocatesPayloadExactlyOnce) {
  sim::Scheduler sched;
  net::SimNetwork network(sched, 4, net::SimNetworkConfig{});
  std::vector<std::pair<ProcessId, Bytes>> delivered;
  for (ProcessId id = 0; id < 4; ++id) {
    network.attach(id, [&, id](ProcessId, const Bytes& payload) {
      delivered.emplace_back(id, payload);
    });
  }
  auto endpoint = network.endpoint(0);

  Bytes payload(1000, 0xcd);
  std::uint64_t allocs = net::PayloadStats::allocs();
  std::uint64_t alloc_bytes = net::PayloadStats::alloc_bytes();
  endpoint->broadcast(payload);

  // One m-byte materialization serves all n recipients.
  EXPECT_EQ(net::PayloadStats::allocs() - allocs, 1u);
  EXPECT_EQ(net::PayloadStats::alloc_bytes() - alloc_bytes, payload.size());
  // The logical traffic is still n messages of m bytes.
  EXPECT_EQ(network.stats().total_messages(), 4u);
  EXPECT_EQ(network.stats().total_bytes(), 4u * payload.size());

  sched.run_until(1'000);
  ASSERT_EQ(delivered.size(), 4u);
  for (const auto& [id, bytes] : delivered) EXPECT_EQ(bytes, payload);
}

TEST(PayloadStats, UnicastSendsAllocatePerSend) {
  sim::Scheduler sched;
  net::SimNetwork network(sched, 3, net::SimNetworkConfig{});
  for (ProcessId id = 0; id < 3; ++id) {
    network.attach(id, [](ProcessId, const Bytes&) {});
  }
  auto endpoint = network.endpoint(0);
  std::uint64_t allocs = net::PayloadStats::allocs();
  endpoint->send(1, Bytes(10, 0x01));
  endpoint->send(2, Bytes(10, 0x02));
  EXPECT_EQ(net::PayloadStats::allocs() - allocs, 2u);
}

TEST(PayloadStats, SteadyStateDeliveryAllocatesOnlyThePayload) {
  // send -> scheduler step -> receive handler: once the event heap, the
  // event slab and the in-flight envelope slab have grown, the only heap
  // allocation left is the sender's one shared payload buffer.
  sim::Scheduler sched;
  net::SimNetwork network(sched, 2, net::SimNetworkConfig{});
  std::size_t received = 0;
  for (ProcessId id = 0; id < 2; ++id) {
    network.attach(id, [&](ProcessId, const Bytes& payload) {
      received += payload.size();
    });
  }
  auto endpoint = network.endpoint(0);
  for (int i = 0; i < 4; ++i) {  // warm-up
    endpoint->send(1, Bytes(16, 0x01));
    ASSERT_TRUE(sched.step());
  }
  for (ProcessId to : {1u, 0u, 1u}) {  // a remote and a self delivery
    Bytes payload(16, 0xab);
    std::uint64_t news = heap_allocations();
    std::uint64_t payload_allocs = net::PayloadStats::allocs();
    std::size_t before = received;
    endpoint->send(to, std::move(payload));
    ASSERT_TRUE(sched.step());
    EXPECT_EQ(received - before, 16u);
    EXPECT_EQ(net::PayloadStats::allocs() - payload_allocs, 1u);
    EXPECT_EQ(heap_allocations() - news, 1u);
  }
}

// --- Heap-free slot path -----------------------------------------------------

TEST(HotPath, AckRepeatingTheHeldValueDecodesWithoutAllocating) {
  // A replica decodes against the value it holds; an ack repeating it
  // shares that buffer instead of copying the bytes out of the payload.
  Value held = Value::of_string("a batch-sized value, well past any SSO");
  consensus::AckMsg ack;
  ack.v = 3;
  ack.x = Value(held.bytes());  // byte-equal, separate buffer
  Bytes wire = ack.serialize();
  ASSERT_EQ(held.use_count(), 1);

  std::uint64_t news = heap_allocations();
  auto msg = consensus::parse_message(wire, &held);
  EXPECT_EQ(heap_allocations() - news, 0u);
  ASSERT_TRUE(msg.has_value());
  const auto& decoded = std::get<consensus::AckMsg>(*msg);
  EXPECT_EQ(decoded.x, held);
  EXPECT_EQ(held.use_count(), 2) << "the decoded ack shares the held buffer";

  // A different value still decodes, into a buffer of its own.
  Value other = Value::of_string("some other value of the same length!!!");
  auto miss = consensus::parse_message(wire, &other);
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(std::get<consensus::AckMsg>(*miss).x, held);
  EXPECT_EQ(other.use_count(), 1);
  EXPECT_EQ(std::get<consensus::AckMsg>(*miss).x.use_count(), 1);
}

TEST(HotPath, ReplyCodecKeepsTheScratchPool) {
  // Signing and checking a reply must hand its pooled scratch buffer back:
  // after warm-up an encode costs exactly its payload buffer, and a decode
  // of a short result allocates nothing.
  auto keys = std::make_shared<const crypto::KeyStore>(7, 4);
  crypto::Signer signer(keys, 2);
  crypto::Verifier verifier(keys);
  smr::Reply reply{9, 1, 40, smr::OpKind::Get, {true, true, "short"}};
  for (int i = 0; i < 4; ++i) {  // warm-up
    Bytes payload = smr::encode_reply_payload(reply, signer);
    ASSERT_TRUE(smr::decode_reply_payload(payload, 2, verifier));
  }
  constexpr int kRounds = 50;
  std::uint64_t encode_news = 0;
  std::uint64_t decode_news = 0;
  for (int i = 0; i < kRounds; ++i) {
    reply.sequence = static_cast<std::uint64_t>(i);
    std::uint64_t news = heap_allocations();
    Bytes payload = smr::encode_reply_payload(reply, signer);
    encode_news += heap_allocations() - news;
    news = heap_allocations();
    auto decoded = smr::decode_reply_payload(payload, 2, verifier);
    decode_news += heap_allocations() - news;
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, reply);
  }
  EXPECT_EQ(encode_news, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(decode_news, 0u);
}

TEST(HotPath, NoopSlotsStayWithinTheirAllocationBudget) {
  // Steady state of an idle 4-replica cluster with eager windows: every
  // slot decides a noop over the two-step fast path (one proposal
  // broadcast, n^2 acks). Heap allocations per replica per decided slot
  // stay within the measured 6.6 (a quarter of the five broadcasts' two
  // buffers each, the ack tally's node and vector, the decision's deferral
  // and the view timer's entry) plus a small margin.
  constexpr double kBudget = 7.5;
  smr::ServiceConfig config;
  config.sim_net.delta = 100;
  config.sim_net.min_delay = 100;
  config.smr.pipeline_depth = 8;
  auto service = smr::make_sim_service(config);
  service->start();
  auto applied = [&] {
    std::uint64_t slots = 0;
    for (ProcessId id = 0; id < config.cluster.n; ++id) {
      slots += service->replica(id).engine().slots_applied();
    }
    return slots;
  };
  // Warm-up: pools, slabs and heaps grown. 8000 slots per replica is 2000
  // Delta at depth 8; the measured stretch is as long.
  service->run_until([&] { return applied() >= 32'000; },
                     std::chrono::milliseconds(1000));
  std::uint64_t slots = applied();
  std::uint64_t news = heap_allocations();
  service->run_until([&] { return applied() >= slots + 32'000; },
                     std::chrono::milliseconds(1000));
  std::uint64_t decided = applied() - slots;
  ASSERT_GT(decided, 1000u);
  for (ProcessId id = 0; id < config.cluster.n; ++id) {
    const smr::SmrNode& node = service->replica(id);
    EXPECT_EQ(node.noop_slots(), node.engine().slots_applied());
  }
  double per_slot = static_cast<double>(heap_allocations() - news) /
                    static_cast<double>(decided);
  EXPECT_LE(per_slot, kBudget) << "heap allocations per replica-slot";
  RecordProperty("allocations_per_replica_slot", std::to_string(per_slot));
}

// --- Sharded SMR hot-path invariants -----------------------------------------

TEST(PayloadStats, FourGroupNodeAllocatesOncePerBroadcastSharesOneCache) {
  // A replica hosting 4 consensus groups must keep both PR 4 invariants:
  // every SMR_WRAPPED broadcast materializes its payload exactly once no
  // matter which group framed it, and all 4 engines probe ONE
  // per-node signature-verification cache.
  constexpr std::uint32_t kGroups = 4;
  constexpr std::uint64_t kPerGroup = 3;
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);

  // Keys chosen by their hash-assigned shard: kPerGroup commands land in
  // every group, so every group's engine broadcasts.
  std::vector<std::vector<std::string>> keys(kGroups);
  for (int i = 0; true; ++i) {
    std::string key = "key" + std::to_string(i);
    auto& bucket = keys[smr::shard_of(key, kGroups)];
    if (bucket.size() < kPerGroup) bucket.push_back(key);
    if (static_cast<std::uint64_t>(std::count_if(
            keys.begin(), keys.end(),
            [](const auto& b) { return b.size() == kPerGroup; })) == kGroups) {
      break;
    }
  }

  smr::ServiceConfig config;
  config.cluster = cfg;
  config.sim_net.delta = 100;
  config.sim_net.min_delay = 100;
  config.smr.max_batch = 2;
  config.smr.num_groups = kGroups;
  auto service = smr::make_sim_service(config);
  net::PayloadStats::reset();
  service->start();
  service->sim_network()->scheduler().schedule_at(0, [&] {
    std::uint64_t seq = 0;
    for (const auto& bucket : keys) {
      for (const auto& key : bucket) {
        service->replica(1).submit(smr::Command::put(key, "v", 1, ++seq));
      }
    }
  });
  service->await_applied(kGroups * kPerGroup, std::chrono::milliseconds(5000));

  std::uint64_t submitted = kGroups * kPerGroup;
  for (ProcessId id = 0; id < cfg.n; ++id) {
    EXPECT_EQ(service->replica(id).applied_commands(), submitted)
        << "p" << id;
  }

  // One VerificationCache per node, shared by all of its group engines.
  for (ProcessId id = 0; id < cfg.n; ++id) {
    const smr::SmrNode& node = service->replica(id);
    const auto& cache = node.engine(0).verify_cache();
    ASSERT_NE(cache, nullptr);
    for (GroupId g = 1; g < kGroups; ++g) {
      EXPECT_EQ(node.engine(g).verify_cache().get(), cache.get())
          << "p" << id << " group " << g << " has a private cache";
    }
  }

  // Every group broadcast, and each broadcast materialized its payload
  // exactly once. Unicasts are 1 alloc : 1 message; a broadcast is 1
  // alloc : fanout messages (fanout is n with self, n - 1 without), and
  // client submits broadcast the request the same way. So the alloc
  // savings `messages - allocs` must sit exactly in the band the B
  // one-alloc broadcasts predict — any per-recipient payload copy
  // anywhere drops it below the floor.
  std::uint64_t group_bcasts = 0;
  for (GroupId g = 0; g < kGroups; ++g) {
    std::uint64_t b = net::PayloadStats::group_broadcasts(g);
    EXPECT_GE(b, 1u) << "group " << g << " never broadcast";
    group_bcasts += b;
  }
  std::uint64_t broadcasts = group_bcasts + submitted;  // + request bcasts
  std::uint64_t messages = service->sim_network()->stats().total_messages();
  std::uint64_t allocs = net::PayloadStats::allocs();
  ASSERT_GE(messages, allocs);
  EXPECT_GE(messages - allocs, broadcasts * (cfg.n - 2))
      << "some broadcast copied its payload per recipient";
  EXPECT_LE(messages - allocs, broadcasts * (cfg.n - 1));
}

}  // namespace
}  // namespace fastbft
