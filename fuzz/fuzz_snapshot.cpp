#include <cstdint>

#include "common/codec.hpp"
#include "engine/catchup.hpp"
#include "smr/snapshot.hpp"

/// \file fuzz_snapshot.cpp
/// Fuzzes the full-state-transfer receive path: smr::Snapshot::decode
/// over raw bytes, and CatchUpPolicy::add_snapshot_chunk reassembly
/// driven by an adversarial chunk stream.
///
/// The input is interpreted as a script of SNAPSHOT_RESPONSE fields
/// (sender, boundary, digest, index/count, chunk bytes) decoded with the
/// project codec, so the fuzzer controls exactly what a Byzantine peer
/// controls: inconsistent counts, out-of-range indices, digest
/// mismatches, duplicate and interleaved chunks from many senders.
///
/// Contract under test: reassembly never crashes, never trusts a body
/// whose hash mismatches the vouched digest, and anything
/// Snapshot::decode accepts re-encodes byte-identically (canonical
/// encoding round-trip) with no more dedup entries or leader-schedule
/// authors than the input has bytes for.

namespace {

using fastbft::Bytes;
using fastbft::ByteView;
using fastbft::Decoder;

void exercise_decode(ByteView payload) {
  auto snap = fastbft::smr::Snapshot::decode(payload.to_bytes());
  if (!snap) return;
  if (snap->applied_ids.size() * 24 + snap->recent_authors.size() * 4 >
      payload.size()) {
    __builtin_trap();
  }
  Bytes wire = snap->encode();
  auto again = fastbft::smr::Snapshot::decode(wire);
  if (!again || !(*again == *snap)) __builtin_trap();
}

void exercise_reassembly(ByteView payload) {
  // f+1 = 2 vouchers over a 4-replica cluster: the smallest real shape,
  // so the voucher-quorum logic is reachable within a few script steps.
  fastbft::engine::CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4,
                                        /*snapshot_chunk_bytes=*/64);
  Decoder dec(payload);
  // Bounded steps: each iteration consumes >= 1 byte via bytes_view, and
  // the loop exits when the script runs dry.
  for (int step = 0; step < 64 && dec.ok(); ++step) {
    fastbft::ProcessId from = dec.u8() % 4;
    fastbft::Slot applied_below = (dec.u8() % 16) + 1;
    // Full 32 bytes of the digest are script-controlled (zero-padded /
    // truncated), so seed inputs can carry a REAL sha256 and drive the
    // reassembly all the way through the verified-install path.
    fastbft::crypto::Digest digest{};
    Bytes digest_bytes = dec.bytes();
    for (std::size_t i = 0; i < digest.size() && i < digest_bytes.size(); ++i) {
      digest[i] = digest_bytes[i];
    }
    std::uint32_t index = dec.u8();
    std::uint32_t count = dec.u8();
    Bytes chunk = dec.bytes();
    fastbft::Slot next_apply = (dec.u8() % 16) + 1;
    if (!dec.ok()) break;
    auto verified = policy.add_snapshot_chunk(from, applied_below, digest,
                                              index, count, std::move(chunk),
                                              next_apply);
    if (verified) {
      // A verified snapshot's body must hash to the vouched digest —
      // that is the whole point of the digest check.
      if (fastbft::crypto::sha256(verified->body) != verified->digest) {
        __builtin_trap();
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ByteView payload(data, size);
  exercise_decode(payload);
  exercise_reassembly(payload);
  return 0;
}
