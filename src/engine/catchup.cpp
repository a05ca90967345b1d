#include "engine/catchup.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <string>

#include "common/codec.hpp"
#include "common/logging.hpp"
#include "net/tags.hpp"

namespace fastbft::engine {

namespace {

/// Byte budget for one transferred snapshot: the requester rejects chunk
/// geometries claiming more, bounding what a Byzantine flooder can pin;
/// the holder refuses (loudly) to serve a snapshot that exceeds it, so an
/// over-budget state surfaces as a logged config error instead of
/// responses every requester silently drops. Both sides derive their
/// chunk counts from the same cluster-uniform snapshot_chunk_bytes.
constexpr std::uint64_t kMaxSnapshotBytes = 64ull << 20;

}  // namespace

void CatchUpPolicy::record_decided(Slot slot, Value value) {
  decided_.emplace(slot, std::move(value));
  // The local decision supersedes any claim set.
  claims_.erase(slot);
  claim_senders_.erase(slot);
}

const Value* CatchUpPolicy::decided(Slot slot) const {
  return decided_.find(slot);
}

std::optional<Value> CatchUpPolicy::add_claim(Slot slot, ProcessId from,
                                              const Value& value) {
  // Slots below the floor are applied everywhere (our own watermark is
  // part of the minimum, so that includes us) or superseded by a snapshot:
  // claims for them can only be Byzantine flooding, and parking them would
  // re-grow exactly the state the floor freed.
  if (slot < floor_) return std::nullopt;
  if (decided_.contains(slot)) return std::nullopt;
  // One counted claim per (slot, sender): honest replicas reply at most
  // once per peer, so repeats are Byzantine; ignoring them bounds the
  // per-slot claim state by the cluster size.
  if (!claim_senders_[slot].insert(from).second) return std::nullopt;
  auto& claimants = claims_[slot][value.bytes()];
  claimants.insert(from);
  if (claimants.size() >= threshold_) return Value(value);
  return std::nullopt;
}

std::optional<Value> CatchUpPolicy::ready_claim(Slot slot) const {
  auto it = claims_.find(slot);
  if (it == claims_.end()) return std::nullopt;
  for (const auto& [value_bytes, claimants] : it->second) {
    if (claimants.size() >= threshold_) return Value(Bytes(value_bytes));
  }
  return std::nullopt;
}

bool CatchUpPolicy::note_watermark(ProcessId peer, Slot applied_below) {
  if (peer >= watermarks_.size()) return false;
  if (applied_below <= watermarks_[peer]) return false;  // stale gossip
  watermarks_[peer] = applied_below;

  watermark_scratch_.assign(watermarks_.begin(), watermarks_.end());
  if (threshold_ >= 1 && threshold_ <= watermark_scratch_.size()) {
    auto nth = watermark_scratch_.begin() + (threshold_ - 1);
    std::nth_element(watermark_scratch_.begin(), nth,
                     watermark_scratch_.end(), std::greater<>());
    quorum_applied_below_ = *nth;
  }
  // Everything strictly below the minimum is applied on every process (a
  // Byzantine peer over-reporting only removes itself from the minimum;
  // honest watermarks keep the floor safe).
  raise_floor(*std::min_element(watermarks_.begin(), watermarks_.end()));
  return true;
}

void CatchUpPolicy::raise_floor(Slot candidate) {
  if (candidate <= floor_) return;
  floor_ = candidate;

  // Prune retained values, any parked claim state and the per-peer reply
  // dedup entries strictly below the new floor.
  pruned_ += decided_.erase_below(floor_);
  claims_.erase(claims_.begin(), claims_.lower_bound(floor_));
  claim_senders_.erase(claim_senders_.begin(),
                       claim_senders_.lower_bound(floor_));
  reply_sent_.erase(reply_sent_.begin(),
                    reply_sent_.lower_bound({floor_, 0}));
}

std::optional<Bytes> CatchUpPolicy::reply_for(Slot slot, ProcessId to,
                                              View epoch) {
  const Value* value = decided(slot);
  if (!value) return std::nullopt;
  auto [it, inserted] = reply_sent_.try_emplace({slot, to}, epoch);
  if (!inserted) {
    if (epoch <= it->second) return std::nullopt;
    it->second = epoch;
  }
  Encoder enc;
  enc.u8(net::tags::kSmrDecided);
  enc.u32(group_);
  enc.u64(slot);
  value->encode(enc);
  return std::move(enc).take();
}

Bytes encode_decided_pull(GroupId group, Slot slot) {
  Encoder enc(1 + 4 + 8);
  enc.u8(net::tags::kSmrDecidedPull);
  enc.u32(group);
  enc.u64(slot);
  return std::move(enc).take();
}

std::optional<Slot> decode_decided_pull(ByteView payload, GroupId group) {
  Decoder dec(payload);
  std::uint8_t tag = dec.u8();
  GroupId their_group = dec.u32();
  Slot slot = dec.u64();
  if (!dec.ok() || !dec.at_end() || tag != net::tags::kSmrDecidedPull ||
      slot == 0 || their_group != group) {
    return std::nullopt;
  }
  return slot;
}

// --- Snapshots ---------------------------------------------------------------

void CatchUpPolicy::note_snapshot(Slot applied_below, Bytes body,
                                  const crypto::Digest& digest) {
  if (!adopt_snapshot(applied_below)) return;
  snap_body_ = std::move(body);
  snap_digest_ = digest;
  snap_build_ = nullptr;
}

void CatchUpPolicy::defer_snapshot(Slot applied_below,
                                   std::function<Bytes()> build) {
  if (!adopt_snapshot(applied_below)) return;
  snap_body_ = Bytes();  // frees the superseded body now
  snap_build_ = std::move(build);
}

bool CatchUpPolicy::adopt_snapshot(Slot applied_below) {
  // snap_below_ starts at 1 (no snapshot yet), so any real one is newer.
  if (applied_below <= snap_below_) return false;  // stale
  snap_below_ = applied_below;
  // Anything we were fetching at or below this coverage is now pointless.
  for (auto it = snap_fetch_.begin();
       it != snap_fetch_.end() && it->first.first <= snap_below_;) {
    it = snap_fetch_.erase(it);
  }
  // The snapshot supersedes per-slot retention below its coverage even
  // while a crashed peer's watermark is frozen lower: that is exactly the
  // retention unpinning this subsystem exists for.
  raise_floor(applied_below);
  return true;
}

void CatchUpPolicy::note_peer_snapshot_floor(ProcessId peer, Slot floor) {
  if (peer >= peer_snap_floors_.size()) return;
  peer_snap_floors_[peer] = std::max(peer_snap_floors_[peer], floor);
}

bool CatchUpPolicy::should_request_snapshot(ProcessId peer, Slot peer_floor,
                                            Slot next_apply) {
  if (peer_floor <= next_apply) return false;  // per-slot catch-up suffices
  auto [it, inserted] = snap_requested_.emplace(peer, peer_floor);
  if (!inserted) {
    if (it->second >= peer_floor) return false;  // already asked for this one
    it->second = peer_floor;
  }
  return true;
}

std::vector<Bytes> CatchUpPolicy::snapshot_chunks() {
  if (snap_build_) {
    snap_body_ = snap_build_();
    snap_digest_ = crypto::sha256(snap_body_);
    snap_build_ = nullptr;  // drops the frozen image
  }
  if (snap_body_.empty()) return {};
  if (snap_body_.size() > kMaxSnapshotBytes) {
    // Requesters reject anything over the transfer budget, so serving it
    // would only produce silently-dropped responses. Surface the config
    // error instead (state too large for snapshot_chunk_bytes transfers).
    log_error("catchup", [&] {
      return "snapshot at slot " + std::to_string(snap_below_) +
             " exceeds the transfer budget (" +
             std::to_string(snap_body_.size()) + " bytes); not served";
    });
    return {};
  }
  // Every well-formed request earns one full chunk sequence. Holder-side
  // dedup would be unsound: a requester that crashes mid-transfer loses
  // its reassembly buffers and must be able to ask the SAME holder for
  // the SAME snapshot again, or it could never recover while no newer
  // snapshot forms. Honest requesters self-dedup (should_request_snapshot
  // asks once per peer + floor per incarnation); a Byzantine spammer buys
  // one bounded transfer per request message and no holder-side memory.
  ++snapshots_served_;

  // Chunks are views over the one retained body: each response message is
  // encoded straight from its slice, so a served snapshot is copied exactly
  // once (into the wire messages) instead of once into a chunk vector and
  // again into each message.
  std::vector<ByteView> chunks =
      split_chunk_views(ByteView(snap_body_), chunk_bytes_);
  std::vector<Bytes> messages;
  messages.reserve(chunks.size());
  for (std::uint32_t index = 0; index < chunks.size(); ++index) {
    Encoder enc(1 + 4 + 8 + 4 + crypto::kDigestSize + 4 + 4 + 4 +
                chunks[index].size());
    enc.u8(net::tags::kSmrSnapResponse);
    enc.u32(group_);
    enc.u64(snap_below_);
    enc.bytes(ByteView(snap_digest_.data(), snap_digest_.size()));
    enc.u32(index);
    enc.u32(static_cast<std::uint32_t>(chunks.size()));
    enc.bytes(chunks[index]);
    messages.push_back(std::move(enc).take());
  }
  return messages;
}

std::optional<CatchUpPolicy::VerifiedSnapshot>
CatchUpPolicy::add_snapshot_chunk(ProcessId from, Slot applied_below,
                                  const crypto::Digest& digest,
                                  std::uint32_t index, std::uint32_t count,
                                  Bytes chunk, Slot next_apply) {
  if (applied_below <= next_apply) return std::nullopt;  // nothing to gain
  // Budget the claimed geometry with one chunk of ceil-rounding slack: an
  // honest holder of a body of up to kMaxSnapshotBytes produces
  // count = ceil(size / chunk_bytes), whose (count - 1) full chunks are
  // strictly within budget even when chunk_bytes does not divide it.
  if (count == 0 || index >= count ||
      static_cast<std::uint64_t>(count - 1) * chunk_bytes_ >=
          kMaxSnapshotBytes) {
    return std::nullopt;
  }
  // Oversized chunks would let a flooder pin far more than count x
  // chunk_bytes despite the count budget; honest holders never exceed the
  // (cluster-uniform) configured chunk size.
  if (chunk.size() > chunk_bytes_) return std::nullopt;

  // One in-flight reassembly per sender: a sender switching to a different
  // (applied_below, digest) abandons its previous one, so fetch memory is
  // bounded by cluster size x snapshot size no matter what Byzantine
  // senders announce.
  std::pair<Slot, crypto::Digest> key{applied_below, digest};
  for (auto it = snap_fetch_.begin(); it != snap_fetch_.end();) {
    if (it->first != key && it->second.erase(from) > 0 &&
        it->second.empty()) {
      it = snap_fetch_.erase(it);
    } else {
      ++it;
    }
  }

  SnapFetch& fetch = snap_fetch_[key][from];
  if (fetch.failed) return std::nullopt;  // already delivered a bad body
  if (fetch.chunks.empty()) {
    fetch.count = count;
  } else if (fetch.count != count) {
    return std::nullopt;  // sender contradicts itself: Byzantine, ignore
  }
  fetch.chunks[index] = std::move(chunk);

  // Install requires f + 1 distinct senders vouching for this
  // (applied_below, digest): at least one of them is correct, so the body
  // is a legitimate snapshot — the digest alone cannot prove that. (A
  // voucher that later delivers garbage still counts: a fake digest can
  // never attract an honest voucher, so f Byzantine announcers alone
  // stay below the threshold.)
  auto& senders = snap_fetch_[key];
  if (senders.size() < threshold_) return std::nullopt;

  for (auto& [sender, partial] : senders) {
    if (partial.failed || partial.chunks.size() != partial.count) continue;
    Bytes body;
    std::size_t total = 0;
    for (const auto& [i, piece] : partial.chunks) {
      (void)i;
      total += piece.size();
    }
    body.reserve(total);
    for (const auto& [i, piece] : partial.chunks) {
      (void)i;
      body.insert(body.end(), piece.begin(), piece.end());
    }
    std::optional<smr::Snapshot> snap;
    if (crypto::sha256(body) == digest) {
      snap = smr::Snapshot::decode(body);
      if (snap && snap->applied_below != applied_below) snap.reset();
    }
    if (!snap) {
      // Each complete body is hashed at most once: flag the sender and
      // free its chunks, or a flooder could make us re-hash its corrupt
      // body on every later chunk arrival.
      partial.failed = true;
      partial.chunks.clear();
      continue;
    }
    snap_fetch_.clear();
    snap_requested_.clear();
    return VerifiedSnapshot{std::move(*snap), std::move(body), digest};
  }
  return std::nullopt;
}

}  // namespace fastbft::engine
