#include "smr/snapshot.hpp"

namespace fastbft::smr {

Bytes Snapshot::encode() const {
  Encoder enc(8 + 8 + 4 + kv_state.size() + 4 + applied_ids.size() * 24 +
              4 + recent_authors.size() * 4);
  enc.u64(applied_below);
  enc.u64(applied_commands);
  enc.bytes(kv_state);
  enc.u32(static_cast<std::uint32_t>(applied_ids.size()));
  for (const auto& [id, slot] : applied_ids) {
    enc.u64(id.first);
    enc.u64(id.second);
    enc.u64(slot);
  }
  enc.u32(static_cast<std::uint32_t>(recent_authors.size()));
  for (ProcessId author : recent_authors) enc.u32(author);
  return std::move(enc).take();
}

std::optional<Snapshot> Snapshot::decode(const Bytes& data) {
  Decoder dec(data);
  Snapshot snap;
  snap.applied_below = dec.u64();
  snap.applied_commands = dec.u64();
  snap.kv_state = dec.bytes();
  std::uint32_t count = dec.u32();
  if (!dec.ok() || snap.applied_below == 0 || count > dec.remaining() / 24) {
    return std::nullopt;
  }
  snap.applied_ids.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t client = dec.u64();
    std::uint64_t sequence = dec.u64();
    Slot slot = dec.u64();
    if (!dec.ok()) return std::nullopt;
    snap.applied_ids.emplace_back(CommandId{client, sequence}, slot);
  }
  std::uint32_t authors = dec.u32();
  if (!dec.ok() || authors > dec.remaining() / 4) return std::nullopt;
  snap.recent_authors.reserve(authors);
  for (std::uint32_t i = 0; i < authors; ++i) {
    snap.recent_authors.push_back(dec.u32());
  }
  if (!dec.ok() || !dec.at_end()) return std::nullopt;
  return snap;
}

crypto::Digest Snapshot::digest() const { return crypto::sha256(encode()); }

}  // namespace fastbft::smr
