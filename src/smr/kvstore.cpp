#include "smr/kvstore.hpp"

namespace fastbft::smr {

namespace {

/// Emits the canonical state encoding — applied count, pair count, then
/// each (key, value) as length-prefixed strings in key order — into any
/// sink with Encoder's u64/str. serialize(), Frozen::serialize() and
/// state_digest() all go through here, so they cannot drift apart.
template <typename Sink, typename Entries>
void emit_state(Sink& sink, std::uint64_t applied, const Entries& entries) {
  sink.u64(applied);
  sink.u64(entries.size());
  for (const auto& [key, value] : entries) {
    sink.str(key);
    sink.str(*value);
  }
}

template <typename Entries>
Bytes encode_state(std::uint64_t applied, const Entries& entries) {
  std::size_t size = 16;
  for (const auto& [key, value] : entries) size += 8 + key.size() + value->size();
  Encoder enc(size);
  emit_state(enc, applied, entries);
  return std::move(enc).take();
}

/// Feeds the canonical encoding straight into SHA-256.
struct HashSink {
  crypto::Sha256 hash;

  void u64(std::uint64_t v) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    hash.update(le, sizeof le);
  }
  void str(std::string_view s) {
    hash.update_u32(static_cast<std::uint32_t>(s.size()));
    hash.update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
};

}  // namespace

ExecResult KvStore::apply(const Command& cmd) { return apply(cmd, cmd.value); }

ExecResult KvStore::apply(const Command& cmd, std::string value) {
  ExecResult result;
  auto it = data_.find(cmd.key);
  result.found = it != data_.end();
  switch (cmd.kind) {
    case OpKind::Put:
      data_[cmd.key] = std::make_shared<const std::string>(std::move(value));
      break;
    case OpKind::Del:
      if (result.found) data_.erase(it);
      break;
    case OpKind::Noop:
      result.found = false;
      break;
    case OpKind::Get:
      if (result.found) result.value = *it->second;
      break;
    case OpKind::Cas:
      // Succeeds only when the key exists and holds exactly `expected`;
      // a failed CAS leaves the store untouched (but still consumes its
      // log position — the result is what tells the client).
      result.ok = result.found && *it->second == cmd.expected;
      if (result.ok) {
        it->second = std::make_shared<const std::string>(std::move(value));
      }
      break;
  }
  ++applied_;
  return result;
}

std::optional<std::string> KvStore::get(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return *it->second;
}

crypto::Digest KvStore::state_digest() const {
  HashSink sink;
  emit_state(sink, applied_, data_);
  return sink.hash.finalize();
}

Bytes KvStore::serialize() const { return encode_state(applied_, data_); }

Bytes KvStore::Frozen::serialize() const {
  return encode_state(applied_, entries_);
}

KvStore::Frozen KvStore::freeze() const {
  Frozen image;
  image.applied_ = applied_;
  // One walk over the tree (assign() would walk it twice: once to count).
  image.entries_.reserve(data_.size());
  for (const auto& [key, value] : data_) image.entries_.emplace_back(key, value);
  return image;
}

bool KvStore::restore(const Bytes& image) {
  Decoder dec(image);
  std::uint64_t applied = dec.u64();
  std::uint64_t count = dec.u64();
  if (!dec.ok()) return false;
  std::map<std::string, ValuePtr> data;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = dec.str();
    std::string value = dec.str();
    if (!dec.ok()) return false;
    data.emplace(std::move(key),
                 std::make_shared<const std::string>(std::move(value)));
  }
  if (!dec.at_end() || data.size() != count) return false;
  data_ = std::move(data);
  applied_ = applied;
  return true;
}

}  // namespace fastbft::smr
