#include "smr/batch.hpp"

#include "common/assert.hpp"

namespace fastbft::smr {

namespace {

const Command& deref(const Command& cmd) { return cmd; }
const Command& deref(const Command* cmd) { return *cmd; }

/// Encodes every command straight into one buffer sized up front.
template <typename Commands>
Value encode_commands(const Commands& commands, ProcessId author) {
  FASTBFT_ASSERT(!commands.empty(), "batches must be non-empty");
  std::size_t size = 8;
  for (const auto& cmd : commands) size += 4 + deref(cmd).encoded_size();
  Encoder enc(size);
  enc.u32(author);
  enc.u32(static_cast<std::uint32_t>(commands.size()));
  for (const auto& cmd : commands) {
    std::size_t start = enc.begin_field();
    deref(cmd).encode(enc);
    enc.end_field(start);
  }
  return Value(std::move(enc).take());
}

}  // namespace

Value encode_batch(const std::vector<Command>& commands, ProcessId author) {
  return encode_commands(commands, author);
}

Value encode_batch(const std::vector<const Command*>& commands,
                   ProcessId author) {
  return encode_commands(commands, author);
}

std::optional<ProcessId> batch_author(const Value& value) {
  Decoder dec(value.bytes());
  ProcessId author = dec.u32();
  if (!dec.ok()) return std::nullopt;
  return author;
}

bool authored_by(const Value& value, ProcessId proposer) {
  return batch_author(value) == proposer;
}

std::optional<std::vector<Command>> decode_batch(const Value& value) {
  Decoder dec(value.bytes());
  dec.u32();  // author
  std::uint32_t count = dec.u32();
  if (!dec.ok() || count == 0 || count > 65536) return std::nullopt;
  std::vector<Command> commands;
  commands.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ByteView raw = dec.bytes_view();  // aliases the batch; no copy
    if (!dec.ok()) return std::nullopt;
    auto cmd = Command::from_wire(raw);
    if (!cmd) return std::nullopt;
    commands.push_back(std::move(*cmd));
  }
  if (!dec.at_end()) return std::nullopt;
  return commands;
}

}  // namespace fastbft::smr
