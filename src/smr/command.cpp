#include "smr/command.hpp"

namespace fastbft::smr {

void Command::encode(Encoder& enc) const {
  enc.u8(static_cast<std::uint8_t>(kind));
  enc.str(key);
  enc.str(value);
  enc.u64(client_id);
  enc.u64(sequence);
  enc.str(expected);
}

Value Command::to_value() const {
  Encoder enc(encoded_size());
  encode(enc);
  return Value(std::move(enc).take());
}

std::optional<Command> Command::from_wire(ByteView data) {
  Decoder dec(data);
  Command cmd;
  std::uint8_t kind = dec.u8();
  if (kind < 1 || kind > 5) return std::nullopt;
  cmd.kind = static_cast<OpKind>(kind);
  cmd.key = dec.str();
  cmd.value = dec.str();
  cmd.client_id = dec.u64();
  cmd.sequence = dec.u64();
  cmd.expected = dec.str();
  if (!dec.ok() || !dec.at_end()) return std::nullopt;
  return cmd;
}

std::optional<Command> Command::from_value(const Value& value) {
  return from_wire(ByteView(value.bytes()));
}

std::string Command::to_string() const {
  switch (kind) {
    case OpKind::Put: return "PUT " + key + "=" + value;
    case OpKind::Del: return "DEL " + key;
    case OpKind::Noop: return "NOOP";
    case OpKind::Get: return "GET " + key;
    case OpKind::Cas: return "CAS " + key + ": " + expected + "->" + value;
  }
  return "?";
}

}  // namespace fastbft::smr
