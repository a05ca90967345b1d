#include "common/value.hpp"

#include <algorithm>
#include <cctype>

namespace fastbft {

const std::shared_ptr<const Bytes>& Value::empty_buffer() {
  static const std::shared_ptr<const Bytes> empty =
      std::make_shared<const Bytes>();
  return empty;
}

Value Value::of_u64(std::uint64_t v) {
  Encoder enc;
  enc.u64(v);
  return Value(std::move(enc).take());
}

std::string Value::to_string() const {
  const Bytes& b = bytes();
  bool printable = !b.empty();
  for (std::uint8_t c : b) {
    if (!std::isprint(c)) {
      printable = false;
      break;
    }
  }
  if (printable) return std::string(b.begin(), b.end());
  return "0x" + to_hex_prefix(b, 8);
}

std::optional<Value> Value::decode(Decoder& dec, const Value* known) {
  ByteView b = dec.bytes_view();
  if (!dec.ok()) return std::nullopt;
  if (known != nullptr && known->size() == b.size() &&
      std::equal(b.begin(), b.end(), known->bytes().begin())) {
    return *known;
  }
  return Value(b.to_bytes());
}

}  // namespace fastbft
