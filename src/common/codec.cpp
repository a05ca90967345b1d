#include "common/codec.hpp"

#include <vector>

namespace fastbft {

namespace {

/// Thread-local free list of scratch buffers. Buffers come back cleared but
/// with their capacity intact, so steady-state scratch encodes never touch
/// the allocator. Bounded so a one-off giant encode cannot pin memory.
constexpr std::size_t kMaxPooledBuffers = 8;
constexpr std::size_t kMaxPooledCapacity = 64 * 1024;

thread_local std::vector<Bytes> scratch_pool;

Bytes pool_acquire() {
  if (scratch_pool.empty()) return Bytes();
  Bytes buf = std::move(scratch_pool.back());
  scratch_pool.pop_back();
  buf.clear();
  return buf;
}

void pool_release(Bytes buf) {
  if (buf.capacity() == 0 || buf.capacity() > kMaxPooledCapacity) return;
  if (scratch_pool.size() >= kMaxPooledBuffers) return;
  scratch_pool.push_back(std::move(buf));
}

}  // namespace

Encoder::Encoder(ScratchTag) : buf_(pool_acquire()), pooled_(true) {}

Encoder Encoder::scratch() { return Encoder(ScratchTag{}); }

Encoder::~Encoder() {
  if (pooled_) pool_release(std::move(buf_));
}

void Encoder::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

// Fixed-width integers grow the buffer once, then store the bytes
// little-endian into the new tail.
void Encoder::u32(std::uint32_t v) {
  std::size_t at = buf_.size();
  buf_.resize(at + 4);
  std::uint8_t* out = buf_.data() + at;
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void Encoder::u64(std::uint64_t v) {
  std::size_t at = buf_.size();
  buf_.resize(at + 8);
  std::uint8_t* out = buf_.data() + at;
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void Encoder::bytes(ByteView b) {
  u32(static_cast<std::uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Encoder::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  // Through uint8_t pointers, so the insert is one memmove rather than a
  // per-byte char -> uint8_t conversion loop.
  const auto* first = reinterpret_cast<const std::uint8_t*>(s.data());
  buf_.insert(buf_.end(), first, first + s.size());
}

void Encoder::raw(ByteView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

ByteView Decoder::bytes_view() {
  std::uint32_t len = u32();
  if (!ensure(len)) return {};
  ByteView out = data_.sub(pos_, len);
  pos_ += len;
  return out;
}

std::string Decoder::str() {
  ByteView b = bytes_view();
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace fastbft
