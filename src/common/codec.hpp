#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

/// \file codec.hpp
/// Minimal deterministic binary codec. All protocol messages, signing
/// preimages and certificates are serialized through Encoder/Decoder so that
/// (a) byte sizes reported by the benchmarks are honest and (b) signatures
/// cover a canonical encoding.
///
/// Wire format: fixed-width little-endian integers; byte strings and lists
/// are length-prefixed with u32. There is no versioning — the codec is
/// internal to the library.
///
/// Hot-path notes: the Decoder reads over a non-owning ByteView, and
/// `bytes_view()` returns length-prefixed fields without copying, so nested
/// decodes (envelope -> wrapped SMR message -> command batch) alias one
/// buffer. The Encoder supports `reserve()` and a thread-local scratch pool
/// (`Encoder::scratch()`) for short-lived encodes — signing preimages,
/// digest computations — whose buffer capacity is recycled instead of
/// reallocated per call.

namespace fastbft {

class Encoder {
 public:
  Encoder() = default;

  /// Preallocates the backing buffer (on top of whatever capacity a pooled
  /// buffer already carries).
  explicit Encoder(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  /// An encoder backed by a thread-local pooled buffer: the buffer's
  /// capacity returns to the pool on destruction unless `take()`n. Use for
  /// scratch encodes that are hashed/measured and dropped.
  static Encoder scratch();

  ~Encoder();

  Encoder(Encoder&& other) noexcept
      : buf_(std::move(other.buf_)), pooled_(other.pooled_) {
    other.pooled_ = false;
  }
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;
  Encoder& operator=(Encoder&&) = delete;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed byte string.
  void bytes(ByteView b);
  void bytes(const Bytes& b) { bytes(ByteView(b)); }

  /// Length-prefixed UTF-8 string.
  void str(std::string_view s);

  /// Raw append without a length prefix (used for domain-separation tags).
  void raw(ByteView b);
  void raw(const Bytes& b) { raw(ByteView(b)); }

  /// Opens a length-prefixed field whose contents the caller writes next;
  /// end_field(start) then fills in the length. The result is the same
  /// bytes as bytes(contents), without encoding the contents elsewhere
  /// first.
  std::size_t begin_field() {
    u32(0);
    return buf_.size();
  }
  void end_field(std::size_t start) {
    auto len = static_cast<std::uint32_t>(buf_.size() - start);
    std::uint8_t* out = buf_.data() + start - 4;
    for (int i = 0; i < 4; ++i) {
      out[i] = static_cast<std::uint8_t>(len >> (8 * i));
    }
  }

  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  /// Drops the contents but keeps the capacity — lets one (scratch)
  /// encoder be reused across loop iterations without reallocating.
  void clear() { buf_.clear(); }

  const Bytes& data() const& { return buf_; }
  ByteView view() const { return ByteView(buf_); }
  Bytes take() && {
    pooled_ = false;  // the capacity leaves with the caller
    return std::move(buf_);
  }
  std::size_t size() const { return buf_.size(); }

 private:
  struct ScratchTag {};
  explicit Encoder(ScratchTag);

  Bytes buf_;
  bool pooled_ = false;
};

/// Pull-based decoder over a non-owning view. Every accessor checks bounds;
/// after the first failure `ok()` turns false and all further reads return
/// zero values. Callers must check `ok()` (and typically `at_end()`) after
/// decoding, and must keep the viewed buffer alive for the decoder's
/// lifetime (plus the lifetime of any `bytes_view()` result).
class Decoder {
 public:
  explicit Decoder(ByteView data) : data_(data) {}

  /// The decoder only borrows its input; binding it to a temporary would
  /// leave the view dangling after the full expression. Callers must keep
  /// the buffer alive for the decoder's lifetime. (Viewing a temporary is
  /// legal in a single call expression — hash it, compare it — so
  /// ByteView itself accepts temporaries; it is RETAINING consumers like
  /// this one that must delete their rvalue overloads.)
  explicit Decoder(Bytes&&) = delete;

  // Integer reads are inline: every message decode makes dozens of them.
  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  bool boolean() { return u8() != 0; }

  /// Length-prefixed byte string, zero-copy: the view aliases the decoder's
  /// input buffer.
  ByteView bytes_view();

  /// Length-prefixed byte string, copied out (for fields that are stored).
  Bytes bytes() { return bytes_view().to_bytes(); }

  std::string str();

  bool ok() const { return ok_; }
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// Marks the decode as failed; used by message parsers when a semantic
  /// check (e.g. enum range) fails.
  void fail() { ok_ = false; }

 private:
  bool ensure(std::size_t count) {
    if (ok_ && data_.size() - pos_ >= count) return true;
    ok_ = false;
    return false;
  }

  /// Fixed-width little-endian read.
  template <typename T>
  T read_le() {
    if (!ensure(sizeof(T))) return 0;
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + pos_, sizeof(T));
    } else {
      for (std::size_t i = sizeof(T); i-- > 0;) {
        v = static_cast<T>((v << 8) | data_[pos_ + i]);
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  ByteView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Convenience: encode a single object that provides
/// `void encode(Encoder&) const`. Encodes into a pooled scratch buffer and
/// copies out once: one exact-size allocation instead of a growth chain.
template <typename T>
Bytes encode_to_bytes(const T& value) {
  Encoder enc = Encoder::scratch();
  value.encode(enc);
  return enc.view().to_bytes();
}

/// Convenience: decode an object with a static
/// `static std::optional<T> decode(Decoder&)`, requiring full consumption.
/// Accepts any live buffer via ByteView (Bytes converts implicitly).
template <typename T>
std::optional<T> decode_from_bytes(ByteView data) {
  Decoder dec(data);
  auto v = T::decode(dec);
  if (!v.has_value() || !dec.ok() || !dec.at_end()) return std::nullopt;
  return v;
}

/// Deleted: see Decoder(Bytes&&). Passing a temporary buffer is safe for
/// the duration of this call, but deleting it keeps call sites uniform and
/// makes the borrow rule impossible to get wrong when refactoring.
template <typename T>
std::optional<T> decode_from_bytes(Bytes&&) = delete;

}  // namespace fastbft
