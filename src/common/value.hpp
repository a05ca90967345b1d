#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/codec.hpp"

/// \file value.hpp
/// The opaque value processes agree on. Consensus never inspects the
/// contents; equality and a canonical encoding are all the protocol needs.
/// The SMR layer stores serialized command batches in here.
///
/// Values are refcount-shared: the byte buffer is materialized once (at
/// parse or construction) and every subsequent copy — into the engine's
/// reorder buffer, the catch-up policy's decided-value retention, claim
/// sets, decision records — aliases it instead of duplicating a whole
/// command batch per hop. Buffers are immutable, so sharing is safe across
/// all single-threaded consumers of one node; Values never cross node
/// boundaries except through the (also refcounted) network payloads.
/// Decoding can reuse a held buffer too (see decode's `known`).

namespace fastbft {

class Value {
 public:
  Value() : buf_(empty_buffer()) {}
  explicit Value(Bytes bytes)
      : buf_(bytes.empty()
                 ? empty_buffer()
                 : std::make_shared<const Bytes>(std::move(bytes))) {}

  static Value of_string(std::string_view s) { return Value(to_bytes(s)); }
  static Value of_u64(std::uint64_t v);

  const Bytes& bytes() const { return *buf_; }
  bool empty() const { return buf_->empty(); }
  std::size_t size() const { return buf_->size(); }

  /// Human-readable rendering for logs: printable ASCII shown verbatim,
  /// otherwise hex prefix.
  std::string to_string() const;

  void encode(Encoder& enc) const { enc.bytes(*buf_); }

  /// Decodes a length-prefixed value. With `known` — a value the caller
  /// already holds — an encoding byte-equal to it yields a Value sharing
  /// `known`'s buffer, and the decode allocates nothing: a replica's acks
  /// repeat the proposal it accepted, so they decode against its vote.
  static std::optional<Value> decode(Decoder& dec,
                                     const Value* known = nullptr);

  friend bool operator==(const Value& a, const Value& b) {
    return a.buf_ == b.buf_ || *a.buf_ == *b.buf_;
  }
  friend std::strong_ordering operator<=>(const Value& a, const Value& b) {
    if (a.buf_ == b.buf_) return std::strong_ordering::equal;
    return *a.buf_ <=> *b.buf_;
  }

  /// Buffer owners (diagnostics/tests): how many Values share this buffer.
  long use_count() const { return buf_.use_count(); }

 private:
  static const std::shared_ptr<const Bytes>& empty_buffer();

  /// Never null (empty values point at the shared empty buffer).
  std::shared_ptr<const Bytes> buf_;
};

}  // namespace fastbft
