#pragma once

#include <optional>
#include <string>

#include "common/codec.hpp"
#include "common/value.hpp"

/// \file command.hpp
/// Commands replicated by the SMR layer. A command is what clients submit
/// and what each consensus slot decides on; the KV store interprets them.
///
/// Reads (`Get`) travel through the log like writes: a read is decided in
/// a slot and executed at its log position by every replica, which is what
/// makes the result linearizable (and lets f + 1 replicas vouch for it in
/// their REPLY messages — see smr/reply.hpp).

namespace fastbft::smr {

enum class OpKind : std::uint8_t {
  Put = 1,
  Del = 2,
  Noop = 3,
  Get = 4,
  Cas = 5,
};

struct Command {
  OpKind kind = OpKind::Noop;
  std::string key;
  std::string value;
  /// Client-assigned id for deduplication / reply matching.
  std::uint64_t client_id = 0;
  std::uint64_t sequence = 0;
  /// Cas only: the value the key must currently hold for `value` to be
  /// installed. (Kept last so the older positional initializers stay
  /// valid; encoded after `sequence` on the wire.)
  std::string expected;

  static Command put(std::string key, std::string value,
                     std::uint64_t client_id = 0, std::uint64_t sequence = 0) {
    return Command{OpKind::Put, std::move(key), std::move(value), client_id,
                   sequence,    {}};
  }
  static Command del(std::string key, std::uint64_t client_id = 0,
                     std::uint64_t sequence = 0) {
    return Command{OpKind::Del, std::move(key), {}, client_id, sequence, {}};
  }
  static Command get(std::string key, std::uint64_t client_id = 0,
                     std::uint64_t sequence = 0) {
    return Command{OpKind::Get, std::move(key), {}, client_id, sequence, {}};
  }
  static Command cas(std::string key, std::string expected, std::string value,
                     std::uint64_t client_id = 0, std::uint64_t sequence = 0) {
    return Command{OpKind::Cas,  std::move(key), std::move(value),
                   client_id,    sequence,       std::move(expected)};
  }
  static Command noop() { return Command{}; }

  /// Commands travel inside consensus Values.
  Value to_value() const;
  static std::optional<Command> from_value(const Value& value);

  /// In-place wire forms (same encoding as to_value/from_value, minus the
  /// Value temporaries): batch encode/decode stream commands through these.
  void encode(Encoder& enc) const;
  /// Bytes encode() writes.
  std::size_t encoded_size() const {
    return 1 + 4 + key.size() + 4 + value.size() + 16 + 4 + expected.size();
  }
  static std::optional<Command> from_wire(ByteView data);

  std::string to_string() const;

  friend bool operator==(const Command&, const Command&) = default;
};

}  // namespace fastbft::smr
