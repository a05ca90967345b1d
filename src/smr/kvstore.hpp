#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "smr/command.hpp"

/// \file kvstore.hpp
/// Deterministic key-value state machine replicated by the SMR layer.
/// Identical command sequences produce identical `state_digest()`s, which
/// the tests use to check replica convergence.
///
/// Values live in immutable shared buffers: a write installs a new buffer
/// and never touches the old one. That makes `freeze()` a by-reference
/// snapshot — it copies keys and pointers, not values — and lets a frozen
/// image be serialized long after the live store has moved on.

namespace fastbft::smr {

/// The outcome of executing one command at its log position — what a
/// replica reports back to the client in its REPLY (smr/reply.hpp). A
/// deterministic function of (state, command), so every correct replica
/// produces the identical result for the same slot.
struct ExecResult {
  /// Put/Del/Get/Noop: always true. Cas: the key held `expected` and
  /// `value` was installed.
  bool ok = true;
  /// Get/Del/Cas: the key existed before execution.
  bool found = false;
  /// Get: the value read (empty when !found).
  std::string value;

  friend bool operator==(const ExecResult&, const ExecResult&) = default;
};

class KvStore {
  using ValuePtr = std::shared_ptr<const std::string>;

 public:
  /// The state at one instant, holding the value buffers by reference.
  /// Later writes to the store replace its pointers and leave the frozen
  /// buffers alone, so serialize() returns exactly the bytes the store's
  /// serialize() returned when the image was taken.
  class Frozen {
   public:
    Bytes serialize() const;

   private:
    friend class KvStore;
    std::uint64_t applied_ = 0;
    std::vector<std::pair<std::string, ValuePtr>> entries_;  // sorted by key
  };

  /// Applies one decided command and returns its execution result.
  ExecResult apply(const Command& cmd);

  std::optional<std::string> get(const std::string& key) const;
  std::size_t size() const { return data_.size(); }
  std::uint64_t applied_count() const { return applied_; }

  /// SHA-256 over the sorted (key, value) pairs plus the applied-command
  /// count: equal digests mean equal replica states.
  crypto::Digest state_digest() const;

  /// Canonical serialization of the full state (applied count + sorted
  /// pairs). Two stores with equal state_digest() serialize identically,
  /// which is what makes snapshots comparable across replicas.
  Bytes serialize() const;

  /// Replaces the entire state with a serialize() image. Returns false and
  /// leaves the store untouched on malformed input.
  bool restore(const Bytes& image);

  /// A by-reference image of the current state; see Frozen.
  Frozen freeze() const;

 private:
  std::map<std::string, ValuePtr> data_;
  std::uint64_t applied_ = 0;
};

}  // namespace fastbft::smr
