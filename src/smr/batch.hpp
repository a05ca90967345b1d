#pragma once

#include <vector>

#include "smr/command.hpp"

/// \file batch.hpp
/// Batch encoding: one consensus slot decides on a batch of client
/// commands. Batching is the standard throughput lever; bench_smr sweeps
/// the batch size.

namespace fastbft::smr {

/// Encodes a non-empty batch into a consensus Value.
Value encode_batch(const std::vector<Command>& commands);
/// The same for commands held elsewhere (a pending queue's claims).
Value encode_batch(const std::vector<const Command*>& commands);

/// Decodes a batch; nullopt on malformed input.
std::optional<std::vector<Command>> decode_batch(const Value& value);

}  // namespace fastbft::smr
