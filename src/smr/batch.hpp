#pragma once

#include <vector>

#include "common/types.hpp"
#include "smr/command.hpp"

/// \file batch.hpp
/// Batch encoding: one consensus slot decides on a batch of client
/// commands. Batching is the standard throughput lever; bench_smr sweeps
/// the batch size. A batch opens with a u32 author header, the replica
/// that claimed its commands; the engine derives later slots' leaders
/// from the decided batches' authors (engine::LeaderTracker::view1_leader).

namespace fastbft::smr {

/// Encodes a non-empty batch built by `author` into a consensus Value.
Value encode_batch(const std::vector<Command>& commands, ProcessId author);
/// The same for commands held elsewhere (a pending queue's claims).
Value encode_batch(const std::vector<const Command*>& commands,
                   ProcessId author);

/// The author header of an encoded batch; nullopt if it is too short to
/// hold one. The commands after it are not checked.
std::optional<ProcessId> batch_author(const Value& value);

/// True iff `value`'s author header names `proposer`: the value check a
/// replica applies to a leader's own proposal
/// (consensus::ReplicaOptions::valid_value).
bool authored_by(const Value& value, ProcessId proposer);

/// Decodes a batch's commands (the author header is skipped); nullopt on
/// malformed input.
std::optional<std::vector<Command>> decode_batch(const Value& value);

}  // namespace fastbft::smr
