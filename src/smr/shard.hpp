#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.hpp"

/// \file shard.hpp
/// Deterministic key → consensus-group shard map for the sharded SMR layer.
///
/// Every replica and every client computes the owning group of a command
/// locally from the command's key — the shard map is pure code, never
/// negotiated or carried on the wire for requests. SMR_REQUEST / SMR_REPLY
/// therefore keep their PR-5 format; only the group-scoped replication
/// traffic (SMR_WRAPPED, SMR_DECIDED, SNAPSHOT_*) carries an explicit
/// GroupId (see docs/SHARDING.md).

namespace fastbft::smr {

/// 64-bit FNV-1a over the key bytes. Chosen over std::hash because its
/// output must be identical across every process (clients and replicas
/// route by it) and across standard-library implementations.
std::uint64_t shard_hash(std::string_view key);

/// Owning group of `key` in a node hosting `num_shards` groups.
/// num_shards == 0 is treated as 1 so a default-constructed config can
/// never divide by zero.
GroupId shard_of(std::string_view key, std::uint32_t num_shards);

}  // namespace fastbft::smr
