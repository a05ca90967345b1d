#pragma once

#include <cstdint>

/// \file tags.hpp
/// Central registry of wire-message type tags (first payload byte). Keeping
/// all protocols' tags in one table guarantees uniqueness and lets the
/// traffic statistics name every message kind.

namespace fastbft::net::tags {

// Core fast-BFT protocol (src/consensus).
inline constexpr std::uint8_t kPropose = 0x01;
inline constexpr std::uint8_t kAck = 0x02;
inline constexpr std::uint8_t kAckSig = 0x03;   // slow path: signed ack
inline constexpr std::uint8_t kCommit = 0x04;   // slow path: commit certificate
inline constexpr std::uint8_t kVote = 0x05;     // view change: vote
inline constexpr std::uint8_t kCertReq = 0x06;  // view change: certification request
inline constexpr std::uint8_t kCertAck = 0x07;  // view change: certification ack

// View synchronizer (src/viewsync).
inline constexpr std::uint8_t kWish = 0x10;

// PBFT baseline (src/pbft).
inline constexpr std::uint8_t kPbftPrePrepare = 0x20;
inline constexpr std::uint8_t kPbftPrepare = 0x21;
inline constexpr std::uint8_t kPbftCommit = 0x22;
inline constexpr std::uint8_t kPbftViewChange = 0x23;
inline constexpr std::uint8_t kPbftNewView = 0x24;

// FaB Paxos baseline (src/fab).
inline constexpr std::uint8_t kFabPropose = 0x30;
inline constexpr std::uint8_t kFabAccept = 0x31;
inline constexpr std::uint8_t kFabRecoveryVote = 0x32;

// SMR layer (src/smr).
inline constexpr std::uint8_t kSmrRequest = 0x40;
// The five group-scoped tags (0x41-0x44 and 0x46) all carry a u32 GroupId
// right after the tag byte, so a sharded node can route them to the owning
// consensus group at a fixed offset (see docs/SHARDING.md).
inline constexpr std::uint8_t kSmrWrapped = 0x41;  // slot-scoped consensus payload
inline constexpr std::uint8_t kSmrDecided = 0x42;  // state transfer for laggards
inline constexpr std::uint8_t kSmrSnapRequest = 0x43;   // full-state transfer: ask
inline constexpr std::uint8_t kSmrSnapResponse = 0x44;  // full-state transfer: chunk
inline constexpr std::uint8_t kSmrReply = 0x45;  // signed execution result -> client
inline constexpr std::uint8_t kSmrDecidedPull = 0x46;  // laggard asks for a decided slot

}  // namespace fastbft::net::tags
