#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

/// \file sha256.hpp
/// From-scratch SHA-256 (FIPS 180-4). Implemented locally because the build
/// environment is offline and the library must not depend on a system
/// OpenSSL. Verified against the NIST test vectors in tests/test_crypto.cpp.
///
/// Every hash funnels into one compression entry point that absorbs a run
/// of 64-byte blocks. On x86-64 CPUs with the SHA extensions it runs the
/// SHA-NI kernel; everywhere else it runs the portable compressor, which is
/// also the reference the kernel is tested against. The choice is made once
/// per process from CPUID.

namespace fastbft::crypto {

inline constexpr std::size_t kDigestSize = 32;
using Digest = std::array<std::uint8_t, kDigestSize>;

/// Incremental hasher; the usual init/update/final interface. The
/// streaming API is the zero-copy substrate: preimages are fed piecewise
/// (domain, lengths, message) instead of being concatenated into
/// temporaries first. Whole blocks are compressed straight from the
/// caller's buffer; only a partial block is staged. Copying a hasher
/// snapshots its state (HMAC key states rely on this).
class Sha256 {
 public:
  static constexpr std::size_t kBlockSize = 64;

  Sha256();

  void update(const std::uint8_t* data, std::size_t len);
  void update(ByteView data) { update(data.data(), data.size()); }

  /// Little-endian u32, framed exactly like Encoder::u32 — lets streaming
  /// preimage hashing reproduce the canonical length-prefixed encoding.
  void update_u32(std::uint32_t v);

  /// Finalizes and returns the digest. The object must not be reused
  /// afterwards without `reset()`.
  Digest finalize();

  void reset();

 private:
  std::array<std::uint32_t, 8> state_;
  std::uint64_t bit_len_ = 0;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
Digest sha256(ByteView data);

/// Digest as a Bytes buffer (handy for codec embedding).
Bytes sha256_bytes(ByteView data);

namespace detail {

/// A compression function: absorbs `blocks` consecutive 64-byte blocks
/// starting at `data` into the eight-word chaining `state`.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);

/// The portable compressor (the reference implementation).
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks);

/// The SHA-NI compressor when this CPU supports it, else nullptr. Exposed
/// so tests can check it against compress_portable directly.
CompressFn sha_ni_compressor();

}  // namespace detail

}  // namespace fastbft::crypto
