#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace fastbft::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

// SHA-NI kernel. The target attribute lets the intrinsics compile without
// raising the whole build's ISA baseline; the kernel only ever runs after
// the CPUID check in sha_ni_compressor(). The helpers carry the same
// attribute so they can inline into it.
#define FASTBFT_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/// Four rounds: message words `msg` plus round constants 4*quad..4*quad+3.
/// The state is held as (A,B,E,F) and (C,D,G,H), the layout
/// sha256rnds2 works on.
FASTBFT_SHA_NI_TARGET inline void sha_ni_rounds(__m128i& abef, __m128i& cdgh,
                                                __m128i msg, int quad) {
  const __m128i wk = _mm_add_epi32(
      msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
               &kRoundConstants[static_cast<std::size_t>(quad) * 4])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Message schedule: the next four words W[t..t+3] from the sixteen
/// before them (w0 = W[t-16..t-13], ..., w3 = W[t-4..t-1]).
FASTBFT_SHA_NI_TARGET inline __m128i sha_ni_schedule(__m128i w0, __m128i w1,
                                                     __m128i w2, __m128i w3) {
  __m128i next = _mm_sha256msg1_epu32(w0, w1);
  next = _mm_add_epi32(next, _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(next, w3);
}

FASTBFT_SHA_NI_TARGET void compress_sha_ni(std::uint32_t* state,
                                           const std::uint8_t* data,
                                           std::size_t blocks) {
  // Byte-swaps each 32-bit lane: message words are big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), kByteSwap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), kByteSwap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), kByteSwap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), kByteSwap);

    sha_ni_rounds(abef, cdgh, w0, 0);
    sha_ni_rounds(abef, cdgh, w1, 1);
    sha_ni_rounds(abef, cdgh, w2, 2);
    sha_ni_rounds(abef, cdgh, w3, 3);
    for (int quad = 4; quad < 16; quad += 4) {
      w0 = sha_ni_schedule(w0, w1, w2, w3);
      sha_ni_rounds(abef, cdgh, w0, quad);
      w1 = sha_ni_schedule(w1, w2, w3, w0);
      sha_ni_rounds(abef, cdgh, w1, quad + 1);
      w2 = sha_ni_schedule(w2, w3, w0, w1);
      sha_ni_rounds(abef, cdgh, w2, quad + 2);
      w3 = sha_ni_schedule(w3, w0, w1, w2);
      sha_ni_rounds(abef, cdgh, w3, quad + 3);
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef FASTBFT_SHA_NI_TARGET

/// CPUID leaf 7 EBX bit 29 (SHA) plus the SSSE3 (leaf 1 ECX bit 9) and
/// SSE4.1 (leaf 1 ECX bit 19) the kernel's shuffles need. Read directly
/// rather than via __builtin_cpu_supports, which older compilers reject
/// for "sha"; the bits are spelled out because cpuid.h's names for them
/// differ between compilers.
bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool sse = (ecx & (1u << 9)) != 0 && (ecx & (1u << 19)) != 0;
  if (!sse || __get_cpuid_max(0, nullptr) < 7) return false;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  return (ebx & (1u << 29)) != 0;
}

#endif  // __x86_64__

/// The compressor every hash uses. A function-local static, so it is
/// initialised on first use — also from static initialisers of other
/// translation units (e.g. a KeyStore built at namespace scope).
void compress(std::uint32_t* state, const std::uint8_t* data,
              std::size_t blocks) {
  static const detail::CompressFn fn = [] {
    detail::CompressFn sha_ni = detail::sha_ni_compressor();
    return sha_ni != nullptr ? sha_ni : &detail::compress_portable;
  }();
  fn(state, data, blocks);
}

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[i * 4]) << 24 |
             static_cast<std::uint32_t>(data[i * 4 + 1]) << 16 |
             static_cast<std::uint32_t>(data[i * 4 + 2]) << 8 |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn sha_ni_compressor() {
#if defined(__x86_64__)
  if (cpu_has_sha_ni()) return &compress_sha_ni;
#endif
  return nullptr;
}

}  // namespace detail

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInitState;
  bit_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  bit_len_ += static_cast<std::uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::size_t blocks = len / kBlockSize;
  if (blocks > 0) {
    compress(state_.data(), data, blocks);
    data += blocks * kBlockSize;
    len -= blocks * kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Digest Sha256::finalize() {
  // Padding: 0x80, zeros, 64-bit big-endian bit length — one block, or two
  // when the length field no longer fits behind the message tail.
  constexpr std::size_t kLenOffset = kBlockSize - 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kLenOffset) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kLenOffset - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[kLenOffset + i] = static_cast<std::uint8_t>(bit_len_ >> (56 - 8 * i));
  }
  compress(state_.data(), buffer_.data(), 1);

  Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

void Sha256::update_u32(std::uint32_t v) {
  std::uint8_t le[4];
  for (int i = 0; i < 4; ++i) {
    le[i] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
  update(le, 4);
}

Digest sha256(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Bytes sha256_bytes(ByteView data) {
  Digest d = sha256(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace fastbft::crypto
