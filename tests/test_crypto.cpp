#include <gtest/gtest.h>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"

namespace fastbft::crypto {
namespace {

std::string digest_hex(const Digest& d) {
  return to_hex(Bytes(d.begin(), d.end()));
}

// --- SHA-256: FIPS 180-4 / NIST CAVP vectors --------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      digest_hex(sha256(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Bytes data(1'000'000, static_cast<std::uint8_t>('a'));
  EXPECT_EQ(digest_hex(sha256(data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Reference digest built only from the portable compressor, padding by
// hand: independent of Sha256's buffering and of the dispatched kernel.
Digest reference_sha256(ByteView data) {
  std::array<std::uint32_t, 8> state = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  detail::compress_portable(state.data(), padded.data(), padded.size() / 64);
  Digest d;
  for (std::size_t i = 0; i < 32; ++i) {
    d[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return d;
}

Bytes counting_bytes(std::size_t len) {
  Bytes data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return data;
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data = counting_bytes(1000);
  const Digest expected = reference_sha256(data);
  // Uneven chunking crosses block boundaries in awkward places: partial
  // blocks topped up, whole blocks hashed straight from the caller's
  // buffer with a staged head or tail, and multi-block direct runs.
  const std::vector<std::vector<std::size_t>> splits = {
      {0, 1, 7, 64, 65, 200, 511, 999, 1000},
      {0, 63, 127, 128, 320, 321, 1000},
      {0, 5, 133, 197, 640, 703, 1000},
      {0, 64, 128, 256, 768, 1000},
      {0, 1000},
  };
  for (const auto& offsets : splits) {
    Sha256 h;
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      h.update(data.data() + offsets[i], offsets[i + 1] - offsets[i]);
    }
    EXPECT_EQ(h.finalize(), expected) << "split starting " << offsets[1];
  }
  // Byte-at-a-time feeds exercise the staging path alone.
  Sha256 bytewise;
  for (std::uint8_t b : data) bytewise.update(&b, 1);
  EXPECT_EQ(bytewise.finalize(), expected);
}

TEST(Sha256, ExactBlockBoundaryLengths) {
  // Every length through three blocks: covers the 56-byte padding
  // threshold (one vs two padding compressions) at each block, and every
  // staged-tail size after the direct whole-block path.
  for (std::size_t len = 0; len <= 200; ++len) {
    Bytes data = counting_bytes(len);
    EXPECT_EQ(sha256(data), reference_sha256(data)) << "len=" << len;
  }
}

TEST(Sha256, ShaNiKernelMatchesPortable) {
  const detail::CompressFn sha_ni = detail::sha_ni_compressor();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPU has no SHA extensions";
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // xorshift64* stream
  auto next = [&x] {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x * 0x2545f4914f6cdd1dULL;
  };
  for (std::size_t blocks : {1u, 1u, 2u, 3u, 7u, 16u}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::array<std::uint32_t, 8> portable;
      for (auto& w : portable) w = static_cast<std::uint32_t>(next());
      std::array<std::uint32_t, 8> kernel = portable;
      Bytes data(blocks * 64);
      for (auto& b : data) b = static_cast<std::uint8_t>(next());
      detail::compress_portable(portable.data(), data.data(), blocks);
      sha_ni(kernel.data(), data.data(), blocks);
      EXPECT_EQ(kernel, portable) << "blocks=" << blocks << " trial=" << trial;
    }
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(to_bytes("garbage"));
  (void)h.finalize();
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(digest_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --- HMAC-SHA-256: RFC 4231 test vectors ------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(digest_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      digest_hex(hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, CopiedKeyedStateReproducesRfc4231) {
  // KeyStore's precomputation: key once, then MAC by copying the keyed
  // instance. Each copy must be independent of the prototype and of the
  // other copies.
  const HmacSha256 keyed_case1(Bytes(20, 0x0b));
  const HmacSha256 keyed_case2(to_bytes("Jefe"));
  for (int round = 0; round < 2; ++round) {
    HmacSha256 mac1 = keyed_case1;
    mac1.update(to_bytes("Hi There"));
    EXPECT_EQ(digest_hex(mac1.finalize()),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    HmacSha256 mac2 = keyed_case2;
    mac2.update(to_bytes("what do ya want "));
    mac2.update(to_bytes("for nothing?"));
    EXPECT_EQ(digest_hex(mac2.finalize()),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  }
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(digest_hex(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- Signer / Verifier -------------------------------------------------------

class SignerTest : public ::testing::Test {
 protected:
  std::shared_ptr<const KeyStore> keys_ =
      std::make_shared<const KeyStore>(123, 7);
  Verifier verifier_{keys_};
};

TEST_F(SignerTest, SignVerifyRoundtrip) {
  Signer signer(keys_, 3);
  Bytes msg = to_bytes("propose value 42 in view 9");
  Signature sig = signer.sign("propose", msg);
  EXPECT_TRUE(verifier_.verify(3, "propose", msg, sig));
}

TEST_F(SignerTest, WrongSignerRejected) {
  Signer signer(keys_, 3);
  Signature sig = signer.sign("propose", to_bytes("m"));
  EXPECT_FALSE(verifier_.verify(2, "propose", to_bytes("m"), sig));
}

TEST_F(SignerTest, WrongDomainRejected) {
  Signer signer(keys_, 3);
  Signature sig = signer.sign("propose", to_bytes("m"));
  EXPECT_FALSE(verifier_.verify(3, "ack", to_bytes("m"), sig));
}

TEST_F(SignerTest, WrongMessageRejected) {
  Signer signer(keys_, 3);
  Signature sig = signer.sign("propose", to_bytes("m"));
  EXPECT_FALSE(verifier_.verify(3, "propose", to_bytes("m2"), sig));
}

TEST_F(SignerTest, TamperedSignatureRejected) {
  Signer signer(keys_, 3);
  Bytes msg = to_bytes("m");
  Signature sig = signer.sign("propose", msg);
  sig.bytes[0] ^= 1;
  EXPECT_FALSE(verifier_.verify(3, "propose", msg, sig));
}

TEST_F(SignerTest, TruncatedSignatureRejected) {
  Signer signer(keys_, 3);
  Bytes msg = to_bytes("m");
  Signature sig = signer.sign("propose", msg);
  sig.bytes.pop_back();
  EXPECT_FALSE(verifier_.verify(3, "propose", msg, sig));
}

TEST_F(SignerTest, OutOfRangeSignerRejected) {
  Signer signer(keys_, 3);
  Signature sig = signer.sign("propose", to_bytes("m"));
  EXPECT_FALSE(verifier_.verify(99, "propose", to_bytes("m"), sig));
}

TEST_F(SignerTest, DistinctProcessesDistinctKeys) {
  KeyStore keys(5, 4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::uint32_t j = i + 1; j < 4; ++j) {
      EXPECT_FALSE(bytes_equal(keys.secret_of(i), keys.secret_of(j)))
          << i << " vs " << j;
    }
  }
}

TEST_F(SignerTest, KeyedMacMatchesPlainHmacForEveryProcess) {
  // The precomputed per-process key states must MAC exactly like a fresh
  // HMAC over the process secret: the signing frame is
  // u32(|domain|) ‖ domain ‖ digest.
  const std::string domain = "certack";
  const Digest digest = message_digest(to_bytes("statement"));
  Encoder frame;
  frame.u32(static_cast<std::uint32_t>(domain.size()));
  frame.raw(ByteView(reinterpret_cast<const std::uint8_t*>(domain.data()),
                     domain.size()));
  frame.raw(ByteView(digest.data(), digest.size()));
  for (ProcessId i = 0; i < keys_->size(); ++i) {
    const Digest expected = hmac_sha256(keys_->secret_of(i), frame.view());
    HmacSha256 mac = keys_->keyed_mac(i);
    mac.update(frame.view());
    EXPECT_EQ(mac.finalize(), expected) << "process " << i;
    Signature sig = Signer(keys_, i).sign_digest(domain, digest);
    EXPECT_TRUE(bytes_equal(sig.bytes, ByteView(expected.data(), expected.size())))
        << "process " << i;
  }
}

TEST_F(SignerTest, DeterministicAcrossKeyStoreInstances) {
  KeyStore a(77, 5), b(77, 5);
  EXPECT_TRUE(bytes_equal(a.secret_of(2), b.secret_of(2)));
  KeyStore c(78, 5);
  EXPECT_FALSE(bytes_equal(a.secret_of(2), c.secret_of(2)));
}

TEST(DeriveKey, LabelAndIndexSeparate) {
  Bytes master = to_bytes("master");
  EXPECT_FALSE(bytes_equal(derive_key(master, "a", 0), derive_key(master, "a", 1)));
  EXPECT_FALSE(bytes_equal(derive_key(master, "a", 0), derive_key(master, "b", 0)));
  EXPECT_TRUE(bytes_equal(derive_key(master, "a", 0), derive_key(master, "a", 0)));
}

}  // namespace
}  // namespace fastbft::crypto
