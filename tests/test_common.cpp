#include <gtest/gtest.h>

#include <string>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/logging.hpp"
#include "common/value.hpp"
#include "sim/scheduler.hpp"

namespace fastbft {
namespace {

// --- bytes -------------------------------------------------------------------

TEST(Bytes, HexRoundtrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0001ABFF"), data);
}

TEST(Bytes, FromHexRejectsMalformed) {
  EXPECT_TRUE(from_hex("abc").empty());   // odd length
  EXPECT_TRUE(from_hex("zz").empty());    // non-hex
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, HexPrefixTruncates) {
  Bytes data(10, 0xaa);
  EXPECT_EQ(to_hex_prefix(data, 3), "aaaaaa..");
  EXPECT_EQ(to_hex_prefix(data, 10), std::string(20, 'a'));
}

TEST(Bytes, Equality) {
  EXPECT_TRUE(bytes_equal({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(bytes_equal({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(bytes_equal({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(bytes_equal(Bytes{}, Bytes{}));
}

// --- codec -------------------------------------------------------------------

TEST(Codec, ScalarRoundtrip) {
  Encoder enc;
  enc.u8(0xab);
  enc.u16(0x1234);
  enc.u32(0xdeadbeef);
  enc.u64(0x0123456789abcdefULL);
  enc.boolean(true);
  enc.boolean(false);
  Bytes data = std::move(enc).take();

  Decoder dec(data);
  EXPECT_EQ(dec.u8(), 0xab);
  EXPECT_EQ(dec.u16(), 0x1234);
  EXPECT_EQ(dec.u32(), 0xdeadbeefu);
  EXPECT_EQ(dec.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(dec.boolean());
  EXPECT_FALSE(dec.boolean());
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.at_end());
}

TEST(Codec, BytesAndStrings) {
  Encoder enc;
  enc.bytes({1, 2, 3});
  enc.str("hello");
  enc.bytes(Bytes{});
  Bytes data = std::move(enc).take();

  Decoder dec(data);
  EXPECT_EQ(dec.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(dec.str(), "hello");
  EXPECT_TRUE(dec.bytes().empty());
  EXPECT_TRUE(dec.ok() && dec.at_end());
}

TEST(Codec, TruncationDetected) {
  Encoder enc;
  enc.u64(42);
  Bytes data = std::move(enc).take();
  data.pop_back();

  Decoder dec(data);
  dec.u64();
  EXPECT_FALSE(dec.ok());
}

TEST(Codec, OversizedLengthPrefixDetected) {
  Encoder enc;
  enc.u32(1'000'000);  // claims a million bytes follow
  Bytes data = std::move(enc).take();

  Decoder dec(data);
  Bytes out = dec.bytes();
  EXPECT_FALSE(dec.ok());
  EXPECT_TRUE(out.empty());
}

TEST(Codec, FailuresAreSticky) {
  Bytes empty;
  Decoder dec(empty);
  dec.u8();
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.u32(), 0u);
  EXPECT_FALSE(dec.ok());
}

TEST(Codec, LittleEndianLayout) {
  Encoder enc;
  enc.u32(0x01020304);
  EXPECT_EQ(enc.data(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

// --- value -------------------------------------------------------------------

TEST(ValueTest, Construction) {
  EXPECT_TRUE(Value().empty());
  EXPECT_EQ(Value::of_string("abc").size(), 3u);
  EXPECT_EQ(Value::of_u64(7).size(), 8u);
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value::of_string("a"), Value::of_string("a"));
  EXPECT_NE(Value::of_string("a"), Value::of_string("b"));
  EXPECT_LT(Value::of_string("a"), Value::of_string("b"));
}

TEST(ValueTest, CodecRoundtrip) {
  Value v = Value::of_string("payload");
  Bytes data = encode_to_bytes(v);
  auto decoded = decode_from_bytes<Value>(data);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, v);
}

TEST(ValueTest, ToStringPrintable) {
  EXPECT_EQ(Value::of_string("cmd=1").to_string(), "cmd=1");
  Value binary(Bytes{0x00, 0x01});
  EXPECT_EQ(binary.to_string(), "0x0001");
}


// --- logging -------------------------------------------------------------------

TEST(Logging, LevelGating) {
  LogLevel saved = Log::level;
  Log::level = LogLevel::Off;
  // With logging off these must be no-ops (nothing observable to assert
  // beyond "does not crash", which is the point for hot paths).
  log_error("test", "error line");
  log_info("test", "info line");
  log_debug("test", "debug line");
  Log::level = LogLevel::Error;
  log_error("test", "error line");
  log_debug("test", "suppressed");
  Log::level = saved;
}

TEST(Logging, LazyArgumentsFormatOnlyWhenEnabled) {
  LogLevel saved = Log::level;
  int formatted = 0;
  auto component = [&] {
    ++formatted;
    return std::string("replica-") + std::to_string(7);
  };
  auto message = [&] {
    ++formatted;
    return "decided " + std::to_string(42);
  };

  Log::level = LogLevel::Off;
  log_error(component, message);
  log_info(component, message);
  log_debug(component, message);
  Log::level = LogLevel::Info;
  log_debug(component, message);
  EXPECT_EQ(formatted, 0) << "a disabled level must not run the callables";

  // An enabled lazy line is byte-identical to the eager one.
  Log::level = LogLevel::Debug;
  testing::internal::CaptureStderr();
  log_info("replica-7", "decided 42");
  std::string eager = testing::internal::GetCapturedStderr();
  testing::internal::CaptureStderr();
  log_info(component, message);
  std::string lazy = testing::internal::GetCapturedStderr();
  EXPECT_EQ(formatted, 2);
  EXPECT_EQ(lazy, eager);
  EXPECT_NE(eager.find("replica-7] decided 42"), std::string::npos);
  Log::level = saved;
}

TEST(Logging, NowHintTracksScheduler) {
  sim::Scheduler sched;
  sched.schedule_at(123, [] {});
  sched.run_to_completion();
  EXPECT_EQ(Log::now_hint, 123);
}
}  // namespace
}  // namespace fastbft
