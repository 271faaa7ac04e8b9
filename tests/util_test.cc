#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "util/crc32c.h"
#include "util/io.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hail {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::IOError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(st.message(), "disk on fire");
  EXPECT_EQ(st.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, CopySemantics) {
  Status st = Status::NotFound("x");
  Status copy = st;
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_EQ(copy, st);
  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsNotFound());
}

TEST(StatusTest, WithContextPrefixes) {
  Status st = Status::Corruption("bad byte").WithContext("block 7");
  EXPECT_EQ(st.message(), "block 7: bad byte");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  HAIL_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*QuarterEven(8), 2);
  EXPECT_TRUE(QuarterEven(6).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors.
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8a9136aau);
  std::string ones(32, '\xff');
  EXPECT_EQ(crc32c::Value(ones.data(), ones.size()), 0x62a8ab43u);
  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(ascending.data(), ascending.size()), 0x46dd794eu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "hello world, this is hail";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t partial = crc32c::Extend(0, data.data(), 5);
  partial = crc32c::Extend(partial, data.data() + 5, data.size() - 5);
  EXPECT_EQ(whole, partial);
}

TEST(Crc32cTest, HardwareAndTablePathsAgree) {
  // Extend runs the SSE4.2 instruction where the CPU has it (then
  // KnownVectors above checks that path); it must equal the table path
  // at every length, whatever the start address's alignment.
  Random rng(3720);
  std::string data(1024 + 8, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextU64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const char* p = data.data() + offset;
      ASSERT_EQ(crc32c::Extend(0, p, len), crc32c::ExtendTable(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
  // Chained calls from a nonzero CRC, split at every point of a stretch
  // that covers both 8-byte steps and single-byte tails.
  const uint32_t init = 0x9e3779b9u;
  const size_t total = 301;
  const uint32_t whole = crc32c::ExtendTable(init, data.data() + 3, total);
  for (size_t split = 0; split <= total; ++split) {
    const char* p = data.data() + 3;
    const uint32_t hw = crc32c::Extend(crc32c::Extend(init, p, split),
                                       p + split, total - split);
    const uint32_t table = crc32c::ExtendTable(
        crc32c::ExtendTable(init, p, split), p + split, total - split);
    EXPECT_EQ(hw, whole) << "split " << split;
    EXPECT_EQ(table, whole) << "split " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(1024, 'x');
  const uint32_t clean = crc32c::Value(data.data(), data.size());
  data[512] ^= 0x01;
  EXPECT_NE(crc32c::Value(data.data(), data.size()), clean);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(*ParseInt64("-123"), -123);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64(" 1").ok());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(FormatBytes(64ull * 1024 * 1024), "64.0 MB");
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, BernoulliRoughlyFair) {
  Random rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

TEST(IoTest, RoundTripsScalars) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(0xdeadbeef);
  w.PutU64(1ull << 40);
  w.PutI32(-5);
  w.PutI64(-6);
  w.PutF64(2.5);
  w.PutLengthPrefixed("abc");
  ByteReader r(w.buffer());
  EXPECT_EQ(*r.GetU8(), 7);
  EXPECT_EQ(*r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.GetU64(), 1ull << 40);
  EXPECT_EQ(*r.GetI32(), -5);
  EXPECT_EQ(*r.GetI64(), -6);
  EXPECT_DOUBLE_EQ(*r.GetF64(), 2.5);
  EXPECT_EQ(*r.GetLengthPrefixed(), "abc");
  EXPECT_TRUE(r.exhausted());
}

TEST(IoTest, TruncationIsCorruption) {
  ByteWriter w;
  w.PutU32(1);
  ByteReader r(w.buffer());
  EXPECT_TRUE(r.GetU64().status().IsCorruption());
}

TEST(IoTest, SeekBounds) {
  ByteReader r("abcd");
  EXPECT_TRUE(r.SeekTo(4).ok());
  EXPECT_TRUE(r.SeekTo(5).IsCorruption());
}

// ---------------------------------------------------------------------------
// ThreadPool::DefaultThreads (HAIL_THREADS parsing; no pool is built)
// ---------------------------------------------------------------------------

/// Sets HAIL_THREADS (or unsets it for nullopt) for one scope and restores
/// the caller's value afterwards.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const std::optional<std::string>& value) {
    if (const char* old = std::getenv("HAIL_THREADS")) saved_ = old;
    if (value.has_value()) {
      setenv("HAIL_THREADS", value->c_str(), /*overwrite=*/1);
    } else {
      unsetenv("HAIL_THREADS");
    }
  }
  ~ScopedThreadsEnv() {
    if (saved_.has_value()) {
      setenv("HAIL_THREADS", saved_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv("HAIL_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

size_t ThreadsFor(const std::optional<std::string>& value) {
  ScopedThreadsEnv env(value);
  return ThreadPool::DefaultThreads();
}

TEST(ThreadPoolTest, DefaultThreadsAcceptsWholeDecimalsUpToTheCap) {
  EXPECT_EQ(ThreadsFor("1"), 1u);
  EXPECT_EQ(ThreadsFor("8"), 8u);
  EXPECT_EQ(ThreadsFor("08"), 8u);
  EXPECT_EQ(ThreadsFor("256"), ThreadPool::kMaxThreads);
}

TEST(ThreadPoolTest, DefaultThreadsFallsBackToTheHardwareOtherwise) {
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t fallback = hw == 0 ? 1 : hw;
  EXPECT_EQ(ThreadsFor(std::nullopt), fallback);
  for (const char* bad :
       {"", "0", "8x", "x8", " 8", "8 ", "+8", "-8", "2.5", "257", "5000",
        "99999999999999999999"}) {
    EXPECT_EQ(ThreadsFor(bad), fallback) << "HAIL_THREADS='" << bad << "'";
  }
}

}  // namespace
}  // namespace hail
