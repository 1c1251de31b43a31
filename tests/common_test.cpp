// Unit and property tests for src/common: status, coding, crc32c, hashes,
// rng/zipf, histogram.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "common/status.h"

namespace lo {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::NotFound("key xyz");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key xyz");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kNotPrimary); c++) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::IOError("disk gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  LO_ASSIGN_OR_RETURN(int h, Half(v));
  LO_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(Result, AssignOrReturnMacro) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());
}

TEST(Coding, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xbeef);
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  ASSERT_EQ(buf.size(), 14u);
  Reader r{buf};
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(r.GetFixed16(&a));
  ASSERT_TRUE(r.GetFixed32(&b));
  ASSERT_TRUE(r.GetFixed64(&c));
  EXPECT_EQ(a, 0xbeef);
  EXPECT_EQ(b, 0xdeadbeefu);
  EXPECT_EQ(c, 0x0123456789abcdefull);
  EXPECT_TRUE(r.empty());
}

TEST(Coding, VarintBoundaries) {
  // Values around every 7-bit boundary must round-trip.
  std::vector<uint64_t> values;
  for (int shift = 0; shift <= 63; shift += 7) {
    uint64_t v = 1ull << shift;
    values.push_back(v - 1);
    values.push_back(v);
    values.push_back(v + 1);
  }
  values.push_back(UINT64_MAX);
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Reader r{buf};
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(r.GetVarint64(&got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.empty());
}

TEST(Coding, Varint32RejectsTruncated) {
  std::string buf;
  PutVarint32(&buf, 300);
  Reader r{std::string_view(buf).substr(0, 1)};
  uint32_t v;
  EXPECT_FALSE(r.GetVarint32(&v));
}

TEST(Coding, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Reader r{buf};
  std::string_view a, b, c;
  ASSERT_TRUE(r.GetLengthPrefixed(&a));
  ASSERT_TRUE(r.GetLengthPrefixed(&b));
  ASSERT_TRUE(r.GetLengthPrefixed(&c));
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, "hello");
  EXPECT_EQ(c.size(), 1000u);
}

TEST(Coding, LengthPrefixedTruncatedDoesNotAdvance) {
  std::string buf;
  PutVarint32(&buf, 100);  // claims 100 bytes, provides 3
  buf += "abc";
  Reader r{buf};
  std::string_view v;
  EXPECT_FALSE(r.GetLengthPrefixed(&v));
  // Cursor must be unchanged so callers can report offsets.
  EXPECT_EQ(r.remaining(), buf.size());
}

TEST(Coding, PropertyRandomRoundTrip) {
  Rng rng(7);
  for (int iter = 0; iter < 200; iter++) {
    std::string buf;
    std::vector<uint64_t> vals;
    int n = static_cast<int>(rng.Uniform(20)) + 1;
    for (int i = 0; i < n; i++) {
      uint64_t v = rng.Next() >> rng.Uniform(64);
      vals.push_back(v);
      PutVarint64(&buf, v);
    }
    Reader r{buf};
    for (uint64_t v : vals) {
      uint64_t got;
      ASSERT_TRUE(r.GetVarint64(&got));
      ASSERT_EQ(got, v);
    }
    ASSERT_TRUE(r.empty());
  }
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vectors (32 zeros, 32 ones, ascending, descending)
  // and the CRC-32C check value, on the selected path and the table.
  std::string zeros(32, '\0');
  std::string ones(32, '\xff');
  std::string ascending, descending;
  for (int i = 0; i < 32; i++) {
    ascending.push_back(static_cast<char>(i));
    descending.push_back(static_cast<char>(31 - i));
  }
  const std::string check = "123456789";
  for (auto extend : {crc32c::Extend, crc32c::ExtendTable}) {
    EXPECT_EQ(extend(0, zeros.data(), zeros.size()), 0x8a9136aau);
    EXPECT_EQ(extend(0, ones.data(), ones.size()), 0x62a8ab43u);
    EXPECT_EQ(extend(0, ascending.data(), ascending.size()), 0x46dd794eu);
    EXPECT_EQ(extend(0, descending.data(), descending.size()), 0x113fdb5cu);
    EXPECT_EQ(extend(0, check.data(), check.size()), 0xe3069283u);
  }
}

TEST(Crc32c, ExtendMatchesOneShot) {
  Rng rng(5);
  std::string data = rng.Bytes(100);
  uint32_t whole = crc32c::Value(data);
  for (size_t split = 0; split <= data.size(); split++) {
    uint32_t head = crc32c::Extend(0, data.data(), split);
    ASSERT_EQ(crc32c::Extend(head, data.data() + split, data.size() - split), whole)
        << "split " << split;
  }
}

TEST(Crc32c, SelectedPathMatchesTableOnUnalignedBytes) {
  // Offsets 0..7 put the 8-byte loads at every alignment; lengths cover
  // the word loop, the byte tail and empty input.
  Rng rng(11);
  std::string buffer = rng.Bytes(1024 + 8);
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t len = 0; len <= 1024; len++) {
      const char* data = buffer.data() + offset;
      uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(crc32c::Extend(seed, data, len), crc32c::ExtendTable(seed, data, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32c, UsesHardwareWhereTheCpuHasIt) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(crc32c::UsesHardware(), __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(crc32c::UsesHardware());
#endif
}

TEST(Crc32c, MaskRoundTripAndDiffers) {
  uint32_t crc = crc32c::Value("abc");
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

TEST(Crc32c, DetectsBitFlip) {
  std::string data(128, 'a');
  uint32_t before = crc32c::Value(data);
  data[77] ^= 0x01;
  EXPECT_NE(crc32c::Value(data), before);
}

TEST(Hash, Fnv1a64KnownValues) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string data;
  Rng rng(3);
  for (int len : {0, 1, 55, 56, 63, 64, 65, 127, 128, 1000}) {
    data = rng.Bytes(static_cast<size_t>(len));
    Sha256Hasher h;
    // Feed in ragged chunks.
    size_t pos = 0;
    while (pos < data.size()) {
      size_t chunk = std::min<size_t>(rng.Uniform(17) + 1, data.size() - pos);
      h.Update(std::string_view(data).substr(pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(h.Finish(), Sha256(data)) << "len=" << len;
  }
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; i++) counts[rng.Uniform(10)]++;
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 * 0.9);
    EXPECT_LT(c, kDraws / 10 * 1.1);
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(5);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_LT(same, 2);
}

TEST(Zipf, MostPopularDominates) {
  Rng rng(11);
  ZipfGenerator zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; i++) counts[zipf.Sample(rng)]++;
  // Rank 0 must be sampled far more than rank 500.
  EXPECT_GT(counts[0], counts[500] * 20);
  // And the tail must still be reachable.
  int tail = 0;
  for (size_t i = 900; i < 1000; i++) tail += counts[i];
  EXPECT_GT(tail, 0);
}

TEST(Zipf, AlphaZeroIsUniform) {
  Rng rng(12);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; i++) counts[zipf.Sample(rng)]++;
  for (int c : counts) {
    EXPECT_GT(c, 4000);
    EXPECT_LT(c, 6000);
  }
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  for (int i = 0; i < 16; i++) h.Record(i);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 15);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_NEAR(h.Mean(), 7.5, 1e-9);
}

TEST(Histogram, PercentilesWithinRelativeError) {
  Histogram h;
  Rng rng(4);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; i++) {
    auto v = static_cast<int64_t>(rng.Uniform(1000000));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    auto exact = values[static_cast<size_t>(q * (values.size() - 1))];
    auto approx = h.Percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.10 * static_cast<double>(exact) + 16)
        << "q=" << q;
  }
}

TEST(Histogram, MergeEqualsCombined) {
  Histogram a, b, both;
  Rng rng(8);
  for (int i = 0; i < 5000; i++) {
    auto v = static_cast<int64_t>(rng.Uniform(100000));
    if (i % 2 == 0) a.Record(v); else b.Record(v);
    both.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.Min(), both.Min());
  EXPECT_EQ(a.Max(), both.Max());
  EXPECT_EQ(a.Percentile(0.99), both.Percentile(0.99));
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, EmptyPercentileBoundaries) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(0.99), 0);
  EXPECT_EQ(h.Percentile(1.0), 0);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.StdDev(), 0.0);
}

TEST(Histogram, SingleSampleEveryQuantileIsThatSample) {
  Histogram h;
  h.Record(500);
  EXPECT_EQ(h.count(), 1u);
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    auto v = h.Percentile(q);
    // Log-bucketed: ~1% relative error allowed, but every quantile of a
    // one-sample distribution must land in the sample's bucket.
    EXPECT_NEAR(static_cast<double>(v), 500.0, 0.02 * 500.0) << "q=" << q;
  }
  EXPECT_NEAR(h.Mean(), 500.0, 1e-9);
}

TEST(Histogram, P99WithFewerThan100Samples) {
  // With n < 100 samples, p99 must not extrapolate past the data: it
  // stays within [p50, max] and near the top samples (one bucket of
  // slack, ~12% at this magnitude).
  Histogram h;
  for (int i = 1; i <= 10; i++) h.Record(i * 10);  // 10..100
  auto p99 = h.Percentile(0.99);
  EXPECT_GE(p99, h.Percentile(0.5));
  EXPECT_LE(p99, h.Max());
  EXPECT_NEAR(static_cast<double>(p99), 90.0, 0.12 * 90.0);
  EXPECT_EQ(h.Percentile(1.0), 100);  // q=1 is the exact max
}

}  // namespace
}  // namespace lo
