// Unit tests for the util substrate: RNG determinism, bit streams,
// k-wise hashing, statistics, tables.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "pdc/util/bench_json.hpp"
#include "pdc/util/bits.hpp"
#include "pdc/util/check.hpp"
#include "pdc/util/hashing.hpp"
#include "pdc/util/parallel.hpp"
#include "pdc/util/rng.hpp"
#include "pdc/util/stats.hpp"
#include "pdc/util/table.hpp"

namespace pdc {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(
      { PDC_CHECK_MSG(1 == 2, "custom context " << 42); }, check_error);
  try {
    PDC_CHECK_MSG(false, "hello");
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("hello"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    EXPECT_LT(r.below(1), 1u);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 r(123);
  std::map<std::uint64_t, int> hist;
  const int trials = 80'000;
  for (int i = 0; i < trials; ++i) ++hist[r.below(8)];
  for (auto& [k, c] : hist) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.125, 0.01) << "bucket " << k;
  }
}

TEST(Rng, SubstreamsAreIndependentish) {
  auto a = substream(9, 0);
  auto b = substream(9, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Mix64, AvalanchesSingleBitFlips) {
  // Flipping one input bit should change roughly half the output bits.
  for (int bit = 0; bit < 64; bit += 7) {
    std::uint64_t x = 0x0123456789ABCDEFULL;
    int diff = __builtin_popcountll(mix64(x) ^ mix64(x ^ (1ULL << bit)));
    EXPECT_GT(diff, 16);
    EXPECT_LT(diff, 48);
  }
}

TEST(BitStream, SlicesWordsConsistently) {
  // Backing words are a known counter pattern; verify reconstruction.
  BitStream s([](std::uint64_t w) { return w + 1; });
  EXPECT_EQ(s.bits(64), 1u);
  EXPECT_EQ(s.bits(64), 2u);
  EXPECT_EQ(s.bits_consumed(), 128u);
}

TEST(BitStream, SmallDrawsConcatenateLowBitsFirst) {
  BitStream s([](std::uint64_t) { return 0b1011'0110ULL; });
  EXPECT_EQ(s.bits(4), 0b0110u);
  EXPECT_EQ(s.bits(4), 0b1011u);
}

TEST(BitStream, FullWordDrawStraddlesTwoWords) {
  // bits(4) leaves 60 bits of word 0; the next bits(64) takes them plus
  // the low 4 bits of word 1, and the draw after it resumes at bit 4 of
  // word 1.
  const std::uint64_t words[] = {0x0123456789ABCDEFULL,
                                 0xFEDCBA9876543215ULL,
                                 0x1111111111111111ULL};
  BitStream s([&](std::uint64_t w) { return words[w]; });
  EXPECT_EQ(s.bits(4), 0xFu);
  EXPECT_EQ(s.bits(64), 0x50123456789ABCDEULL);
  EXPECT_EQ(s.bits(60), 0x0FEDCBA987654321ULL);
  EXPECT_EQ(s.bits(64), 0x1111111111111111ULL);
  EXPECT_EQ(s.bits_consumed(), 192u);
}

TEST(BitStream, BelowInRangeAndDeterministic) {
  auto make = [] {
    return BitStream([](std::uint64_t w) { return mix64(w + 99); });
  };
  BitStream a = make(), b = make();
  for (int i = 0; i < 200; ++i) {
    auto va = a.below(13);
    EXPECT_LT(va, 13u);
    EXPECT_EQ(va, b.below(13));
  }
}

TEST(KWiseHash, DeterministicAndInField) {
  Xoshiro256 rng(5);
  KWiseHash h = KWiseHash::random(4, rng);
  for (std::uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(h(x), h(x));
    EXPECT_LT(h(x), MersenneField::kPrime);
  }
}

TEST(KWiseHash, PairwiseIndependenceEmpirically) {
  // For random degree-1 (pairwise) polynomials, collisions of two fixed
  // points over random family members should be ~1/m for buckets m.
  Xoshiro256 rng(17);
  const std::uint64_t m = 16;
  int collisions = 0;
  const int fams = 4000;
  for (int f = 0; f < fams; ++f) {
    KWiseHash h = KWiseHash::random(2, rng);
    if (h.bucket(3, m) == h.bucket(77, m)) ++collisions;
  }
  EXPECT_NEAR(static_cast<double>(collisions) / fams, 1.0 / m, 0.02);
}

TEST(EnumerablePairwiseFamily, MembersDifferAndAreStable) {
  EnumerablePairwiseFamily fam(123, 6);
  EXPECT_EQ(fam.size(), 64u);
  std::set<std::pair<std::uint64_t, std::uint64_t>> distinct;
  for (std::uint64_t i = 0; i < fam.size(); ++i) distinct.insert(fam.params(i));
  EXPECT_GT(distinct.size(), 60u);
  EXPECT_EQ(fam.eval(5, 1000, 10), fam.eval(5, 1000, 10));
  EXPECT_LT(fam.eval(5, 1000, 10), 10u);
}

TEST(Parallel, CountAndSumMatchSerial) {
  const std::size_t n = 10'000;
  auto pred = [](std::size_t i) { return i % 3 == 0; };
  std::size_t serial = 0;
  for (std::size_t i = 0; i < n; ++i) serial += pred(i);
  EXPECT_EQ(parallel_count(n, pred), serial);
  double sum = parallel_sum(n, [](std::size_t i) { return double(i); });
  EXPECT_DOUBLE_EQ(sum, double(n) * (n - 1) / 2.0);
}

TEST(Summary, MatchesClosedForms) {
  Summary s;
  for (int i = 1; i <= 5; ++i) s.add(i);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Table, PrintsAlignedRowsAndRejectsBadWidth) {
  Table t("demo", {"a", "bb"});
  t.row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_NE(os.str().find("bb"), std::string::npos);
  EXPECT_THROW(t.row({"only-one"}), check_error);
}

using util::BenchJson;

namespace {
std::string write_and_read(const BenchJson& json) {
  const std::string path = ::testing::TempDir() + "pdc_bench_json_test.json";
  json.write(path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}
}  // namespace

TEST(BenchJson, DoubleFieldsRoundTripAtFullPrecision) {
  BenchJson json;
  // 0.1 is not exactly representable; max_digits10 output must
  // round-trip to the identical bit pattern.
  const double tricky = 0.1 + 0.2;
  json.obj().field("v", tricky).field("third", 1.0 / 3.0);
  const std::string text = write_and_read(json);
  const auto at = [&](const std::string& key) {
    std::size_t p = text.find("\"" + key + "\": ");
    EXPECT_NE(p, std::string::npos) << key;
    return std::stod(text.substr(p + key.size() + 4));
  };
  EXPECT_EQ(at("v"), tricky);  // exact, not NEAR
  EXPECT_EQ(at("third"), 1.0 / 3.0);
}

TEST(BenchJson, NonFiniteDoublesBecomeNull) {
  BenchJson json;
  json.obj()
      .field("nan", std::nan(""))
      .field("inf", std::numeric_limits<double>::infinity())
      .field("ninf", -std::numeric_limits<double>::infinity())
      .field("ok", 2.5);
  const std::string text = write_and_read(json);
  EXPECT_NE(text.find("\"nan\": null"), std::string::npos);
  EXPECT_NE(text.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(text.find("\"ninf\": null"), std::string::npos);
  EXPECT_NE(text.find("\"ok\": 2.5"), std::string::npos);
  // inf/nan literals would make every consumer's parse fail.
  EXPECT_EQ(text.find("inf,"), std::string::npos);
  EXPECT_EQ(text.find("nan,"), std::string::npos);
}

TEST(BenchJson, EscapesQuotesAndRejectsFieldBeforeObj) {
  BenchJson json;
  EXPECT_THROW(json.field("orphan", 1.0), check_error);
  json.obj().field("s", "say \"hi\" \\ bye");
  const std::string text = write_and_read(json);
  EXPECT_NE(text.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(text.find("\\\\ bye"), std::string::npos);
}

}  // namespace
}  // namespace pdc
