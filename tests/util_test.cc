#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "protocols/hier.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace tamp::util {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_u64(10), 10u);
    int64_t v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_u64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / trials, 5.0, 0.25);
}

TEST(Rng, PoissonMean) {
  Rng rng(17);
  double sum = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += static_cast<double>(rng.poisson(4.0));
  EXPECT_NEAR(sum / trials, 4.0, 0.15);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(21);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(OnlineStats, Basics) {
  OnlineStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(OnlineStats, MergeMatchesBulk) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    double x = std::sin(i * 0.7) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Percentiles, Quantiles) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.p95(), 95.05, 0.01);
  EXPECT_NEAR(p.mean(), 50.5, 1e-9);
}

TEST(Percentiles, Empty) {
  Percentiles p;
  EXPECT_EQ(p.median(), 0.0);
  EXPECT_EQ(p.mean(), 0.0);
}

TEST(Strings, Split) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5"), 2.5);
  EXPECT_FALSE(parse_double("nope").has_value());
}

TEST(Strings, PartitionSpecSingle) {
  auto spec = expand_partition_spec("3");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(*spec, (std::vector<int>{3}));
}

TEST(Strings, PartitionSpecRange) {
  auto spec = expand_partition_spec("1-3");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(*spec, (std::vector<int>{1, 2, 3}));
}

TEST(Strings, PartitionSpecMixed) {
  auto spec = expand_partition_spec("0,2,5-7");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(*spec, (std::vector<int>{0, 2, 5, 6, 7}));
}

TEST(Strings, PartitionSpecWildcard) {
  EXPECT_FALSE(expand_partition_spec("*").has_value());
  EXPECT_FALSE(expand_partition_spec("").has_value());
}

TEST(Strings, PartitionSpecMalformed) {
  // Ids past kMaxPartitionId are malformed: "0-4000000000" used to insert
  // 4e9 ids, and 4294967297 (2^32 + 1) used to be narrowed to partition 1.
  for (const char* text : {"5-2", "65536", "65535-65536", "0-4000000000",
                           "4294967297", "1,4294967297"}) {
    auto spec = expand_partition_spec(text);
    ASSERT_TRUE(spec.has_value()) << text;
    EXPECT_TRUE(spec->empty()) << text;
  }
  auto top = expand_partition_spec("65534-65535");
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(*top, (std::vector<int>{65534, 65535}));
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.00 B");
  EXPECT_EQ(human_bytes(1536), "1.50 KB");
}

TEST(RetryPolicy, BackoffDoublesFromBaseUpToCap) {
  const RetryPolicy& policy = protocols::kExchangeRetry;
  const std::vector<int64_t> expected{1, 2, 4, 8, 8};
  for (size_t attempt = 0; attempt < expected.size(); ++attempt) {
    EXPECT_EQ(policy.backoff(static_cast<int>(attempt)),
              expected[attempt] * sim::kSecond)
        << "attempt " << attempt;
  }
  EXPECT_EQ(policy.backoff(20), policy.cap);
}

TEST(RetryPolicy, DelayStaysInsideTheJitterBand) {
  const RetryPolicy& policy = protocols::kExchangeRetry;
  Rng rng(11);
  for (int attempt = 0; attempt < 6; ++attempt) {
    const double b = static_cast<double>(policy.backoff(attempt));
    const double lo = b * (1.0 - policy.jitter);
    const double hi = b * (1.0 + policy.jitter);
    for (int draw = 0; draw < 2000; ++draw) {
      const int64_t d = policy.delay(attempt, rng);
      ASSERT_GE(static_cast<double>(d), lo) << "attempt " << attempt;
      ASSERT_LE(static_cast<double>(d), hi) << "attempt " << attempt;
      ASSERT_GE(d, 1);
    }
  }
}

TEST(RetryPolicy, DelayIsAtLeastOne) {
  // A zero backoff still waits: a retry never fires in the instant of the
  // send it retries.
  const RetryPolicy policy{/*base=*/0, /*cap=*/0};
  Rng rng(5);
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(policy.delay(attempt, rng), 1);
  }
}

TEST(RetryPolicy, ExhaustedAtBudget) {
  const RetryPolicy& policy = protocols::kExchangeRetry;
  EXPECT_FALSE(policy.exhausted(0));
  EXPECT_FALSE(policy.exhausted(policy.budget - 1));
  EXPECT_TRUE(policy.exhausted(policy.budget));
  EXPECT_TRUE(policy.exhausted(policy.budget + 1));
}

}  // namespace
}  // namespace tamp::util
