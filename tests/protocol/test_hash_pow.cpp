#include <gtest/gtest.h>

#include "protocol/hash.hpp"
#include "protocol/mining.hpp"
#include "stats/intervals.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::protocol {
namespace {

TEST(PowTarget, ProbabilityRoundTrips) {
  for (const double p : {1e-9, 1e-4, 0.01, 0.25, 0.75}) {
    const PowTarget target = PowTarget::from_probability(p);
    EXPECT_NEAR(target.probability(), p, p * 1e-9);
  }
}

TEST(PowTarget, SatisfiedByThresholdBoundary) {
  const PowTarget target = PowTarget::from_probability(0.5);
  EXPECT_TRUE(target.satisfied_by(0));
  EXPECT_TRUE(target.satisfied_by(target.threshold()));
  EXPECT_FALSE(target.satisfied_by(target.threshold() + 1));
}

TEST(PowTarget, RejectsDegenerateP) {
  EXPECT_THROW((void)PowTarget::from_probability(0.0), ContractViolation);
  EXPECT_THROW((void)PowTarget::from_probability(1.0), ContractViolation);
}

TEST(RandomOracle, Deterministic) {
  const RandomOracle a(42), b(42);
  EXPECT_EQ(a.query(1, 2, 3), b.query(1, 2, 3));
}

TEST(RandomOracle, SeedSeparation) {
  const RandomOracle a(42), b(43);
  EXPECT_NE(a.query(1, 2, 3), b.query(1, 2, 3));
}

TEST(RandomOracle, InputSensitivity) {
  const RandomOracle oracle(7);
  const HashValue base = oracle.query(10, 20, 30);
  EXPECT_NE(oracle.query(11, 20, 30), base);
  EXPECT_NE(oracle.query(10, 21, 30), base);
  EXPECT_NE(oracle.query(10, 20, 31), base);
}

TEST(RandomOracle, VerifyMatchesQuery) {
  const RandomOracle oracle(7);
  const HashValue h = oracle.query(1, 2, 3);
  EXPECT_TRUE(oracle.verify(1, 2, 3, h));
  EXPECT_FALSE(oracle.verify(1, 2, 3, h ^ 1));
  EXPECT_FALSE(oracle.verify(2, 2, 3, h));
}

TEST(RandomOracle, OutputLooksUniform) {
  // Bucket the top 3 bits of 80k queries; chi-square against uniform.
  const RandomOracle oracle(11);
  std::vector<int> buckets(8, 0);
  const int reps = 80000;
  for (int i = 0; i < reps; ++i) {
    ++buckets[oracle.query(static_cast<HashValue>(i), 0, 0) >> 61];
  }
  double chi2 = 0.0;
  const double expected = reps / 8.0;
  for (const int b : buckets) {
    chi2 += (b - expected) * (b - expected) / expected;
  }
  // 7 dof: P[chi2 > 24.3] ≈ 0.001.
  EXPECT_LT(chi2, 24.3);
}

TEST(TryMine, SuccessRateMatchesP) {
  const RandomOracle oracle(3);
  const double p = 0.01;
  const PowTarget target = PowTarget::from_probability(p);
  crng::Stream rng(crng::Key{0, 5}, 0, 0, crng::Purpose::kGeneric);
  std::uint64_t successes = 0;
  const std::uint64_t trials = 300000;
  for (std::uint64_t i = 0; i < trials; ++i) {
    if (try_mine(oracle, target, /*parent=*/i, /*payload=*/i, rng.bits())) {
      ++successes;
    }
  }
  const auto ci = stats::wilson_interval(successes, trials,
                                         stats::z_for_confidence(0.999));
  EXPECT_TRUE(ci.contains(p)) << "successes=" << successes;
}

TEST(TryMine, SuccessfulBlockVerifies) {
  const RandomOracle oracle(9);
  const PowTarget target = PowTarget::from_probability(0.5);
  crng::Stream rng(crng::Key{0, 2}, 0, 0, crng::Purpose::kGeneric);
  for (int i = 0; i < 100; ++i) {
    const auto block = try_mine(oracle, target, 1234, 5678, rng.bits());
    if (!block) continue;
    EXPECT_TRUE(oracle.verify(1234, block->nonce, 5678, block->hash));
    EXPECT_TRUE(target.satisfied_by(block->hash));
    EXPECT_EQ(block->parent_hash, 1234u);
    EXPECT_EQ(block->payload_digest, 5678u);
    return;  // found and checked at least one success
  }
  FAIL() << "no mining success in 100 tries at p = 0.5";
}

}  // namespace
}  // namespace neatbound::protocol
