#include "chains/frequencies.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "sim/aggregate.hpp"

namespace neatbound::chains {
namespace {

/// Collects each round's honest block count (index i = round i+1).
class HonestCounts final : public sim::RoundTraceSink {
 public:
  void on_round(const sim::RoundRecord& record) override {
    counts.push_back(record.honest_mined);
  }
  std::vector<std::uint32_t> counts;
};

TEST(SuffixFrequencies, HandCraftedTrace) {
  // Δ = 2; counts 1,0,1,0,0,0,1 → series H,N,H,N,N,N,H.
  // Classified from t=2 (second H): states:
  //   t2: ShortGapHead; t3: ShortGapTail(1); t4: LongGap (run hits Δ=2);
  //   wait — tail 1 + N → tail 2 > Δ−1=1 → LongGap at t4; t5: LongGap;
  //   t6: LongGapTail(0).
  const std::vector<std::uint32_t> counts = {1, 0, 1, 0, 0, 0, 1};
  const auto report = suffix_frequencies(counts, 2);
  const SuffixStateSpace space(2);
  EXPECT_EQ(report.total_rounds, 7u);
  EXPECT_EQ(report.classified_rounds, 5u);
  EXPECT_EQ(report.visits[space.index_of({SuffixKind::kShortGapHead, 0})],
            1u);
  EXPECT_EQ(report.visits[space.index_of({SuffixKind::kShortGapTail, 1})],
            1u);
  EXPECT_EQ(report.visits[space.index_of({SuffixKind::kLongGap, 0})], 2u);
  EXPECT_EQ(report.visits[space.index_of({SuffixKind::kLongGapTail, 0})],
            1u);
}

TEST(SuffixFrequencies, EmptyTrace) {
  const std::vector<std::uint32_t> counts;
  const auto report = suffix_frequencies(counts, 3);
  EXPECT_EQ(report.classified_rounds, 0u);
  EXPECT_EQ(report.frequency(0), 0.0);
}

TEST(SuffixFrequencies, MultiBlockRoundsCountAsH) {
  const std::vector<std::uint32_t> counts = {3, 2, 7};
  const auto report = suffix_frequencies(counts, 2);
  const SuffixStateSpace space(2);
  // H,H,H: classified from the 2nd round; both are ShortGapHead.
  EXPECT_EQ(report.visits[space.index_of({SuffixKind::kShortGapHead, 0})],
            2u);
}

// The pipeline test: simulate per-round binomial mining, classify, and
// compare the visit frequencies with the Eq. (37) stationary law.
struct PipelineCase {
  std::uint64_t delta;
  double honest_trials;
  double p;
};

class FrequencyPipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(FrequencyPipeline, EmpiricalMatchesClosedForm) {
  const auto [delta, trials, p] = GetParam();
  sim::AggregateConfig config;
  config.honest_trials = trials;
  config.adversary_trials = 0.0;
  config.p = p;
  config.delta = delta;
  config.rounds = 400000;
  config.seed = 321;
  HonestCounts trace;
  (void)sim::run_aggregate_traced(config, trace);

  const auto report = suffix_frequencies(trace.counts, delta);
  const SuffixStateSpace space(delta);
  const double alpha = 1.0 - std::pow(1.0 - p, trials);
  // Dependent-sample tolerance: generous 5/sqrt(T) plus a floor.
  const double tolerance =
      5.0 / std::sqrt(static_cast<double>(report.classified_rounds)) + 1e-3;
  EXPECT_LT(max_frequency_error(report, space, alpha), tolerance);
  EXPECT_GT(static_cast<double>(report.classified_rounds),
            0.9 * static_cast<double>(report.total_rounds));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FrequencyPipeline,
    ::testing::Values(PipelineCase{1, 100, 0.002},
                      PipelineCase{2, 150, 0.001},
                      PipelineCase{4, 150, 0.001},
                      PipelineCase{8, 200, 0.0005},
                      PipelineCase{3, 50, 0.01}));

}  // namespace
}  // namespace neatbound::chains
