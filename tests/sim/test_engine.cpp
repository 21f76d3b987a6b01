#include "sim/engine.hpp"

#include <gtest/gtest.h>
#include <memory>

#include "chains/convergence.hpp"
#include "protocol/validation.hpp"
#include "sim/strategies.hpp"
#include "support/contracts.hpp"

namespace neatbound::sim {
namespace {

EngineConfig small_config() {
  EngineConfig config;
  config.miner_count = 20;
  config.adversary_fraction = 0.0;
  config.p = 0.002;  // ≈ 0.04 blocks/round from 20 miners
  config.delta = 3;
  config.rounds = 4000;
  config.seed = 42;
  return config;
}

TEST(Engine, RunsAndCountsBlocks) {
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  EXPECT_EQ(result.honest_counts.size(), 4000u);
  std::uint64_t total = 0;
  for (const auto c : result.honest_counts) total += c;
  EXPECT_EQ(total, result.honest_blocks_total);
  EXPECT_GT(result.honest_blocks_total, 0u);
  EXPECT_EQ(result.adversary_blocks_total, 0u);
  // Store holds genesis + every mined block.
  EXPECT_EQ(result.store_size, result.honest_blocks_total + 1);
}

TEST(Engine, ConvergenceCountMatchesOfflineRecount) {
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  EXPECT_EQ(result.convergence_opportunities,
            chains::count_convergence_opportunities(result.honest_counts,
                                                    small_config().delta));
  EXPECT_GT(result.convergence_opportunities, 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  ExecutionEngine a(small_config(), std::make_unique<NullAdversary>());
  ExecutionEngine b(small_config(), std::make_unique<NullAdversary>());
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.honest_blocks_total, rb.honest_blocks_total);
  EXPECT_EQ(ra.honest_counts, rb.honest_counts);
  EXPECT_EQ(ra.convergence_opportunities, rb.convergence_opportunities);
  EXPECT_EQ(ra.chain.best_height, rb.chain.best_height);
}

TEST(Engine, DifferentSeedsDiffer) {
  EngineConfig other = small_config();
  other.seed = 43;
  ExecutionEngine a(small_config(), std::make_unique<NullAdversary>());
  ExecutionEngine b(other, std::make_unique<NullAdversary>());
  EXPECT_NE(a.run().honest_counts, b.run().honest_counts);
}

TEST(Engine, RunTwiceForbidden) {
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  (void)engine.run();
  EXPECT_THROW((void)engine.run(), ContractViolation);
}

TEST(Engine, HonestOnlyViewsConvergeEventually) {
  // With no adversary and immediate delivery, after a convergence
  // opportunity all honest tips agree; the divergence metric stays tiny.
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  // Same-round forks can still happen (two miners mine simultaneously),
  // but they resolve within a block or two.
  EXPECT_LE(result.violation_depth, 3u);
}

TEST(Engine, MaxDelayStillConsistentWhenQuiet) {
  // Max-delay benign adversary: consistency violations stay shallow when
  // c is large (few simultaneous blocks).
  EngineConfig config = small_config();
  config.p = 0.0005;  // c = 1/(p·n·Δ) ≈ 33
  ExecutionEngine engine(config,
                         std::make_unique<MaxDelayAdversary>(config.delta));
  const RunResult result = engine.run();
  EXPECT_LE(result.violation_depth, 3u);
  EXPECT_GT(result.chain.best_height, 0u);
}

TEST(Engine, AgreementAtConvergenceOpportunities) {
  // Protocol-level ground truth for the paper's Lemma 1 intuition: run
  // with the worst benign delivery (max delay), then confirm that at the
  // END of every convergence-opportunity pattern all honest tips agree.
  // We verify a necessary consequence: the best chain's height advanced
  // at least once per opportunity (each opportunity appends a new agreed
  // block), so height ≥ #opportunities.
  EngineConfig config = small_config();
  ExecutionEngine engine(config,
                         std::make_unique<MaxDelayAdversary>(config.delta));
  const RunResult result = engine.run();
  EXPECT_GE(result.chain.best_height, result.convergence_opportunities);
}

TEST(Engine, FinalChainValidates) {
  EngineConfig config = small_config();
  ExecutionEngine engine(config, std::make_unique<NullAdversary>());
  (void)engine.run();
  const auto report = protocol::validate_chain(
      engine.store(), engine.best_honest_tip(), engine.oracle());
  EXPECT_TRUE(report.valid) << report.failure;
}

TEST(Engine, ChainGrowthMatchesTheoryForNullAdversary) {
  // With d = 1 delivery the longest chain grows by ≥1 whenever some honest
  // miner succeeds; growth/round ≈ α/(1+something small).  Just check the
  // order of magnitude against α.
  EngineConfig config = small_config();
  config.rounds = 20000;
  ExecutionEngine engine(config, std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  const double alpha = 1.0 - std::pow(1.0 - config.p, 20.0);
  EXPECT_NEAR(result.chain.growth_per_round, alpha, alpha * 0.15);
}

TEST(Engine, QualityIsOneWithoutAdversary) {
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  EXPECT_DOUBLE_EQ(result.chain.quality, 1.0);
  EXPECT_EQ(result.chain.adversary_blocks_in_chain, 0u);
}

TEST(Engine, ConfigValidation) {
  EngineConfig config = small_config();
  config.miner_count = 3;
  EXPECT_THROW(
      ExecutionEngine(config, std::make_unique<NullAdversary>()),
      ContractViolation);
  config = small_config();
  config.adversary_fraction = 0.5;
  EXPECT_THROW(
      ExecutionEngine(config, std::make_unique<NullAdversary>()),
      ContractViolation);
  config = small_config();
  EXPECT_THROW(ExecutionEngine(config, nullptr), ContractViolation);
}

TEST(Engine, HonestBlockRateMatchesBinomialMean) {
  EngineConfig config = small_config();
  config.rounds = 30000;
  ExecutionEngine engine(config, std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  const double expected =
      static_cast<double>(config.rounds) * 20.0 * config.p;
  const double observed = static_cast<double>(result.honest_blocks_total);
  // sd ≈ sqrt(expected); allow 5σ.
  EXPECT_NEAR(observed, expected, 5.0 * std::sqrt(expected));
}

TEST(Engine, AdversaryMinesAtExpectedRate) {
  EngineConfig config = small_config();
  config.adversary_fraction = 0.3;  // 6 of 20 miners
  config.rounds = 30000;
  ExecutionEngine engine(config,
                         std::make_unique<PrivateWithholdAdversary>());
  const RunResult result = engine.run();
  const double expected =
      static_cast<double>(config.rounds) * 6.0 * config.p;
  EXPECT_NEAR(static_cast<double>(result.adversary_blocks_total), expected,
              5.0 * std::sqrt(expected));
  // Honest miners are now 14.
  const double expected_honest =
      static_cast<double>(config.rounds) * 14.0 * config.p;
  EXPECT_NEAR(static_cast<double>(result.honest_blocks_total),
              expected_honest, 5.0 * std::sqrt(expected_honest));
}

}  // namespace
}  // namespace neatbound::sim
