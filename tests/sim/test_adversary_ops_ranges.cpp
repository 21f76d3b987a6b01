// AdversaryOps answers two per-group questions per view class, not per
// honest miner: best_honest_tip_in(first, last) and
// publish_to_range(first, last, block, delay).  Pinned here by a
// differential: every strategy that asks them (fork balancer, balance
// attack, selfish mining at γ ∈ {0, 0.5, 1}), wrapped so that
//   * each best_honest_tip_in is checked against, and answered by, the
//     per-miner scan over honest_tips() that the classes replace, and
//   * each publish_to_range is expanded into one publish_to per member in
//     ascending order,
// must give the same RunResult and the same per-round records as the
// unwrapped strategy.  After every round, the per-miner tip array
// (rebuilt from the classes on demand) must agree with honest_tip(m) for
// every miner.  Honest counts 64 and 65 and ranges across the 64-bit word
// boundary cover the first/last-word masks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "support/contracts.hpp"

namespace neatbound::sim {
namespace {

/// Call and tie counts across a test, so the comparisons below are known
/// to have exercised both methods and the lowest-id tie rule.
struct Coverage {
  std::uint64_t tip_queries = 0;
  std::uint64_t tie_queries = 0;  ///< two distinct tips at the best height
  std::uint64_t range_publications = 0;
};

/// The per-miner answer: an ascending scan keeping a strictly higher tip.
protocol::BlockIndex scan_best_tip(const protocol::BlockStore& store,
                                   std::span<const protocol::BlockIndex> tips,
                                   std::uint32_t first, std::uint32_t last) {
  protocol::BlockIndex best = protocol::kGenesisIndex;
  for (std::uint32_t m = first; m < last; ++m) {
    if (store.height_of(tips[m]) > store.height_of(best)) best = tips[m];
  }
  return best;
}

/// Forwards to the engine's ops, but answers the range questions per
/// miner (asserting the engine's per-class answer equals the scan).
class PerMinerOps final : public AdversaryOps {
 public:
  PerMinerOps(AdversaryOps& inner, Coverage& coverage)
      : inner_(inner), coverage_(coverage) {}
  const protocol::BlockStore& store() const override {
    return inner_.store();
  }
  std::uint64_t round() const override { return inner_.round(); }
  std::uint64_t delta() const override { return inner_.delta(); }
  std::uint32_t honest_count() const override {
    return inner_.honest_count();
  }
  std::span<const protocol::BlockIndex> honest_tips() const override {
    return inner_.honest_tips();
  }
  protocol::BlockIndex best_honest_tip() const override {
    return inner_.best_honest_tip();
  }
  protocol::BlockIndex best_honest_tip_in(std::uint32_t first,
                                          std::uint32_t last) const override {
    const protocol::BlockStore& store = inner_.store();
    const auto tips = inner_.honest_tips();
    const protocol::BlockIndex best = scan_best_tip(store, tips, first, last);
    EXPECT_EQ(inner_.best_honest_tip_in(first, last), best)
        << "range [" << first << ", " << last << ") at round "
        << inner_.round();
    ++coverage_.tip_queries;
    std::set<protocol::BlockIndex> at_best;
    for (std::uint32_t m = first; m < last; ++m) {
      if (store.height_of(tips[m]) == store.height_of(best)) {
        at_best.insert(tips[m]);
      }
    }
    if (at_best.size() > 1) ++coverage_.tie_queries;
    return best;
  }
  std::uint64_t remaining_queries() const override {
    return inner_.remaining_queries();
  }
  std::optional<protocol::BlockIndex> mine_on(
      protocol::BlockIndex parent, std::uint64_t max_queries) override {
    return inner_.mine_on(parent, max_queries);
  }
  void publish_to(std::uint32_t recipient, protocol::BlockIndex block,
                  std::uint64_t delay) override {
    inner_.publish_to(recipient, block, delay);
  }
  void publish_to_range(std::uint32_t first, std::uint32_t last,
                        protocol::BlockIndex block,
                        std::uint64_t delay) override {
    ++coverage_.range_publications;
    for (std::uint32_t m = first; m < last; ++m) {
      inner_.publish_to(m, block, delay);
    }
  }
  void publish_to_all(protocol::BlockIndex block,
                      std::uint64_t delay) override {
    inner_.publish_to_all(block, delay);
  }

 private:
  AdversaryOps& inner_;
  Coverage& coverage_;
};

/// A strategy whose turns run through PerMinerOps.
class PerMinerAdversary final : public Adversary {
 public:
  PerMinerAdversary(std::unique_ptr<Adversary> inner, Coverage& coverage)
      : inner_(std::move(inner)), coverage_(coverage) {}
  void honest_delays(std::uint64_t round, std::uint32_t sender,
                     protocol::BlockIndex block,
                     std::span<std::uint64_t> out) override {
    inner_->honest_delays(round, sender, block, out);
  }
  void on_honest_block(std::uint64_t round,
                       protocol::BlockIndex block) override {
    inner_->on_honest_block(round, block);
  }
  void act(AdversaryOps& ops) override {
    PerMinerOps per_miner(ops, coverage_);
    inner_->act(per_miner);
  }
  bool quiet_act_is_noop() const override {
    return inner_->quiet_act_is_noop();
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Adversary> inner_;
  Coverage& coverage_;
};

struct Cell {
  const char* strategy;
  const char* strategy_params;  ///< JSON object
  const char* network;
  const char* label;
  bool asks_group_tips;   ///< the partition strategies
  bool publishes_ranges;  ///< all but selfish mining at γ = 0
};

const Cell kCells[] = {
    {"fork-balancer", "{}", "strategy", "fork_balancer_strategy",
     true, true},
    {"fork-balancer", "{}", "split", "fork_balancer_split",
     true, true},
    {"fork-balancer", "{}", "uniform", "fork_balancer_uniform",
     true, true},
    {"balance-attack", "{}", "strategy", "balance_attack_strategy",
     true, true},
    {"balance-attack", "{}", "split", "balance_attack_split",
     true, true},
    {"balance-attack", "{}", "uniform", "balance_attack_uniform",
     true, true},
    {"selfish-mining", R"({"gamma": 0})", "strategy", "selfish_g0_strategy",
     false, false},
    {"selfish-mining", R"({"gamma": 0})", "split", "selfish_g0_split",
     false, false},
    {"selfish-mining", R"({"gamma": 0})", "uniform", "selfish_g0_uniform",
     false, false},
    {"selfish-mining", R"({"gamma": 0.5})", "strategy", "selfish_g05_strategy",
     false, true},
    {"selfish-mining", R"({"gamma": 0.5})", "split", "selfish_g05_split",
     false, true},
    {"selfish-mining", R"({"gamma": 0.5})", "uniform", "selfish_g05_uniform",
     false, true},
    {"selfish-mining", R"({"gamma": 1})", "strategy", "selfish_g1_strategy",
     false, true},
    {"selfish-mining", R"({"gamma": 1})", "split", "selfish_g1_split",
     false, true},
    {"selfish-mining", R"({"gamma": 1})", "uniform", "selfish_g1_uniform",
     false, true},
};

// n = 5, 64, 65 and 130 at ν = 0.2 give 4, 51, 52 and 104 honest miners
// (the last with both halves and γ = 0.5 ranges crossing a word
// boundary); n = 80 and 81 give exactly 64 and 65, a range ending on a
// word's last bit and one reaching one bit into the next word.  p puts
// about 1.5 blocks in each Δ window, so forks and equal-height ties are
// common.
std::vector<EngineConfig> configs() {
  std::vector<EngineConfig> out;
  for (const std::uint32_t n : {5u, 64u, 65u, 80u, 81u, 130u}) {
    EngineConfig config;
    config.miner_count = n;
    config.adversary_fraction = 0.2;
    config.delta = 3;
    config.p = 1.5 / (static_cast<double>(n) * 3.0);
    config.rounds = 300;
    out.push_back(config);
  }
  return out;
}

/// Everything a round shows an observer.
struct RoundRecord {
  std::vector<protocol::BlockIndex> tips;
  protocol::BlockIndex best = 0;
  RoundActivity activity;
  std::vector<std::uint32_t> miners;

  bool operator==(const RoundRecord& o) const {
    return tips == o.tips && best == o.best &&
           activity.honest_mined == o.activity.honest_mined &&
           activity.adversary_mined == o.activity.adversary_mined &&
           activity.delivered == o.activity.delivered &&
           activity.adoptions == o.activity.adoptions &&
           activity.max_reorg_depth == o.activity.max_reorg_depth &&
           activity.max_reorg_view == o.activity.max_reorg_view &&
           miners == o.miners;
  }
};

std::unique_ptr<Adversary> make(const Cell& cell, const EngineConfig& config,
                                Coverage* per_miner) {
  auto adversary = scenario::ScenarioRegistry::builtin().make_adversary(
      cell.network, {}, cell.strategy,
      scenario::Params::from_object(scenario::parse_json(cell.strategy_params),
                                    {}),
      config);
  if (per_miner == nullptr) return adversary;
  return std::make_unique<PerMinerAdversary>(std::move(adversary), *per_miner);
}

/// Runs one cell; with `rounds`, observes every round, checking the
/// per-miner tip array against honest_tip(m) and recording the round.
RunResult run(const Cell& cell, const EngineConfig& config,
              Coverage* per_miner, std::vector<RoundRecord>* rounds) {
  ExecutionEngine engine(config, make(cell, config, per_miner));
  if (rounds == nullptr) return engine.run();
  return engine.run([rounds](const ExecutionEngine& e, std::uint64_t round) {
    const auto tips = e.honest_tips();
    ASSERT_EQ(tips.size(), e.honest_count());
    std::uint32_t mismatches = 0;
    for (std::uint32_t m = 0; m < tips.size(); ++m) {
      if (tips[m] != e.honest_tip(m)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "round " << round;
    const auto miners = e.round_miners();
    rounds->push_back({{tips.begin(), tips.end()},
                       e.best_honest_tip(),
                       e.round_activity(),
                       {miners.begin(), miners.end()}});
  });
}

// Field-by-field equality, telemetry counters included: both sides step
// or skip the same rounds, and per-member publish_to calls count as the
// range's schedule_set does.
void expect_same(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.honest_counts, b.honest_counts);
  EXPECT_EQ(a.honest_blocks_total, b.honest_blocks_total);
  EXPECT_EQ(a.adversary_blocks_total, b.adversary_blocks_total);
  EXPECT_EQ(a.convergence_opportunities, b.convergence_opportunities);
  EXPECT_EQ(a.max_reorg_depth, b.max_reorg_depth);
  EXPECT_EQ(a.max_divergence, b.max_divergence);
  EXPECT_EQ(a.disagreement_rounds, b.disagreement_rounds);
  EXPECT_EQ(a.violation_depth, b.violation_depth);
  EXPECT_EQ(a.chain.best_height, b.chain.best_height);
  EXPECT_EQ(a.chain.growth_per_round, b.chain.growth_per_round);
  EXPECT_EQ(a.chain.honest_blocks_in_chain, b.chain.honest_blocks_in_chain);
  EXPECT_EQ(a.chain.adversary_blocks_in_chain,
            b.chain.adversary_blocks_in_chain);
  EXPECT_EQ(a.chain.quality, b.chain.quality);
  EXPECT_EQ(a.store_size, b.store_size);
  EXPECT_EQ(a.telemetry.counters, b.telemetry.counters);
}

class AdversaryOpsRanges : public ::testing::TestWithParam<Cell> {};

TEST_P(AdversaryOpsRanges, PerClassAnswersEqualPerMiner) {
  const Cell cell = GetParam();
  Coverage coverage;
  for (EngineConfig config : configs()) {
    for (std::uint64_t seed = 900; seed < 903; ++seed) {
      config.seed = seed;
      SCOPED_TRACE("n=" + std::to_string(config.miner_count) +
                   " seed=" + std::to_string(seed));
      expect_same(run(cell, config, &coverage, nullptr),
                  run(cell, config, nullptr, nullptr));
      std::vector<RoundRecord> class_rounds;
      std::vector<RoundRecord> miner_rounds;
      expect_same(run(cell, config, &coverage, &miner_rounds),
                  run(cell, config, nullptr, &class_rounds));
      ASSERT_EQ(class_rounds.size(), config.rounds);
      ASSERT_EQ(miner_rounds.size(), config.rounds);
      for (std::size_t r = 0; r < class_rounds.size(); ++r) {
        ASSERT_TRUE(class_rounds[r] == miner_rounds[r]) << "round " << r + 1;
      }
    }
  }
  // Tied group tips must occur, or the lowest-id rule went untested.
  // Selfish mining at γ = 0 releases through publish_to_all only; it is
  // here for the per-miner tip check.
  if (cell.asks_group_tips) {
    EXPECT_GT(coverage.tip_queries, 0u);
    EXPECT_GT(coverage.tie_queries, 0u);
  }
  if (cell.publishes_ranges) {
    EXPECT_GT(coverage.range_publications, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, AdversaryOpsRanges, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return std::string(info.param.label);
    });

/// Contract: ranges must lie within [0, honest_count()], an empty range
/// finds genesis and publishes nothing.
class RangeProbe final : public Adversary {
 public:
  void honest_delays(std::uint64_t, std::uint32_t, protocol::BlockIndex,
                     std::span<std::uint64_t> out) override {
    std::fill(out.begin(), out.end(), 1);
  }
  void act(AdversaryOps& ops) override {
    const std::uint32_t n = ops.honest_count();
    EXPECT_THROW((void)ops.best_honest_tip_in(1, 0), ContractViolation);
    EXPECT_THROW((void)ops.best_honest_tip_in(0, n + 1), ContractViolation);
    EXPECT_THROW(ops.publish_to_range(2, 1, protocol::kGenesisIndex, 1),
                 ContractViolation);
    EXPECT_THROW(ops.publish_to_range(0, n + 1, protocol::kGenesisIndex, 1),
                 ContractViolation);
    EXPECT_EQ(ops.best_honest_tip_in(n / 2, n / 2), protocol::kGenesisIndex);
    EXPECT_EQ(ops.best_honest_tip_in(0, n), ops.best_honest_tip());
    ++turns_;
  }
  const char* name() const override { return "range-probe"; }

  std::uint64_t turns_ = 0;
};

TEST(AdversaryOpsRangesContract, RejectsBadRangesAndAnswersEmptyOnes) {
  EngineConfig config;
  config.miner_count = 70;
  config.adversary_fraction = 0.1;
  config.p = 0.01;
  config.delta = 2;
  config.rounds = 100;
  config.seed = 5;
  auto probe = std::make_unique<RangeProbe>();
  const RangeProbe* seen = probe.get();
  ExecutionEngine engine(config, std::move(probe));
  (void)engine.run();
  EXPECT_EQ(seen->turns_, config.rounds);
  EXPECT_THROW((void)engine.best_honest_tip_in(0, engine.honest_count() + 1),
               ContractViolation);
}

}  // namespace
}  // namespace neatbound::sim
