// AdversaryOps::mine_on(parent, max_queries) jumps to the next success of
// the adversary's Bernoulli field instead of testing each query.  Pinned
// here two ways:
//   * differential — every built-in strategy, wrapped so that each of its
//     mine_on calls is replayed as one-query mine_on(parent, 1) calls,
//     must give the same RunResult and the same per-round records as the
//     unwrapped strategy, on stepped (observed) and quiet-skipped runs;
//   * contract — max_queries of 0 or above the remaining budget throws,
//     and a miss spends exactly the queries it was given.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "support/contracts.hpp"

namespace neatbound::sim {
namespace {

/// Forwards to the engine's ops, but spends every mine_on as one-query
/// calls on the same parent, stopping at the first success.
class OneQueryOps final : public AdversaryOps {
 public:
  explicit OneQueryOps(AdversaryOps& inner) : inner_(inner) {}
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
  std::uint64_t remaining_queries() const override {
    return inner_.remaining_queries();
  }
  std::optional<protocol::BlockIndex> mine_on(
      protocol::BlockIndex parent, std::uint64_t max_queries) override {
    for (std::uint64_t q = 0; q < max_queries; ++q) {
      if (const auto mined = inner_.mine_on(parent, 1)) return mined;
    }
    return std::nullopt;
  }
  void publish_to(std::uint32_t recipient, protocol::BlockIndex block,
                  std::uint64_t delay) override {
    inner_.publish_to(recipient, block, delay);
  }
  void publish_to_all(protocol::BlockIndex block,
                      std::uint64_t delay) override {
    inner_.publish_to_all(block, delay);
  }

 private:
  AdversaryOps& inner_;
};

/// A strategy whose turns run through OneQueryOps.
class OneQueryAtATime final : public Adversary {
 public:
  explicit OneQueryAtATime(std::unique_ptr<Adversary> inner)
      : inner_(std::move(inner)) {}
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
    OneQueryOps one(ops);
    inner_->act(one);
  }
  bool quiet_act_is_noop() const override {
    return inner_->quiet_act_is_noop();
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Adversary> inner_;
};

struct Cell {
  const char* strategy;
  const char* network;
};

// The quiet-skip battery's pairs: all seven strategies, all seven models.
const Cell kCells[] = {
    {"null", "immediate"},
    {"max-delay", "max-delay"},
    {"private-withhold", "uniform"},
    {"balance-attack", "split"},
    {"selfish-mining", "bursty"},
    {"fork-balancer", "strategy"},
    {"delay-saturate", "eclipse"},
};

// Two shapes: the battery's sparse n = 12 cell, and a busy n = 40 cell
// whose 18 queries per round often hold several successes, so a round's
// budget is spent over several jumps.
std::vector<EngineConfig> configs() {
  EngineConfig sparse;
  sparse.miner_count = 12;
  sparse.adversary_fraction = 0.4;
  sparse.delta = 3;
  sparse.p = 0.04692883195696345;
  sparse.rounds = 300;
  EngineConfig busy;
  busy.miner_count = 40;
  busy.adversary_fraction = 0.45;
  busy.delta = 4;
  busy.p = 0.05;
  busy.rounds = 400;
  return {sparse, busy};
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
                                bool one_query) {
  auto adversary = scenario::ScenarioRegistry::builtin().make_adversary(
      cell.network, {}, cell.strategy, {}, config);
  if (!one_query) return adversary;
  return std::make_unique<OneQueryAtATime>(std::move(adversary));
}

RunResult run(const Cell& cell, const EngineConfig& config, bool one_query,
              std::vector<RoundRecord>* rounds) {
  ExecutionEngine engine(config, make(cell, config, one_query));
  if (rounds == nullptr) return engine.run();
  return engine.run([rounds](const ExecutionEngine& e, std::uint64_t) {
    const auto tips = e.honest_tips();
    const auto miners = e.round_miners();
    rounds->push_back({{tips.begin(), tips.end()},
                       e.best_honest_tip(),
                       e.round_activity(),
                       {miners.begin(), miners.end()}});
  });
}

// Field-by-field equality.  Telemetry counters (all zeros in telemetry-OFF
// builds) are compared only between runs that skip the same rounds.
void expect_same(const RunResult& a, const RunResult& b,
                 bool same_skipping) {
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
  if (same_skipping) {
    EXPECT_EQ(a.telemetry.counters, b.telemetry.counters);
  }
}

class MineOnJump : public ::testing::TestWithParam<Cell> {};

TEST_P(MineOnJump, JumpEqualsOneQueryAtATime) {
  const Cell cell = GetParam();
  std::uint64_t adversary_blocks = 0;
  for (EngineConfig config : configs()) {
    for (std::uint64_t seed = 500; seed < 506; ++seed) {
      config.seed = seed;
      SCOPED_TRACE("n=" + std::to_string(config.miner_count) +
                   " seed=" + std::to_string(seed));
      // Quiet-skipped (unobserved) runs.
      const RunResult jump = run(cell, config, false, nullptr);
      expect_same(run(cell, config, true, nullptr), jump, true);
      // Stepped (observed) runs, round by round.
      std::vector<RoundRecord> jump_rounds;
      std::vector<RoundRecord> one_rounds;
      const RunResult stepped = run(cell, config, false, &jump_rounds);
      expect_same(stepped, jump, false);
      expect_same(run(cell, config, true, &one_rounds), stepped, true);
      ASSERT_EQ(jump_rounds.size(), config.rounds);
      ASSERT_EQ(one_rounds.size(), config.rounds);
      for (std::size_t r = 0; r < jump_rounds.size(); ++r) {
        ASSERT_TRUE(jump_rounds[r] == one_rounds[r]) << "round " << r + 1;
      }
      adversary_blocks += jump.adversary_blocks_total;
    }
  }
  // The null strategy never mines; every other one must, or the
  // comparison above says nothing about mine_on.
  if (std::string(cell.strategy) != "null") {
    EXPECT_GT(adversary_blocks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, MineOnJump, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name = std::string(info.param.strategy) + "_" +
                         info.param.network;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// Probes the mine_on contract from inside act(): illegal budgets throw
/// and spend nothing, a miss spends exactly the queries it was given, and
/// a hit spends at least one and at most that many.
class ContractProbe final : public Adversary {
 public:
  void honest_delays(std::uint64_t, std::uint32_t, protocol::BlockIndex,
                     std::span<std::uint64_t> out) override {
    std::fill(out.begin(), out.end(), 1);
  }
  void act(AdversaryOps& ops) override {
    const std::uint64_t budget = ops.remaining_queries();
    EXPECT_THROW((void)ops.mine_on(tip_, 0), ContractViolation);
    EXPECT_THROW((void)ops.mine_on(tip_, budget + 1), ContractViolation);
    EXPECT_EQ(ops.remaining_queries(), budget);  // a rejected call is free
    // Alternate a half-budget call with a call spending the rest.
    while (ops.remaining_queries() > 0) {
      const std::uint64_t before = ops.remaining_queries();
      const std::uint64_t k = before > 1 && half_ ? before / 2 : before;
      half_ = !half_;
      if (const auto mined = ops.mine_on(tip_, k)) {
        ++hits_;
        tip_ = *mined;
        EXPECT_LT(ops.remaining_queries(), before);
        EXPECT_GE(ops.remaining_queries(), before - k);
      } else {
        ++misses_;
        EXPECT_EQ(ops.remaining_queries(), before - k);
      }
    }
    EXPECT_THROW((void)ops.mine_on(tip_, 1), ContractViolation);
  }
  const char* name() const override { return "contract-probe"; }

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

 private:
  protocol::BlockIndex tip_ = protocol::kGenesisIndex;
  bool half_ = true;
};

TEST(MineOnContract, RejectsIllegalBudgetsAndSpendsMisses) {
  EngineConfig config;
  config.miner_count = 20;
  config.adversary_fraction = 0.4;
  config.p = 0.05;
  config.delta = 2;
  config.rounds = 200;
  config.seed = 3;
  auto probe = std::make_unique<ContractProbe>();
  const ContractProbe* seen = probe.get();
  ExecutionEngine engine(config, std::move(probe));
  const RunResult result = engine.run();
  EXPECT_GT(seen->hits_, 0u);
  EXPECT_GT(seen->misses_, 0u);
  EXPECT_EQ(result.adversary_blocks_total, seen->hits_);
}

}  // namespace
}  // namespace neatbound::sim
