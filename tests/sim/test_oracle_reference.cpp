// An independent per-round reference for the invariant oracle and the
// consistency tracker.
//
// The oracle reads the tracker's per-round divergence, the engine skips
// the tracker on rounds where no view changed, and chain quality walks
// only when the best tip moves — so the oracle↔tracker cross-check in
// test_oracle.cpp compares two readers of one value.  This file restores
// the independent check: an observer recomputes every round from the
// per-miner tips with the direct algorithm (distinct tips in miner order,
// pairwise height − common_prefix_height, a K-parent quality walk every
// round) and must agree with the engine each round, with RunResult's
// divergence totals, and — as a full reference oracle — with the
// InvariantOracle's frozen violation, views and slice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "sim/oracle.hpp"
#include "sim/trace.hpp"

namespace neatbound::sim {
namespace {

/// The oracle with every quantity recomputed from the per-miner tips each
/// round: no tracker input, no memo, no skipped work.
class ReferenceOracle {
 public:
  explicit ReferenceOracle(OracleConfig config) : config_(config) {
    if (config_.growth_window > 0) {
      height_ring_.assign(config_.growth_window, 0);
    }
  }

  void observe(const ExecutionEngine& engine, std::uint64_t round) {
    if (!violation.has_value()) {
      RoundRecord record;
      fill_round_record(engine, round, record);
      ring_.push_back(record);
      if (ring_.size() > config_.slice_rounds) ring_.erase(ring_.begin());
    }
    check_common_prefix(engine, round);
    if (config_.growth_window > 0) check_chain_growth(engine, round);
    if (config_.quality_window > 0) check_chain_quality(engine, round);
  }

  // This round's divergence and the running totals the tracker keeps.
  std::uint64_t divergence = 0;
  std::uint64_t max_divergence = 0;
  std::uint64_t disagreement_rounds = 0;
  std::uint64_t max_round_depth = 0;

  std::optional<OracleViolation> violation;
  std::vector<ViewSnapshot> views;
  std::vector<RoundRecord> slice;

 private:
  void check_common_prefix(const ExecutionEngine& engine,
                           std::uint64_t round) {
    const auto tips = engine.honest_tips();
    const auto& store = engine.store();
    std::vector<protocol::BlockIndex> distinct;
    std::vector<std::uint32_t> owner;
    for (std::uint32_t m = 0; m < tips.size(); ++m) {
      if (std::find(distinct.begin(), distinct.end(), tips[m]) ==
          distinct.end()) {
        distinct.push_back(tips[m]);
        owner.push_back(m);
      }
    }
    divergence = 0;
    std::size_t arg_i = 0;
    std::size_t arg_j = 0;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      for (std::size_t j = i + 1; j < distinct.size(); ++j) {
        const std::uint64_t common =
            store.common_prefix_height(distinct[i], distinct[j]);
        const std::uint64_t deeper = std::max(store.height_of(distinct[i]),
                                              store.height_of(distinct[j]));
        if (deeper - common > divergence) {
          divergence = deeper - common;
          arg_i = i;
          arg_j = j;
        }
      }
    }
    max_divergence = std::max(max_divergence, divergence);
    if (distinct.size() >= 2) ++disagreement_rounds;
    const std::uint64_t reorg = engine.round_activity().max_reorg_depth;
    const std::uint64_t depth = std::max(divergence, reorg);
    max_round_depth = std::max(max_round_depth, depth);
    if (!config_.common_prefix || violation.has_value()) return;
    if (depth <= config_.common_prefix_t) return;
    OracleViolation found;
    found.kind = InvariantKind::kCommonPrefix;
    found.round = round;
    found.measured = depth;
    found.bound = config_.common_prefix_t;
    if (divergence >= reorg) {
      found.view_a = owner[arg_i];
      found.view_b = owner[arg_j];
    } else {
      found.view_a = engine.round_activity().max_reorg_view;
      found.view_b = found.view_a;
    }
    freeze(engine, found);
  }

  void check_chain_growth(const ExecutionEngine& engine,
                          std::uint64_t round) {
    const std::uint64_t window = config_.growth_window;
    const std::uint64_t height = engine.best_height();
    if (round > window && !violation.has_value()) {
      const std::uint64_t grown = height - height_ring_[round % window];
      if (grown < config_.growth_min_blocks) {
        OracleViolation found;
        found.kind = InvariantKind::kChainGrowth;
        found.round = round;
        found.measured = grown;
        found.bound = config_.growth_min_blocks;
        freeze(engine, found);
      }
    }
    height_ring_[round % window] = height;
  }

  void check_chain_quality(const ExecutionEngine& engine,
                           std::uint64_t round) {
    const std::uint64_t window = config_.quality_window;
    if (violation.has_value() || engine.best_height() < window) return;
    const auto& store = engine.store();
    protocol::BlockIndex block = engine.best_honest_tip();
    std::uint64_t honest = 0;
    for (std::uint64_t i = 0; i < window; ++i) {
      if (store.miner_class_of(block) == protocol::MinerClass::kHonest) {
        ++honest;
      }
      block = store.parent_of(block);
    }
    const auto required = static_cast<std::uint64_t>(std::ceil(
        config_.quality_min_ratio * static_cast<double>(window)));
    if (honest >= required) return;
    OracleViolation found;
    found.kind = InvariantKind::kChainQuality;
    found.round = round;
    found.measured = honest;
    found.bound = required;
    freeze(engine, found);
  }

  void freeze(const ExecutionEngine& engine, const OracleViolation& found) {
    violation = found;
    const auto tips = engine.honest_tips();
    for (std::uint32_t m = 0; m < tips.size(); ++m) {
      views.push_back({m, tips[m], engine.store().height_of(tips[m]),
                       engine.store().hash_of(tips[m])});
    }
    slice = ring_;
  }

  OracleConfig config_;
  std::vector<std::uint64_t> height_ring_;
  std::vector<RoundRecord> ring_;
};

bool same_record(const RoundRecord& a, const RoundRecord& b) {
  return a.round == b.round && a.honest_mined == b.honest_mined &&
         a.adversary_mined == b.adversary_mined && a.mined_by == b.mined_by &&
         a.delivered == b.delivered && a.adoptions == b.adoptions &&
         a.best_height == b.best_height &&
         a.violation_depth == b.violation_depth;
}

std::string describe(const OracleViolation& v) {
  return std::string(invariant_name(v.kind)) + " round " +
         std::to_string(v.round) + " measured " + std::to_string(v.measured) +
         " bound " + std::to_string(v.bound) + " views " +
         std::to_string(v.view_a) + "/" + std::to_string(v.view_b);
}

/// Violation-prone: high ν, hardness far below the neat bound.
EngineConfig violent_config(std::uint64_t seed) {
  EngineConfig config;
  config.miner_count = 12;
  config.adversary_fraction = 0.4;
  config.p = 0.03;
  config.delta = 3;
  config.rounds = 300;
  config.seed = seed;
  return config;
}

/// The oracle arming of each pass over the grid: every invariant alone at
/// a threshold some cells break and others keep, then all three at once.
std::vector<OracleConfig> oracle_configs() {
  OracleConfig prefix;
  prefix.common_prefix_t = 2;
  prefix.slice_rounds = 16;

  OracleConfig growth;
  growth.common_prefix = false;
  growth.growth_window = 40;
  growth.growth_min_blocks = 3;
  growth.slice_rounds = 16;

  OracleConfig quality;
  quality.common_prefix = false;
  quality.quality_window = 8;
  quality.quality_min_ratio = 0.75;
  quality.slice_rounds = 16;

  OracleConfig all;
  all.common_prefix_t = 4;
  all.growth_window = 40;
  all.growth_min_blocks = 3;
  all.quality_window = 6;
  all.quality_min_ratio = 0.8;
  all.slice_rounds = 16;
  return {prefix, growth, quality, all};
}

TEST(OracleReference, EveryRoundMatchesADirectRecomputation) {
  const std::vector<std::string> strategies = {
      "null",           "max-delay",     "private-withhold", "balance-attack",
      "selfish-mining", "fork-balancer", "delay-saturate"};
  const std::vector<std::string> networks = {"strategy", "uniform", "split",
                                             "immediate"};
  const auto& registry = scenario::ScenarioRegistry::builtin();
  const std::vector<OracleConfig> arms = oracle_configs();

  std::vector<std::size_t> fired(3, 0);
  std::size_t clean_runs = 0;
  std::uint64_t seed = 4100;
  for (const std::string& network : networks) {
    for (const std::string& strategy : strategies) {
      for (std::size_t a = 0; a < arms.size(); ++a) {
        const EngineConfig config = violent_config(++seed);
        const std::string label = network + " × " + strategy + " arm " +
                                  std::to_string(a) + " seed " +
                                  std::to_string(config.seed);
        InvariantOracle oracle(arms[a]);
        ReferenceOracle reference(arms[a]);
        std::uint64_t first_mismatch = 0;
        ExecutionEngine engine(
            config, registry.make_adversary(network, scenario::Params{},
                                            strategy, scenario::Params{},
                                            config));
        const RunResult result = engine.run(
            [&](const ExecutionEngine& e, std::uint64_t round) {
              reference.observe(e, round);
              oracle.observe(e, round);
              if (first_mismatch == 0 &&
                  reference.divergence != e.round_divergence()) {
                first_mismatch = round;
              }
            });

        EXPECT_EQ(first_mismatch, 0u)
            << label << ": the engine's per-round divergence differs from "
            << "the per-miner recomputation first at this round";
        EXPECT_EQ(reference.max_divergence, result.max_divergence) << label;
        EXPECT_EQ(reference.disagreement_rounds, result.disagreement_rounds)
            << label;
        EXPECT_EQ(reference.max_round_depth, oracle.max_round_depth())
            << label;
        EXPECT_EQ(reference.max_round_depth, result.violation_depth) << label;

        ASSERT_EQ(oracle.violated(), reference.violation.has_value())
            << label;
        if (!oracle.violated()) {
          ++clean_runs;
          continue;
        }
        ++fired[static_cast<std::size_t>(reference.violation->kind)];
        EXPECT_EQ(oracle.first_violation(), *reference.violation)
            << label << ": oracle " << describe(oracle.first_violation())
            << ", reference " << describe(*reference.violation);
        EXPECT_EQ(oracle.violating_views(), reference.views) << label;
        const auto& slice = oracle.violation_slice();
        ASSERT_EQ(slice.size(), reference.slice.size()) << label;
        for (std::size_t i = 0; i < slice.size(); ++i) {
          EXPECT_TRUE(same_record(slice[i], reference.slice[i]))
              << label << ": slice record " << i;
        }
      }
    }
  }
  // Not vacuous: each invariant kind fires somewhere, and some runs hold
  // every armed invariant to the end.
  EXPECT_GE(fired[static_cast<std::size_t>(InvariantKind::kCommonPrefix)], 1u);
  EXPECT_GE(fired[static_cast<std::size_t>(InvariantKind::kChainGrowth)], 1u);
  EXPECT_GE(fired[static_cast<std::size_t>(InvariantKind::kChainQuality)], 1u);
  EXPECT_GE(clean_runs, 1u);
}

}  // namespace
}  // namespace neatbound::sim
