// Differential battery pinning the engine's quiet-round fast path.
// ExecutionEngine::run() commits provably quiet rounds in O(1) when no
// observer is attached, and steps every round when one is — so a run with
// a no-op observer is the no-skip reference, and both must produce
// *exactly* the same RunResult, telemetry event counters included.
// Draws are pure functions of (key, counter), so skipping a round cannot
// shift any later draw.  This battery is also where observer purity is
// pinned: an armed oracle and a round tracer leave every field as is.
// Every adversary strategy runs here over a distinct network model, so
// all seven strategies and all seven models are covered.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "sim/oracle.hpp"
#include "sim/trace.hpp"
#include "support/crng.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {
namespace {

struct Cell {
  const char* strategy;
  const char* network;
};

// Every built-in strategy, each over a different built-in network model,
// so one sweep covers both registries end to end.
const Cell kCells[] = {
    {"null", "immediate"},
    {"max-delay", "max-delay"},
    {"private-withhold", "uniform"},
    {"balance-attack", "split"},
    {"selfish-mining", "bursty"},
    {"fork-balancer", "strategy"},
    {"delay-saturate", "eclipse"},
};

constexpr std::uint32_t kSeeds = 16;
constexpr std::uint64_t kBaseSeed = 9000;

EngineConfig base_config() {
  EngineConfig config;
  config.miner_count = 12;
  config.adversary_fraction = 0.4;
  config.delta = 3;
  config.p = 0.04692883195696345;
  config.rounds = 300;
  return config;
}

std::unique_ptr<Adversary> make_adversary(const Cell& cell,
                                          const EngineConfig& config) {
  return scenario::ScenarioRegistry::builtin().make_adversary(
      cell.network, {}, cell.strategy, {}, config);
}

RunResult run_seed(const Cell& cell, std::uint64_t seed,
                   const ExecutionEngine::RoundObserver& observer = {}) {
  EngineConfig config = base_config();
  config.seed = seed;
  ExecutionEngine engine(config, make_adversary(cell, config));
  return engine.run(observer);
}

void no_op_observer(const ExecutionEngine&, std::uint64_t) {}

// Field-by-field equality of an observed run `got` with the unobserved
// run `want`.  Of the telemetry snapshot (all zeros in telemetry-OFF
// builds) phase wall times are not part of the trajectory, and two
// counters legitimately differ: only the unobserved run skips quiet
// rounds, and an armed oracle's own lookups add ancestry queries.
void expect_result_equal(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.honest_counts, want.honest_counts);
  EXPECT_EQ(got.honest_blocks_total, want.honest_blocks_total);
  EXPECT_EQ(got.adversary_blocks_total, want.adversary_blocks_total);
  EXPECT_EQ(got.convergence_opportunities, want.convergence_opportunities);
  EXPECT_EQ(got.max_reorg_depth, want.max_reorg_depth);
  EXPECT_EQ(got.max_divergence, want.max_divergence);
  EXPECT_EQ(got.disagreement_rounds, want.disagreement_rounds);
  EXPECT_EQ(got.violation_depth, want.violation_depth);
  EXPECT_EQ(got.chain.best_height, want.chain.best_height);
  EXPECT_EQ(got.chain.growth_per_round, want.chain.growth_per_round);
  EXPECT_EQ(got.chain.honest_blocks_in_chain,
            want.chain.honest_blocks_in_chain);
  EXPECT_EQ(got.chain.adversary_blocks_in_chain,
            want.chain.adversary_blocks_in_chain);
  EXPECT_EQ(got.chain.quality, want.chain.quality);
  EXPECT_EQ(got.store_size, want.store_size);
  for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
    const auto counter = static_cast<telemetry::Counter>(i);
    if (counter == telemetry::Counter::kQuietRoundsSkipped) continue;
    if (counter == telemetry::Counter::kAncestryQueries) {
      EXPECT_GE(got.telemetry.counters[i], want.telemetry.counters[i]);
    } else {
      EXPECT_EQ(got.telemetry.counters[i], want.telemetry.counters[i])
          << telemetry::counter_name(counter);
    }
  }
}

class QuietSkipEquivalence : public ::testing::TestWithParam<Cell> {};

// Per seed, three runs of one cell: unobserved (skips quiet rounds), with
// a no-op observer (steps every round — the skip ≡ no-skip pin), and with
// an invariant oracle and a round tracer armed (observers are read-only).
// All three must agree on every RunResult field, for every strategy.
TEST_P(QuietSkipEquivalence, SkippingSteppedAndArmedRunsAgree) {
  const Cell cell = GetParam();
  OracleConfig oracle_config;
  oracle_config.common_prefix_t = 3;
  oracle_config.slice_rounds = 32;
  for (std::uint64_t seed = kBaseSeed; seed < kBaseSeed + kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunResult skipped = run_seed(cell, seed);
    expect_result_equal(run_seed(cell, seed, no_op_observer), skipped);

    InvariantOracle oracle(oracle_config);
    std::ostringstream stream;
    BoundedTraceWriter writer(stream, TraceBounds{});
    const ExecutionEngine::RoundObserver tracer = make_round_tracer(writer);
    expect_result_equal(
        run_seed(cell, seed,
                 [&](const ExecutionEngine& engine, std::uint64_t round) {
                   oracle.observe(engine, round);
                   tracer(engine, round);
                 }),
        skipped);
    // The tracer saw every round; its stream must parse back as exactly
    // `rounds` strict records.
    std::istringstream in(stream.str());
    EXPECT_EQ(read_trace_jsonl(in).size(), base_config().rounds);
    // An oracle that fired must report a depth the unobserved run also
    // measured — observation cannot invent or lose violations.
    if (oracle.violated()) {
      EXPECT_GT(skipped.violation_depth, oracle_config.common_prefix_t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, QuietSkipEquivalence, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name = std::string(info.param.strategy) + "_" +
                         info.param.network;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// Forwards everything to a quiet-act strategy and counts act() calls, so
/// a test can see how many rounds the engine actually stepped.
class CountingAdversary final : public Adversary {
 public:
  CountingAdversary(std::unique_ptr<Adversary> inner, std::uint64_t& acts)
      : inner_(std::move(inner)), acts_(acts) {}
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
    ++acts_;
    inner_->act(ops);
  }
  bool quiet_act_is_noop() const override { return true; }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Adversary> inner_;
  std::uint64_t& acts_;
};

// The battery above cannot tell "skipping agrees with stepping" from
// "skipping never happens".  On a sparse cell most rounds are quiet, so
// an unobserved run must step strictly fewer than T rounds, while an
// observed run steps exactly T — and both still agree field for field.
TEST(QuietSkip, UnobservedRunSkipsRoundsObservedRunStepsAll) {
  EngineConfig config = base_config();
  config.p = 0.002;
  config.rounds = 2000;
  config.seed = kBaseSeed;
  const Cell cell{"private-withhold", "immediate"};
  ASSERT_TRUE(make_adversary(cell, config)->quiet_act_is_noop());

  std::uint64_t skipping_acts = 0;
  ExecutionEngine skipping(
      config, std::make_unique<CountingAdversary>(make_adversary(cell, config),
                                                  skipping_acts));
  const RunResult skipped = skipping.run();

  std::uint64_t stepping_acts = 0;
  ExecutionEngine stepping(
      config, std::make_unique<CountingAdversary>(make_adversary(cell, config),
                                                  stepping_acts));
  const RunResult stepped = stepping.run(no_op_observer);

  EXPECT_EQ(stepping_acts, config.rounds);
  EXPECT_LT(skipping_acts, config.rounds);
  EXPECT_GT(skipped.honest_blocks_total, 0u);
  expect_result_equal(stepped, skipped);
  if (telemetry::enabled()) {
    // Every stepped round calls act(), so the rest were skipped.
    EXPECT_EQ(skipped.telemetry.counters[static_cast<std::size_t>(
                  telemetry::Counter::kQuietRoundsSkipped)],
              config.rounds - skipping_acts);
  }
}

// Counter-RNG order independence: a draw's value depends only on its
// (key, counter) address, never on which draws happened before it.
// Walking a set of addresses forward, backward, and interleaved across
// two simulated "lanes" must read identical values — the property that
// lets the engine skip a quiet round without consuming its draws.
TEST(CrngOrderIndependence, DrawsAreAddressedNotSequenced) {
  const crng::Key key{0x1234abcdULL, 77};
  std::vector<crng::Counter> addresses;
  for (std::uint64_t round = 1; round <= 40; ++round) {
    for (std::uint64_t miner = 0; miner < 5; ++miner) {
      addresses.push_back(
          {round, miner,
           static_cast<std::uint64_t>(crng::Purpose::kHonestBlock), 0});
    }
  }
  std::vector<std::uint64_t> forward;
  for (const crng::Counter& c : addresses) {
    forward.push_back(crng::draw(key, c));
  }
  // Backward.
  for (std::size_t i = addresses.size(); i-- > 0;) {
    EXPECT_EQ(crng::draw(key, addresses[i]), forward[i]);
  }
  // Interleaved across two lanes (distinct seeds), alternating draws.
  // Each lane's values must match that lane's own forward pass.
  const crng::Key lane_a{key.cell, 1001};
  const crng::Key lane_b{key.cell, 1002};
  std::vector<std::uint64_t> a_forward;
  std::vector<std::uint64_t> b_forward;
  for (const crng::Counter& c : addresses) {
    a_forward.push_back(crng::draw(lane_a, c));
    b_forward.push_back(crng::draw(lane_b, c));
  }
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    EXPECT_EQ(crng::draw(lane_b, addresses[i]), b_forward[i]);
    EXPECT_EQ(crng::draw(lane_a, addresses[i]), a_forward[i]);
  }
  // And two independent Streams over disjoint (a, b) prefixes do not
  // perturb each other no matter how their pulls interleave.
  crng::Stream solo(key, 7, 7, crng::Purpose::kGeneric);
  std::vector<std::uint64_t> solo_bits;
  for (int i = 0; i < 16; ++i) solo_bits.push_back(solo.bits());
  crng::Stream again(key, 7, 7, crng::Purpose::kGeneric);
  crng::Stream other(key, 7, 8, crng::Purpose::kGeneric);
  for (int i = 0; i < 16; ++i) {
    (void)other.bits();
    EXPECT_EQ(again.bits(), solo_bits[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace neatbound::sim
