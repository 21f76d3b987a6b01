#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "scenario/json.hpp"
#include "sim/engine.hpp"

namespace neatbound::scenario {
namespace {

sim::EngineConfig small_engine() {
  sim::EngineConfig engine;
  engine.miner_count = 12;
  engine.adversary_fraction = 0.25;
  engine.p = 0.02;
  engine.delta = 3;
  engine.rounds = 120;
  engine.seed = 5;
  return engine;
}

Params params_from(const char* json) {
  return Params::from_object(parse_json(json), {});
}

TEST(Registry, ExposesRequiredComponentCounts) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  // The acceptance bar: ≥ 3 network models and ≥ 7 adversary strategies.
  EXPECT_GE(registry.network_models().size(), 3u);
  EXPECT_GE(registry.adversary_strategies().size(), 7u);
  for (const char* model : {"strategy", "immediate", "max-delay", "uniform",
                            "split", "bursty", "eclipse"}) {
    EXPECT_TRUE(registry.has_network(model)) << model;
  }
  for (const char* strategy :
       {"null", "max-delay", "private-withhold", "balance-attack",
        "selfish-mining", "fork-balancer", "delay-saturate"}) {
    EXPECT_TRUE(registry.has_strategy(strategy)) << strategy;
  }
}

TEST(Registry, EveryStrategyRunsOnEveryNetworkModel) {
  // The full cross product, each through a real (tiny) engine run: every
  // registered component is exercised end to end, and composition via
  // ScheduleAdversary holds for arbitrary pairs.
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  for (const auto& model : registry.network_models()) {
    for (const auto& strategy : registry.adversary_strategies()) {
      const sim::EngineConfig engine_config = small_engine();
      auto adversary =
          registry.make_adversary(model.name, Params{}, strategy.name,
                                  Params{}, engine_config);
      ASSERT_NE(adversary, nullptr) << model.name << "+" << strategy.name;
      if (model.name == "strategy") {
        EXPECT_STREQ(adversary->name(), strategy.name.c_str());
      } else {
        EXPECT_EQ(std::string(adversary->name()),
                  model.name + "+" + strategy.name);
      }
      sim::ExecutionEngine engine(engine_config, std::move(adversary));
      const sim::RunResult result = engine.run();
      EXPECT_GE(result.store_size, 1u)
          << model.name << "+" << strategy.name;
    }
  }
}

TEST(Registry, StrategyModelLeavesDelaysToTheStrategy) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const sim::EngineConfig engine_config = small_engine();
  EXPECT_EQ(registry.make_network("strategy", Params{}, engine_config,
                                  sim::honest_miner_count(engine_config)),
            nullptr);
  EXPECT_NE(registry.make_network("eclipse", Params{}, engine_config,
                                  sim::honest_miner_count(engine_config)),
            nullptr);
}

TEST(Registry, ComponentParametersReachTheFactories) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const sim::EngineConfig engine_config = small_engine();
  const std::uint32_t honest = sim::honest_miner_count(engine_config);

  // Valid parameters build fine.
  (void)registry.make_network("bursty",
                              params_from(R"({"period": 9, "burst_length": 4,
                                              "phase": 1})"),
                              engine_config, honest);
  (void)registry.make_strategy(
      "private-withhold",
      params_from(R"({"min_fork_depth": 3, "give_up_margin": 9})"),
      engine_config, honest);

  // Out-of-range parameter values surface as errors, not silent clamps.
  EXPECT_THROW((void)registry.make_network(
                   "eclipse", params_from(R"({"victims": 1000})"),
                   engine_config, honest),
               std::runtime_error);
  EXPECT_THROW((void)registry.make_network(
                   "split", params_from(R"({"split_fraction": 1.5})"),
                   engine_config, honest),
               std::runtime_error);
  // A fraction that rounds to an empty side is no partition at all.
  EXPECT_THROW((void)registry.make_network(
                   "split", params_from(R"({"split_fraction": 0.01})"),
                   engine_config, honest),
               std::runtime_error);
}

TEST(Registry, RejectsUnknownNamesAndParameters) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const sim::EngineConfig engine_config = small_engine();
  const std::uint32_t honest = sim::honest_miner_count(engine_config);

  EXPECT_THROW((void)registry.make_network("wormhole", Params{},
                                           engine_config, honest),
               std::runtime_error);
  EXPECT_THROW((void)registry.make_strategy("santa", Params{}, engine_config,
                                            honest),
               std::runtime_error);
  // Unknown parameter keys are typos, never defaults.
  EXPECT_THROW((void)registry.make_network(
                   "bursty", params_from(R"({"perod": 9})"), engine_config,
                   honest),
               std::runtime_error);
  EXPECT_THROW((void)registry.make_strategy(
                   "selfish-mining", params_from(R"({"gama": 0.3})"),
                   engine_config, honest),
               std::runtime_error);
  // Strategies with no parameters reject anything.
  EXPECT_THROW((void)registry.make_strategy(
                   "null", params_from(R"({"x": 1})"), engine_config,
                   honest),
               std::runtime_error);
}

TEST(Registry, IntegerParameterPastTwoToThe53NamesItAndTheLimit) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const sim::EngineConfig engine_config = small_engine();
  const Params params =
      params_from(R"({"give_up_margin": 1000000000000000000})");
  const std::string want =
      "parameter \"give_up_margin\": 1000000000000000000 exceeds the "
      "exact-integer limit 2^53 (9007199254740992)";
  try {
    (void)params.get_uint("give_up_margin", 6);
    ADD_FAILURE() << "expected: " << want;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
  try {
    (void)registry.make_strategy("private-withhold", params, engine_config,
                                 sim::honest_miner_count(engine_config));
    ADD_FAILURE() << "expected: " << want;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(params_from(R"({"give_up_margin": 9007199254740992})")
                .get_uint("give_up_margin", 6),
            std::uint64_t{1} << 53);
}

TEST(Registry, DuplicateRegistrationThrows) {
  ScenarioRegistry registry;
  register_builtin_networks(registry);
  EXPECT_THROW(register_builtin_networks(registry), std::invalid_argument);
}

TEST(Registry, HonestCountMatchesEngineRounding) {
  sim::EngineConfig engine = small_engine();
  engine.miner_count = 12;
  engine.adversary_fraction = 0.25;  // llround(3.0) = 3 → 9 honest
  EXPECT_EQ(sim::honest_miner_count(engine), 9u);
  engine.miner_count = 10;
  engine.adversary_fraction = 0.25;  // llround(2.5) = 3 (half away) → 7
  EXPECT_EQ(sim::honest_miner_count(engine), 7u);
  engine.adversary_fraction = 0.0;
  EXPECT_EQ(sim::honest_miner_count(engine), 10u);
}

}  // namespace
}  // namespace neatbound::scenario
