// validate_engine_config: every unusable parameter combination must be
// rejected with a ContractViolation naming the offending field — never a
// silent nonsense run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "net/delivery.hpp"
#include "sim/engine.hpp"
#include "sim/strategies.hpp"
#include "support/contracts.hpp"

namespace neatbound::sim {
namespace {

EngineConfig good_config() {
  EngineConfig config;
  config.miner_count = 16;
  config.adversary_fraction = 0.25;
  config.p = 0.01;
  config.delta = 2;
  config.rounds = 100;
  config.seed = 1;
  return config;
}

void expect_rejected(const EngineConfig& config,
                     const std::string& expected_fragment) {
  try {
    validate_engine_config(config);
    FAIL() << "expected rejection mentioning \"" << expected_fragment
           << "\"";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(expected_fragment),
              std::string::npos)
        << e.what();
  }
}

TEST(EngineConfigValidation, AcceptsSaneConfig) {
  EXPECT_NO_THROW(validate_engine_config(good_config()));
}

TEST(EngineConfigValidation, RejectsNuAtOrAboveHalfAndAboveOne) {
  EngineConfig config = good_config();
  config.adversary_fraction = 0.5;
  expect_rejected(config, "nu");
  config.adversary_fraction = 1.0;
  expect_rejected(config, "nu");
  config.adversary_fraction = 3.0;  // ν ≥ 1 is just deeper into the same
  expect_rejected(config, "nu");    // rejected region
  config.adversary_fraction = -0.1;
  expect_rejected(config, "nu");
}

TEST(EngineConfigValidation, RejectsZeroDelta) {
  EngineConfig config = good_config();
  config.delta = 0;
  expect_rejected(config, "delta");
}

/// Releases every block it mines to honest miner 0 at the full Δ, so its
/// gossip echo lands 2Δ rounds out: the engine's deepest calendar
/// lookahead.  Honest traffic also waits the full Δ.
class LateReleaser final : public Adversary {
 public:
  void honest_delays(std::uint64_t, std::uint32_t, protocol::BlockIndex,
                     std::span<std::uint64_t> out) override {
    std::fill(out.begin(), out.end(), ~0ULL);
  }
  void act(AdversaryOps& ops) override {
    while (ops.remaining_queries() > 0) {
      if (const auto mined = ops.mine_on(tip_, ops.remaining_queries())) {
        tip_ = *mined;
        ops.publish_to(0, *mined, ops.delta());
        ++released_;
      }
    }
  }
  const char* name() const override { return "late-releaser"; }
  std::uint64_t released_ = 0;

 private:
  protocol::BlockIndex tip_ = protocol::kGenesisIndex;
};

// The delivery calendar holds kMaxSpan rounds ahead of its drain point
// and the engine looks up to 2Δ + 1 ahead, so the largest Δ accepted is
// the largest that still runs, and the next one up fails validation by
// name instead of aborting mid-run.
TEST(EngineConfigValidation, DeltaBoundedByTheCalendarSpan) {
  const std::uint64_t largest = (net::DeliveryCalendar::kMaxSpan - 1) / 2;
  ASSERT_LE(2 * largest + 1, net::DeliveryCalendar::kMaxSpan);
  EngineConfig config = good_config();
  config.miner_count = 5;
  config.adversary_fraction = 0.2;
  config.p = 0.5;
  config.rounds = 6;
  config.delta = largest;
  EXPECT_NO_THROW(validate_engine_config(config));
  auto releaser = std::make_unique<LateReleaser>();
  const LateReleaser* seen = releaser.get();
  ExecutionEngine engine(config, std::move(releaser));
  const RunResult result = engine.run();
  EXPECT_GT(seen->released_, 0u);
  EXPECT_GT(result.honest_blocks_total, 0u);

  config.delta = largest + 1;
  expect_rejected(config, "delta must be <= " + std::to_string(largest));
  config.delta = std::uint64_t{1} << 40;
  expect_rejected(config, "delta");
  config.delta = ~std::uint64_t{0};  // 2Δ + 1 would wrap
  expect_rejected(config, "delta");
}

TEST(EngineConfigValidation, RejectsPOutsideOpenUnitInterval) {
  EngineConfig config = good_config();
  config.p = 0.0;
  expect_rejected(config, "p must be in (0, 1)");
  config.p = 1.0;
  expect_rejected(config, "p must be in (0, 1)");
  config.p = -0.5;
  expect_rejected(config, "p must be in (0, 1)");
  config.p = 2.0;
  expect_rejected(config, "p must be in (0, 1)");
}

TEST(EngineConfigValidation, RejectsZeroRounds) {
  EngineConfig config = good_config();
  config.rounds = 0;
  expect_rejected(config, "rounds");
}

TEST(EngineConfigValidation, RejectsTooFewMiners) {
  EngineConfig config = good_config();
  config.miner_count = 3;
  expect_rejected(config, "n >= 4");
}

TEST(EngineConfigValidation, EngineConstructorRunsTheSameChecks) {
  EngineConfig config = good_config();
  config.p = 0.0;
  EXPECT_THROW(
      ExecutionEngine(config, std::make_unique<NullAdversary>()),
      ContractViolation);
  config = good_config();
  config.rounds = 0;
  EXPECT_THROW(
      ExecutionEngine(config, std::make_unique<NullAdversary>()),
      ContractViolation);
}

}  // namespace
}  // namespace neatbound::sim
