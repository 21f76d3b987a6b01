// Pinned engine trajectories.  Every built-in strategy × network pair of
// the quiet-skip battery, at n = 12 and n = 160, plus short n = 1000 runs
// of the two dense-workload pairs and two uniform-jitter cells at large Δ
// (n = 12 at Δ = 4096, where delays spread over thousands of calendar
// buckets, and n = 160 at Δ = 1000, where a broadcast has more distinct
// delays than the engine has broadcast slots), is folded into one 64-bit
// digest per (pair, n, Δ).  A digest covers the
// unobserved RunResult and, per round of an observed run, every honest
// tip, the best honest tip, every RoundActivity field and the round's
// honest miners.  The constants were recorded from the per-miner engine
// (one MinerView per honest miner); the large-Δ cells from the view-class
// engine that still mined one adversary query and drew one delay per
// recipient at a time.  Any later engine representation must reproduce
// these trajectories bit for bit — this table is the differential
// reference, with no second engine kept beside the real one.
//
// To re-record after an intended trajectory change, run the test and copy
// the "got" entries its failures print into kPinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "scenario/registry.hpp"
#include "sim/engine.hpp"

namespace neatbound::sim {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Digest& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void fold_result(Digest& d, const RunResult& r) {
  d.add(std::uint64_t{r.honest_counts.size()});
  for (const std::uint32_t c : r.honest_counts) d.add(std::uint64_t{c});
  d.add(r.honest_blocks_total).add(r.adversary_blocks_total)
      .add(r.convergence_opportunities).add(r.max_reorg_depth)
      .add(r.max_divergence).add(r.disagreement_rounds)
      .add(r.violation_depth).add(r.chain.best_height)
      .add(r.chain.growth_per_round).add(r.chain.honest_blocks_in_chain)
      .add(r.chain.adversary_blocks_in_chain).add(r.chain.quality)
      .add(r.store_size);
}

void fold_round(Digest& d, const ExecutionEngine& engine,
                std::uint64_t round) {
  d.add(round);
  for (const protocol::BlockIndex tip : engine.honest_tips()) {
    d.add(std::uint64_t{tip});
  }
  d.add(std::uint64_t{engine.best_honest_tip()});
  const RoundActivity& a = engine.round_activity();
  d.add(std::uint64_t{a.honest_mined}).add(std::uint64_t{a.adversary_mined})
      .add(std::uint64_t{a.delivered}).add(std::uint64_t{a.adoptions})
      .add(a.max_reorg_depth).add(std::uint64_t{a.max_reorg_view});
  d.add(std::uint64_t{engine.round_miners().size()});
  for (const std::uint32_t m : engine.round_miners()) d.add(std::uint64_t{m});
}

struct Pinned {
  const char* strategy;
  const char* network;
  std::uint32_t miners;
  std::uint64_t digest;
  std::uint64_t delta = 3;
};

// Shape of a pinned cell: Δ = 3 (unless the cell names another) and
// ν = 0.4 as in the quiet-skip battery, with p scaled so honest blocks
// arrive at a similar per-round rate.
EngineConfig config_for(std::uint32_t miners, std::uint64_t delta) {
  EngineConfig config;
  config.miner_count = miners;
  config.adversary_fraction = 0.4;
  config.delta = delta;
  switch (miners) {
    case 12:
      config.p = 0.04692883195696345;
      config.rounds = 300;
      break;
    case 160:
      config.p = 0.004;
      config.rounds = 500;
      break;
    default:
      config.p = 0.0008;
      config.rounds = 200;
      break;
  }
  // A long-Δ cell runs for a few Δ, so most of its deliveries land
  // inside the run.
  config.rounds = std::max<std::uint64_t>(config.rounds, 3 * delta);
  return config;
}

std::uint32_t seeds_for(std::uint32_t miners) {
  return miners == 12 ? 6 : miners == 160 ? 3 : 2;
}

std::uint64_t trajectory_digest(const Pinned& cell) {
  const auto& registry = scenario::ScenarioRegistry::builtin();
  Digest d;
  for (std::uint32_t s = 0; s < seeds_for(cell.miners); ++s) {
    EngineConfig config = config_for(cell.miners, cell.delta);
    config.seed = 7100 + s;
    const auto make = [&] {
      return std::make_unique<ExecutionEngine>(
          config, registry.make_adversary(cell.network, {}, cell.strategy,
                                          {}, config));
    };
    fold_result(d, make()->run());
    const auto observed = make();
    fold_result(d, observed->run([&](const ExecutionEngine& engine,
                                      std::uint64_t round) {
      fold_round(d, engine, round);
    }));
  }
  return d.value();
}

// Recorded from the per-miner engine (see the file comment).
const Pinned kPinned[] = {
    {"null", "immediate", 12, 0x9170e0833602ed1bULL},
    {"max-delay", "max-delay", 12, 0x03dace9ec753935aULL},
    {"private-withhold", "uniform", 12, 0xf2e6c48a25ef6d1bULL},
    {"balance-attack", "split", 12, 0x5a175bd74ab000e7ULL},
    {"selfish-mining", "bursty", 12, 0x2e52b94ecc6cc506ULL},
    {"fork-balancer", "strategy", 12, 0x5460104132ab9ddbULL},
    {"delay-saturate", "eclipse", 12, 0xf5375a68066523bbULL},
    {"null", "immediate", 160, 0xf70b89d3ebd0e7fbULL},
    {"max-delay", "max-delay", 160, 0xbd5b7737b0ea9f65ULL},
    {"private-withhold", "uniform", 160, 0xdda0fad5e4a78736ULL},
    {"balance-attack", "split", 160, 0x483414450dcfdac8ULL},
    {"selfish-mining", "bursty", 160, 0x8d3b807df8c0dd60ULL},
    {"fork-balancer", "strategy", 160, 0x5f35f1cd918f5258ULL},
    {"delay-saturate", "eclipse", 160, 0x3231c75132b1046cULL},
    {"private-withhold", "uniform", 1000, 0xe4ec2b92ab3ce861ULL},
    {"fork-balancer", "split", 1000, 0x616ef04e8edeb14bULL},
    {"private-withhold", "uniform", 12, 0xd2e7c0e12ee40b5eULL, 4096},
    {"private-withhold", "uniform", 160, 0x0f9c74a691e2171aULL, 1000},
};

class EnginePinned : public ::testing::TestWithParam<Pinned> {};

TEST_P(EnginePinned, TrajectoryMatchesRecordedDigest) {
  const Pinned cell = GetParam();
  const std::uint64_t got = trajectory_digest(cell);
  if (got != cell.digest) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "{\"%s\", \"%s\", %u, 0x%016llxULL, %llu}",
                  cell.strategy, cell.network, cell.miners,
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(cell.delta));
    ADD_FAILURE() << "trajectory changed; got " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, EnginePinned, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      std::string name = std::string(info.param.strategy) + "_" +
                         info.param.network + "_n" +
                         std::to_string(info.param.miners);
      if (info.param.delta != 3) {
        name += "_delta" + std::to_string(info.param.delta);
      }
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace neatbound::sim
