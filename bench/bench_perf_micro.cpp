// Performance microbenchmarks (google-benchmark): throughput of the
// components the experiment harnesses lean on — per-round simulation cost,
// binomial sampling, suffix-chain solves, frontier inversions, LogProb
// arithmetic, and the two halves of an honest broadcast (per-broadcast
// delay draws, calendar scheduling).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bounds/frontier.hpp"
#include "chains/convergence.hpp"
#include "chains/suffix_chain.hpp"
#include "markov/stationary.hpp"
#include "net/delivery.hpp"
#include "sim/aggregate.hpp"
#include "sim/engine.hpp"
#include "sim/strategies.hpp"
#include "support/logprob.hpp"
#include "support/crng.hpp"

namespace {

using namespace neatbound;

void BM_LogProbMulAdd(benchmark::State& state) {
  LogProb a = LogProb::from_linear(0.3);
  const LogProb b = LogProb::from_linear(0.7);
  for (auto _ : state) {
    a = a * b + b;
    if (a.log() > 0.0) a = LogProb::from_linear(0.3);  // keep bounded
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_LogProbMulAdd);

void BM_StreamBinomialSmallMean(benchmark::State& state) {
  crng::Stream rng(crng::Key{0, 1}, 0, 0, crng::Purpose::kGeneric);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const double p = 0.5 / static_cast<double>(n);  // mean 0.5
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.binomial(n, p));
  }
}
BENCHMARK(BM_StreamBinomialSmallMean)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_SuffixChainStationaryPower(benchmark::State& state) {
  const auto delta = static_cast<std::uint64_t>(state.range(0));
  const chains::SuffixStateSpace space(delta);
  const auto matrix = chains::build_suffix_chain_matrix(space, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::solve_stationary_power(matrix));
  }
  state.SetLabel(std::to_string(2 * delta + 1) + " states");
}
BENCHMARK(BM_SuffixChainStationaryPower)->Arg(4)->Arg(16)->Arg(64);

void BM_ClosedFormStationary(benchmark::State& state) {
  const auto delta = static_cast<std::uint64_t>(state.range(0));
  const chains::SuffixStateSpace space(delta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chains::stationary_closed_form_vector(space, 0.1));
  }
}
BENCHMARK(BM_ClosedFormStationary)->Arg(4)->Arg(64);

void BM_FrontierNuMax(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds::nu_max(
        bounds::BoundKind::kZhaoTheorem1Exact, 3.0, 1e5, 1e13));
  }
}
BENCHMARK(BM_FrontierNuMax);

void BM_AggregateEngineRounds(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::AggregateConfig config;
    config.honest_trials = 150;
    config.adversary_trials = 50;
    config.p = 0.001;
    config.delta = 4;
    config.rounds = static_cast<std::uint64_t>(state.range(0));
    config.seed = ++seed;
    benchmark::DoNotOptimize(sim::run_aggregate(config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AggregateEngineRounds)->Arg(10000)->Arg(100000);

void BM_ExecutionEngineRounds(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::EngineConfig config;
    config.miner_count = 40;
    config.adversary_fraction = 0.25;
    config.p = 0.002;
    config.delta = 3;
    config.rounds = static_cast<std::uint64_t>(state.range(0));
    config.seed = ++seed;
    sim::ExecutionEngine engine(
        config, std::make_unique<sim::PrivateWithholdAdversary>());
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExecutionEngineRounds)->Arg(2000)->Arg(10000);

void BM_ConvergenceCounting(benchmark::State& state) {
  crng::Stream rng(crng::Key{0, 3}, 0, 0, crng::Purpose::kGeneric);
  std::vector<std::uint32_t> counts(100000);
  for (auto& c : counts) {
    c = static_cast<std::uint32_t>(rng.binomial(150, 0.001));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chains::count_convergence_opportunities(counts, 4));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(counts.size()));
}
BENCHMARK(BM_ConvergenceCounting);

// --- honest broadcast: delays, then calendar scheduling -------------------

constexpr std::uint32_t kBroadcastRecipients = 1000;
constexpr std::uint64_t kBroadcastRounds = 64;  ///< distinct broadcasts

/// Uniform delays on [1, Δ] for kBroadcastRounds broadcasts by sender 0
/// (the jitter network of the dense workload), one row per round.
std::vector<std::vector<std::uint64_t>> broadcast_delays(std::uint64_t delta) {
  net::CounterUniformDelay schedule(delta, crng::Key{7, 7});
  std::vector<std::vector<std::uint64_t>> rows(
      kBroadcastRounds, std::vector<std::uint64_t>(kBroadcastRecipients));
  for (std::uint64_t r = 0; r < kBroadcastRounds; ++r) {
    schedule.delays(r + 1, 0, 0, rows[r]);
  }
  return rows;
}

/// One broadcast per iteration, each recipient set per distinct delay
/// built beforehand: schedule_set once per set, then the round's drain.
void BM_BroadcastScheduleSet(benchmark::State& state) {
  const auto delta = static_cast<std::uint64_t>(state.range(0));
  const auto rows = broadcast_delays(delta);
  constexpr std::size_t kWords = (kBroadcastRecipients + 63) / 64;
  // sets[r][d − 1]: the recipients of broadcast r with delay d.
  std::vector<std::vector<std::vector<std::uint64_t>>> sets(
      kBroadcastRounds, std::vector<std::vector<std::uint64_t>>(
                            delta, std::vector<std::uint64_t>(kWords, 0)));
  for (std::uint64_t r = 0; r < kBroadcastRounds; ++r) {
    for (std::uint32_t to = 1; to < kBroadcastRecipients; ++to) {
      sets[r][rows[r][to] - 1][to / 64] |= std::uint64_t{1} << (to % 64);
    }
  }
  net::DeliveryCalendar calendar(kBroadcastRecipients);
  std::uint64_t round = 0;
  for (auto _ : state) {
    ++round;
    const auto& row = sets[round % kBroadcastRounds];
    for (std::uint64_t d = 1; d <= delta; ++d) {
      calendar.schedule_set(round + d, round, row[d - 1]);
    }
    calendar.drain_records(round, [](const net::DeliveryRecord& record) {
      benchmark::DoNotOptimize(record.count);
    });
  }
  state.SetItemsProcessed(state.iterations() * (kBroadcastRecipients - 1));
}
BENCHMARK(BM_BroadcastScheduleSet)->Arg(1)->Arg(4)->Arg(64);

/// The same broadcasts, one schedule() per recipient in ascending order.
void BM_BroadcastSchedulePerRecipient(benchmark::State& state) {
  const auto delta = static_cast<std::uint64_t>(state.range(0));
  const auto rows = broadcast_delays(delta);
  net::DeliveryCalendar calendar(kBroadcastRecipients);
  std::uint64_t round = 0;
  for (auto _ : state) {
    ++round;
    const auto& row = rows[round % kBroadcastRounds];
    for (std::uint32_t to = 1; to < kBroadcastRecipients; ++to) {
      calendar.schedule(round + row[to], to, round);
    }
    calendar.drain_records(round, [](const net::DeliveryRecord& record) {
      benchmark::DoNotOptimize(record.count);
    });
  }
  state.SetItemsProcessed(state.iterations() * (kBroadcastRecipients - 1));
}
BENCHMARK(BM_BroadcastSchedulePerRecipient)->Arg(1)->Arg(4)->Arg(64);

/// CounterUniformDelay::delays for one broadcast to n = 1000 (Δ = 4).
void BM_CounterUniformDelays(benchmark::State& state) {
  net::CounterUniformDelay schedule(4, crng::Key{7, 7});
  std::vector<std::uint64_t> out(kBroadcastRecipients);
  std::uint64_t round = 0;
  for (auto _ : state) {
    schedule.delays(++round, 0, 0, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (kBroadcastRecipients - 1));
}
BENCHMARK(BM_CounterUniformDelays);

}  // namespace

BENCHMARK_MAIN();
