#include "analysis/validation.hpp"

#include <cmath>

#include "bounds/params.hpp"
#include "chains/convergence.hpp"
#include "chains/suffix_chain.hpp"
#include "markov/stationary.hpp"
#include "markov/structure.hpp"
#include "markov/walk.hpp"
#include "sim/aggregate.hpp"
#include "stats/large_deviations.hpp"
#include "support/crng.hpp"

namespace neatbound::analysis {

ConvergenceRateRow validate_convergence_rate(double n, double delta, double c,
                                             double nu, std::uint64_t rounds,
                                             std::uint32_t seeds,
                                             std::uint64_t base_seed) {
  const auto params = bounds::ProtocolParams::from_c(n, delta, nu, c);
  ConvergenceRateRow row{};
  row.n = n;
  row.delta = delta;
  row.c = c;
  row.nu = nu;
  row.analytic_rate =
      chains::convergence_opportunity_probability(
          params.alpha_bar(), params.alpha1(),
          static_cast<std::uint64_t>(delta))
          .linear();
  row.expected_count = row.analytic_rate * static_cast<double>(rounds);

  stats::RunningStats counts;
  for (std::uint32_t k = 0; k < seeds; ++k) {
    sim::AggregateConfig config;
    config.honest_trials = params.honest_trials();
    config.adversary_trials = params.adversary_trials();
    config.p = params.p();
    config.delta = static_cast<std::uint64_t>(delta);
    config.rounds = rounds;
    config.seed = base_seed + k;
    const sim::AggregateResult result = sim::run_aggregate(config);
    counts.add(static_cast<double>(result.convergence_opportunities));
  }
  row.simulated_mean = counts.mean();
  row.simulated_stderr = counts.stderr_mean();
  row.ci = stats::mean_interval(counts.mean(), counts.stderr_mean());
  row.ratio = row.expected_count > 0.0
                  ? row.simulated_mean / row.expected_count
                  : 0.0;
  return row;
}

AdversaryCountRow validate_adversary_count(double n, double delta, double c,
                                           double nu, std::uint64_t rounds,
                                           std::uint32_t seeds,
                                           std::uint64_t base_seed) {
  const auto params = bounds::ProtocolParams::from_c(n, delta, nu, c);
  AdversaryCountRow row{};
  row.n = n;
  row.delta = delta;
  row.c = c;
  row.nu = nu;
  row.expected_count =
      params.adversary_rate() * static_cast<double>(rounds);

  stats::RunningStats counts;
  for (std::uint32_t k = 0; k < seeds; ++k) {
    sim::AggregateConfig config;
    config.honest_trials = params.honest_trials();
    config.adversary_trials = params.adversary_trials();
    config.p = params.p();
    config.delta = static_cast<std::uint64_t>(delta);
    config.rounds = rounds;
    config.seed = base_seed + k;
    counts.add(static_cast<double>(sim::run_aggregate(config).adversary_blocks));
  }
  row.simulated_mean = counts.mean();
  row.simulated_stderr = counts.stderr_mean();
  row.ratio =
      row.expected_count > 0.0 ? row.simulated_mean / row.expected_count : 0.0;
  const double trials =
      static_cast<double>(rounds) * params.adversary_trials();
  row.tail_exponent_at_10pct =
      stats::binomial_upper_tail_bound(trials, params.p(), 0.10).log();
  return row;
}

StationaryComparisonRow compare_stationary(std::uint64_t delta, double alpha,
                                           std::uint64_t walk_steps,
                                           std::uint64_t seed) {
  const chains::SuffixStateSpace space(delta);
  const auto matrix = chains::build_suffix_chain_matrix(space, alpha);
  const auto closed = chains::stationary_closed_form_vector(space, alpha);

  StationaryComparisonRow row{};
  row.delta = delta;
  row.alpha = alpha;
  row.ergodic = markov::is_ergodic(matrix);

  double sum = 0.0;
  for (const double x : closed) sum += x;
  row.closed_form_sum = sum;

  const auto power = markov::solve_stationary_power(matrix);
  const auto fixed = markov::solve_stationary_fixed_point(matrix);
  for (std::size_t i = 0; i < closed.size(); ++i) {
    row.max_abs_err_power = std::max(
        row.max_abs_err_power, std::fabs(closed[i] - power.distribution[i]));
    row.max_abs_err_fixed = std::max(
        row.max_abs_err_fixed, std::fabs(closed[i] - fixed.distribution[i]));
  }

  markov::RandomWalk walk(
      matrix, /*start=*/0,
      crng::Stream(crng::Key{0, seed}, 0, 0, crng::Purpose::kWalk));
  const auto visits = walk.visit_counts(walk_steps);
  for (std::size_t i = 0; i < closed.size(); ++i) {
    const double freq = static_cast<double>(visits[i]) /
                        static_cast<double>(walk_steps);
    row.max_abs_err_walk =
        std::max(row.max_abs_err_walk, std::fabs(closed[i] - freq));
  }
  return row;
}

}  // namespace neatbound::analysis
