// Random walks on finite Markov chains, used by tests/benches to compare
// empirical visit frequencies with stationary distributions — i.e. the
// Monte-Carlo counterpart of the paper's C(t₀, t₀+T−1) counting argument.
#pragma once

#include <cstdint>
#include <vector>

#include "markov/chain.hpp"
#include "support/rng.hpp"

namespace neatbound::markov {

class RandomWalk {
 public:
  /// Starts at `start`; the walk owns its RNG stream.
  // neatbound-analyze: allow(rng-stream) — analysis-side Monte Carlo
  // cross-check, never replayed out of order; a crng::Purpose::kWalk
  // migration is reserved but not yet scheduled.
  RandomWalk(const TransitionMatrix& matrix, std::size_t start, Rng rng);

  /// Takes one step; returns the new state.
  std::size_t step();

  [[nodiscard]] std::size_t current() const noexcept { return current_; }

  /// Runs `steps` steps, returning per-state visit counts of the states
  /// *entered* (the start state is not counted).
  [[nodiscard]] std::vector<std::uint64_t> visit_counts(std::uint64_t steps);

 private:
  const TransitionMatrix& matrix_;
  std::size_t current_;
  // neatbound-analyze: allow(rng-stream) — analysis-side walk (above)
  Rng rng_;
};

}  // namespace neatbound::markov
