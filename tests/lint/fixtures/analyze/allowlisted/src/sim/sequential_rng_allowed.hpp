// Fixture: allowlisted support::Rng use — the analysis-side pattern
// (markov/walk) that owns a sequential stream it never replays out of
// order.
#pragma once

namespace neatbound::sim {

class MonteCarloWalk {
 public:
  // neatbound-analyze: allow(rng-stream) — fixture: analysis-side Monte
  // Carlo stream, silenced with a rationale.
  explicit MonteCarloWalk(Rng rng) : rng_(rng) {}

 private:
  // neatbound-analyze: allow(rng-stream) — fixture: walk state (above)
  Rng rng_;
};

}  // namespace neatbound::sim
