// Fixture: allowlisted hot-path allocation and RNG draws.
#pragma once

#include <cstdint>
#include <vector>

#include "support/hot.hpp"

namespace neatbound::sim {

class AllowedLoop {
 public:
  NEATBOUND_HOT void step(std::uint64_t round) {
    // neatbound-analyze: allow(hot-alloc) — fixture: amortized append,
    // silenced with a rationale exactly like the real calendar bucket.
    trace_.push_back(round);
  }

  int draw(unsigned seed) {
    // neatbound-analyze: allow(rng-stream) — fixture: silenced std engine use
    std::mt19937 gen(seed);
    return static_cast<int>(gen());
  }

 private:
  std::vector<std::uint64_t> trace_;
};

}  // namespace neatbound::sim
