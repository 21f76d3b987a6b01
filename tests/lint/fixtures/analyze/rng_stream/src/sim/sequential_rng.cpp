// Fixture: the sequential generator by name, outside support/.
// Unqualified support::Rng use in any other module must carry an allow
// naming why its stream is never replayed out of order, or be migrated
// to support/crng.hpp keyed streams.
// analyze-expect: rng-stream
#include "support/rng.hpp"

namespace neatbound::sim {

unsigned long long draw_sequentially(unsigned long long seed) {
  Rng rng(seed);
  return rng.bits();
}

}  // namespace neatbound::sim
