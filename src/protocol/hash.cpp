#include "protocol/hash.hpp"

#include <cmath>

#include "support/crng.hpp"

namespace neatbound::protocol {

PowTarget PowTarget::from_probability(double p) {
  NEATBOUND_EXPECTS(p > 0.0 && p < 1.0, "PoW hardness must be in (0,1)");
  // P[h ≤ t] = (t+1)/2^64 for uniform h; solve t = p·2^64 − 1, clamped.
  const double scaled = std::ldexp(p, 64);
  HashValue threshold = 0;
  if (scaled >= 1.0) {
    const double t = scaled - 1.0;
    threshold = t >= 18446744073709551615.0
                    ? ~0ULL - 1
                    : static_cast<HashValue>(t);
  }
  return PowTarget(threshold);
}

double PowTarget::probability() const noexcept {
  return std::ldexp(static_cast<double>(threshold_) + 1.0, -64);
}

HashValue RandomOracle::query(HashValue parent, std::uint64_t nonce,
                              std::uint64_t payload_digest) const noexcept {
  // Feed the tuple through the splitmix64 finalizer in a sponge-like
  // chain; distinct tuples map to independent-looking outputs.
  std::uint64_t h = seed_;
  h = crng::mix64(h ^ (parent + 0x9e3779b97f4a7c15ULL));
  h = crng::mix64(h ^ (nonce + 0xbf58476d1ce4e5b9ULL));
  h = crng::mix64(h ^ (payload_digest + 0x94d049bb133111ebULL));
  return h;
}

}  // namespace neatbound::protocol
