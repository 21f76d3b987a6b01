#include "sim/draws.hpp"

#include <cmath>

#include "support/contracts.hpp"

namespace neatbound::sim {

GapCursor::GapCursor(crng::Key key, crng::Purpose purpose, double p)
    : key_(key),
      purpose_(static_cast<std::uint64_t>(purpose)),
      log_q_(std::log1p(-p)) {
  NEATBOUND_EXPECTS(p > 0.0 && p < 1.0, "gap cursor requires p in (0, 1)");
  next_ = next_gap();
}

std::uint64_t GapCursor::next_gap() {
  const std::uint64_t i = gap_index_++;
  if ((i & 3) == 0) {
    buffer_ = crng::philox4x64({i >> 2, 0, purpose_, 0}, key_);
  }
  // Same inversion arithmetic as Stream::geometric_failures: the gap
  // is floor(ln U / ln(1−p)) with U ∈ (0, 1].
  const double u = 1.0 - crng::to_unit(buffer_[i & 3]);
  return static_cast<std::uint64_t>(std::floor(std::log(u) / log_q_));
}

std::uint64_t GapCursor::take() {
  const std::uint64_t pos = next_;
  next_ += 1 + next_gap();
  return pos;
}

void GapCursor::advance_to(std::uint64_t pos) {
  while (next_ < pos) (void)take();
}

}  // namespace neatbound::sim
