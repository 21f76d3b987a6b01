#include "markov/walk.hpp"

namespace neatbound::markov {

RandomWalk::RandomWalk(const TransitionMatrix& matrix, std::size_t start,
                       crng::Stream stream)
    : matrix_(matrix), current_(start), stream_(stream) {
  NEATBOUND_EXPECTS(start < matrix.size(), "start state out of range");
}

std::size_t RandomWalk::step() {
  const auto row = matrix_.row(current_);
  double u = stream_.uniform();
  // Inverse-CDF walk along the row; the final state absorbs any floating-
  // point slack so the step is total.
  for (std::size_t j = 0; j + 1 < row.size(); ++j) {
    if (u < row[j]) {
      current_ = j;
      return current_;
    }
    u -= row[j];
  }
  current_ = row.size() - 1;
  return current_;
}

std::vector<std::uint64_t> RandomWalk::visit_counts(std::uint64_t steps) {
  std::vector<std::uint64_t> counts(matrix_.size(), 0);
  for (std::uint64_t i = 0; i < steps; ++i) {
    ++counts[step()];
  }
  return counts;
}

}  // namespace neatbound::markov
