// Chain validation: the checks an honest player performs before accepting
// a chain (Section III): hash linkage, proof-of-work validity via H.ver,
// height monotonicity and round sanity.
#pragma once

#include <string>

#include "protocol/block_store.hpp"
#include "protocol/hash.hpp"

namespace neatbound::protocol {

struct ValidationReport {
  bool valid = true;
  std::string failure;  ///< empty when valid

  static ValidationReport ok() { return {}; }
  static ValidationReport fail(std::string why) {
    return {false, std::move(why)};
  }
};

/// Validates the full chain from genesis to `tip` against the oracle:
/// every block's hash must verify (H.ver), link to its parent's hash,
/// increase height by one, and not precede its parent's round.  This is
/// how engine chains validate: the engine decides query success through
/// an addressable Bernoulli field (protocol::assemble_block), so its
/// block hashes are full-range uniform and carry no ≤-target certificate.
[[nodiscard]] ValidationReport validate_chain(const BlockStore& store,
                                              BlockIndex tip,
                                              const RandomOracle& oracle);

/// The same checks plus proof-of-work: every block's hash must also
/// satisfy `target` (chains mined with protocol::try_mine).
[[nodiscard]] ValidationReport validate_chain(const BlockStore& store,
                                              BlockIndex tip,
                                              const RandomOracle& oracle,
                                              const PowTarget& target);

}  // namespace neatbound::protocol
