// Mining: one oracle query per honest miner per round; νn sequential
// queries for the adversary (Section III's access discipline).
#pragma once

#include <optional>

#include "protocol/block.hpp"
#include "protocol/hash.hpp"

namespace neatbound::protocol {

/// Attempts a single proof-of-work query: computes
/// H(parent_hash, η, payload_digest) for the caller's fresh nonce η and
/// succeeds iff it meets the target.
/// Returns the assembled block on success (miner/class/round/message are
/// filled by the caller), nullopt on failure.
///
/// The success probability equals PowTarget::probability() exactly, since
/// the oracle output is uniform over 64-bit values for fresh nonces.
[[nodiscard]] std::optional<Block> try_mine(const RandomOracle& oracle,
                                            const PowTarget& target,
                                            HashValue parent_hash,
                                            std::uint64_t payload_digest,
                                            std::uint64_t nonce);

/// The engine's assembly: success of the query was already decided by the
/// addressable Bernoulli(p) field (sim/draws.hpp), so no target test is
/// performed here — the block is assembled unconditionally.  Its hash
/// still commits to (parent, nonce, payload) via the oracle, so hash
/// linkage and H.ver hold exactly as for try_mine; only the per-block
/// ≤-target certificate is absent (see the 3-argument validate_chain and
/// docs/correctness.md — the paper's analysis uses the per-query success
/// probability p and collision-free ids, never the certificate itself).
[[nodiscard]] Block assemble_block(const RandomOracle& oracle,
                                   HashValue parent_hash,
                                   std::uint64_t payload_digest,
                                   std::uint64_t nonce);

}  // namespace neatbound::protocol
