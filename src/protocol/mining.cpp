#include "protocol/mining.hpp"

namespace neatbound::protocol {

std::optional<Block> try_mine(const RandomOracle& oracle,
                              const PowTarget& target, HashValue parent_hash,
                              std::uint64_t payload_digest,
                              std::uint64_t nonce) {
  Block block = assemble_block(oracle, parent_hash, payload_digest, nonce);
  if (!target.satisfied_by(block.hash)) return std::nullopt;
  return block;
}

Block assemble_block(const RandomOracle& oracle, HashValue parent_hash,
                     std::uint64_t payload_digest, std::uint64_t nonce) {
  Block block;
  block.hash = oracle.query(parent_hash, nonce, payload_digest);
  block.parent_hash = parent_hash;
  block.nonce = nonce;
  block.payload_digest = payload_digest;
  return block;
}

}  // namespace neatbound::protocol
