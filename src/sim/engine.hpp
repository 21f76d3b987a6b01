// The round-based execution engine of Section III.
//
// Per round, in order:
//   1. due messages are delivered; honest players update their chains
//      (longest-chain rule);
//   2. every honest player makes exactly one parallel oracle query on its
//      current tip; freshly mined blocks are broadcast, with per-recipient
//      delays chosen by the adversary within [1, Δ] (one honest_delays
//      call per broadcast, then one calendar record per distinct delay);
//   3. the adversary (who observed everything, including this round's
//      honest blocks — it is rushing) takes its turn: up to νn sequential
//      queries on parents of its choice, plus publications.  A run of
//      queries on one parent (AdversaryOps::mine_on) jumps straight to
//      the next success of the adversary's Bernoulli field, so a round
//      costs O(successes), not O(νn);
//   4. metrics are recorded.
//
// Gossip echo: the first time a block reaches *any* honest player (round
// r₀), the engine schedules its delivery to every other honest player by
// r₀ + Δ.  This models honest re-broadcast, whose messages the adversary
// can again delay by at most Δ — without it, "delay ≤ Δ" would be
// meaningless for adversary-mined blocks sent to a single victim.
//
// View classes: honest players that have received the same blocks hold
// identical views, so the engine keeps one MinerView per *class* of
// identical views plus a member bitset, not one per player.  A delivery
// record (net/delivery.hpp: one block, a set of recipients) is applied
// once per class it touches; a class it covers only partly is split
// first, the covered part taking a copy of the view.  At the end of every
// round that delivered or mined, classes whose views compare equal merge
// again.  Every per-player quantity — delivered and adoption counts, the
// tip snapshot, the lowest-index best-tip rule, the reorg witness — is
// charged per member covered, so trajectories are bit-identical to one
// view per player (tests/sim/test_engine_pinned.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/delivery.hpp"
#include "protocol/block_store.hpp"
#include "protocol/hash.hpp"
#include "sim/adversary.hpp"
#include "sim/draws.hpp"
#include "sim/environment.hpp"
#include "sim/metrics.hpp"
#include "sim/miner_view.hpp"
#include "support/crng.hpp"
#include "support/hot.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {

struct EngineConfig {
  std::uint32_t miner_count = 16;      ///< n (honest + corrupted)
  double adversary_fraction = 0.0;     ///< ν; corrupted count = round(νn)
  double p = 0.01;                     ///< proof-of-work hardness
  std::uint64_t delta = 1;             ///< Δ, max message delay in rounds
  std::uint64_t rounds = 1000;         ///< T, rounds to execute
  std::uint64_t seed = 1;              ///< master seed (oracle + mining)
};

/// The counter-RNG key of a run: cell = hash of the trajectory-shaping
/// parameters (n, ν, p, Δ), seed = the run seed.  `rounds` is excluded on
/// purpose — truncating the horizon must replay a prefix of the same
/// trajectory (what the oracle replayer and checkpoint resume rely on).
[[nodiscard]] crng::Key engine_rng_key(const EngineConfig& config);

/// Honest miner count the engine derives from a config: n minus
/// round(νn).  Partition/victim-table builders must size against exactly
/// this value, so it is exported rather than re-derived per call site.
[[nodiscard]] std::uint32_t honest_miner_count(const EngineConfig& config);

/// Rejects unusable parameter combinations with a ContractViolation whose
/// message names the offending field: n < 4 (the paper's condition (3)),
/// ν ∉ [0, 1/2) (which covers ν ≥ 1), p ∉ (0, 1), Δ = 0, a Δ whose
/// worst-case delivery lookahead 2Δ + 1 exceeds
/// net::DeliveryCalendar::kMaxSpan, T = 0, or a corrupted count that
/// leaves no honest miner.  Called by the engine constructor; exposed so
/// config-producing layers (CLI, scenario files) can fail fast before
/// spawning runs.
void validate_engine_config(const EngineConfig& config);

/// Event counts of the most recent round, maintained unconditionally
/// (plain increments — cheap enough to keep out of the telemetry gate)
/// so the round tracer (sim/trace.hpp) can read them without touching
/// simulation state.
struct RoundActivity {
  std::uint32_t honest_mined = 0;
  std::uint32_t adversary_mined = 0;
  std::uint32_t delivered = 0;
  std::uint32_t adoptions = 0;
  /// Deepest reorg any honest view performed this round (0 = none) and
  /// the view that performed it.  Input to the per-round invariant oracle
  /// (sim/oracle.hpp); like every other field here, never read back by
  /// simulation code.
  std::uint64_t max_reorg_depth = 0;
  std::uint32_t max_reorg_view = 0;
};

struct RunResult {
  std::vector<std::uint32_t> honest_counts;  ///< blocks honest miners mined, per round
  std::uint64_t honest_blocks_total = 0;
  std::uint64_t adversary_blocks_total = 0;  ///< mined (published or not)
  std::uint64_t convergence_opportunities = 0;
  std::uint64_t max_reorg_depth = 0;
  std::uint64_t max_divergence = 0;
  std::uint64_t disagreement_rounds = 0;
  std::uint64_t violation_depth = 0;
  ChainMetrics chain;
  std::uint64_t store_size = 0;  ///< all blocks ever mined (incl. genesis)
  /// Counter values + per-phase wall times of this run; all zeros in
  /// telemetry-OFF builds.  Never read by simulation code.
  telemetry::TelemetrySnapshot telemetry;
};

class ExecutionEngine {
 public:
  ExecutionEngine(EngineConfig config, std::unique_ptr<Adversary> adversary);
  /// With an environment, honest blocks embed Z's messages and the final
  /// ledgers (ext of each honest tip) become meaningful.
  ExecutionEngine(EngineConfig config, std::unique_ptr<Adversary> adversary,
                  std::unique_ptr<Environment> environment);
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Called at the end of every round with the engine (read-only view of
  /// store/tips) and the just-finished round number.
  using RoundObserver =
      std::function<void(const ExecutionEngine&, std::uint64_t round)>;

  /// Runs the configured number of rounds and returns the metrics.
  /// May be called once per engine instance.  The optional observer fires
  /// after each round's deliveries, mining and adversary turn.  Without
  /// one, provably quiet rounds are committed in O(1) instead of stepped
  /// (skip_quiet_rounds); an observer must see every round, so an
  /// observed run steps them all and is the no-skip reference.  Both give
  /// the same RunResult (tests/sim/test_quiet_skip_equivalence.cpp).
  [[nodiscard]] RunResult run(const RoundObserver& observer = {});

  // --- read-only access for tests / examples after run() ---
  [[nodiscard]] const protocol::BlockStore& store() const noexcept {
    return store_;
  }
  [[nodiscard]] const protocol::RandomOracle& oracle() const noexcept {
    return oracle_;
  }
  [[nodiscard]] std::uint32_t honest_count() const noexcept {
    return honest_count_;
  }
  [[nodiscard]] protocol::BlockIndex honest_tip(std::uint32_t miner) const;
  [[nodiscard]] protocol::BlockIndex best_honest_tip() const;
  /// Current tips of all honest miners (valid after run()).
  [[nodiscard]] std::span<const protocol::BlockIndex> honest_tips() const {
    return tips_scratch_;
  }

  // --- per-round activity, for RoundObserver consumers (sim/trace) ---
  /// Event counts of the round that just finished (or is executing).
  [[nodiscard]] const RoundActivity& round_activity() const noexcept {
    return round_activity_;
  }
  /// Honest miner ids that mined in the current round, in mining order.
  [[nodiscard]] std::span<const std::uint32_t> round_miners() const noexcept {
    return round_miners_;
  }
  /// Height of the best honest tip (the incremental maximum).
  [[nodiscard]] std::uint64_t best_height() const noexcept {
    return best_height_;
  }
  /// Running max consistency-violation depth observed so far.
  [[nodiscard]] std::uint64_t violation_depth() const noexcept {
    return consistency_.violation_depth();
  }
  /// Worst pairwise divergence among the honest tips at the end of the
  /// round that just finished (ConsistencyTracker::round_divergence); 0
  /// while every view holds the same tip.  What the per-round oracle reads
  /// instead of rescanning honest_tips().
  [[nodiscard]] std::uint64_t round_divergence() const noexcept {
    return consistency_.round_divergence();
  }

 private:
  class Ops;  // AdversaryOps implementation

  /// Executes one round (deliver → mine → adversary → metrics).  Rounds
  /// are stepped in order 1, 2, ..., config.rounds.
  NEATBOUND_HOT void step_round(std::uint64_t round,
                                const RoundObserver& observer);
  /// Commits the provably quiet rounds from `round` on — nothing due for
  /// delivery, no position of either success field — and returns the
  /// first round that must be stepped (`round` itself when it is busy
  /// or the fast path is unavailable; past the last round when the rest
  /// of the run is quiet).  Committing a round (zero honest count,
  /// unchanged-round metrics fold) is observably identical to stepping
  /// it.  Unavailable with an environment attached or for adversaries
  /// that did not opt into the quiet-act contract (sim/adversary.hpp).
  /// A whole quiet run costs O(1): each event source names its next busy
  /// round directly, so nothing is examined per skipped round.
  [[nodiscard]] NEATBOUND_HOT std::uint64_t skip_quiet_rounds(
      std::uint64_t round);
  /// Assembles the RunResult after the final round, with this thread's
  /// telemetry snapshot attached.
  [[nodiscard]] RunResult finish_run();

  NEATBOUND_HOT void deliver_due(std::uint64_t round);
  /// Applies one delivery record: once to every class that has not seen
  /// the block and holds a recipient, splitting off the covered part of a
  /// class the record covers only partly.
  NEATBOUND_HOT void deliver_record(const net::DeliveryRecord& record);
  NEATBOUND_HOT void honest_mining_phase(std::uint64_t round);
  NEATBOUND_HOT void broadcast_honest(std::uint64_t round,
                                      std::uint32_t sender,
                                      protocol::BlockIndex block);
  /// Schedules the first `slots` broadcast slots (each one delay and its
  /// recipients) with one calendar call each, then empties them.  Every
  /// member of a later set for the same delay is above this set's
  /// members, so that set joins the record this call leaves.
  NEATBOUND_HOT void schedule_slots(std::uint64_t round,
                                    protocol::BlockIndex block,
                                    std::size_t slots);
  /// First-honest-receipt gossip echo (see file comment).
  NEATBOUND_HOT void schedule_echo(std::uint64_t first_receipt_round,
                                   protocol::BlockIndex block);
  [[nodiscard]] NEATBOUND_HOT std::uint64_t clamp_delay(
      std::uint64_t d) const noexcept;

  /// The deepest reorg of one delivery record (or one self-delivery) and
  /// the lowest member that performed it.
  struct ReorgWitness {
    std::uint64_t depth = 0;
    std::uint32_t view = 0;
  };
  /// Records that class `c` adopted a new tip, charging every member:
  /// adoption counts, the per-member tip snapshot, the running best-tip
  /// maximum and the record's reorg witness.  The best-tip tie rule
  /// (strictly greater height, or equal height from a lower-indexed view)
  /// needs only the class's lowest member, since members share a tip.
  NEATBOUND_HOT void note_adoption(std::size_t c, const AdoptionEvent& event,
                                   ReorgWitness& witness);
  /// Folds a record's reorg witness into the round's max_reorg_*: the
  /// first strictly deeper reorg in delivery order wins, exactly as if
  /// members were visited one by one in ascending order.
  NEATBOUND_HOT void note_witness(const ReorgWitness& witness) noexcept;
  /// Moves the members of class `c` that are in `members` (some, not all)
  /// into a new class holding a copy of c's view; returns its index.
  NEATBOUND_HOT std::size_t split_class(
      std::size_t c, std::span<const std::uint64_t> members,
      std::uint32_t covered);
  /// Index of a class holding `miner` alone, split off if it shares one.
  NEATBOUND_HOT std::size_t solo_class(std::uint32_t miner);
  /// Merges classes whose views compare equal; called only when a view
  /// changed or split since the last pass (classes_changed_).  Candidates
  /// are found by (tip, known-set hash) and confirmed by full comparison,
  /// in O(classes) hash probes.
  NEATBOUND_HOT void merge_equal_classes();

  /// Stamps metadata on a freshly mined honest block, stores it, updates
  /// views/metrics and broadcasts it.
  NEATBOUND_HOT void register_honest_block(std::uint64_t round,
                                           std::uint32_t miner,
                                           protocol::Block&& block);

  EngineConfig config_;
  std::uint32_t honest_count_;
  std::uint32_t adversary_queries_;
  protocol::RandomOracle oracle_;
  protocol::BlockStore store_;
  net::DeliveryCalendar calendar_;
  /// One MinerView standing for a set of honest miners with identical
  /// views; `members` is a bitset over honest ids, `size` its popcount.
  struct ViewClass {
    MinerView view;
    std::vector<std::uint64_t> members;
    std::uint32_t size = 0;
    bool touched = false;  ///< split or delivered to since the last merge
  };
  /// Live classes are [0, live_classes_) and partition the honest ids;
  /// slots past it are retired classes kept for their capacity, so a
  /// split copies into already-grown storage.
  std::vector<ViewClass> classes_;
  std::size_t live_classes_ = 1;
  std::size_t member_words_ = 0;  ///< words per member bitset
  /// A class view changed or split since the last merge pass.
  bool classes_changed_ = false;
  // Reused scratch for solo_class, merge_equal_classes and the tracker.
  std::vector<std::uint64_t> solo_members_;
  std::vector<std::uint32_t> merge_slot_class_;
  std::vector<std::uint64_t> merge_slot_epoch_;
  std::uint64_t merge_epoch_ = 0;
  std::vector<bool> absorbed_;
  std::vector<protocol::BlockIndex> class_tips_;
  std::unique_ptr<Adversary> adversary_;
  std::unique_ptr<Environment> environment_;
  /// The run key plus cursors over the honest and adversary Bernoulli
  /// success fields.
  crng::Key key_;
  GapCursor honest_gaps_;
  GapCursor adversary_gaps_;
  /// Precomputed eligibility for skip_quiet_rounds: no environment, and
  /// an adversary honouring the quiet-act contract.
  bool quiet_eligible_ = false;
  ConsistencyTracker consistency_;
  std::vector<std::uint32_t> honest_counts_;
  std::uint64_t adversary_blocks_total_ = 0;
  /// Current tip of every honest miner, written per member on each class
  /// adoption (never rescanned).
  std::vector<protocol::BlockIndex> tips_scratch_;
  // Running maximum over tips_scratch_ (see note_adoption); best_view_ is
  // a member id.
  protocol::BlockIndex best_tip_ = protocol::kGenesisIndex;
  std::uint64_t best_height_ = 0;
  std::uint32_t best_view_ = 0;
  std::vector<bool> echoed_;  ///< per block: gossip echo already scheduled
  // Broadcast scratch, sized in the constructor (see broadcast_honest):
  // the adversary's delay per honest recipient; the slot of each delay
  // d ∈ [1, Δ] at index d − 1 (kNoSlot outside a broadcast); and per slot
  // its delay and its member set (member_words_ words each).
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::uint64_t kBroadcastSlots = 64;
  std::vector<std::uint64_t> delays_;
  std::vector<std::uint32_t> slot_of_delay_;
  std::vector<std::uint64_t> slot_delay_;
  std::vector<std::uint64_t> slot_members_;
  /// Reset at the top of every round; read only by observers/tracers —
  /// no simulation decision ever consults these.
  RoundActivity round_activity_;
  /// Honest miner ids of the current round; capacity pre-reserved to
  /// honest_count_ in the constructor, so the per-block append never
  /// allocates.
  std::vector<std::uint32_t> round_miners_;
  bool ran_ = false;
};

}  // namespace neatbound::sim
