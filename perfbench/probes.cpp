#include "probes.hpp"

#include <algorithm>
#include <memory>

#include "net/delivery.hpp"
#include "protocol/block_store.hpp"
#include "scenario/artifact.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/miner_view.hpp"
#include "sim/oracle.hpp"
#include "stats/summary.hpp"
#include "support/crng.hpp"

namespace perfbench {

namespace sc = neatbound::scenario;
namespace sm = neatbound::sim;
namespace pr = neatbound::protocol;
namespace nt = neatbound::net;
namespace cr = neatbound::crng;

/// Probe results land here; external linkage keeps the measured work
/// from being optimized away.
std::uint64_t g_sink = 0;

namespace {

/// Exact per-run activity, read from round_activity() by an observer.
struct Activity {
  std::uint64_t rounds = 0;
  std::uint64_t quiet_rounds = 0;
  std::uint64_t delivered = 0;
  std::uint64_t adoptions = 0;
  friend bool operator==(const Activity&, const Activity&) = default;
};

/// Read-only observer: counts activity and, when asked, keeps the best
/// honest tip of every round plus periodic snapshots of all honest tips.
class Recorder {
 public:
  explicit Recorder(std::uint64_t snapshot_stride) : stride_(snapshot_stride) {}

  void observe(const sm::ExecutionEngine& engine, std::uint64_t round) {
    const sm::RoundActivity& a = engine.round_activity();
    ++activity.rounds;
    activity.delivered += a.delivered;
    activity.adoptions += a.adoptions;
    if (a.honest_mined == 0 && a.adversary_mined == 0 && a.delivered == 0) {
      ++activity.quiet_rounds;
    }
    if (stride_ == 0) return;
    best_tips.push_back(engine.best_honest_tip());
    if (round % stride_ == 0) {
      const auto tips = engine.honest_tips();
      tip_sets.emplace_back(tips.begin(), tips.end());
    }
  }

  Activity activity;
  std::vector<pr::BlockIndex> best_tips;
  std::vector<std::vector<pr::BlockIndex>> tip_sets;

 private:
  std::uint64_t stride_;
};

bool same_result(const sm::RunResult& a, const sm::RunResult& b) {
  return a.honest_counts == b.honest_counts &&
         a.honest_blocks_total == b.honest_blocks_total &&
         a.adversary_blocks_total == b.adversary_blocks_total &&
         a.convergence_opportunities == b.convergence_opportunities &&
         a.max_reorg_depth == b.max_reorg_depth &&
         a.max_divergence == b.max_divergence &&
         a.disagreement_rounds == b.disagreement_rounds &&
         a.violation_depth == b.violation_depth &&
         a.chain.best_height == b.chain.best_height &&
         a.chain.honest_blocks_in_chain == b.chain.honest_blocks_in_chain &&
         a.chain.adversary_blocks_in_chain ==
             b.chain.adversary_blocks_in_chain &&
         a.store_size == b.store_size;
}

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// Median ns per operation of `fn` (which performs `ops` operations),
/// repeated until 20 ms have been measured and at least 5 times.
template <typename Fn>
double ns_per_op(std::uint64_t ops, Fn&& fn) {
  std::vector<double> reps;
  double total = 0.0;
  while (reps.size() < 5 || total < 2e7) {
    const Clock::time_point start = Clock::now();
    fn();
    const double ns = ns_since(start);
    total += ns;
    reps.push_back(ns / double(std::max<std::uint64_t>(ops, 1)));
    if (reps.size() >= 1000) break;
  }
  return neatbound::stats::quantile(reps, 0.5);
}

struct ObservedRun {
  std::unique_ptr<sm::ExecutionEngine> engine;
  Recorder recorder{0};
};

void layer_probes(const sm::ExecutionEngine& engine, const Recorder& rec,
                  std::uint64_t delta, Tracer* tracer,
                  std::map<std::string, double>& m) {
  const pr::BlockStore& store = engine.store();
  const auto blocks = static_cast<pr::BlockIndex>(store.size());
  const std::uint32_t honest = engine.honest_count();

  {
    Scope span(tracer, "sim.MinerView.deliver");
    m["sim.view_deliver_ns"] = ns_per_op(2ull * (blocks - 1), [&] {
      sm::MinerView view;
      for (int pass = 0; pass < 2; ++pass) {  // in order, then duplicates
        for (pr::BlockIndex b = 1; b < blocks; ++b) {
          g_sink += view.deliver(b, store).adopted;
        }
      }
      g_sink += view.tip();
    });
    m["sim.view_orphan_ns"] = ns_per_op(blocks - 1, [&] {
      sm::MinerView view;
      for (pr::BlockIndex b = blocks - 1; b >= 1; --b) {  // child first
        g_sink += view.deliver(b, store).reorg_depth;
      }
      g_sink += view.tip();
    });
  }
  m["sim.view_bytes_computed"] =
      double(honest) * double((store.size() + 7) / 8);

  {
    Scope span(tracer, "net.DeliveryCalendar");
    std::uint64_t last_round = 0;
    for (pr::BlockIndex b = 1; b < blocks; ++b) {
      last_round = std::max(last_round, store.round_of(b));
    }
    m["net.calendar_ns_per_msg"] =
        ns_per_op(std::uint64_t(blocks - 1) * honest, [&] {
          nt::DeliveryCalendar calendar(honest);
          pr::BlockIndex next = 1;
          for (std::uint64_t r = 1; r <= last_round + delta + 1; ++r) {
            for (; next < blocks && store.round_of(next) <= r; ++next) {
              for (std::uint32_t to = 0; to < honest; ++to) {
                calendar.schedule(r + 1 + (next + to) % delta, to, next);
              }
            }
            calendar.drain_due(r, [&](const nt::Delivery& d) {
              g_sink += d.block;
            });
          }
        });
  }

  {
    Scope span(tracer, "protocol.BlockStore");
    const std::vector<pr::BlockIndex>& tips = rec.best_tips;
    const std::size_t pairs = std::min<std::size_t>(tips.size(), 4096);
    m["protocol.ancestry_ns"] = ns_per_op(pairs, [&] {
      for (std::size_t i = 0; i < pairs; ++i) {
        // Tip of round i against the tip half a run later.
        const std::size_t j = (i * 2654435761u) % tips.size();
        const std::size_t k = (j + tips.size() / 2) % tips.size();
        g_sink += store.common_ancestor(tips[j], tips[k]);
      }
    });
    std::vector<pr::Block> copies;
    copies.reserve(blocks);
    for (pr::BlockIndex b = 1; b < blocks; ++b) copies.push_back(store.block(b));
    m["protocol.store_add_ns"] = ns_per_op(copies.size(), [&] {
      pr::BlockStore fresh;
      for (const pr::Block& b : copies) g_sink += fresh.add(b);
    });
  }

  {
    Scope span(tracer, "sim.ConsistencyTracker.observe_round");
    m["sim.tracker_observe_ns"] = ns_per_op(rec.tip_sets.size(), [&] {
      sm::ConsistencyTracker tracker;
      for (const auto& tips : rec.tip_sets) tracker.observe_round(tips, store);
      g_sink += tracker.violation_depth();
    });
  }
}

}  // namespace

ProbeResults run_probes(const Workload& workload,
                        const std::vector<sc::ScenarioSpec>& specs,
                        Tracer* tracer) {
  ProbeResults out;
  auto& m = out.metrics;
  const auto& registry = sc::ScenarioRegistry::builtin();
  Scope root(tracer, "probes");

  std::vector<double> build_us;
  std::vector<double> run_ms;
  double run_ns = 0.0;
  double armed_ns = 0.0;
  double recorded_ns = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t blocks = 0;
  Activity total;
  ObservedRun largest;
  std::uint64_t largest_delta = 1;
  cr::Key crng_key;

  for (const Sample& sample : workload.samples) {
    try {
      const sc::ScenarioSpec& spec = specs.at(sample.spec);
      const sm::ExperimentConfig config =
          sc::build_config(spec, sc::build_grid(spec).point(sample.cell));
      sm::EngineConfig engine = config.engine;
      engine.seed = config.base_seed + sample.seed_offset;
      if (&sample == &workload.samples.front()) {
        crng_key = sm::engine_rng_key(engine);
      }
      const auto make = [&] {
        return std::make_unique<sm::ExecutionEngine>(
            engine, registry.make_adversary(spec.network.kind,
                                            spec.network.params,
                                            spec.adversary.kind,
                                            spec.adversary.params, engine));
      };

      Clock::time_point start = Clock::now();
      std::unique_ptr<sm::ExecutionEngine> plain;
      {
        Scope span(tracer, "sim.ExecutionEngine.build");
        plain = make();
      }
      build_us.push_back(1e-3 * ns_since(start));
      start = Clock::now();
      sm::RunResult unobserved;
      {
        Scope span(tracer, "sim.ExecutionEngine.run");
        unobserved = plain->run();
      }
      const double plain_ns = ns_since(start);

      ObservedRun observed;
      observed.engine = make();
      observed.recorder = Recorder(std::max<std::uint64_t>(engine.rounds / 64, 1));
      const sm::RunResult counted = observed.engine->run(
          [&](const sm::ExecutionEngine& e, std::uint64_t r) {
            observed.recorder.observe(e, r);
          });

      sm::InvariantOracle oracle(sc::resolve_oracle_config(spec));
      Recorder again(0);
      const auto oracle_observer = oracle.observer();
      std::unique_ptr<sm::ExecutionEngine> armed = make();
      start = Clock::now();
      sm::RunResult armed_result;
      {
        Scope span(tracer, "sim.InvariantOracle.observe");
        armed_result = armed->run(
            [&](const sm::ExecutionEngine& e, std::uint64_t r) {
              oracle_observer(e, r);
              again.observe(e, r);
            });
      }
      const double armed_run_ns = ns_since(start);

      // The same observer without the oracle: subtracted from the armed
      // run, so sim.oracle_ns_per_round counts the oracle alone.
      Recorder bare(0);
      std::unique_ptr<sm::ExecutionEngine> reference = make();
      start = Clock::now();
      const sm::RunResult recorded = reference->run(
          [&](const sm::ExecutionEngine& e, std::uint64_t r) {
            bare.observe(e, r);
          });
      const double recorded_run_ns = ns_since(start);

      out.checks.check(
          same_result(unobserved, counted) &&
              same_result(unobserved, armed_result) &&
              same_result(unobserved, recorded),
          workload.name + ": observed run differs from the unobserved run");
      out.checks.check(again.activity == observed.recorder.activity &&
                           bare.activity == observed.recorder.activity,
                       workload.name + ": nondeterministic round activity");

      run_ms.push_back(1e-6 * plain_ns);
      run_ns += plain_ns;
      armed_ns += armed_run_ns;
      recorded_ns += recorded_run_ns;
      rounds += engine.rounds;
      blocks += unobserved.store_size - 1;
      total.rounds += observed.recorder.activity.rounds;
      total.quiet_rounds += observed.recorder.activity.quiet_rounds;
      total.delivered += observed.recorder.activity.delivered;
      total.adoptions += observed.recorder.activity.adoptions;
      if (!largest.engine ||
          observed.engine->store().size() > largest.engine->store().size()) {
        largest = std::move(observed);
        largest_delta = engine.delta;
      }
    } catch (const std::exception& e) {
      out.checks.check(false, std::string("exception: ") + e.what());
    }
  }

  const auto share = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  m["sim.engine_build_us"] = neatbound::stats::quantile(build_us, 0.5);
  m["sim.run_ms_p50"] = neatbound::stats::quantile(run_ms, 0.5);
  m["sim.run_ms_p99"] = neatbound::stats::quantile(run_ms, 0.99);
  m["sim.ns_per_round"] = share(run_ns, double(rounds));
  m["sim.ns_per_block"] = share(run_ns, double(blocks));
  m["sim.blocks_per_run"] = share(double(blocks), double(run_ms.size()));
  m["sim.quiet_round_share"] =
      share(double(total.quiet_rounds), double(total.rounds));
  m["sim.deliveries_per_block"] =
      share(double(total.delivered), double(blocks));
  m["sim.adoptions_per_delivery"] =
      share(double(total.adoptions), double(total.delivered));
  m["sim.oracle_ns_per_round"] =
      share(armed_ns - recorded_ns, double(rounds));

  if (largest.engine) {
    layer_probes(*largest.engine, largest.recorder, largest_delta, tracer, m);
  }

  {
    Scope span(tracer, "support.crng.philox4x64");
    constexpr std::uint64_t kBlocks = 1 << 16;
    m["support.crng.ns_per_block"] = ns_per_op(kBlocks, [&] {
      for (std::uint64_t i = 0; i < kBlocks; ++i) {
        g_sink += cr::philox4x64({i, 0, std::uint64_t(cr::Purpose::kGeneric), 0},
                                 crng_key)[0];
      }
    });
  }
  return out;
}

}  // namespace perfbench
