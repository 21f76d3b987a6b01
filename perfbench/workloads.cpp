#include "workloads.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exp/adaptive.hpp"
#include "exp/checkpoint.hpp"
#include "exp/sinks.hpp"
#include "scenario/artifact.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "sim/runner.hpp"

namespace perfbench {

namespace sc = neatbound::scenario;
namespace ex = neatbound::exp;
namespace sm = neatbound::sim;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Engine base seed for spec `k` of a workload: below 2^40, so the JSON
/// number round-trips exactly.
std::uint64_t base_seed(std::uint64_t seed, std::uint64_t k) {
  return splitmix64(seed * 0x100 + k) >> 24;
}

/// Folds a RunningStats accumulator into `fp` at full precision.
void fold(ex::FingerprintBuilder& fp,
          const neatbound::stats::RunningStats& s) {
  const neatbound::stats::RunningStatsState st = s.state();
  fp.integer(st.count).number(st.mean).number(st.m2).number(st.min)
      .number(st.max);
}

std::uint64_t summary_digest(const sm::ExperimentSummary& s) {
  ex::FingerprintBuilder fp;
  for (const auto* stats :
       {&s.convergence_opportunities, &s.adversary_blocks, &s.honest_blocks,
        &s.violation_depth, &s.max_reorg_depth, &s.max_divergence,
        &s.disagreement_rounds, &s.chain_growth, &s.chain_quality,
        &s.best_height, &s.violation_exceeds_t}) {
    fold(fp, *stats);
  }
  return fp.finish();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_utime.tv_sec) + 1e-6 * double(usage.ru_utime.tv_usec) +
         double(usage.ru_stime.tv_sec) + 1e-6 * double(usage.ru_stime.tv_usec);
}

std::string join(const std::vector<double>& values) {
  std::ostringstream os;
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? ", " : "") << values[i];
  }
  return os.str();
}

struct Axis {
  std::string name;
  std::vector<double> values;
};

/// The scenario-file fields the generators vary.
struct SpecShape {
  std::string name;
  std::uint32_t miners = 40;
  double nu = 0.3;
  std::uint64_t delta = 3;
  std::uint64_t rounds = 1000;
  std::vector<Axis> axes;
  std::uint32_t seeds = 1;
  std::uint64_t base_seed = 1;
  std::uint64_t violation_t = 8;
  std::string adaptive;  ///< JSON object text, "" = none
  std::string oracle;    ///< JSON object text, "" = none
  std::string strategy = "private-withhold";
  std::string network = "strategy";
};

std::string spec_text(const SpecShape& s) {
  std::ostringstream os;
  os << "{\n  \"name\": \"" << s.name << "\",\n"
     << "  \"engine\": {\"miners\": " << s.miners << ", \"nu\": " << s.nu
     << ", \"delta\": " << s.delta << ", \"rounds\": " << s.rounds << "},\n"
     << "  \"axes\": [";
  for (std::size_t i = 0; i < s.axes.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": \"" << s.axes[i].name
       << "\", \"values\": [" << join(s.axes[i].values) << "]}";
  }
  os << "],\n  \"hardness\": {\"mode\": \"neat-bound-multiple\"},\n"
     << "  \"seeds\": " << s.seeds << ", \"base_seed\": " << s.base_seed
     << ", \"violation_t\": " << s.violation_t << ",\n";
  if (!s.adaptive.empty()) os << "  \"adaptive\": " << s.adaptive << ",\n";
  if (!s.oracle.empty()) os << "  \"oracle\": " << s.oracle << ",\n";
  os << "  \"adversary\": {\"strategy\": \"" << s.strategy << "\"},\n"
     << "  \"network\": {\"model\": \"" << s.network << "\"}\n}\n";
  return os.str();
}

void add_spec(Workload& w, const SpecShape& shape, Role role) {
  const std::string path =
      w.work_dir + "/" + w.name + "-spec" + std::to_string(w.specs.size()) +
      ".json";
  std::ofstream os(path, std::ios::trunc);
  os << spec_text(shape);
  if (!os.flush()) throw std::runtime_error("cannot write " + path);
  w.specs.push_back(SpecFile{path, role});
}

// Workload shapes.  `scale` divides the horizon: 1 for the measured
// workload, larger for the pinned canary.

void make_safe_adaptive(Workload& w, std::uint64_t seed, std::uint64_t scale) {
  SpecShape s;
  s.name = "perf_safe_adaptive";
  s.miners = 40;
  s.delta = 3;
  s.rounds = 20000 / scale;
  s.axes = {{"nu", {0.15, 0.3, 0.4}}, {"multiple", {1.0, 2.5, 5.0, 10.0}}};
  s.seeds = 6;
  s.base_seed = base_seed(seed, 0);
  s.violation_t = 8;
  s.adaptive =
      "{\"min_seeds\": 3, \"batch\": 3, \"max_seeds\": 24, "
      "\"half_width\": 0.1, \"confidence\": 0.95}";
  add_spec(w, s, Role::kAdaptive);
  // Two workers: on a 4-vCPU host, four amplified run-to-run noise at
  // the wave barrier (same seeds: 15% range against 7%).
  w.threads = 2;
  // Engine probes: seeds 0 and 1 of every cell at multiple 2.5 and 10.
  for (std::size_t cell : {1, 3, 5, 7, 9, 11}) {
    w.samples.push_back({0, cell, 0});
    w.samples.push_back({0, cell, 1});
  }
}

void make_dense_unsafe(Workload& w, std::uint64_t seed, std::uint64_t scale) {
  SpecShape s;
  s.nu = 0.3;
  s.delta = 4;
  s.violation_t = 8;
  // Uniform jitter reorders deliveries all the time, so at n = 1000 every
  // view fills its orphan buffers: this spec sets the peak RSS, and sets
  // it the same way for every seed.
  s.name = "perf_dense_withhold";
  s.axes = {{"miners", {160, 1000}}, {"multiple", {0.2, 0.5}}};
  s.rounds = 12000 / scale;
  s.seeds = 1;
  s.base_seed = base_seed(seed, 0);
  s.network = "uniform";
  add_spec(w, s, Role::kFixed);
  // The equivocating strategy on a split network.  Its orphan buffers
  // fill only after sporadic cross-side events, so its horizon stays
  // short enough that it never sets the peak.
  s.name = "perf_dense_forkbalancer";
  s.axes = {{"miners", {160, 1000}}, {"multiple", {0.2}}};
  s.rounds = 6000 / scale;
  s.seeds = 2;
  s.base_seed = base_seed(seed, 1);
  s.strategy = "fork-balancer";
  s.network = "split";
  add_spec(w, s, Role::kFixed);
  w.threads = 1;
  for (std::size_t cell : {0, 1, 2, 3}) w.samples.push_back({0, cell, 0});
  for (std::uint32_t seed : {0, 1}) {
    for (std::size_t cell : {0, 1}) w.samples.push_back({1, cell, seed});
  }
}

void make_oracle_falsify(Workload& w, std::uint64_t seed,
                         std::uint64_t scale) {
  const std::string invariants =
      "\"invariants\": [\"common-prefix\", \"chain-growth\", "
      "\"chain-quality\"]";
  SpecShape safe;
  safe.name = "perf_oracle_safe";
  safe.miners = 40;
  safe.delta = 3;
  safe.rounds = 40000 / scale;
  safe.axes = {{"nu", {0.1, 0.15}}, {"multiple", {4.0, 8.0}}};
  safe.seeds = 8;
  safe.base_seed = base_seed(seed, 0);
  safe.violation_t = 20;
  safe.oracle = "{" + invariants +
                ", \"growth_window\": 1000, \"growth_min_blocks\": 1, "
                "\"quality_window\": 32, \"quality_min_ratio\": 0.05, "
                "\"slice_rounds\": 48}";
  add_spec(w, safe, Role::kOracleSafe);

  // Shaped like scenarios/oracle_falsify.json: fork-balancer far below
  // the bound, every invariant armed.
  SpecShape unsafe;
  unsafe.miners = 12;
  unsafe.nu = 0.4;
  unsafe.delta = 4;
  unsafe.rounds = 1200;
  unsafe.axes = {{"multiple", {0.2}}};
  unsafe.seeds = 16;
  unsafe.violation_t = 4;
  unsafe.strategy = "fork-balancer";
  unsafe.oracle = "{" + invariants +
                  ", \"growth_window\": 64, \"growth_min_blocks\": 1, "
                  "\"quality_window\": 32, \"quality_min_ratio\": 0.05, "
                  "\"slice_rounds\": 48}";
  for (std::uint64_t k = 1; k <= 3; ++k) {
    unsafe.name = "perf_oracle_unsafe" + std::to_string(k);
    unsafe.base_seed = base_seed(seed, k);
    add_spec(w, unsafe, Role::kOracleUnsafe);
  }
  w.threads = 1;
  for (std::size_t cell : {0, 1, 2, 3}) w.samples.push_back({0, cell, 0});
  for (std::size_t spec : {1, 2, 3}) w.samples.push_back({spec, 0, 0});
}

Workload generate(const std::string& name, std::uint64_t seed,
                  const std::string& work_dir, std::uint64_t scale,
                  const std::string& file_prefix) {
  Workload w;
  w.name = file_prefix + name;
  w.work_dir = work_dir;
  if (name == "safe_adaptive") {
    make_safe_adaptive(w, seed, scale);
  } else if (name == "dense_unsafe") {
    make_dense_unsafe(w, seed, scale);
  } else if (name == "oracle_falsify") {
    make_oracle_falsify(w, seed, scale);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

void write_scan_report(const std::string& path, const std::string& name,
                       const std::vector<sc::OracleScanResult>& scans) {
  ex::JsonSink sink(path, name);
  sink.begin_section("scan", {"spec", "runs_scanned", "invariant", "round",
                              "measured", "bound"});
  for (std::size_t i = 0; i < scans.size(); ++i) {
    const auto& a = scans[i].artifact;
    sink.add_row({std::to_string(i), std::to_string(scans[i].runs_scanned),
                  a ? sm::invariant_name(a->violation.kind) : "none",
                  a ? std::to_string(a->violation.round) : "0",
                  a ? std::to_string(a->violation.measured) : "0",
                  a ? std::to_string(a->violation.bound) : "0"});
  }
  sink.finish();
}

std::string artifact_text(const sc::ViolationArtifact& artifact) {
  std::ostringstream os;
  sc::write_artifact(os, artifact);
  return os.str();
}

/// A small fixed-seed version of the named workload whose output digest
/// is pinned below; it catches changed trajectories.
Workload make_canary(const std::string& name, const std::string& work_dir) {
  return generate(name, 20201129, work_dir, 10, "canary-");
}

std::uint64_t pinned_digest(const std::string& name) {
  if (name == "safe_adaptive") return 0x1db2fd4492e334efULL;
  if (name == "dense_unsafe") return 0x0de9fbf361d3cb24ULL;
  if (name == "oracle_falsify") return 0xed3e5c8351d4641eULL;
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace

void Checks::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Checks::merge(const Checks& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& work_dir) {
  return generate(name, seed, work_dir, 1, "");
}

std::vector<sc::ScenarioSpec> set_up(const Workload& workload,
                                     Tracer* tracer) {
  const auto& registry = sc::ScenarioRegistry::builtin();
  std::vector<sc::ScenarioSpec> specs;
  for (const SpecFile& file : workload.specs) {
    {
      Scope span(tracer, "scenario.load_scenario_file");
      specs.push_back(sc::load_scenario_file(file.path));
    }
    const sc::ScenarioSpec& spec = specs.back();
    {
      Scope span(tracer, "scenario.validate_components");
      sc::validate_components(spec, registry);
    }
    Scope span(tracer, "scenario.build_grid");
    const ex::SweepGrid grid = sc::build_grid(spec);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      (void)sc::build_config(spec, grid.point(i));
    }
  }
  return specs;
}

Iteration run_iteration(const Workload& workload, Tracer* tracer) {
  Iteration it;
  const auto& registry = sc::ScenarioRegistry::builtin();
  const Clock::time_point start = Clock::now();
  const double cpu_start = cpu_seconds();
  Scope root(tracer, "iteration");
  try {
    const std::vector<sc::ScenarioSpec> specs = set_up(workload, tracer);
    ex::FingerprintBuilder digest;
    std::vector<sc::OracleScanResult> scans;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const sc::ScenarioSpec& spec = specs[s];
      const Role role = workload.specs[s].role;
      const std::string report_path = workload.work_dir + "/" +
                                      workload.name + "-report" +
                                      std::to_string(s) + ".json";
      if (role == Role::kAdaptive) {
        sc::ScenarioRunOptions options;
        options.threads = workload.threads;
        options.checkpoint_path =
            workload.work_dir + "/" + workload.name + "-checkpoint.json";
        it.checkpoint_path = options.checkpoint_path;
        Clock::time_point wave_start = Clock::now();
        options.progress = [&](const ex::WaveProgress&) {
          const Clock::time_point now = Clock::now();
          it.wave_s.push_back(
              std::chrono::duration<double>(now - wave_start).count());
          if (tracer) tracer->record("exp.wave", wave_start, now);
          wave_start = now;
        };
        const Clock::time_point sweep_start = Clock::now();
        ex::AdaptiveSweepResult result;
        {
          Scope span(tracer, "scenario.run_scenario_adaptive");
          wave_start = Clock::now();
          result = sc::run_scenario_adaptive(spec, registry, options);
        }
        it.sweep_s += seconds_since(sweep_start);
        it.checks.check(result.complete, spec.name + ": sweep incomplete");
        it.counts.waves += result.waves;
        for (const ex::AdaptiveCell& cell : result.cells) {
          const std::uint64_t d = summary_digest(cell.cell.summary);
          it.cells.push_back({s, cell.cell.point.index(), cell.seeds_used, d});
          it.counts.seeds_used += cell.seeds_used;
          it.counts.rounds += cell.seeds_used * cell.cell.config.engine.rounds;
          digest.integer(d).integer(cell.seeds_used)
              .integer(cell.violations).integer(cell.stopped_early)
              .number(cell.ci.lo).number(cell.ci.hi);
        }
        Scope span(tracer, "exp.report_write");
        ex::JsonSink sink(report_path, spec.name);
        sc::render_adaptive_report(spec, result.cells, sink);
        sink.finish();
      } else if (role == Role::kFixed) {
        sc::ScenarioRunOptions options;
        options.threads = workload.threads;
        const Clock::time_point sweep_start = Clock::now();
        std::vector<ex::SweepCell> cells;
        {
          Scope span(tracer, "scenario.run_scenario");
          cells = sc::run_scenario(spec, registry, options);
        }
        it.sweep_s += seconds_since(sweep_start);
        for (const ex::SweepCell& cell : cells) {
          const std::uint64_t d = summary_digest(cell.summary);
          it.cells.push_back({s, cell.point.index(), cell.config.seeds, d});
          it.counts.seeds_used += cell.config.seeds;
          it.counts.rounds += std::uint64_t{cell.config.seeds} *
                              cell.config.engine.rounds;
          digest.integer(d);
        }
        Scope span(tracer, "exp.report_write");
        ex::JsonSink sink(report_path, spec.name);
        sc::render_report(spec, cells, sink);
        sink.finish();
      } else {
        const Clock::time_point sweep_start = Clock::now();
        sc::OracleScanResult scan;
        {
          Scope span(tracer, "scenario.run_scenario_oracle");
          scan = sc::run_scenario_oracle(spec, registry, 0);
        }
        it.sweep_s += seconds_since(sweep_start);
        it.counts.runs_scanned += scan.runs_scanned;
        it.counts.rounds += scan.runs_scanned * spec.rounds;
        digest.integer(scan.runs_scanned);
        const bool want_violation = role == Role::kOracleUnsafe;
        it.checks.check(scan.artifact.has_value() == want_violation,
                        spec.name + (want_violation
                                         ? ": no violation found"
                                         : ": violation on the safe side"));
        if (scan.artifact) {
          const sc::ViolationArtifact& frozen = *scan.artifact;
          digest.integer(scan.cell_index).integer(scan.seed_index)
              .integer(std::uint64_t(frozen.violation.kind))
              .integer(frozen.violation.round)
              .integer(frozen.violation.measured)
              .integer(frozen.violation.bound);
          const std::string path = workload.work_dir + "/" + workload.name +
                                   "-artifact" + std::to_string(s) + ".json";
          it.artifact_paths.push_back(path);
          {
            Scope span(tracer, "scenario.write_artifact_file");
            sc::write_artifact_file(path, frozen);
          }
          sc::ViolationArtifact loaded;
          {
            Scope span(tracer, "scenario.load_artifact_file");
            loaded = sc::load_artifact_file(path);
          }
          sc::ReplayResult replay;
          {
            Scope span(tracer, "scenario.replay_artifact");
            replay = sc::replay_artifact(loaded, registry);
          }
          it.checks.check(artifact_text(loaded) == artifact_text(frozen) &&
                              replay.reproduced &&
                              replay.violation == frozen.violation,
                          spec.name + ": artifact does not replay bit-for-bit");
        }
        scans.push_back(std::move(scan));
      }
    }
    if (!scans.empty()) {
      Scope span(tracer, "exp.report_write");
      write_scan_report(workload.work_dir + "/" + workload.name +
                            "-report-scan.json",
                        workload.name, scans);
    }
    it.checks.check(true, "");  // the iteration itself ran without throwing
    it.digest = digest.finish();
  } catch (const std::exception& e) {
    it.checks.check(false, std::string("exception: ") + e.what());
  }
  it.wall_s = seconds_since(start);
  it.cpu_s = cpu_seconds() - cpu_start;
  return it;
}

Checks check_against_serial(const Workload& workload,
                            const std::vector<sc::ScenarioSpec>& specs,
                            const std::vector<CellRecord>& cells,
                            std::size_t max_cells) {
  Checks checks;
  const auto& registry = sc::ScenarioRegistry::builtin();
  const std::size_t count = std::min(max_cells, cells.size());
  for (std::size_t k = 0; k < count; ++k) {
    // Evenly spread over the recorded cells, last cell included.
    const CellRecord& rec =
        cells[count == 1 ? 0 : k * (cells.size() - 1) / (count - 1)];
    try {
      const sc::ScenarioSpec& spec = specs.at(rec.spec);
      const sm::ExperimentConfig config =
          sc::build_config(spec, sc::build_grid(spec).point(rec.cell));
      sm::ExperimentSummary summary;
      for (std::uint32_t i = 0; i < rec.seeds; ++i) {
        sm::EngineConfig engine = config.engine;
        engine.seed = config.base_seed + i;
        sm::ExecutionEngine run(
            engine, registry.make_adversary(spec.network.kind,
                                            spec.network.params,
                                            spec.adversary.kind,
                                            spec.adversary.params, engine));
        sm::accumulate_run(summary, run.run(), spec.violation_t);
      }
      checks.check(summary_digest(summary) == rec.digest,
                   workload.name + ": cell " + std::to_string(rec.cell) +
                       " of spec " + std::to_string(rec.spec) +
                       " differs from its serial reference");
    } catch (const std::exception& e) {
      checks.check(false, std::string("exception: ") + e.what());
    }
  }
  return checks;
}

Checks check_canary(const std::string& name, const std::string& work_dir) {
  Checks checks;
  const Workload canary = make_canary(name, work_dir);
  const Iteration it = run_iteration(canary, nullptr);
  checks.merge(it.checks);
  const std::uint64_t pinned = pinned_digest(name);
  std::fprintf(stderr, "perfbench: canary %s digest %016llx\n", name.c_str(),
               static_cast<unsigned long long>(it.digest));
  checks.check(it.digest == pinned,
               name + ": canary digest differs from the pinned reference");
  return checks;
}

}  // namespace perfbench
