// The benchmark's three workloads: scenario specs generated from the
// workload seed, one closed-loop iteration over them through the
// library's public entry points, and the output checks that feed the
// failure count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "spans.hpp"

namespace perfbench {

/// What a generated spec is for, which decides the entry point it runs
/// through.
enum class Role {
  kAdaptive,     ///< scenario::run_scenario_adaptive, checkpoint per wave
  kFixed,        ///< scenario::run_scenario, fixed seed budget
  kOracleSafe,   ///< scenario::run_scenario_oracle; full scan, no violation
  kOracleUnsafe, ///< scenario::run_scenario_oracle; must freeze an artifact
};

struct SpecFile {
  std::string path;  ///< where the generated spec text was written
  Role role = Role::kFixed;
};

/// One engine run the per-layer probes drive directly.
struct Sample {
  std::size_t spec = 0;  ///< index into Workload::specs
  std::size_t cell = 0;  ///< grid point index
  std::uint32_t seed_offset = 0;  ///< engine seed = base_seed + offset
};

struct Workload {
  std::string name;
  std::string work_dir;
  unsigned threads = 1;  ///< sweep pool size
  std::vector<SpecFile> specs;
  std::vector<Sample> samples;
};

/// Generates the named workload's specs from `seed` and writes them
/// under `work_dir`.  Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     const std::string& work_dir);

/// Load, validate and build the grid of every spec — the set-up that
/// precedes the first engine run.
[[nodiscard]] std::vector<neatbound::scenario::ScenarioSpec> set_up(
    const Workload& workload, Tracer* tracer);

/// Counts that must repeat exactly for a given seed.
struct Counts {
  std::uint64_t waves = 0;
  std::uint64_t seeds_used = 0;  ///< engine runs of the sweeps
  std::uint64_t runs_scanned = 0;
  std::uint64_t rounds = 0;      ///< Σ runs × T actually simulated
  friend bool operator==(const Counts&, const Counts&) = default;
};

/// One swept cell, kept for the serial reference check.
struct CellRecord {
  std::size_t spec = 0;
  std::size_t cell = 0;
  std::uint32_t seeds = 0;
  std::uint64_t digest = 0;
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few messages, for stderr

  void check(bool ok, const std::string& what);
  void merge(const Checks& other);
};

struct Iteration {
  double wall_s = 0.0;   ///< spec load to report written
  double cpu_s = 0.0;    ///< user + sys, all threads
  double sweep_s = 0.0;  ///< engine work only (rounds_per_s denominator)
  Counts counts;
  std::uint64_t digest = 0;  ///< over every cell summary and scan verdict
  std::vector<double> wave_s;  ///< from the public progress callback
  std::vector<CellRecord> cells;
  Checks checks;
  std::string checkpoint_path;  ///< "" unless an adaptive sweep ran
  std::vector<std::string> artifact_paths;
};

/// One closed-loop iteration: load specs, validate, sweep, write the
/// report (and, for oracle workloads, write, re-read and replay every
/// frozen artifact).  Exceptions are caught and counted as failures.
[[nodiscard]] Iteration run_iteration(const Workload& workload,
                                      Tracer* tracer);

/// Re-runs up to `max_cells` recorded cells serially through
/// sim::ExecutionEngine + accumulate_run and compares digests with the
/// sweep's: the reference every later execution path must reproduce.
[[nodiscard]] Checks check_against_serial(
    const Workload& workload,
    const std::vector<neatbound::scenario::ScenarioSpec>& specs,
    const std::vector<CellRecord>& cells, std::size_t max_cells);

/// Runs the canary and compares its digest with the pinned one.
[[nodiscard]] Checks check_canary(const std::string& name,
                                  const std::string& work_dir);

}  // namespace perfbench
