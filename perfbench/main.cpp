// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Generates the workload's scenario specs from the seed, then runs them in
// a closed loop (one client; the next iteration starts when the previous
// one has written its report) for S seconds.  With --trace 0 it reports
// the end-to-end metrics of untraced iterations.  With --trace 1 it
// alternates traced and untraced iterations, then runs the per-layer
// probes, and reports the per-layer metrics; the span tree is written to
// DIR/trace-NAME-N.json.  Every output is checked (see workloads.hpp);
// the last stdout line is one JSON object: correct, attempted, failed,
// metrics {name: value}.  run.py wraps this binary.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "stats/summary.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !kv.count("--workload")) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR");
  }
  a.workload = kv["--workload"];
  if (kv.count("--seed")) a.seed = std::stoull(kv["--seed"]);
  if (kv.count("--seconds")) a.seconds = std::stod(kv["--seconds"]);
  if (kv.count("--trace")) a.trace = kv["--trace"] == "1";
  if (kv.count("--work-dir")) a.work_dir = kv["--work-dir"];
  return a;
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : neatbound::stats::quantile(v, 0.5);
}

double max_of(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, x);
  return m;
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Median milliseconds of `fn` over `reps` calls.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    ms.push_back(1e3 * seconds_since(start));
  }
  return median(ms);
}

/// Checkpoint and JSON-reader probes on the files the run itself wrote.
void io_probes(const Workload& workload, const Iteration& it, Tracer* tracer,
               std::map<std::string, double>& m) {
  namespace ex = neatbound::exp;
  m["exp.checkpoint_write_ms"] = 0.0;
  m["exp.checkpoint_load_ms"] = 0.0;
  m["exp.checkpoint_bytes"] = 0.0;
  std::vector<std::string> texts;
  for (const SpecFile& f : workload.specs) texts.push_back(read_file(f.path));
  if (!it.checkpoint_path.empty()) {
    Scope span(tracer, "exp.checkpoint");
    ex::SweepCheckpoint checkpoint;
    m["exp.checkpoint_load_ms"] = median_ms(9, [&] {
      checkpoint = ex::load_sweep_checkpoint(it.checkpoint_path);
    });
    const std::string copy = it.checkpoint_path + ".probe";
    m["exp.checkpoint_write_ms"] =
        median_ms(9, [&] { ex::save_sweep_checkpoint(copy, checkpoint); });
    m["exp.checkpoint_bytes"] = double(std::filesystem::file_size(copy));
    texts.push_back(read_file(it.checkpoint_path));
  }
  for (const std::string& path : it.artifact_paths) {
    texts.push_back(read_file(path));
  }
  Scope span(tracer, "support.parse_json");
  double bytes = 0.0;
  for (const std::string& t : texts) bytes += double(t.size());
  const double ms = median_ms(9, [&] {
    for (const std::string& t : texts) {
      (void)neatbound::support::parse_json(t);
    }
  });
  m["support.json.parse_mb_per_s"] = ms > 0 ? bytes / 1e6 / (ms / 1e3) : 0.0;
}

int run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  const Workload workload = make_workload(args.workload, args.seed,
                                          args.work_dir);
  Checks checks;
  std::map<std::string, double> m;

  // Set-up: repeated before the loop and after every iteration, so the
  // reported median samples the whole run, not one moment of it.
  std::vector<double> setup_s;
  const auto time_set_up = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      const Clock::time_point start = Clock::now();
      (void)set_up(workload, nullptr);
      setup_s.push_back(seconds_since(start));
    }
  };
  time_set_up(21);

  // Warm-up iteration: its outputs are the reference later iterations
  // must repeat exactly; its timings are not reported.
  const Iteration first = run_iteration(workload, nullptr);
  checks.merge(first.checks);

  Tracer tracer;
  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  const Clock::time_point loop_start = Clock::now();
  for (std::size_t i = 0;
       seconds_since(loop_start) < args.seconds || plain.size() < 3 ||
       (args.trace && traced.size() < 3);
       ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    Iteration it = run_iteration(workload, trace_this ? &tracer : nullptr);
    std::fprintf(stderr, "perfbench: iteration %zu%s wall %.4f s cpu %.4f s\n",
                 i + 1, trace_this ? " (traced)" : "", it.wall_s, it.cpu_s);
    checks.merge(it.checks);
    checks.check(it.digest == first.digest && it.counts == first.counts,
                 "nondeterminism: iteration " + std::to_string(i + 1) +
                     " differs from the first");
    (trace_this ? traced : plain).push_back(std::move(it));
    time_set_up(5);
  }

  const std::vector<neatbound::scenario::ScenarioSpec> specs =
      set_up(workload, nullptr);
  checks.merge(check_against_serial(workload, specs, first.cells, 3));
  checks.merge(check_canary(args.workload, args.work_dir));

  if (!args.trace) {
    std::vector<double> wall, cpu, rate;
    for (const Iteration& it : plain) {
      wall.push_back(it.wall_s);
      cpu.push_back(it.cpu_s);
      rate.push_back(double(it.counts.rounds) / it.sweep_s);
    }
    // The fastest iteration: load from other processes on the host only
    // ever adds time, so the best iteration tracks the code, while the
    // median tracks how busy the host was.
    m["wall_s"] = min_of(wall);
    m["cpu_s"] = min_of(cpu);
    m["rounds_per_s"] = max_of(rate);
    m["setup_s"] = median(setup_s);
    m["peak_rss_mb"] = peak_rss_mb();
  } else {
    ProbeResults probes = run_probes(workload, specs, &tracer);
    checks.merge(probes.checks);
    m.insert(probes.metrics.begin(), probes.metrics.end());
    io_probes(workload, first, &tracer, m);

    const auto span_ms = [&](const std::string& name) {
      std::vector<double> d = tracer.durations(name);
      for (double& x : d) x *= 1e3;
      return median(d);
    };
    std::vector<double> sweep, traced_wall, plain_wall, wave_p50, wave_max;
    for (const Iteration& it : traced) {
      sweep.push_back(it.sweep_s);
      traced_wall.push_back(it.wall_s);
      if (!it.wave_s.empty()) {
        wave_p50.push_back(median(it.wave_s));
        wave_max.push_back(max_of(it.wave_s));
      }
    }
    for (const Iteration& it : plain) plain_wall.push_back(it.wall_s);
    m["scenario.load_ms"] = span_ms("scenario.load_scenario_file");
    m["scenario.validate_ms"] = span_ms("scenario.validate_components");
    m["exp.sweep_s"] = median(sweep);
    m["exp.report_write_ms"] = span_ms("exp.report_write");
    m["exp.waves"] = double(first.counts.waves);
    m["exp.seeds_used"] = double(first.counts.seeds_used);
    m["exp.wave_s_p50"] = median(wave_p50);
    m["exp.wave_s_max"] = median(wave_max);
    m["scenario.oracle_runs_scanned"] = double(first.counts.runs_scanned);
    m["scenario.artifact_write_ms"] = span_ms("scenario.write_artifact_file");
    m["scenario.artifact_load_ms"] = span_ms("scenario.load_artifact_file");
    m["scenario.replay_ms"] = span_ms("scenario.replay_artifact");
    m["wall_s_p50"] = median(plain_wall);
    m["trace.overhead_s"] = median(traced_wall) - median(plain_wall);
    m["fail_share"] = double(checks.failed) / double(checks.attempted);
    tracer.write_json(args.work_dir + "/trace-" + args.workload + "-" +
                      std::to_string(args.seed) + ".json");
  }

  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << checks.attempted
     << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  bool comma = false;
  for (const auto& [name, value] : m) {
    os << (comma ? ", " : "") << "\"" << name << "\": " << value;
    comma = true;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
