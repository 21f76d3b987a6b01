// In-memory span recorder for the benchmark's traced pass.
//
// Spans are recorded only around the benchmark's own calls into the
// library's public functions; the library itself carries no tracing.
// Every span keeps its name, start, end and parent, lives in memory
// until the run ends, and is then written out in one JSON document.  A
// span's self time is its duration minus the time its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] double seconds_since(Clock::time_point start);

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into Tracer::spans(); -1 = root
};

class Tracer {
 public:
  Tracer();

  /// Opens a span as a child of the innermost open span; returns its id.
  int open(std::string name);
  void close(int id);
  /// Records an already finished interval as a child of the innermost
  /// open span (wave boundaries arrive as callbacks, not as scopes).
  void record(std::string name, Clock::time_point start, Clock::time_point end);

  /// Durations in seconds of every span with this name, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Writes {"spans": [{name, start_ns, end_ns, parent, self_ns}, ...]}.
  void write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t since_epoch(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced pass).
class Scope {
 public:
  Scope(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->open(std::move(name)) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
