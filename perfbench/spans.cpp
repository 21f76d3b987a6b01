#include "spans.hpp"

#include <fstream>
#include <stdexcept>

#include "exp/sinks.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::since_epoch(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int Tracer::open(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const auto now = since_epoch(Clock::now());
  spans_.push_back(Span{std::move(name), now, now, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = since_epoch(Clock::now());
  open_.pop_back();
}

void Tracer::record(std::string name, Clock::time_point start,
                    Clock::time_point end) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(
      Span{std::move(name), since_epoch(start), since_epoch(end), parent});
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(1e-9 * double(s.end_ns - s.start_ns));
  }
  return out;
}

namespace {

/// Per span: its duration minus the summed durations of its children.
/// Children of one parent never overlap (one thread records spans, and
/// recorded wave intervals tile their sweep), so the sum is the covered
/// part of the interval.
std::vector<std::int64_t> self_ns(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

}  // namespace

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write " + path);
  const std::vector<std::int64_t> self = self_ns(spans_);
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
       << neatbound::exp::json_escape(s.name) << "\", \"start_ns\": "
       << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"self_ns\": " << self[i] << "}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
