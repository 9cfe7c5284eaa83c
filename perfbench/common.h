// Shared plumbing of the perfbench binary: the metric sink, order
// statistics, wall clocks, an in-memory span recorder and /proc readers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The moment the process started: the origin of span timestamps.
Clock::time_point process_start();

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics keyed by their BENCHMARK.json name.  `put` keeps the first value
/// written under a name, so a workload's own suite (run first) wins over a
/// companion suite that measures the same layer.
class Metrics {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    values_.emplace(name, Metric{value, unit});
  }
  void merge(const Metrics& other) {
    for (const auto& [name, m] : other.values_) values_.emplace(name, m);
  }
  [[nodiscard]] const std::map<std::string, Metric>& values() const {
    return values_;
  }

 private:
  std::map<std::string, Metric> values_;
};

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q <= 0.0) return v.front();
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, static_cast<double>(v.size()) * q + 0.999999999));
  return v[std::min(rank, v.size()) - 1];
}

/// Median with the usual midpoint rule for even sizes.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One traced interval.  Spans of one request share `trace`; `parent` is
/// the id of the enclosing span (0 = a root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::string name;
  double start_s = 0.0;  ///< seconds since process_start()
  double end_s = 0.0;
};

/// Spans kept in memory while the benchmark runs and written out once at
/// the end, so recording never touches the file system in a timed region.
/// A disabled recorder hands out id 0 and records nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0,
                      std::uint64_t trace = 0);
  void end(std::uint64_t id);

  /// Sum of (duration - time covered by direct children) over every span
  /// named `name`: the layer's self time.
  [[nodiscard]] double self_seconds(const std::string& name) const;

  /// One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // index = id - 1
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name,
             std::uint64_t parent = 0, std::uint64_t trace = 0)
      : rec_(rec), id_(rec.begin(name, parent, trace)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
/// Returns 0 when /proc does not report it.
double peak_rss_mib(int pid = 0);

/// This program's own executable, for spawning it again.
std::string self_exe();

/// Cold set-ups timed per run; `setup_s` is their median.
constexpr int kColdSetups = 15;

/// A child process with its stdout on a pipe.  The destructor kills and
/// reaps it if it is still running, so no exit path leaves one behind.
class ChildProcess {
 public:
  explicit ChildProcess(std::vector<std::string> argv);
  ~ChildProcess() { stop(); }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  [[nodiscard]] int pid() const { return pid_; }

  /// The child's next stdout line; throws if it exits or stays silent for
  /// `timeout_s`.
  std::string read_line(double timeout_s = 30.0);

  /// Wait up to `timeout_s` for the child to exit; true on exit status 0.
  bool reap(double timeout_s = 20.0);

 private:
  void stop();

  int pid_ = -1;
  int out_fd_ = -1;
  std::string buffered_;
  std::string name_;
};

/// splitmix64: derives every seed and mix decision from the run's --seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Options every workload runs under.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string neutrald;  ///< path of the daemon binary (serve-mixed)
  std::string out_dir;   ///< where traced runs write their span files
};

/// What one workload run hands back to main().
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> check_failures;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
};

/// Suites: each measures one workload.  `budget_s` is its timed length;
/// traced suites also emit per-layer metrics.
Outcome run_particles_stream(const RunOptions& opt, double budget_s,
                             SpanRecorder& spans);
Outcome run_events_scatter(const RunOptions& opt, double budget_s,
                           SpanRecorder& spans);
Outcome run_serve_mixed(const RunOptions& opt, double budget_s,
                        SpanRecorder& spans);

/// The child side of an in-process cold set-up: build the workload's World
/// and first Simulation, print "ready" and return the exit status.
int run_setup_only(const RunOptions& opt);

}  // namespace perfbench
