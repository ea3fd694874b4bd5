#pragma once
// Shared plumbing of the repository benchmark: run options, the in-memory
// span recorder used by traced runs, the outcome every workload returns, and
// the helpers the workloads share. The benchmark measures the simulator from
// the outside: every span wraps a call into a public function of src/
// (named "namespace::function"), never code inside it.

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/runner.hpp"

namespace perfbench {

using mlp::i64;
using mlp::u32;
using mlp::u64;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string spans_path;  ///< traced runs write their spans here
};

/// Seconds since `start`.
inline double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One recorded span: a call across a layer boundary.
struct Span {
  std::string name;    ///< the public function called, e.g. "sim::run_job"
  std::string detail;  ///< e.g. "millipede/count"
  i64 start_ns = 0;    ///< since the recorder was created
  i64 end_ns = 0;
  i64 parent = -1;     ///< index of the enclosing span, -1 at the root
  u64 request = 0;     ///< grid point or client request the span serves

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// In-memory span store. Recording is off unless enabled; a disabled
/// recorder costs one branch per scope. Spans nest per thread, so the two
/// service clients build separate trees.
class Spans {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  /// RAII span; a no-op while the recorder is disabled.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::string detail = {},
          u64 request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_ = nullptr;
    i64 index_ = -1;
    i64 saved_parent_ = -1;
  };

  /// The calling thread's innermost open span (-1 outside any), and the
  /// way to make it the parent of spans a worker thread opens.
  static i64 current();
  static void adopt(i64 parent);

  /// Copy of every closed span (call after the recording threads joined).
  std::vector<Span> snapshot() const;

  /// Write every span plus its self time (duration minus the time its
  /// direct children cover) as JSON lines; false on an I/O error.
  bool write(const std::string& path) const;

 private:
  i64 now_ns() const;

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// Sum of durations (ms) of the spans called `name`, optionally restricted
/// to one `detail`.
double span_total_ms(const std::vector<Span>& spans, const std::string& name,
                     const std::string* detail = nullptr);
/// Durations (ms) of every span called `name`.
std::vector<double> span_durations_ms(const std::vector<Span>& spans,
                                      const std::string& name);

/// A metric as printed on the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main.
struct Outcome {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines (bases, digests)

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Record a correctness failure without aborting the workload.
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

double median(std::vector<double> values);
/// Percentile, p in [0, 100], interpolated linearly between the closest
/// ranks; 0 for no samples.
double percentile(std::vector<double> values, double p);
/// num / den, or 0 when den is 0 (a counter the workload never exercised).
double ratio(double num, double den);
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Peak resident set size of this process in MB.
double peak_rss_mb();

// ---- shared by the workloads (layers.cpp) ----

/// sim::stable_hash64 over every point's sorted counters, compute_cycles and
/// runtime_ps, in the order given: equal digests mean the simulated machine
/// behaved identically.
u64 model_digest(const std::vector<mlp::sim::MatrixResult>& points);

/// One job per distinct prepare key, in first-seen order.
std::vector<mlp::sim::MatrixJob> distinct_keys(
    const std::vector<mlp::sim::MatrixJob>& jobs);

/// Counter-derived per-layer metrics (core, mem, millipede, gpgpu) summed
/// over `points`, each ratio noted with its base.
void add_counter_metrics(const std::vector<mlp::sim::MatrixResult>& points,
                         Outcome* out);

/// The model-accuracy probe: every arch the paper's Fig. 3 / Fig. 4 rate-
/// matching claims compare (millipede, millipede-no-rate-match, gpgpu) on
/// every BMLA at the Table III defaults.
std::vector<mlp::sim::MatrixJob> accuracy_jobs(u64 seed);

/// fig3_error and ratematch_error from points that include accuracy_jobs()'
/// (arch, bench) pairs at the paper defaults.
void add_accuracy_metrics(const std::vector<mlp::sim::MatrixResult>& points,
                          Outcome* out);

/// Prepare layer split: the two calls sim::prepare_job makes
/// (workloads::make_bmla, arch::prepare_input), timed directly on every
/// distinct key, repeated; sets prepare.make_ms and prepare.input_ms (per
/// preparation of all keys).
void add_prepare_split(const std::vector<mlp::sim::MatrixJob>& keys,
                       Spans& spans, Outcome* out);

/// Traced-run component loops: each repeats one public layer entry point in
/// isolation and sets its host-ns-per-operation metric.
void run_component_loops(const std::vector<std::string>& benches,
                           const mlp::MachineConfig& cfg, u64 seed,
                           Spans& spans, Outcome* out);

Outcome run_grid_workload(const Options& opt, Spans& spans);
Outcome run_service_workload(const Options& opt, Spans& spans);

}  // namespace perfbench
