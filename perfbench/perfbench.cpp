// perfbench — the repository benchmark program. One process runs one
// workload for a time budget and prints, as its last stdout line, one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// for an untraced run, the per-layer metrics for a traced one.
//
//   perfbench --workload paper_grid|membound_grid|service_mix
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//
// See README.md in this directory for the workloads, the metrics and what
// each layer metric is predicted to move.

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "arch/system.hpp"
#include "bench.hpp"
#include "trace/json.hpp"

namespace perfbench {

namespace {

thread_local i64 t_current_span = -1;

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every untraced run prints (BENCHMARK.json's
/// "end_to_end" list). Every workload sets every one of them.
const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s"},           {"sim_mips", "Minst/s"},
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"jobs_per_s", "1/s"},     {"request_p50_ms", "ms"},
      {"request_p99_ms", "ms"},  {"fig3_error", "ratio"},
      {"ratematch_error", "ratio"},
  };
  return defs;
}

/// The per-layer metrics every traced run prints (BENCHMARK.json's
/// "per_layer" list). A layer a workload does not exercise reads 0.
const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"prepare.make_ms", "ms"},      {"prepare.input_ms", "ms"},
        {"prepare.keys", "count"},      {"prepare.hit_ratio", "ratio"},
    };
    for (const char* prefix : {"run_s.", "host_ns_per_inst.",
                               "host_ns_per_cycle."}) {
      for (const mlp::arch::ArchKind kind : mlp::arch::all_arch_kinds()) {
        d.push_back({prefix + std::string(mlp::arch::arch_name(kind)),
                     prefix[0] == 'r' ? "s" : "ns"});
      }
    }
    const std::vector<MetricDef> rest = {
        {"core.functional_ns_per_inst", "ns"},
        {"core.instructions", "count"},
        {"core.decode_hit_ratio", "ratio"},
        {"core.busy_frac", "ratio"},
        {"mem.controller_ns_per_req", "ns"},
        {"mem.cache_ns_per_access", "ns"},
        {"dram.reads", "count"},
        {"dram.bytes", "bytes"},
        {"dram.row_hit_ratio", "ratio"},
        {"dram.refreshes", "count"},
        {"mem.queue_rejects_per_read", "ratio"},
        {"l1.mshr_merge_ratio", "ratio"},
        {"pb.row_prefetches", "count"},
        {"pb.fill_waits_per_hit", "ratio"},
        {"pb.premature_evictions", "count"},
        {"rate.steps", "count"},
        {"sm.issue_busy_frac", "ratio"},
        {"sm.lane_util", "ratio"},
        {"report.csv_ms", "ms"},
        {"report.stats_json_ms", "ms"},
        {"report.bytes", "bytes"},
        {"snapshot.capture_p50_ms", "ms"},
        {"snapshot.capture_p99_ms", "ms"},
        {"snapshot.restore_p50_ms", "ms"},
        {"snapshot.restore_p99_ms", "ms"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    for (const char* verb : {"ping", "submit", "status", "result", "cancel"}) {
      d.push_back({std::string("serve.") + verb + "_p50_ms", "ms"});
      d.push_back({std::string("serve.") + verb + "_p99_ms", "ms"});
    }
    d.push_back({"serve.encode_us", "us"});
    d.push_back({"serve.parse_us", "us"});
    d.push_back({"serve.admit_ratio", "ratio"});
    d.push_back({"trace.overhead_frac", "ratio"});
    return d;
  }();
  return defs;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_grid|membound_grid|service_mix --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *end != '\0' || *text == '-') {
    usage(("bad value for " + flag).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = parse_u64(arg, value);
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(arg, value));
    } else if (arg == "--trace") {
      const u64 t = parse_u64(arg, value);
      if (t > 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (opt.seconds < 1) usage("--seconds must be at least 1");
  return opt;
}

}  // namespace

// ---- Spans ----

Spans::Scope::Scope(Spans& spans, const char* name, std::string detail,
                    u64 request) {
  if (!spans.enabled_) return;
  spans_ = &spans;
  Span span;
  span.name = name;
  span.detail = std::move(detail);
  span.parent = t_current_span;
  span.request = request;
  span.start_ns = spans.now_ns();
  std::lock_guard<std::mutex> lock(spans.mutex_);
  index_ = static_cast<i64>(spans.spans_.size());
  spans.spans_.push_back(std::move(span));
  saved_parent_ = t_current_span;
  t_current_span = index_;
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  const i64 end = spans_->now_ns();
  std::lock_guard<std::mutex> lock(spans_->mutex_);
  spans_->spans_[static_cast<std::size_t>(index_)].end_ns = end;
  t_current_span = saved_parent_;
}

i64 Spans::current() { return t_current_span; }

void Spans::adopt(i64 parent) { t_current_span = parent; }

i64 Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::vector<Span> Spans::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Spans::write(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  // Self time = duration minus the union of the children's intervals (the
  // two service clients' requests overlap under one pass span).
  std::vector<std::vector<std::pair<i64, i64>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<i64> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<i64, i64>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    i64 covered = 0;
    i64 reach = spans[i].start_ns;
    for (const auto& [start, end] : kids) {
      covered += std::max<i64>(0, end - std::max(start, reach));
      reach = std::max(reach, end);
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  std::ofstream file(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    mlp::trace::JsonWriter w;
    w.begin_object();
    w.key("id");
    w.value(static_cast<u64>(i));
    w.key("name");
    w.value(spans[i].name);
    w.key("detail");
    w.value(spans[i].detail);
    w.key("start_ns");
    w.value(spans[i].start_ns);
    w.key("end_ns");
    w.value(spans[i].end_ns);
    w.key("self_ns");
    w.value(self[i]);
    w.key("parent");
    w.value(spans[i].parent);
    w.key("request");
    w.value(spans[i].request);
    w.end_object();
    file << w.str() << '\n';
  }
  file.close();
  return static_cast<bool>(file);
}

double span_total_ms(const std::vector<Span>& spans, const std::string& name,
                     const std::string* detail) {
  double total = 0;
  for (const Span& s : spans) {
    if (s.name == name && (detail == nullptr || s.detail == *detail)) {
      total += s.ms();
    }
  }
  return total;
}

std::vector<double> span_durations_ms(const std::vector<Span>& spans,
                                      const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

// ---- helpers ----

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[lo + 1] - values[lo]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the image that exec replaced (here the Python launcher).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);

  Spans spans;
  Outcome out;
  try {
    if (opt.workload == "paper_grid" || opt.workload == "membound_grid") {
      out = run_grid_workload(opt, spans);
    } else if (opt.workload == "service_mix") {
      out = run_service_workload(opt, spans);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.trace && !opt.spans_path.empty() && !spans.write(opt.spans_path)) {
    out.fail("cannot write spans to " + opt.spans_path);
  }

  // Every name of the selected list is printed; a missing end-to-end metric
  // is a benchmark bug, a missing per-layer one an unexercised layer.
  const std::vector<MetricDef>& defs =
      opt.trace ? per_layer_metrics() : end_to_end_metrics();
  mlp::trace::JsonWriter metrics;
  metrics.begin_object();
  std::printf("# %s seed=%llu trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  for (const MetricDef& def : defs) {
    const auto it = out.metrics.find(def.name);
    if (it == out.metrics.end() && !opt.trace) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   opt.workload.c_str(), def.name.c_str());
      return 1;
    }
    const double value = it == out.metrics.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", def.name.c_str());
      return 1;
    }
    std::printf("%-36s %.6g %s\n", def.name.c_str(), value, def.unit.c_str());
    metrics.key(def.name);
    metrics.raw(fmt("{\"value\": %.17g, \"unit\": \"%s\"}", value,
                    def.unit.c_str()));
  }
  metrics.end_object();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics.str().c_str());
  return 0;
}
