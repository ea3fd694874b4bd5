// The two simulation-matrix workloads. Both run every (arch, bench) point
// serially on the calling thread through sim::run_job with a warm
// sim::PrepareCache, then render the sweep CSV and the stats-JSON document;
// one such pass is what a figure binary or mlpsweep does.
//
//  paper_grid     all 8 archs x all 8 BMLAs at the Table III defaults: the
//                 interpreter, the GPGPU SM and cache pumping carry it.
//  membound_grid  millipede, ssmc, gpgpu, multicore x count, sample,
//                 variance, nbayes at bus_efficiency 0.05 with refresh on:
//                 the memory system and the kernel's per-edge loop carry it.

#include <algorithm>

#include "arch/system.hpp"
#include "bench.hpp"
#include "sim/prepare.hpp"
#include "sim/report.hpp"
#include "trace/json.hpp"

namespace perfbench {

namespace {

using mlp::arch::ArchKind;
using mlp::sim::MatrixJob;
using mlp::sim::MatrixResult;

struct Grid {
  std::vector<ArchKind> archs;
  std::vector<std::string> benches;
  mlp::MachineConfig cfg = mlp::MachineConfig::paper_defaults();
};

Grid grid_for(const std::string& workload) {
  Grid g;
  if (workload == "paper_grid") {
    g.archs = mlp::arch::all_arch_kinds();
    g.benches = mlp::workloads::bmla_names();
  } else {
    g.archs = {ArchKind::kMillipede, ArchKind::kSsmc, ArchKind::kGpgpu,
               ArchKind::kMulticore};
    g.benches = {"count", "sample", "variance", "nbayes"};
    g.cfg.dram.bus_efficiency = 0.05;
    g.cfg.dram.refresh = "on";
  }
  return g;
}

std::vector<MatrixJob> grid_jobs(const Grid& g, u64 seed) {
  std::vector<MatrixJob> jobs;
  for (const ArchKind kind : g.archs) {
    for (const std::string& bench : g.benches) {
      MatrixJob job;
      job.kind = kind;
      job.bench = bench;
      job.options.seed = seed;
      job.options.cfg = g.cfg;
      job.options.cfg.dram.fault.seed = seed;
      jobs.push_back(job);
    }
  }
  return jobs;
}

struct Pass {
  double wall_s = 0;                 ///< points + report
  double sim_s = 0;                  ///< points only
  std::vector<double> point_ms;      ///< per sim::run_job call
  std::vector<MatrixResult> points;
  std::string csv;
  std::string stats_json;
};

Pass run_pass(const std::vector<MatrixJob>& jobs,
              mlp::sim::PrepareCache& cache, Spans& spans, u64 pass_index) {
  Pass pass;
  pass.points.reserve(jobs.size());
  Spans::Scope pass_span(spans, "pass", std::to_string(pass_index));
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const MatrixJob& job = jobs[i];
    const Clock::time_point t0 = Clock::now();
    {
      Spans::Scope span(spans, "sim::run_job",
                        std::string(mlp::arch::arch_name(job.kind)) + "/" +
                            job.bench,
                        pass_index * jobs.size() + i);
      pass.points.push_back(mlp::sim::run_job(job, &cache));
    }
    pass.point_ms.push_back(since(t0) * 1e3);
  }
  pass.sim_s = since(start);
  {
    Spans::Scope span(spans, "sim::sweep_csv_row", "all points");
    pass.csv = mlp::sim::sweep_csv_header();
    for (const MatrixResult& p : pass.points) {
      pass.csv += mlp::sim::sweep_csv_row(p);
    }
  }
  {
    Spans::Scope span(spans, "sim::stats_json", "all points");
    pass.stats_json = mlp::sim::stats_json(pass.points);
  }
  pass.wall_s = since(start);
  return pass;
}

/// Pass budget: keep running passes while the next one (estimated by the
/// median so far) still ends within `seconds`, and run at least `min`.
bool another_pass(const std::vector<double>& pass_s, double elapsed_s,
                  double seconds, std::size_t min) {
  if (pass_s.size() < min) return true;
  return elapsed_s + median(pass_s) <= seconds;
}

/// Output checks that stay outside the timed pass: one CSV row per point
/// plus the header, and a stats-JSON document that parses with one run per
/// point.
void check_report(const Pass& pass, Outcome* out) {
  const auto lines = static_cast<std::size_t>(
      std::count(pass.csv.begin(), pass.csv.end(), '\n'));
  if (lines != pass.points.size() + 1) {
    out->fail(fmt("sweep CSV has %zu lines for %zu points", lines,
                  pass.points.size()));
  }
  try {
    const mlp::trace::JsonValue doc = mlp::trace::json_parse(pass.stats_json);
    const mlp::trace::JsonValue* runs = doc.find("runs");
    if (runs == nullptr || runs->array.size() != pass.points.size()) {
      out->fail("stats-JSON document does not hold one run per point");
    }
  } catch (const std::exception& e) {
    out->fail(std::string("stats-JSON does not parse: ") + e.what());
  }
}

}  // namespace

Outcome run_grid_workload(const Options& opt, Spans& spans) {
  Outcome out;
  const Grid grid = grid_for(opt.workload);
  const std::vector<MatrixJob> jobs = grid_jobs(grid, opt.seed);
  const std::vector<MatrixJob> keys = distinct_keys(jobs);
  spans.set_enabled(opt.trace);
  Spans::Scope workload_span(spans, "workload", opt.workload);

  // Set-up: cold preparation of every distinct key through a fresh
  // PrepareCache, repeated; the last cache stays warm for the passes.
  constexpr int kSetupReps = 15;
  std::vector<double> setup_s;
  mlp::sim::PrepareCache cache;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cache.clear();
    Spans::Scope span(spans, "setup", std::to_string(rep));
    const Clock::time_point start = Clock::now();
    for (const MatrixJob& key : keys) {
      Spans::Scope get(spans, "sim::PrepareCache::get", key.bench);
      cache.get(key);
    }
    setup_s.push_back(since(start));
  }

  const mlp::sim::PrepareCacheStats warm = cache.stats();

  // Passes. A traced run alternates untraced and traced passes so the
  // tracing overhead is measured on the same process and input.
  // Only the first pass's points and report are kept: later passes are
  // checked against its digest and dropped, so memory does not grow with
  // the pass count.
  Pass first;
  std::vector<double> pass_s;    // untraced pass wall times
  std::vector<double> sim_s;     // their simulation part
  std::vector<std::vector<double>> point_ms(jobs.size());  // per point
  std::vector<double> traced_s;  // traced pass wall times
  std::vector<double> all_pass_s;
  u64 digest = 0;
  const Clock::time_point loop_start = Clock::now();
  for (u64 index = 0;
       another_pass(all_pass_s, since(loop_start), opt.seconds,
                    opt.trace ? 2 : 3);
       ++index) {
    const bool traced = opt.trace && index % 2 == 1;
    spans.set_enabled(traced);
    Pass pass = run_pass(jobs, cache, spans, index);
    spans.set_enabled(opt.trace);
    all_pass_s.push_back(pass.wall_s);
    if (traced) {
      traced_s.push_back(pass.wall_s);
    } else {
      pass_s.push_back(pass.wall_s);
      sim_s.push_back(pass.sim_s);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        point_ms[i].push_back(pass.point_ms[i]);
      }
    }

    // Correctness: every point verified against its golden reference, the
    // report well-formed, and every pass simulating bit-identically.
    out.attempted += pass.points.size();
    for (const MatrixResult& p : pass.points) {
      if (!p.ok()) {
        ++out.failed;
        out.note("point failed: " + std::string(mlp::arch::arch_name(
                                        p.job.kind)) +
                 "/" + p.job.bench + ": " + p.error);
      }
    }
    check_report(pass, &out);
    const u64 d = model_digest(pass.points);
    if (index == 0) {
      digest = d;
      first = std::move(pass);
    } else if (d != digest) {
      out.fail("model.digest differs between passes");
    }
  }
  const mlp::sim::PrepareCacheStats after = cache.stats();

  double instructions = 0;
  for (const MatrixResult& p : first.points) {
    instructions += static_cast<double>(p.result.thread_instructions);
  }
  // A point's latency is its median sim::run_job time over the passes; the
  // request percentiles are taken over the points. Points differ in cost by
  // up to 40x, so pooling every call would put a percentile on whichever
  // call of a boundary point ran slowest.
  std::vector<double> point_latency_ms;
  for (const std::vector<double>& ms : point_ms) {
    point_latency_ms.push_back(median(ms));
  }

  // Accuracy: paper_grid holds the probe's points itself; membound_grid
  // runs them once, untimed.
  std::vector<MatrixResult> accuracy_points = first.points;
  if (opt.workload != "paper_grid") {
    spans.set_enabled(false);
    for (const MatrixJob& job : accuracy_jobs(opt.seed)) {
      accuracy_points.push_back(mlp::sim::run_job(job, &cache));
      ++out.attempted;
      if (!accuracy_points.back().ok()) ++out.failed;
    }
    spans.set_enabled(opt.trace);
  }
  add_accuracy_metrics(accuracy_points, &out);
  if (out.failed != 0) {
    out.fail(fmt("%llu points failed",
                 static_cast<unsigned long long>(out.failed)));
  }

  out.note(fmt("model.digest = %016llx over %zu points",
               static_cast<unsigned long long>(digest), first.points.size()));
  out.note(fmt("failed_frac = %.6g (%llu / %llu points)",
               ratio(static_cast<double>(out.failed),
                     static_cast<double>(out.attempted)),
               static_cast<unsigned long long>(out.failed),
               static_cast<unsigned long long>(out.attempted)));
  out.note(fmt("passes: %zu untraced, %zu traced; %zu request samples (one "
               "per point); %.0f thread-instructions per pass; %zu prepare "
               "keys",
               pass_s.size(), traced_s.size(), point_latency_ms.size(),
               instructions, keys.size()));

  out.note(fmt("untraced pass wall times: min %.4f s, median %.4f s, max "
               "%.4f s",
               *std::min_element(pass_s.begin(), pass_s.end()),
               median(pass_s),
               *std::max_element(pass_s.begin(), pass_s.end())));
  const double wall = median(pass_s);
  out.set("wall_s", wall, "s");
  out.set("sim_mips", instructions / median(sim_s) / 1e6, "Minst/s");
  out.set("setup_s", median(setup_s), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("jobs_per_s", static_cast<double>(jobs.size()) / wall, "1/s");
  out.set("request_p50_ms", percentile(point_latency_ms, 50), "ms");
  out.set("request_p99_ms", percentile(point_latency_ms, 99), "ms");

  if (!opt.trace) return out;

  // ---- per-layer metrics (traced run) ----
  add_counter_metrics(first.points, &out);
  const double hits = static_cast<double>(after.hits - warm.hits);
  const double lookups = hits + static_cast<double>(after.misses - warm.misses);
  out.set("prepare.hit_ratio", ratio(hits, lookups), "ratio");
  out.note(fmt("prepare.hit_ratio base: %.0f hits / %.0f lookups in the "
               "passes",
               hits, lookups));
  out.set("prepare.keys", static_cast<double>(keys.size()), "count");
  out.set("report.bytes",
          static_cast<double>(first.csv.size() + first.stats_json.size()),
          "bytes");
  out.set("trace.overhead_frac", median(traced_s) / wall - 1.0, "ratio");

  add_prepare_split(keys, spans, &out);
  run_component_loops(grid.benches, grid.cfg, opt.seed, spans, &out);

  const std::vector<Span> recorded = spans.snapshot();
  const double traced_passes = static_cast<double>(traced_s.size());
  out.set("report.csv_ms",
          span_total_ms(recorded, "sim::sweep_csv_row") / traced_passes, "ms");
  out.set("report.stats_json_ms",
          span_total_ms(recorded, "sim::stats_json") / traced_passes, "ms");
  for (const ArchKind kind : grid.archs) {
    const std::string name = mlp::arch::arch_name(kind);
    double run_ms = 0;
    double insts = 0;
    double cycles = 0;
    for (const MatrixResult& p : first.points) {
      if (p.job.kind != kind) continue;
      const std::string detail = name + "/" + p.job.bench;
      run_ms += span_total_ms(recorded, "sim::run_job", &detail);
      insts += static_cast<double>(p.result.thread_instructions);
      cycles += static_cast<double>(p.result.compute_cycles);
    }
    const double run_s = run_ms / 1e3 / traced_passes;
    out.set("run_s." + name, run_s, "s");
    out.set("host_ns_per_inst." + name, ratio(run_s * 1e9, insts), "ns");
    out.set("host_ns_per_cycle." + name, ratio(run_s * 1e9, cycles), "ns");
  }
  return out;
}

}  // namespace perfbench
