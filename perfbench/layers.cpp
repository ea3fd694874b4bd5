// Metrics shared by the workloads: the model digest, the counter-derived
// per-layer metrics, the accuracy check against the paper, and the traced
// runs' component loops.

#include <cmath>
#include <set>

#include "arch/system.hpp"
#include "bench.hpp"
#include "mem/cache.hpp"
#include "mem/channels.hpp"
#include "sim/prepare.hpp"
#include "workloads/binding.hpp"

namespace perfbench {

namespace {

using mlp::sim::MatrixResult;

/// Private L1 data caches: "l1d" (GPGPU SM), "l1d<k>" (SSMC cores) and
/// "l1.<k>" (multicore). Not the multicore's "l2.<k>".
bool is_l1_counter(const std::string& name) {
  return name.starts_with("l1d") || name.starts_with("l1.");
}

}  // namespace

u64 model_digest(const std::vector<MatrixResult>& points) {
  std::string text;
  for (const MatrixResult& p : points) {
    text += p.job.tag + "|" + mlp::arch::arch_name(p.job.kind) + "|" +
            p.job.bench + "|" + std::to_string(p.result.compute_cycles) + "|" +
            std::to_string(p.result.runtime_ps) + "|" + p.error + "\n";
    for (const auto& [name, value] : p.result.stats) {  // std::map: sorted
      text += name + "=" + std::to_string(value) + "\n";
    }
  }
  return mlp::sim::stable_hash64(text);
}

std::vector<mlp::sim::MatrixJob> distinct_keys(
    const std::vector<mlp::sim::MatrixJob>& jobs) {
  std::vector<mlp::sim::MatrixJob> out;
  std::set<std::string> seen;
  for (const mlp::sim::MatrixJob& job : jobs) {
    if (seen.insert(mlp::sim::prepare_key(job)).second) out.push_back(job);
  }
  return out;
}

void add_counter_metrics(const std::vector<MatrixResult>& points,
                         Outcome* out) {
  std::map<std::string, double> sum;
  double lane_slots = 0;
  for (const MatrixResult& p : points) {
    for (const auto& [name, value] : p.result.stats) {
      const double v = static_cast<double>(value);
      sum[name] += v;
      if (is_l1_counter(name) && name.ends_with(".misses")) {
        sum["l1:misses"] += v;
      }
      if (is_l1_counter(name) && name.ends_with(".mshr_merges")) {
        sum["l1:merges"] += v;
      }
    }
    if (p.result.stats.count("sm.warp_instructions") != 0) {
      lane_slots += static_cast<double>(p.result.stats.at(
                        "sm.warp_instructions")) *
                    p.result.warp_width;
    }
    sum["thread_instructions"] +=
        static_cast<double>(p.result.thread_instructions);
  }
  const auto get = [&sum](const char* name) {
    const auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  };
  // Ratios are printed with their base so a reader can weigh them.
  const auto ratio_metric = [&](const char* metric, double num, double den,
                                const char* what) {
    out->set(metric, ratio(num, den), "ratio");
    out->note(fmt("%s = %.6g (%.0f / %.0f %s)", metric, ratio(num, den), num,
                  den, what));
  };

  out->set("core.instructions", get("thread_instructions"), "count");
  const double block_hits = get("decode.block_hits");
  ratio_metric("core.decode_hit_ratio", block_hits,
               block_hits + get("decode.block_misses"), "decoded-block lookups");
  const double busy = get("exec.busy_cycles");
  ratio_metric("core.busy_frac", busy, busy + get("exec.idle_cycles"),
               "context-cycles");

  out->set("dram.reads", get("dram.reads"), "count");
  out->set("dram.bytes", get("dram.bytes"), "bytes");
  out->set("dram.refreshes", get("dram.refreshes"), "count");
  const double row_hits = get("dram.row_hits");
  ratio_metric("dram.row_hit_ratio", row_hits,
               row_hits + get("dram.row_misses"), "row accesses");
  ratio_metric("mem.queue_rejects_per_read", get("dram.queue_rejections"),
               get("dram.reads"), "DRAM reads");
  ratio_metric("l1.mshr_merge_ratio", get("l1:merges"), get("l1:misses"),
               "L1 misses");

  out->set("pb.row_prefetches", get("pb.row_prefetches"), "count");
  out->set("pb.premature_evictions", get("pb.premature_evictions"), "count");
  ratio_metric("pb.fill_waits_per_hit", get("pb.fill_waits"), get("pb.hits"),
               "prefetch-buffer hits");
  out->set("rate.steps", get("rate.steps_up") + get("rate.steps_down"),
           "count");

  const double issue_busy = get("sm.issue_slots_busy");
  ratio_metric("sm.issue_busy_frac", issue_busy,
               issue_busy + get("sm.issue_slots_idle"), "SM issue slots");
  ratio_metric("sm.lane_util", get("sm.thread_instructions"), lane_slots,
               "lane slots of issued warp instructions");
}

std::vector<mlp::sim::MatrixJob> accuracy_jobs(u64 seed) {
  using mlp::arch::ArchKind;
  std::vector<mlp::sim::MatrixJob> jobs;
  for (const ArchKind kind : {ArchKind::kMillipede,
                              ArchKind::kMillipedeNoRateMatch,
                              ArchKind::kGpgpu}) {
    for (const std::string& bench : mlp::workloads::bmla_names()) {
      mlp::sim::MatrixJob job;
      job.kind = kind;
      job.bench = bench;
      job.options.seed = seed;
      job.options.cfg.dram.fault.seed = seed;
      jobs.push_back(job);
    }
  }
  return jobs;
}

void add_accuracy_metrics(const std::vector<MatrixResult>& points,
                          Outcome* out) {
  using mlp::arch::ArchKind;
  const auto find = [&points](ArchKind kind, const std::string& bench)
      -> const mlp::arch::RunResult* {
    const mlp::MachineConfig defaults = mlp::MachineConfig::paper_defaults();
    for (const MatrixResult& p : points) {
      if (p.job.kind == kind && p.job.bench == bench && p.ok() &&
          p.job.options.rows == mlp::sim::kDefaultRows &&
          p.job.options.records == 0 &&
          p.job.options.cfg.dram.bus_efficiency ==
              defaults.dram.bus_efficiency &&
          p.job.options.cfg.dram.refresh == defaults.dram.refresh) {
        return &p.result;
      }
    }
    return nullptr;
  };
  std::vector<double> speedup;  // GPGPU runtime / Millipede runtime
  std::vector<double> energy;   // E(millipede) / E(millipede-no-rate-match)
  for (const std::string& bench : mlp::workloads::bmla_names()) {
    const auto* mlp_run = find(ArchKind::kMillipede, bench);
    const auto* nrm = find(ArchKind::kMillipedeNoRateMatch, bench);
    const auto* gpgpu = find(ArchKind::kGpgpu, bench);
    if (mlp_run == nullptr || nrm == nullptr || gpgpu == nullptr) {
      out->fail("accuracy probe lacks a verified point for " + bench);
      return;
    }
    speedup.push_back(gpgpu->seconds() / mlp_run->seconds());
    energy.push_back(mlp_run->energy.total_j() / nrm->energy.total_j());
  }
  // Paper references as quoted in EXPERIMENTS.md: Fig. 3 Millipede speedup
  // over GPGPU 2.35x (geomean); rate matching saves 16% energy.
  constexpr double kPaperFig3Speedup = 2.35;
  constexpr double kPaperRateMatchSaving = 0.16;
  const double fig3 = mlp::sim::geomean(speedup);
  const double saving = 1.0 - mlp::sim::geomean(energy);
  out->set("fig3_error", std::fabs(fig3 - kPaperFig3Speedup) /
                             kPaperFig3Speedup,
           "ratio");
  out->set("ratematch_error",
           std::fabs(saving - kPaperRateMatchSaving) / kPaperRateMatchSaving,
           "ratio");
  out->note(fmt("accuracy: Millipede/GPGPU geomean speedup %.4fx (paper "
                "2.35x); rate-matching energy saving %.4f%% (paper 16%%). No "
                "other output is validated against a reference.",
                fig3, saving * 100));
}

void add_prepare_split(const std::vector<mlp::sim::MatrixJob>& keys,
                       Spans& spans, Outcome* out) {
  constexpr int kReps = 9;
  double make_ms = 0;
  double input_ms = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const mlp::sim::MatrixJob& key : keys) {
      mlp::workloads::WorkloadParams params;
      params.num_records =
          key.options.records != 0
              ? key.options.records
              : mlp::sim::records_for(key.bench, key.options.cfg,
                                      key.options.rows);
      params.seed = key.options.seed;
      params.record_barrier = key.options.record_barrier;
      Clock::time_point start = Clock::now();
      mlp::workloads::Workload workload;
      {
        Spans::Scope span(spans, "workloads::make_bmla", key.bench);
        workload = mlp::workloads::make_bmla(key.bench, params);
      }
      make_ms += since(start) * 1e3;
      start = Clock::now();
      {
        Spans::Scope span(spans, "arch::prepare_input", key.bench);
        mlp::arch::prepare_input(key.options.cfg, workload, key.options.seed);
      }
      input_ms += since(start) * 1e3;
    }
  }
  out->set("prepare.make_ms", make_ms / kReps, "ms");
  out->set("prepare.input_ms", input_ms / kReps, "ms");
}

void run_component_loops(const std::vector<std::string>& benches,
                           const mlp::MachineConfig& cfg, u64 seed,
                           Spans& spans, Outcome* out) {
  // core: the functional interpreter alone, on every bench of the workload
  // at a small input (24 DRAM rows each).
  {
    u64 instructions = 0;
    double ns = 0;
    for (const std::string& bench : benches) {
      mlp::workloads::WorkloadParams params;
      params.num_records = mlp::sim::records_for(bench, cfg, 24);
      params.seed = seed;
      const mlp::workloads::Workload workload =
          mlp::workloads::make_bmla(bench, params);
      const Clock::time_point start = Clock::now();
      Spans::Scope span(spans, "workloads::run_functional", bench);
      const mlp::workloads::FunctionalResult result =
          mlp::workloads::run_functional(workload, cfg.core.cores,
                                         cfg.core.contexts, cfg.dram.row_bytes,
                                         cfg.core.local_mem_bytes, seed);
      ns += since(start) * 1e9;
      instructions += result.instructions;
    }
    out->set("core.functional_ns_per_inst",
             ratio(ns, static_cast<double>(instructions)), "ns");
  }

  // A seeded stream of line-sized reads: mostly sequential (the input
  // stream), one in four to a random line of a 1 MB footprint (live state,
  // other streams).
  constexpr u32 kLine = 128;
  constexpr u64 kFootprintLines = (1u << 20) / kLine;
  const auto make_addrs = [seed](u64 n) {
    mlp::Rng rng(seed);
    std::vector<mlp::Addr> addrs(n);
    u64 next = 0;
    for (mlp::Addr& a : addrs) {
      const u64 line = rng.below(4) == 0 ? rng.below(kFootprintLines)
                                         : (next++ % kFootprintLines);
      a = line * kLine;
    }
    return addrs;
  };
  const mlp::Picos period = cfg.dram.period_ps();

  // mem controller: push until the scheduler window rejects, tick one
  // channel edge, repeat until every read retired.
  {
    constexpr u64 kReads = 100000;
    const std::vector<mlp::Addr> addrs = make_addrs(kReads);
    mlp::StatSet stats;
    mlp::mem::ChannelDemux demux(cfg.dram, "dram", &stats);
    u64 issued = 0;
    u64 retired = 0;
    mlp::Picos now = 0;
    const Clock::time_point start = Clock::now();
    {
      Spans::Scope span(spans, "mem::ChannelDemux", "try_push+tick");
      while (retired < kReads) {
        while (issued < kReads) {
          mlp::mem::MemRequest req;
          req.addr = addrs[issued];
          req.bytes = kLine;
          req.on_complete = [&retired](mlp::Picos) { ++retired; };
          if (!demux.try_push(std::move(req), now)) break;
          ++issued;
        }
        demux.tick(now);
        now += period;
      }
    }
    out->set("mem.controller_ns_per_req", since(start) * 1e9 / kReads, "ns");
  }

  // mem cache: an SSMC-sized L1 in front of the controller; one demand
  // access per channel edge (retried while the MSHRs are full), pumped
  // every edge.
  {
    constexpr u64 kAccesses = 200000;
    const std::vector<mlp::Addr> addrs = make_addrs(kAccesses);
    mlp::StatSet stats;
    mlp::mem::ChannelDemux demux(cfg.dram, "dram", &stats);
    mlp::mem::ControllerBackend backend(&demux);
    mlp::mem::Cache l1("l1d", cfg.ssmc.l1d_bytes, cfg.ssmc.line_bytes,
                       cfg.ssmc.assoc, cfg.ssmc.mshrs,
                       cfg.ssmc.hit_latency * cfg.core.period_ps(), &backend,
                       &stats);
    u64 done = 0;
    u64 next = 0;
    mlp::Picos now = 0;
    const Clock::time_point start = Clock::now();
    {
      Spans::Scope span(spans, "mem::Cache", "access+pump");
      while (done < kAccesses) {
        if (next < kAccesses) {
          const mlp::mem::AccessStatus status = l1.access(
              addrs[next], false, now, [&done](mlp::Picos) { ++done; });
          if (status == mlp::mem::AccessStatus::kHit) ++done;
          if (status != mlp::mem::AccessStatus::kMshrFull) ++next;
        }
        l1.pump(now);
        demux.tick(now);
        now += period;
      }
    }
    out->set("mem.cache_ns_per_access", since(start) * 1e9 / kAccesses,
             "ns");
  }
}

}  // namespace perfbench
