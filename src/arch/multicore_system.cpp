// Conventional multicore baseline for the Fig. 5 comparison: 8 Xeon-like
// cores at 3.6 GHz, 4-way SMT, 4-wide issue (approximated by issuing up to
// 4 instructions per cycle across a core's SMT contexts — see DESIGN.md),
// 64 KB L1 + 1 MB per-core L2, and off-chip DRAM at one quarter of the
// die-stacked channel bandwidth with 70 pJ/bit access energy.

#include "arch/machine.hpp"

namespace mlp::arch {
namespace {

/// Wide issue: up to issue_width instructions per core per cycle, drawn from
/// its SMT contexts (OoO approximation; DESIGN.md) — the corelet ticks
/// issue_width times per compute edge. An idle edge therefore charges
/// issue_width idle cycles, which skip_idle reproduces in bulk.
class WideCorelet final : public sim::Tickable {
 public:
  WideCorelet(core::Corelet* corelet, u32 issue_width)
      : corelet_(corelet), issue_width_(issue_width) {}

  void tick(Picos now, Picos period_ps) override {
    for (u32 slot = 0; slot < issue_width_; ++slot) {
      corelet_->tick(now, period_ps);
    }
  }
  Picos next_event(Picos now) const override {
    return corelet_->next_event(now);
  }
  void skip_idle(u64 edges) override {
    corelet_->skip_idle(edges * issue_width_);
  }

 private:
  core::Corelet* corelet_;
  u32 issue_width_;
};

}  // namespace

RunResult run_multicore(const MachineConfig& cfg,
                        const workloads::Workload& workload, u64 seed,
                        trace::TraceSession* trace,
                        const PreparedInput* prepared,
                        sim::SnapshotPlan* snapshot) {
  // Off-chip memory: one quarter of the die-stacked memory bandwidth. A
  // die-stacked cube exposes 4 channels, so the multicore's off-chip DRAM
  // gets one channel's worth of bandwidth (~DDR4-class).
  MachineConfig mc = cfg;
  mc.dram.channel_bits = static_cast<u32>(cfg.dram.channel_bits * 4 *
                                          cfg.multicore.offchip_bw_fraction);
  mc.core.cores = cfg.multicore.cores;
  mc.core.contexts = cfg.multicore.smt;
  mc.core.clock_mhz = cfg.multicore.clock_mhz;
  mc.gpgpu.warp_width = 1;  // unused; keep validation happy
  mc.validate();
  // `mc` only retunes core counts and channel width; layout and image depend
  // solely on row geometry, so the shared prepared input is still valid.
  Machine m(mc, "multicore", workload, seed, trace, prepared, snapshot);
  mem::ControllerBackend backend(&m.ctrl);

  const u32 cores = mc.core.cores;
  const Picos period = mc.core.period_ps();
  std::vector<mem::Cache> l2s, l1s;
  std::vector<mem::StreamTable> prefetchers;
  l2s.reserve(cores);
  l1s.reserve(cores);
  for (u32 c = 0; c < cores; ++c) {
    l2s.emplace_back("l2." + std::to_string(c), cfg.multicore.l2_bytes,
                     cfg.multicore.line_bytes, cfg.multicore.l2_assoc, 16,
                     static_cast<Picos>(cfg.multicore.l2_latency) * period,
                     &backend, c == 0 ? &m.stats : nullptr);
  }
  for (u32 c = 0; c < cores; ++c) {
    l1s.emplace_back("l1." + std::to_string(c), cfg.multicore.l1_bytes,
                     cfg.multicore.line_bytes, cfg.multicore.l1_assoc, 16,
                     static_cast<Picos>(cfg.multicore.l1_latency) * period,
                     &l2s[c], c == 0 ? &m.stats : nullptr);
    prefetchers.emplace_back(cfg.multicore.line_bytes, 4, 16, 8);
  }
  CachedPort port(m, &l1s, &prefetchers);
  CoreletArray array(m, workload, &port, trace);

  std::vector<WideCorelet> wide;
  wide.reserve(cores);
  for (core::Corelet& corelet : array.corelets) {
    wide.emplace_back(&corelet, cfg.multicore.issue_width);
  }
  for (WideCorelet& corelet : wide) m.kernel.add_compute(&corelet);
  for (mem::Cache& l1 : l1s) m.kernel.add_channel(&l1);
  for (mem::Cache& l2 : l2s) m.kernel.add_channel(&l2);
  m.kernel.add_channel(&m.ctrl);
  m.kernel.set_dump([&array] { return array.dump(); });

  // The inner Corelets — not the WideCorelet issue wrappers, which hold no
  // state — implement the Snapshottable contract.
  m.kernel.add_state(sim::kSecDecodeCache, &array.dcache);
  for (u32 c = 0; c < cores; ++c) {
    m.kernel.add_state(sim::kSecCoreletBase + c, &array.corelets[c]);
    m.kernel.add_state(sim::kSecL1Base + c, &l1s[c]);
    m.kernel.add_state(sim::kSecL2Base + c, &l2s[c]);
    m.kernel.add_state(sim::kSecStreamTableBase + c, &prefetchers[c]);
  }

  m.kernel.wire_trace(
      workload.name, &m.stats,
      [&](trace::TraceSession* session) {
        trace::name_context_tracks(session, cores, mc.core.contexts);
      },
      /*arch_hook=*/nullptr);

  m.kernel.run([&array] { return array.halted(); });

  const core::ExecStats& exec = array.exec;
  RunResult result = m.result(workload, exec.instructions.value,
                              exec.branches.value, /*offchip=*/true);
  // Nominal: no retune, and the ps-quantized period would round-trip off.
  result.final_clock_mhz = mc.core.clock_mhz;

  energy::EnergyModel model;
  const u64 l1_accesses = exec.local_ops.value + exec.global_loads.value;
  // Approximate L2 accesses by scaling core 0's L1 miss count to all cores.
  const u64 l2_accesses = m.stats.get("l1.0.misses") * cores;
  result.energy.core_j = model.multicore_core_j(
      exec.instructions.value, l1_accesses, l2_accesses,
      exec.idle_cycles.value);
  const double sram_kb =
      cores * (cfg.multicore.l1_bytes + cfg.multicore.l2_bytes) / 1024.0;
  result.energy.leak_j =
      model.leakage_j(cores, sram_kb, result.seconds(), /*ooo=*/true);

  verify_result(&result, workload, m.input, array.locals,
                image_may_be_dirty(mc));
  return result;
}

}  // namespace mlp::arch
