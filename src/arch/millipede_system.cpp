// The Millipede processor system: 32 MIMD corelets with per-corelet local
// memories, fed by the flow-controlled row-granularity prefetch buffer, with
// optional DFS rate matching — the paper's proposed architecture, plus the
// no-flow-control and no-rate-match ablations (selected via MachineConfig).

#include <algorithm>
#include <memory>

#include "arch/machine.hpp"
#include "core/barrier.hpp"
#include "millipede/prefetch_buffer.hpp"

namespace mlp::arch {

RunResult run_millipede(const MachineConfig& cfg,
                        const workloads::Workload& workload, u64 seed,
                        trace::TraceSession* trace,
                        const PreparedInput* prepared,
                        sim::SnapshotPlan* snapshot) {
  cfg.validate();
  check_prefetch_window(cfg, workload);
  const char* label =
      cfg.millipede.flow_control
          ? (cfg.millipede.rate_match ? "millipede" : "millipede-no-rate-match")
          : "millipede-no-flow-control";
  Machine m(cfg, label, workload, seed, trace, prepared, snapshot);

  std::unique_ptr<millipede::RateMatcher> rate_matcher;
  if (cfg.millipede.rate_match) {
    rate_matcher = std::make_unique<millipede::RateMatcher>(
        cfg.millipede, cfg.core, m.kernel.compute_clock(), &m.stats, "rate",
        trace);
  }

  millipede::RowPlan plan;
  plan.first_row = m.input.layout.first_row();
  plan.num_rows = m.input.layout.num_rows();
  const workloads::InterleavedLayout layout = m.input.layout;
  const u32 cores = cfg.core.cores;
  plan.expected_mask = [layout, cores](u64 row, u32 corelet) {
    return layout.expected_slab_mask(row, corelet, cores);
  };
  millipede::PrefetchBuffer pb(cfg, plan, &m.ctrl, rate_matcher.get(),
                               &m.stats, "pb", trace);
  // The software-barrier ablation compiles `bar` into the kernels; wire a
  // processor-wide barrier over the prefetch-buffer port when present.
  bool uses_bar = false;
  for (const isa::Instr& in : workload.program.instrs()) {
    uses_bar |= in.op == isa::Opcode::kBar;
  }
  core::BarrierPort barrier_port(&pb, cfg.core.threads());
  core::GlobalPort* port =
      uses_bar ? static_cast<core::GlobalPort*>(&barrier_port)
               : static_cast<core::GlobalPort*>(&pb);
  CoreletArray array(m, workload, port, trace);

  // On restore, the prefetch buffer's state (and the controller's queue)
  // come from the snapshot; priming would issue duplicate time-0 fetches
  // whose callbacks target entries the restore is about to overwrite.
  if (!m.restoring()) pb.prime(0);
  for (core::Corelet& corelet : array.corelets) m.kernel.add_compute(&corelet);
  m.kernel.add_channel(&pb);
  m.kernel.add_channel(&m.ctrl);
  m.kernel.set_dump([&] { return array.dump() + pb.debug_dump(); });

  m.kernel.add_state(sim::kSecPrefetchBuffer, &pb);
  if (rate_matcher) {
    m.kernel.add_state(sim::kSecRateMatcher, rate_matcher.get());
  }
  if (uses_bar) m.kernel.add_state(sim::kSecBarrier, &barrier_port);
  m.kernel.add_state(sim::kSecDecodeCache, &array.dcache);
  for (u32 c = 0; c < cores; ++c) {
    m.kernel.add_state(sim::kSecCoreletBase + c, &array.corelets[c]);
  }

  m.kernel.wire_trace(
      workload.name, &m.stats,
      [&](trace::TraceSession* session) {
        trace::name_context_tracks(session, cores, cfg.core.contexts);
      },
      [&](trace::TraceSession* session) {
        session->set_track_name(trace::kPrefetchTrack, "pb");
        session->set_track_name(trace::kRateMatchTrack, "rate");
        session->add_gauge("pb.occupancy",
                           [&pb] { return static_cast<u64>(pb.occupancy()); });
        session->add_gauge("pb.saturated", [&pb] {
          return static_cast<u64>(pb.saturated_entries());
        });
      });

  m.kernel.run([&array] { return array.halted(); });

  RunResult result = m.result(workload, array.exec.instructions.value,
                              array.exec.branches.value);
  result.final_clock_mhz = m.kernel.final_clock_mhz();

  energy::EnergyModel model;
  result.energy.core_j =
      model.mimd_core_j(array.exec, /*state_via_cache=*/false,
                        /*input_via_cache=*/false);
  if (cfg.millipede.rate_match && cfg.millipede.voltage_scaling) {
    // DVS on top of DFS: dynamic energy scales with V^2; approximate V by
    // the converged frequency ratio (the clock converges once, early).
    const double f_ratio = result.final_clock_mhz / cfg.core.clock_mhz;
    const double v_ratio =
        std::max(cfg.millipede.min_voltage_ratio, std::min(1.0, f_ratio));
    result.energy.core_j *= v_ratio * v_ratio;
  }
  // With ECC the prefetch-buffer SRAM also stores the check bits.
  const double pb_scale =
      cfg.dram.fault.ecc ? 1.0 + model.params().ecc_bit_overhead : 1.0;
  const double sram_kb =
      cores * (cfg.core.local_mem_bytes + cfg.core.icache_bytes +
               cfg.millipede.pf_entries * cfg.dram.row_bytes * pb_scale /
                   cores) /
      1024.0;
  result.energy.leak_j = model.leakage_j(cores, sram_kb, result.seconds());

  verify_result(&result, workload, m.input, array.locals,
                image_may_be_dirty(cfg));
  return result;
}

}  // namespace mlp::arch
