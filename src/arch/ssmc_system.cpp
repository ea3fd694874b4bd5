// Plain SSMC: the same MIMD corelets as Millipede, but with a per-core 5 KB
// L1 D-cache holding BOTH the live state and the cache-block-prefetched
// input stream (Section III-E). The cores stray from each other, interleave
// row accesses at the shared FR-FCFS controller, and destroy row locality —
// the baseline Millipede's row-orientedness is measured against.

#include "arch/machine.hpp"

namespace mlp::arch {

RunResult run_ssmc(const MachineConfig& cfg,
                   const workloads::Workload& workload, u64 seed,
                   trace::TraceSession* trace, const PreparedInput* prepared,
                   sim::SnapshotPlan* snapshot) {
  cfg.validate();
  Machine m(cfg, "ssmc", workload, seed, trace, prepared, snapshot);
  mem::ControllerBackend backend(&m.ctrl);

  const u32 cores = cfg.core.cores;
  const Picos hit_latency =
      static_cast<Picos>(cfg.ssmc.hit_latency) * cfg.core.period_ps();
  std::vector<mem::Cache> caches;
  std::vector<mem::StreamTable> prefetchers;
  caches.reserve(cores);
  prefetchers.reserve(cores);
  for (u32 c = 0; c < cores; ++c) {
    // Only core 0's cache registers stats to keep snapshots readable; all
    // cores behave statistically alike.
    caches.emplace_back("l1d" + std::to_string(c), cfg.ssmc.l1d_bytes,
                        cfg.ssmc.line_bytes, cfg.ssmc.assoc, cfg.ssmc.mshrs,
                        hit_latency, &backend, c == 0 ? &m.stats : nullptr);
    prefetchers.emplace_back(cfg.ssmc.line_bytes, cfg.ssmc.prefetch_degree,
                             cfg.ssmc.prefetch_distance,
                             cfg.ssmc.prefetch_streams);
  }
  CachedPort port(m, &caches, &prefetchers);
  CoreletArray array(m, workload, &port, trace);

  for (core::Corelet& corelet : array.corelets) m.kernel.add_compute(&corelet);
  for (mem::Cache& cache : caches) m.kernel.add_channel(&cache);
  m.kernel.add_channel(&m.ctrl);
  m.kernel.set_dump([&array] { return array.dump(); });

  m.kernel.add_state(sim::kSecDecodeCache, &array.dcache);
  for (u32 c = 0; c < cores; ++c) {
    m.kernel.add_state(sim::kSecCoreletBase + c, &array.corelets[c]);
    m.kernel.add_state(sim::kSecL1Base + c, &caches[c]);
    m.kernel.add_state(sim::kSecStreamTableBase + c, &prefetchers[c]);
  }

  m.kernel.wire_trace(
      workload.name, &m.stats,
      [&](trace::TraceSession* session) {
        trace::name_context_tracks(session, cores, cfg.core.contexts);
      },
      /*arch_hook=*/nullptr);

  m.kernel.run([&array] { return array.halted(); });

  RunResult result = m.result(workload, array.exec.instructions.value,
                              array.exec.branches.value);
  result.final_clock_mhz = m.kernel.final_clock_mhz();

  energy::EnergyModel model;
  result.energy.core_j = model.mimd_core_j(array.exec,
                                           /*state_via_cache=*/true,
                                           /*input_via_cache=*/true);
  const double sram_kb =
      cores * (cfg.ssmc.l1d_bytes + cfg.core.icache_bytes) / 1024.0;
  result.energy.leak_j = model.leakage_j(cores, sram_kb, result.seconds());

  verify_result(&result, workload, m.input, array.locals,
                image_may_be_dirty(cfg));
  return result;
}

}  // namespace mlp::arch
