// GPGPU-based PNM system: one SM with the same lane count, thread count and
// on-die memory budget as the Millipede processor. Variants:
//  * plain GPGPU — 32-wide warps, word-interleaved record mapping (coalesced
//    loads), cache-block prefetch into the 32 KB L1D, live state in the
//    128 KB banked shared memory;
//  * VWS — dynamically picks 4- or 32-wide warps from a divergence-sampling
//    pilot run (the paper reports it always picks 4-wide for BMLAs);
//  * VWS-row — VWS plus Millipede's row-oriented, flow-controlled prefetch
//    buffer on the input path (slab record mapping).

#include "arch/machine.hpp"
#include "common/error.hpp"
#include "gpgpu/sm.hpp"
#include "millipede/prefetch_buffer.hpp"

namespace mlp::arch {
namespace {

/// An SM of `width`-wide warps over a machine's input: the input path (L1D
/// plus sequential prefetcher, or Millipede's prefetch buffer when
/// row-oriented), lane-private shared-memory banking, one live-state store
/// per lane, and every thread's CSRs. Construction also registers it on the
/// machine's kernel. The caller primes the prefetch buffer (skipped when
/// restoring a snapshot, whose state replaces the time-0 fetches).
struct SmSystem {
  SmSystem(Machine& m, const workloads::Workload& wl, u32 width,
           trace::TraceSession* trace);
  SmSystem(const SmSystem&) = delete;
  SmSystem& operator=(const SmSystem&) = delete;

  mem::ControllerBackend backend;
  std::optional<mem::Cache> l1d;
  std::optional<mem::SequentialPrefetcher> prefetcher;
  std::optional<millipede::PrefetchBuffer> pb;
  mem::SharedMemBanking banking;
  std::vector<mem::LocalStore> lane_state;
  gpgpu::SmStats sm_stats;
  core::DecodedBlockCache dcache;
  std::optional<gpgpu::StreamingMultiprocessor> sm;
};

SmSystem::SmSystem(Machine& m, const workloads::Workload& wl, u32 width,
                   trace::TraceSession* trace)
    : backend(&m.ctrl),
      banking(m.cfg.gpgpu.shared_banks, mem::BankMapping::kLanePrivate),
      dcache(wl.program, m.cfg.block_cache) {
  const MachineConfig& cfg = m.cfg;
  const workloads::InterleavedLayout& layout = m.input.layout;
  const bool row = cfg.gpgpu.row_oriented;
  if (!row) {
    l1d.emplace("l1d", cfg.gpgpu.l1d_bytes, cfg.gpgpu.line_bytes,
                cfg.gpgpu.l1d_assoc, cfg.gpgpu.mshrs,
                static_cast<Picos>(cfg.gpgpu.l1_hit_latency) *
                    cfg.core.period_ps(),
                &backend, &m.stats);
    prefetcher.emplace(cfg.gpgpu.line_bytes, cfg.gpgpu.prefetch_degree,
                       cfg.gpgpu.prefetch_distance);
  } else {
    millipede::RowPlan plan;
    plan.first_row = layout.first_row();
    plan.num_rows = layout.num_rows();
    const u32 cores = cfg.core.cores;
    plan.expected_mask = [layout, cores](u64 r, u32 c) {
      return layout.expected_slab_mask(r, c, cores);
    };
    pb.emplace(cfg, plan, &m.ctrl, nullptr, &m.stats, "pb", trace);
  }
  for (u32 i = 0; i < cfg.core.cores; ++i) {
    lane_state.emplace_back(cfg.core.local_mem_bytes);
    if (wl.init_state) wl.init_state(lane_state.back());
  }
  sm_stats.register_with(&m.stats, "sm");
  // Shared decoded stream for every warp of the SM (the VWS pilot gets its
  // own cache whose counters are discarded with the pilot's stats).
  dcache.register_with(&m.stats, "decode");

  gpgpu::StreamingMultiprocessor::Deps deps;
  deps.program = &wl.program;
  deps.lane_state = &lane_state;
  deps.dram = &m.input.image;
  deps.l1d = l1d ? &*l1d : nullptr;
  deps.prefetcher = prefetcher ? &*prefetcher : nullptr;
  deps.pb = pb ? &*pb : nullptr;
  deps.banking = &banking;
  deps.stats = &sm_stats;
  deps.trace = trace;
  deps.dcache = &dcache;
  sm.emplace(cfg, width, deps);

  // Thread-to-record mapping and CSR binding.
  const u32 groups = cfg.core.cores / width;
  for (u32 g = 0; g < groups; ++g) {
    for (u32 s = 0; s < cfg.core.contexts; ++s) {
      for (u32 l = 0; l < width; ++l) {
        const u32 lane = g * width + l;
        const u32 tid = s * cfg.core.cores + lane;
        workloads::ThreadSlice slice;
        if (row || cfg.gpgpu.slab_mapping_ablation) {
          // Slab mapping: physical lane == prefetch-buffer slab.
          slice = layout.slice(workloads::ThreadMapping::kSlab,
                               cfg.core.cores, cfg.core.contexts, lane, s);
        } else {
          // Word-interleaved mapping: warp (g, s) covers consecutive
          // records so its loads coalesce.
          const u32 warp_index = g * cfg.core.contexts + s;
          slice = layout.slice(workloads::ThreadMapping::kWordInterleaved,
                               cfg.core.cores, cfg.core.contexts, warp_index,
                               l, width);
        }
        workloads::bind_csrs(sm->context(g, s, l).csr, wl, layout, slice, tid,
                             cfg.core.threads(), lane, cfg.core.cores, s,
                             cfg.core.contexts);
      }
    }
  }

  m.kernel.set_decode_cache(&dcache);
  m.kernel.add_compute(&*sm);
  if (pb) m.kernel.add_channel(&*pb);
  if (l1d) m.kernel.add_channel(&*l1d);
  m.kernel.add_channel(&m.ctrl);
  m.kernel.set_progress(&m.ctrl, &sm_stats.thread_instructions.value);
  m.kernel.set_dump([this] {
    return sm->debug_dump() + (pb ? pb->debug_dump() : std::string());
  });
}

/// VWS pilot: sample divergence at full width, then commit to 4- or 32-wide
/// warps for the real run (Rogers et al. [41], coarse-grained). The pilot
/// runs untraced on its own machine over the plain input path: its events
/// and counters would pollute the real run's timeline, and nothing it
/// mutates survives it.
u32 pilot_warp_width(const MachineConfig& cfg, const char* label,
                     const workloads::Workload& workload, u64 seed,
                     const PreparedInput* prepared) {
  MachineConfig pilot_cfg = cfg;
  pilot_cfg.gpgpu.row_oriented = false;
  Machine pilot(pilot_cfg, label, workload, seed, /*trace=*/nullptr, prepared,
                /*snapshot=*/nullptr);
  SmSystem sm(pilot, workload, cfg.core.cores, /*trace=*/nullptr);
  pilot.kernel.run([&sm] {
    return sm.sm->halted() || sm.sm_stats.warp_instructions.value >= 20000;
  });
  const double divergence =
      sm.sm_stats.branches.value == 0
          ? 0.0
          : static_cast<double>(sm.sm_stats.divergent_branches.value) /
                static_cast<double>(sm.sm_stats.branches.value);
  return divergence > 0.10 ? 4 : cfg.core.cores;
}

}  // namespace

RunResult run_gpgpu(const MachineConfig& cfg,
                    const workloads::Workload& workload, u64 seed,
                    trace::TraceSession* trace, const PreparedInput* prepared,
                    sim::SnapshotPlan* snapshot) {
  cfg.validate();
  MLP_SIM_CHECK(!cfg.slab_layout, "config",
                "the GPGPU needs word-size columns for coalescing "
                "(paper III-B)");
  if (cfg.gpgpu.row_oriented) check_prefetch_window(cfg, workload);
  const char* label = cfg.gpgpu.row_oriented
                          ? "vws-row"
                          : (cfg.gpgpu.vws ? "vws" : "gpgpu");

  u32 width = cfg.gpgpu.warp_width;
  if (snapshot != nullptr && snapshot->restore_from != nullptr) {
    // The pilot already ran in the capturing process; its only durable
    // output is the chosen warp width, which the snapshot's meta section
    // carries. Re-running it here would simulate warmup cycles the restore
    // exists to skip.
    width = sim::snapshot_meta(*snapshot->restore_from).warp_width;
    MLP_SIM_CHECK(width != 0 && cfg.core.cores % width == 0, "snapshot",
                  "snapshot warp width does not divide the lane count");
  } else if (cfg.gpgpu.vws) {
    width = pilot_warp_width(cfg, label, workload, seed, prepared);
  }

  Machine m(cfg, label, workload, seed, trace, prepared, snapshot, width);
  SmSystem parts(m, workload, width, trace);
  if (parts.pb && !m.restoring()) parts.pb->prime(0);

  m.kernel.add_state(sim::kSecSm, &*parts.sm);
  if (parts.pb) m.kernel.add_state(sim::kSecPrefetchBuffer, &*parts.pb);
  if (parts.prefetcher) {
    m.kernel.add_state(sim::kSecSeqPrefetcher, &*parts.prefetcher);
  }
  m.kernel.add_state(sim::kSecDecodeCache, &parts.dcache);
  if (parts.l1d) m.kernel.add_state(sim::kSecL1Base, &*parts.l1d);

  m.kernel.wire_trace(
      workload.name, &m.stats,
      [&](trace::TraceSession* session) {
        const u32 groups = cfg.core.cores / width;
        for (u32 g = 0; g < groups; ++g) {
          for (u32 s = 0; s < cfg.core.contexts; ++s) {
            session->set_track_name(g * cfg.core.contexts + s,
                                    "w" + std::to_string(g) + "." +
                                        std::to_string(s));
          }
        }
      },
      [&parts](trace::TraceSession* session) {
        if (parts.pb) {
          session->set_track_name(trace::kPrefetchTrack, "pb");
          session->add_gauge("pb.occupancy", [&parts] {
            return static_cast<u64>(parts.pb->occupancy());
          });
        }
      });

  m.kernel.run([&parts] { return parts.sm->halted(); });

  RunResult result = m.result(workload, parts.sm_stats.thread_instructions.value,
                              parts.sm_stats.branches.value * width);
  // The nominal frequency, not the kernel's period-derived value: the GPGPU
  // never retunes, and the ps-quantized period round-trips to ~3610 MHz.
  result.final_clock_mhz = cfg.core.clock_mhz;
  result.warp_width = width;

  energy::EnergyModel model;
  result.energy.core_j = model.gpgpu_core_j(parts.sm_stats);
  const double sram_kb =
      (cfg.gpgpu.l1d_bytes + cfg.gpgpu.shared_mem_bytes +
       cfg.core.icache_bytes) /
      1024.0;
  result.energy.leak_j =
      model.leakage_j(cfg.core.cores, sram_kb, result.seconds());

  verify_result(&result, workload, m.input, parts.lane_state,
                image_may_be_dirty(cfg));
  return result;
}

}  // namespace mlp::arch
