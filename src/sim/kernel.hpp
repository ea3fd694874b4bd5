#pragma once
// The shared two-domain simulation kernel. Every architecture's machine
// (arch/machine.hpp) puts its components on one SimulationKernel (corelets
// or an SM on the compute domain; prefetch buffer, caches and the memory
// controller on the DRAM-channel domain) and calls run(). The kernel owns:
//
//  * two ClockDomains advanced in global time order (compute edge first on
//    ties), honoring mid-run compute retunes by Millipede's DFS rate
//    matcher (which holds a pointer to compute_clock());
//  * the forward-progress watchdog, stepped once per processed edge over the
//    signature "instructions retired + DRAM bytes moved";
//  * trace wiring (process/track/gauge registration, the DRAM gauges read
//    straight from the controller), the interval sampler's tick_compute
//    hook and the closing finish_run;
//  * mid-run checkpoints: capture at the first quiescent edge of a plan,
//    or restore a plan's blob before the first edge;
//  * idle-cycle fast-forward: after an edge that made no progress, the
//    kernel asks every component for its next_event() and skips both
//    domains' edges up to the earliest one — bulk-accounting idle counters
//    (Tickable::skip_idle) and watchdog iterations (Watchdog::skip) so all
//    counters, trace events and timelines stay bit-identical to polling
//    every edge (MachineConfig::fast_forward / --no-fast-forward is the
//    A/B escape hatch; kernel_test and the CI equivalence step enforce it).

#include <functional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/watchdog.hpp"
#include "sim/snapshot.hpp"
#include "sim/tickable.hpp"
#include "trace/trace.hpp"

namespace mlp::core {
class DecodedBlockCache;
}
namespace mlp::mem {
class ChannelDemux;
}

namespace mlp::sim {

class SimulationKernel {
 public:
  /// `arch` is the architecture label (arch_name): it prefixes watchdog
  /// trips, the trace process name and a snapshot's identity. `trace` may be
  /// null. The clock periods, watchdog limits, DRAM bank count (for trace
  /// track names) and the fast-forward switch all come from `cfg`.
  SimulationKernel(const MachineConfig& cfg, std::string arch,
                   trace::TraceSession* trace);

  /// Registration order is tick order within a domain (the channel tick
  /// order is architecture-defined: e.g. prefetch buffer before the
  /// controller, L1s before L2s before the controller).
  void add_compute(Tickable* component) { compute_units_.push_back(component); }
  void add_channel(Tickable* component) { channel_units_.push_back(component); }

  /// The compute domain, for Millipede's rate matcher (DFS retunes the
  /// period mid-run) and for tests.
  ClockDomain* compute_clock() { return &compute_; }

  /// The architecture's part of the lazy machine-state dump attached to a
  /// watchdog trip's SimError: the kernel frames it with an "<arch> state:"
  /// line and appends the controller's dump.
  void set_dump(std::function<std::string()> dump) { dump_ = std::move(dump); }

  /// The machine's DRAM controller and its retired-instruction counter.
  /// Their sum (instructions retired + DRAM bytes moved) is the monotonic
  /// progress signature feeding the watchdog; an edge that leaves it
  /// unchanged is what arms the fast-forward scan. wire_trace reads the
  /// controller's gauges, a snapshot its fault sequence. Required before
  /// wire_trace() and run().
  void set_progress(const mem::ChannelDemux* dram, const u64* instructions) {
    dram_ = dram;
    instructions_ = instructions;
  }

  /// The job's decoded-block cache, if any: its convergence memo is reset
  /// once per PROCESSED compute edge, before the compute units tick.
  /// Fast-forwarded edges skip the reset by construction: a skipped edge
  /// issues nothing, so a reset there would be a no-op — which is why
  /// decode counters stay bit-identical across fast-forward modes.
  void set_decode_cache(core::DecodedBlockCache* dcache) { dcache_ = dcache; }

  /// One-stop trace registration: begin_run("<arch>/<workload>", stats),
  /// then `name_tracks` (per-context or per-warp tracks), the DRAM bank
  /// tracks (one per channel x rank x bank; the flat "dram.bank<b>" names
  /// when the hierarchy is 1x1), `arch_hook` (arch-specific tracks and
  /// gauges, e.g. pb/rate), the watchdog track, and finally the
  /// controller's "dram.queue" gauge, its "dram.refresh" gauge (only when
  /// refresh is on, so default timelines keep their columns) and the
  /// "clock.period_ps" gauge. No-op without a trace session; either hook
  /// may be empty.
  void wire_trace(const std::string& workload, const StatSet* stats,
                  const std::function<void(trace::TraceSession*)>& name_tracks,
                  const std::function<void(trace::TraceSession*)>& arch_hook);

  // ---- mid-run checkpoints (sim/snapshot.hpp) ----

  /// Register a stateful component's snapshot section. Registration order is
  /// capture order; `section_id` must be unique within one machine and
  /// stable across processes (it is the restore dispatch key).
  void add_state(u32 section_id, Snapshottable* state) {
    states_.emplace_back(section_id, state);
  }

  /// Attach the run's checkpoint intent. With `plan->capture`, run() scans
  /// every step-loop top from `checkpoint_at` compute cycles onward and
  /// captures at the first where every registered component is quiescent —
  /// non-invasively: the run continues bit-identically. A run that finishes
  /// first simply leaves `captured_ok` false. With `plan->restore_from`,
  /// run() first applies the blob to the freshly-built machine (throwing
  /// SimError("snapshot") on any mismatch).
  ///
  /// The blob's meta section records the arch label, `warp_width`,
  /// `image_bytes` and the controller's fault sequence; on restore the first
  /// three must match this machine. Every `stats` counter is written by name
  /// as the LAST section, so restore applies counters after every
  /// component's restore_state (whose incidental side effects — e.g. the
  /// decode cache re-decoding its block set — are then overwritten).
  void set_plan(SnapshotPlan* plan, StatSet* stats, u32 warp_width,
                u64 image_bytes) {
    plan_ = plan;
    stats_snapshot_ = stats;
    warp_width_ = warp_width;
    image_bytes_ = image_bytes;
  }

  /// Runs until `done()` — typically "all corelets halted" — restoring the
  /// plan's blob first when it carries one. Throws SimError (watchdog trip,
  /// memory-fault retry exhaustion, ...) with the trace left partially
  /// written. Returns the final simulated time in picoseconds.
  Picos run(const std::function<bool()>& done);

  u64 compute_cycles() const { return compute_.ticks(); }
  double final_clock_mhz() const { return compute_.frequency_mhz(); }
  Picos now() const { return now_; }

 private:
  /// Attempt one idle-gap skip; returns false when every component in both
  /// domains reports kNoEvent (a deadlock — fall back to polling so the
  /// watchdog trips exactly as it would have).
  bool try_fast_forward(Watchdog* watchdog, u64 signature);

  /// Instructions retired + DRAM bytes moved (set_progress).
  u64 progress() const;
  bool all_quiescent() const;
  void capture(const Watchdog& watchdog);
  void restore(const std::string& blob, Watchdog* watchdog);

  ClockDomain compute_;
  ClockDomain channel_;
  WatchdogConfig watchdog_cfg_;
  std::string arch_;
  u32 channels_, ranks_, banks_;
  bool fast_forward_;
  trace::TraceSession* trace_;

  std::vector<Tickable*> compute_units_;
  std::vector<Tickable*> channel_units_;
  std::function<std::string()> dump_;
  const mem::ChannelDemux* dram_ = nullptr;
  const u64* instructions_ = nullptr;
  core::DecodedBlockCache* dcache_ = nullptr;

  std::vector<std::pair<u32, Snapshottable*>> states_;
  StatSet* stats_snapshot_ = nullptr;
  u32 warp_width_ = 0;
  u64 image_bytes_ = 0;
  SnapshotPlan* plan_ = nullptr;

  Picos now_ = 0;
  /// Consecutive edges with an unchanged progress signature; a scan only
  /// fires once this reaches kScanHysteresis, so busy phases never scan.
  u64 flat_edges_ = 0;
  /// Cleared when a scan yields nothing — both domains event-less (deadlock,
  /// poll to the watchdog trip) or an event on the very next edge (retry
  /// polling). Re-armed by progress.
  bool scan_enabled_ = true;

  /// Edges the signature must stay flat before an event scan pays for
  /// itself; a skippable gap is typically far longer than this.
  static constexpr u64 kScanHysteresis = 8;
};

}  // namespace mlp::sim
