#pragma once
// Common result type and helpers shared by the architecture systems. Every
// run is also functionally verified: the per-corelet live states are reduced
// on the (simulated) host and compared against the workload's golden
// reference, so a timing-model bug that corrupts execution cannot silently
// produce "results".

#include <map>
#include <string>

#include "common/config.hpp"
#include "core/corelet.hpp"
#include "energy/energy.hpp"
#include "mem/dram_image.hpp"
#include "sim/snapshot.hpp"
#include "trace/trace.hpp"
#include "workloads/binding.hpp"
#include "workloads/bmla.hpp"

namespace mlp::arch {

enum class ArchKind : u8 {
  kMillipede,
  kMillipedeNoFlowControl,
  kMillipedeNoRateMatch,
  kSsmc,
  kGpgpu,
  kVws,
  kVwsRow,
  kMulticore,
};

const char* arch_name(ArchKind kind);

/// Inverse of arch_name (the tools' and the service protocol's spelling).
/// Returns false on unknown names.
bool arch_from_name(const std::string& name, ArchKind* out);

/// All architectures in declaration order (sweep "all" expansion).
const std::vector<ArchKind>& all_arch_kinds();

struct RunResult {
  std::string arch;
  std::string workload;
  u64 compute_cycles = 0;
  Picos runtime_ps = 0;
  u64 thread_instructions = 0;
  u64 input_words = 0;
  double insts_per_word = 0.0;
  double branches_per_inst = 0.0;
  double row_miss_rate = 0.0;      ///< DRAM row misses / row accesses
  double final_clock_mhz = 0.0;    ///< rate-matched clock (Millipede)
  u32 warp_width = 0;              ///< chosen width (GPGPU/VWS)
  energy::EnergyBreakdown energy;
  std::map<std::string, u64> stats;
  std::string verification;  ///< empty iff results matched the reference

  double seconds() const { return static_cast<double>(runtime_ps) * 1e-12; }
  double energy_delay() const { return energy.total_j() * seconds(); }
};

/// Generated input image + layout for a workload under a machine config,
/// plus the host golden reference computed from the pristine image. The
/// struct is position-independent of the architecture that will consume it
/// (only row geometry and the slab-layout switch matter), so one prepared
/// input can be shared — and memoized — across every ArchKind.
struct PreparedInput {
  workloads::InterleavedLayout layout;
  mem::DramImage image;
  /// Golden reference reduced from the pristine image; computed once at
  /// preparation so repeated (warm-cache) runs skip the host recompute.
  std::vector<double> reference;
};

PreparedInput prepare_input(const MachineConfig& cfg,
                            const workloads::Workload& workload, u64 seed);

/// Verify reduced live state against the golden reference; returns the
/// diagnostic ("" on success). Uses input.reference unless `image_dirty`
/// says the run may have mutated the image (no-ECC fault injection corrupts
/// it in place) — then the reference is recomputed from the current image,
/// preserving the pre-cache verification semantics.
std::string verify_run(const workloads::Workload& workload,
                       const PreparedInput& input,
                       const std::vector<const mem::LocalStore*>& states,
                       bool image_dirty = false);

/// True when a run under `cfg` may mutate the DRAM image in place: without
/// ECC, injected bit flips land in the functional bytes (the controller
/// calls DramImage::flip_bit), so the cached pristine reference no longer
/// describes what the corelets read.
inline bool image_may_be_dirty(const MachineConfig& cfg) {
  return cfg.dram.fault.bit_flip_rate > 0.0 && !cfg.dram.fault.ecc;
}

/// Fill the derived metrics every architecture reports the same way —
/// insts_per_word and branches_per_inst (a zero denominator pins the metric
/// to 0.0 rather than NaN/inf), row_miss_rate from the controller counters,
/// and the full counter snapshot. The caller sets thread_instructions and
/// input_words first and passes the branch numerator (the GPGPU scales
/// per-warp branches by the warp width); arch-specific fields
/// (final_clock_mhz, warp_width, energy) stay with the caller.
void finalize_result(RunResult* result, u64 branch_count,
                     const StatSet& stats);

/// Shared tail of every run: reduce the per-core live states and verify
/// against the workload's golden reference (RunResult::verification is ""
/// on success). `image_dirty` as in verify_run.
void verify_result(RunResult* result, const workloads::Workload& workload,
                   const PreparedInput& input,
                   const std::vector<mem::LocalStore>& states,
                   bool image_dirty);

/// Run `workload` on the architecture selected by `kind` (dispatches to the
/// concrete systems below). An optional TraceSession captures typed events
/// and interval timelines; it must outlive the call and is also written to
/// (partially) when the run throws SimError. When `prepared` is non-null the
/// run works on a private copy of it instead of regenerating layout, image
/// and golden reference — the warm-cache fast path; the caller keeps
/// ownership and the prepared input is never mutated.
///
/// A non-null SnapshotPlan requests mid-run checkpointing (sim/snapshot.hpp):
/// either capture at the first quiescent edge at or past plan->checkpoint_at,
/// or — when plan->restore_from is set — rebuild the machine, restore the
/// blob's state and finish the run bit-identically to the uninterrupted one.
RunResult run_arch(ArchKind kind, const MachineConfig& cfg,
                   const workloads::Workload& workload, u64 seed = 1,
                   trace::TraceSession* trace = nullptr,
                   const PreparedInput* prepared = nullptr,
                   sim::SnapshotPlan* snapshot = nullptr);

// Concrete system entry points.
RunResult run_millipede(const MachineConfig& cfg,
                        const workloads::Workload& workload, u64 seed,
                        trace::TraceSession* trace = nullptr,
                        const PreparedInput* prepared = nullptr,
                        sim::SnapshotPlan* snapshot = nullptr);
RunResult run_ssmc(const MachineConfig& cfg,
                   const workloads::Workload& workload, u64 seed,
                   trace::TraceSession* trace = nullptr,
                   const PreparedInput* prepared = nullptr,
                   sim::SnapshotPlan* snapshot = nullptr);
RunResult run_gpgpu(const MachineConfig& cfg,
                    const workloads::Workload& workload, u64 seed,
                    trace::TraceSession* trace = nullptr,
                    const PreparedInput* prepared = nullptr,
                    sim::SnapshotPlan* snapshot = nullptr);
RunResult run_multicore(const MachineConfig& cfg,
                        const workloads::Workload& workload, u64 seed,
                        trace::TraceSession* trace = nullptr,
                        const PreparedInput* prepared = nullptr,
                        sim::SnapshotPlan* snapshot = nullptr);

}  // namespace mlp::arch
