#pragma once
// The assembly path every architecture's machine is built through. A
// Machine owns what all of them share — the run's private copy of the
// prepared input, the StatSet, the DRAM controller and the simulation
// kernel — plus the common half of the checkpoint wiring. The MIMD
// architectures (Millipede, SSMC, multicore) add a CoreletArray, and the
// cached ones (SSMC, multicore) route it through a CachedPort. Each
// *_system.cpp then writes only what is its own: its memory-side
// components and their tick order, its snapshot sections, its trace tracks
// and gauges, and its core/leakage energy.

#include <optional>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "core/corelet.hpp"
#include "core/decode_cache.hpp"
#include "mem/cache.hpp"
#include "mem/channels.hpp"
#include "mem/prefetcher.hpp"
#include "sim/kernel.hpp"

namespace mlp::arch {

/// A record's field loads touch `record_row_footprint()` concurrent rows
/// (the field count under the field-major layout, 1 under slab
/// interleaving); a row-oriented prefetch buffer with flow control
/// deadlocks if its window cannot hold them all. Fails fast — recoverably,
/// so one undersized sweep point cannot kill a whole matrix.
void check_prefetch_window(const MachineConfig& cfg,
                           const workloads::Workload& workload);

class Machine {
 public:
  /// Takes a private copy of `prepared` (or prepares the input when it is
  /// null): the controller attaches to the copy, and no-ECC fault injection
  /// may corrupt it. With a `snapshot` plan, registers the DRAM image (as a
  /// delta against the pristine prepared image) and the controller as the
  /// first two snapshot sections and hands the plan to the kernel; the
  /// architecture registers its own sections after construction.
  /// `warp_width` is the snapshot identity's warp width (0 off the GPGPU).
  /// `cfg` must outlive the machine and be validated by the caller.
  Machine(const MachineConfig& cfg, const char* label,
          const workloads::Workload& workload, u64 seed,
          trace::TraceSession* trace, const PreparedInput* prepared,
          sim::SnapshotPlan* snapshot, u32 warp_width = 0);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// True when the plan restores a blob: components that would issue
  /// time-0 work (a prefetch buffer's prime) must leave it to the restore.
  bool restoring() const {
    return snapshot_ != nullptr && snapshot_->restore_from != nullptr;
  }

  /// The result head of a finished run, the same on every architecture:
  /// label, workload, compute cycles, runtime, thread instructions, input
  /// words, finalize_result's derived metrics (`branches` is its branch
  /// numerator) and the DRAM energy (`offchip` prices off-chip DRAM).
  /// final_clock_mhz, warp_width, the core and leakage energy and the
  /// verification stay with the caller.
  RunResult result(const workloads::Workload& workload,
                   u64 thread_instructions, u64 branches,
                   bool offchip = false) const;

  const MachineConfig& cfg;
  const char* const label;
  PreparedInput input;
  StatSet stats;
  mem::ChannelDemux ctrl;
  sim::SimulationKernel kernel;

 private:
  sim::SnapshotPlan* snapshot_;
  std::optional<mem::DramImage> pristine_copy_;
  std::optional<sim::DramImageDelta> image_delta_;
};

/// The MIMD corelet array of Millipede, SSMC and multicore: one local store
/// per corelet (initialised by the workload), the shared ExecStats ("exec")
/// and decoded-block cache ("decode"), and the corelets, every context's
/// CSRs bound to its slab slice of the input. Construction also gives the
/// kernel the decode cache and makes the retired instructions its progress
/// counter. The caller registers the corelets as compute units (directly or
/// wrapped) and their snapshot sections.
class CoreletArray {
 public:
  CoreletArray(Machine& machine, const workloads::Workload& workload,
               core::GlobalPort* port, trace::TraceSession* trace);
  CoreletArray(const CoreletArray&) = delete;
  CoreletArray& operator=(const CoreletArray&) = delete;

  /// Every corelet halted: the run's done predicate.
  bool halted() const;
  /// Per-corelet context snapshot for the watchdog's diagnostic dump.
  std::string dump() const;

  std::vector<mem::LocalStore> locals;
  core::ExecStats exec;
  core::DecodedBlockCache dcache;
  std::vector<core::Corelet> corelets;
};

/// The global port of the cached MIMD machines (SSMC, multicore): input
/// loads go through the core's L1 after its StreamTable has issued the
/// prefetches the address triggers, and the live state lives in a cached
/// per-core region of the global address space — row-aligned slots of
/// local_mem_bytes beyond the input image — competing with the input
/// stream for the L1.
class CachedPort final : public core::GlobalPort {
 public:
  CachedPort(const Machine& machine, std::vector<mem::Cache>* l1s,
             std::vector<mem::StreamTable>* prefetchers);

  core::PortResult load(u32 core, u32 ctx, Addr addr, Picos now,
                        std::function<void(Picos)> wakeup) override;
  core::PortResult local_access(u32 core, u32 ctx, Addr addr, bool is_write,
                                Picos fixed, Picos now,
                                std::function<void(Picos)> wakeup) override;

 private:
  std::vector<mem::Cache>* l1s_;
  std::vector<mem::StreamTable>* prefetchers_;
  Addr state_base_;
  u32 state_stride_;
};

}  // namespace mlp::arch
