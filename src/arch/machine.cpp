#include "arch/machine.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace mlp::arch {

namespace {

const char* context_state_name(core::Context::State state) {
  switch (state) {
    case core::Context::State::kReady: return "ready";
    case core::Context::State::kWaitMem: return "wait-mem";
    case core::Context::State::kHalted: return "halted";
  }
  return "?";
}

std::string dump_corelets(const std::vector<core::Corelet>& corelets) {
  std::string out;
  char line[160];
  for (const core::Corelet& corelet : corelets) {
    for (u32 x = 0; x < corelet.num_contexts(); ++x) {
      const core::Context& ctx = corelet.context(x);
      std::snprintf(line, sizeof(line),
                    "  corelet[%u].ctx[%u] pc=%u state=%s ready_at=%llu "
                    "instret=%llu\n",
                    corelet.core_id(), x, ctx.pc,
                    context_state_name(ctx.state),
                    static_cast<unsigned long long>(ctx.ready_at),
                    static_cast<unsigned long long>(ctx.instret));
      out += line;
    }
  }
  return out;
}

core::PortResult cached_access(mem::Cache& l1, Addr addr, bool is_write,
                               Picos now, std::function<void(Picos)> wakeup) {
  switch (l1.access(addr, is_write, now, std::move(wakeup))) {
    case mem::AccessStatus::kHit:
      return {core::PortStatus::kDone, now + l1.hit_latency_ps()};
    case mem::AccessStatus::kMiss:
      return {core::PortStatus::kPending, 0};
    case mem::AccessStatus::kMshrFull:
      return {core::PortStatus::kRetry, 0};
  }
  return {core::PortStatus::kRetry, 0};
}

}  // namespace

void check_prefetch_window(const MachineConfig& cfg,
                           const workloads::Workload& workload) {
  const u32 footprint = cfg.slab_layout ? 1 : workload.fields;
  MLP_SIM_CHECK(cfg.millipede.unsafe_skip_window_check ||
                    cfg.millipede.pf_entries >= footprint,
                "config",
                "prefetch window smaller than a record's row footprint");
}

Machine::Machine(const MachineConfig& cfg, const char* label,
                 const workloads::Workload& workload, u64 seed,
                 trace::TraceSession* trace, const PreparedInput* prepared,
                 sim::SnapshotPlan* snapshot, u32 warp_width)
    : cfg(cfg),
      label(label),
      input(prepared != nullptr ? *prepared
                                : prepare_input(cfg, workload, seed)),
      ctrl(cfg.dram, "dram", &stats, trace),
      kernel(cfg, label, trace),
      snapshot_(snapshot) {
  ctrl.attach_image(&input.image);
  if (snapshot == nullptr) return;
  // The image is still unmutated here, so a fresh preparation is its own
  // pristine reference.
  const mem::DramImage* pristine =
      prepared != nullptr ? &prepared->image
                          : &pristine_copy_.emplace(input.image);
  image_delta_.emplace(&input.image, pristine);
  kernel.add_state(sim::kSecDramDelta, &*image_delta_);
  kernel.add_state(sim::kSecController, &ctrl);
  kernel.set_plan(snapshot, &stats, warp_width, input.image.size());
}

RunResult Machine::result(const workloads::Workload& workload,
                          u64 thread_instructions, u64 branches,
                          bool offchip) const {
  RunResult result;
  result.arch = label;
  result.workload = workload.name;
  result.compute_cycles = kernel.compute_cycles();
  result.runtime_ps = kernel.now();
  result.thread_instructions = thread_instructions;
  result.input_words = workload.num_records * workload.fields;
  finalize_result(&result, branches, stats);
  result.energy.dram_j = energy::EnergyModel().dram_j(
      ctrl.bytes_transferred(), ctrl.activations(), offchip,
      cfg.dram.fault.ecc);
  return result;
}

CoreletArray::CoreletArray(Machine& machine,
                           const workloads::Workload& workload,
                           core::GlobalPort* port, trace::TraceSession* trace)
    : dcache(workload.program, machine.cfg.block_cache) {
  const CoreConfig& core = machine.cfg.core;
  const workloads::InterleavedLayout& layout = machine.input.layout;
  locals.reserve(core.cores);
  for (u32 c = 0; c < core.cores; ++c) {
    locals.emplace_back(core.local_mem_bytes);
    if (workload.init_state) workload.init_state(locals.back());
  }
  exec.register_with(&machine.stats, "exec");
  dcache.register_with(&machine.stats, "decode");
  corelets.reserve(core.cores);
  for (u32 c = 0; c < core.cores; ++c) {
    corelets.emplace_back(c, core, &workload.program, &locals[c],
                          &machine.input.image, port, &exec, trace, &dcache);
    for (u32 x = 0; x < core.contexts; ++x) {
      const workloads::ThreadSlice slice = layout.slice(
          workloads::ThreadMapping::kSlab, core.cores, core.contexts, c, x);
      workloads::bind_csrs(corelets.back().context(x).csr, workload, layout,
                           slice, c * core.contexts + x, core.threads(), c,
                           core.cores, x, core.contexts);
    }
  }
  machine.kernel.set_decode_cache(&dcache);
  machine.kernel.set_progress(&machine.ctrl, &exec.instructions.value);
}

std::string CoreletArray::dump() const { return dump_corelets(corelets); }

bool CoreletArray::halted() const {
  for (const core::Corelet& corelet : corelets) {
    if (!corelet.halted()) return false;
  }
  return true;
}

CachedPort::CachedPort(const Machine& machine, std::vector<mem::Cache>* l1s,
                       std::vector<mem::StreamTable>* prefetchers)
    : l1s_(l1s),
      prefetchers_(prefetchers),
      state_base_(machine.input.layout.total_bytes()),
      state_stride_((machine.cfg.core.local_mem_bytes +
                     machine.cfg.dram.row_bytes - 1) /
                    machine.cfg.dram.row_bytes * machine.cfg.dram.row_bytes) {}

core::PortResult CachedPort::load(u32 core, u32 /*ctx*/, Addr addr, Picos now,
                                  std::function<void(Picos)> wakeup) {
  mem::Cache& l1 = (*l1s_)[core];
  for (Addr line : (*prefetchers_)[core].observe(addr)) {
    l1.prefetch(line, now);
  }
  return cached_access(l1, addr, /*is_write=*/false, now, std::move(wakeup));
}

core::PortResult CachedPort::local_access(u32 core, u32 /*ctx*/, Addr addr,
                                          bool is_write, Picos /*fixed*/,
                                          Picos now,
                                          std::function<void(Picos)> wakeup) {
  const Addr global =
      state_base_ + static_cast<Addr>(core) * state_stride_ + addr;
  return cached_access((*l1s_)[core], global, is_write, now,
                       std::move(wakeup));
}

}  // namespace mlp::arch
