#include "arch/system.hpp"

namespace mlp::arch {

const char* arch_name(ArchKind kind) {
  switch (kind) {
    case ArchKind::kMillipede: return "millipede";
    case ArchKind::kMillipedeNoFlowControl: return "millipede-no-flow-control";
    case ArchKind::kMillipedeNoRateMatch: return "millipede-no-rate-match";
    case ArchKind::kSsmc: return "ssmc";
    case ArchKind::kGpgpu: return "gpgpu";
    case ArchKind::kVws: return "vws";
    case ArchKind::kVwsRow: return "vws-row";
    case ArchKind::kMulticore: return "multicore";
  }
  return "?";
}

const std::vector<ArchKind>& all_arch_kinds() {
  static const std::vector<ArchKind> kinds = {
      ArchKind::kMillipede,      ArchKind::kMillipedeNoFlowControl,
      ArchKind::kMillipedeNoRateMatch, ArchKind::kSsmc,
      ArchKind::kGpgpu,          ArchKind::kVws,
      ArchKind::kVwsRow,         ArchKind::kMulticore,
  };
  return kinds;
}

bool arch_from_name(const std::string& name, ArchKind* out) {
  for (const ArchKind kind : all_arch_kinds()) {
    if (name == arch_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

PreparedInput prepare_input(const MachineConfig& cfg,
                            const workloads::Workload& workload, u64 seed) {
  const workloads::LayoutMode mode =
      cfg.slab_layout ? workloads::LayoutMode::kRecordContiguous
                      : workloads::LayoutMode::kFieldMajor;
  workloads::InterleavedLayout layout(cfg.dram.row_bytes, workload.fields,
                                      workload.num_records, /*base=*/0, mode);
  PreparedInput input{layout, mem::DramImage(layout.total_bytes()), {}};
  Rng rng(seed);
  workload.generate(input.layout, input.image, rng);
  input.reference = workload.reference(input.image, input.layout);
  return input;
}

std::string verify_run(const workloads::Workload& workload,
                       const PreparedInput& input,
                       const std::vector<const mem::LocalStore*>& states,
                       bool image_dirty) {
  // A run that may have corrupted the image in place (no-ECC fault
  // injection) recomputes the reference from the current image so the
  // corruption is caught exactly as before caching existed.
  std::vector<double> recomputed;
  if (image_dirty || input.reference.empty()) {
    recomputed = workload.reference(input.image, input.layout);
  }
  const std::vector<double>& reference =
      image_dirty || input.reference.empty() ? recomputed : input.reference;
  const auto measured = workloads::reduce_state(workload, states);
  return workloads::compare_results(reference, measured, workload.tolerance);
}

void finalize_result(RunResult* result, u64 branch_count,
                     const StatSet& stats) {
  result->insts_per_word =
      result->input_words == 0
          ? 0.0
          : static_cast<double>(result->thread_instructions) /
                static_cast<double>(result->input_words);
  result->branches_per_inst =
      result->thread_instructions == 0
          ? 0.0
          : static_cast<double>(branch_count) /
                static_cast<double>(result->thread_instructions);
  const u64 hits =
      stats.has("dram.row_hits") ? stats.get("dram.row_hits") : 0;
  const u64 misses =
      stats.has("dram.row_misses") ? stats.get("dram.row_misses") : 0;
  result->row_miss_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(misses) / static_cast<double>(hits + misses);
  for (const auto& [name, value] : stats.snapshot()) {
    result->stats.emplace(name, value);
  }
}

void verify_result(RunResult* result, const workloads::Workload& workload,
                   const PreparedInput& input,
                   const std::vector<mem::LocalStore>& states,
                   bool image_dirty) {
  std::vector<const mem::LocalStore*> pointers;
  pointers.reserve(states.size());
  for (const mem::LocalStore& state : states) pointers.push_back(&state);
  result->verification = verify_run(workload, input, pointers, image_dirty);
}

RunResult run_arch(ArchKind kind, const MachineConfig& cfg,
                   const workloads::Workload& workload, u64 seed,
                   trace::TraceSession* trace, const PreparedInput* prepared,
                   sim::SnapshotPlan* snapshot) {
  MachineConfig tuned = cfg;
  switch (kind) {
    case ArchKind::kMillipede:
      tuned.millipede.flow_control = true;
      tuned.millipede.rate_match = true;
      return run_millipede(tuned, workload, seed, trace, prepared, snapshot);
    case ArchKind::kMillipedeNoFlowControl:
      tuned.millipede.flow_control = false;
      tuned.millipede.rate_match = false;
      return run_millipede(tuned, workload, seed, trace, prepared, snapshot);
    case ArchKind::kMillipedeNoRateMatch:
      tuned.millipede.flow_control = true;
      tuned.millipede.rate_match = false;
      return run_millipede(tuned, workload, seed, trace, prepared, snapshot);
    case ArchKind::kSsmc:
      return run_ssmc(tuned, workload, seed, trace, prepared, snapshot);
    case ArchKind::kGpgpu:
      tuned.gpgpu.vws = false;
      tuned.gpgpu.row_oriented = false;
      tuned.gpgpu.warp_width = tuned.core.cores;
      return run_gpgpu(tuned, workload, seed, trace, prepared, snapshot);
    case ArchKind::kVws:
      tuned.gpgpu.vws = true;
      tuned.gpgpu.row_oriented = false;
      return run_gpgpu(tuned, workload, seed, trace, prepared, snapshot);
    case ArchKind::kVwsRow:
      tuned.gpgpu.vws = true;
      tuned.gpgpu.row_oriented = true;
      return run_gpgpu(tuned, workload, seed, trace, prepared, snapshot);
    case ArchKind::kMulticore:
      return run_multicore(tuned, workload, seed, trace, prepared, snapshot);
  }
  MLP_CHECK(false, "unknown architecture");
  return {};
}

}  // namespace mlp::arch
