#pragma once
// Decoded-basic-block cache: the interpreter fast path. Built lazily over
// the program's CFG (one whole block decoded on first entry), shared
// read-only by every corelet/lane of one job, and dispatched via per-opcode
// handler pointers (step_decoded) instead of the per-edge fetch + classify.
// Accounting (decode.block_hits / block_misses / batched_lanes) is a pure
// function of the deterministic issue stream and runs in BOTH modes, so
// every counter stays bit-identical with the cache disabled — the
// `--no-block-cache` escape hatch turns off only the dispatch fast path.

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/functional.hpp"
#include "isa/cfg.hpp"
#include "sim/snapshot.hpp"

namespace mlp::core {

class DecodedBlockCache : public sim::Snapshottable {
 public:
  /// Builds the CFG eagerly; instruction decoding happens lazily per block.
  /// `dispatch_enabled` false keeps the accounting (and the counters it
  /// feeds) while the execution path stays on the legacy per-edge decode.
  explicit DecodedBlockCache(const isa::Program& program,
                             bool dispatch_enabled = true);

  /// Accounting + lookup for the instruction at `pc`. First touch of a
  /// block decodes it whole (block_misses); later issues into a decoded
  /// block are block_hits, and consecutive issues into the SAME block
  /// within one compute edge additionally count as batched_lanes (the
  /// convergence-batching measure: those issues share one decoded stream).
  const DecodedInstr& entry(u32 pc) {
    MLP_CHECK(pc < entries_.size(), "pc outside the program");
    const DecodedInstr& de = entries_[pc];
    if (de.fn == nullptr) {  // fn is set for every slot of a decoded block
      decode_block(cfg_.block_of(pc));
    } else {
      block_hits_.inc();
      if (de.block == edge_block_) batched_lanes_.inc();
    }
    edge_block_ = de.block;
    return de;
  }

  /// Resets the convergence memo; the kernel calls this once per compute
  /// clock edge (fast-forwarded edges issue nothing, so skipping them
  /// changes no counter).
  void begin_compute_edge() { edge_block_ = kNoBlock; }

  /// Extra converged lanes executing one decoded instruction (SIMT warps:
  /// active_lanes - 1 per issued warp instruction).
  void note_batched(u64 lanes) { batched_lanes_.inc(lanes); }

  bool dispatch_enabled() const { return dispatch_; }
  const isa::Cfg& cfg() const { return cfg_; }

  void register_with(StatSet* stats, const std::string& prefix);

  // sim::Snapshottable: the set of already-decoded blocks. Without this a
  // restored run would count fresh block_misses where the original counted
  // block_hits; restore re-decodes each saved block (the miss counts that
  // incurs are overwritten by the snapshot's counter section, applied last).
  // The convergence memo needs no saving: the kernel resets it at every
  // processed compute edge, before any post-restore issue.
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotCursor& r) override;

 private:
  static constexpr u32 kNoBlock = 0xffffffffu;

  void decode_block(u32 block);

  const isa::Program* program_;
  isa::Cfg cfg_;
  bool dispatch_;
  std::vector<DecodedInstr> entries_;  ///< indexed by pc
  u32 edge_block_ = kNoBlock;
  Counter block_hits_, block_misses_, batched_lanes_;
};

}  // namespace mlp::core
