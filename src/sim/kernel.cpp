#include "sim/kernel.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/decode_cache.hpp"
#include "mem/channels.hpp"

namespace mlp::sim {
namespace {

/// First edge of `clock`'s grid at or after `at` (the grid is anchored at
/// next_edge_ps and spaced by the current period; the period only changes
/// inside processed edges, never across a skipped gap).
Picos first_edge_at_or_after(const ClockDomain& clock, Picos at) {
  if (at == kNoEvent) return kNoEvent;
  const Picos edge = clock.next_edge_ps();
  if (at <= edge) return edge;
  const Picos period = clock.period_ps();
  return edge + (at - edge + period - 1) / period * period;
}

/// Number of `clock` edges strictly before `target`.
u64 edges_before(const ClockDomain& clock, Picos target) {
  const Picos edge = clock.next_edge_ps();
  if (target == kNoEvent || target <= edge) return 0;
  const Picos period = clock.period_ps();
  return static_cast<u64>((target - edge + period - 1) / period);
}

}  // namespace

SimulationKernel::SimulationKernel(const MachineConfig& cfg,
                                   std::string arch,
                                   trace::TraceSession* trace)
    : compute_(cfg.core.period_ps()),
      channel_(cfg.dram.period_ps()),
      watchdog_cfg_(cfg.watchdog),
      arch_(std::move(arch)),
      channels_(cfg.dram.channels),
      ranks_(cfg.dram.ranks),
      banks_(cfg.dram.banks),
      fast_forward_(cfg.fast_forward),
      trace_(trace) {}

void SimulationKernel::wire_trace(
    const std::string& workload, const StatSet* stats,
    const std::function<void(trace::TraceSession*)>& name_tracks,
    const std::function<void(trace::TraceSession*)>& arch_hook) {
  if (trace_ == nullptr) return;
  MLP_CHECK(dram_ != nullptr, "wire_trace needs the DRAM controller");
  trace_->begin_run(arch_ + "/" + workload, stats);
  if (name_tracks) name_tracks(trace_);
  // Bank tracks span the channel x rank x bank hierarchy; the default 1x1
  // hierarchy keeps the historical flat "dram.bank<b>" names.
  const bool flat = channels_ == 1 && ranks_ == 1;
  for (u32 c = 0; c < channels_; ++c) {
    for (u32 r = 0; r < ranks_; ++r) {
      for (u32 b = 0; b < banks_; ++b) {
        const u32 track =
            trace::kDramTrackBase + (c * ranks_ + r) * banks_ + b;
        trace_->set_track_name(
            track, flat ? "dram.bank" + std::to_string(b)
                        : "dram.c" + std::to_string(c) + ".r" +
                              std::to_string(r) + ".b" + std::to_string(b));
      }
    }
  }
  if (arch_hook) arch_hook(trace_);
  trace_->set_track_name(trace::kWatchdogTrack, "watchdog");
  const mem::ChannelDemux* dram = dram_;
  trace_->add_gauge("dram.queue",
                    [dram] { return static_cast<u64>(dram->queue_size()); });
  if (dram->refresh_enabled()) {
    trace_->add_gauge("dram.refresh", [dram] { return dram->refresh_debt(); });
  }
  trace_->add_gauge("clock.period_ps",
                    [this] { return compute_.period_ps(); });
}

u64 SimulationKernel::progress() const {
  return *instructions_ + dram_->bytes_transferred();
}

bool SimulationKernel::all_quiescent() const {
  for (const auto& [id, state] : states_) {
    if (!state->quiescent()) return false;
  }
  return true;
}

void SimulationKernel::capture(const Watchdog& watchdog) {
  SnapshotWriter w;

  SnapshotMeta meta;
  meta.arch_label = arch_;
  meta.warp_width = warp_width_;
  meta.image_bytes = image_bytes_;
  meta.fault_sequence = dram_->fault_sequence();
  meta.cycle = compute_.ticks();
  meta.now_ps = now_;
  w.begin_section(kSecMeta);
  meta.save(w);
  w.end_section();

  w.begin_section(kSecKernel);
  w.put_u64(compute_.period_ps());
  w.put_u64(compute_.next_edge_ps());
  w.put_u64(compute_.ticks());
  w.put_u64(channel_.period_ps());
  w.put_u64(channel_.next_edge_ps());
  w.put_u64(channel_.ticks());
  w.put_u64(now_);
  w.put_u64(flat_edges_);
  w.put_bool(scan_enabled_);
  w.put_u64(watchdog.iterations());
  w.put_u64(watchdog.stalled());
  w.put_u64(watchdog.last_progress());
  w.end_section();

  if (trace_ != nullptr) {
    const trace::TraceSession::SamplerState sampler = trace_->sampler_state();
    w.begin_section(kSecTraceSampler);
    w.put_u64(sampler.next_sample_cycle);
    w.put_u64(sampler.last_cycle);
    w.put_u64(sampler.last_counters.size());
    for (const u64 value : sampler.last_counters) w.put_u64(value);
    w.end_section();
  }

  for (const auto& [id, state] : states_) {
    w.begin_section(id);
    state->save_state(w);
    w.end_section();
  }

  // Counters LAST: restore then overwrites any restore-time side effects.
  if (stats_snapshot_ != nullptr) {
    w.begin_section(kSecStats);
    const auto snap = stats_snapshot_->snapshot();
    w.put_u64(snap.size());
    for (const auto& [name, value] : snap) {
      w.put_string(name);
      w.put_u64(value);
    }
    w.end_section();
  }

  plan_->captured = w.blob();
  plan_->captured_cycle = meta.cycle;
  plan_->captured_ok = true;
}

void SimulationKernel::restore(const std::string& blob, Watchdog* watchdog) {
  SnapshotReader reader(blob);
  bool saw_meta = false;
  bool saw_kernel = false;
  bool saw_sampler = false;
  bool saw_stats = false;
  SnapshotSection section;
  while (reader.next(&section)) {
    SnapshotCursor& r = section.cursor;
    switch (section.id) {
      case kSecMeta: {
        MLP_SIM_CHECK(!saw_meta, "snapshot", "duplicate meta section");
        SnapshotMeta meta;
        meta.restore(r);
        MLP_SIM_CHECK(meta.arch_label == arch_, "snapshot",
                      "snapshot architecture '" + meta.arch_label +
                          "' does not match this machine '" + arch_ + "'");
        MLP_SIM_CHECK(meta.warp_width == warp_width_, "snapshot",
                      "snapshot warp width does not match this machine");
        MLP_SIM_CHECK(meta.image_bytes == image_bytes_, "snapshot",
                      "snapshot image size does not match this machine");
        saw_meta = true;
        break;
      }
      case kSecKernel: {
        MLP_SIM_CHECK(saw_meta, "snapshot", "kernel section before meta");
        // Named locals: argument evaluation order is unspecified.
        const Picos c_period = r.get_u64();
        const Picos c_edge = r.get_u64();
        const u64 c_ticks = r.get_u64();
        compute_.restore(c_period, c_edge, c_ticks);
        const Picos ch_period = r.get_u64();
        const Picos ch_edge = r.get_u64();
        const u64 ch_ticks = r.get_u64();
        channel_.restore(ch_period, ch_edge, ch_ticks);
        now_ = r.get_u64();
        flat_edges_ = r.get_u64();
        scan_enabled_ = r.get_bool();
        const u64 wd_iterations = r.get_u64();
        const u64 wd_stalled = r.get_u64();
        const u64 wd_last_progress = r.get_u64();
        watchdog->restore(wd_iterations, wd_stalled, wd_last_progress);
        saw_kernel = true;
        break;
      }
      case kSecTraceSampler: {
        MLP_SIM_CHECK(trace_ != nullptr, "snapshot",
                      "snapshot was traced but this run has no trace session");
        trace::TraceSession::SamplerState sampler;
        sampler.next_sample_cycle = r.get_u64();
        sampler.last_cycle = r.get_u64();
        const u64 columns = r.get_u64();
        sampler.last_counters.reserve(columns);
        for (u64 i = 0; i < columns; ++i) {
          sampler.last_counters.push_back(r.get_u64());
        }
        trace_->restore_sampler(sampler);
        saw_sampler = true;
        break;
      }
      case kSecStats: {
        MLP_SIM_CHECK(stats_snapshot_ != nullptr, "snapshot",
                      "snapshot has counters but no StatSet is attached");
        const u64 count = r.get_u64();
        for (u64 i = 0; i < count; ++i) {
          const std::string name = r.get_string();
          const u64 value = r.get_u64();
          stats_snapshot_->set(name, value);
        }
        saw_stats = true;
        break;
      }
      default: {
        Snapshottable* target = nullptr;
        for (const auto& [id, state] : states_) {
          if (id == section.id) {
            target = state;
            break;
          }
        }
        MLP_SIM_CHECK(target != nullptr, "snapshot",
                      "unknown snapshot section id " +
                          std::to_string(section.id));
        target->restore_state(r);
        break;
      }
    }
    MLP_SIM_CHECK(r.done(), "snapshot",
                  "trailing bytes in snapshot section " +
                      std::to_string(section.id));
  }
  MLP_SIM_CHECK(saw_meta && saw_kernel, "snapshot",
                "snapshot is missing its meta/kernel sections");
  MLP_SIM_CHECK((trace_ != nullptr) == saw_sampler, "snapshot",
                "trace attachment does not match the snapshot");
  MLP_SIM_CHECK((stats_snapshot_ != nullptr) == saw_stats, "snapshot",
                "counter section presence does not match the snapshot");
}

Picos SimulationKernel::run(const std::function<bool()>& done) {
  MLP_CHECK(dram_ != nullptr && instructions_ != nullptr,
            "kernel needs a progress signature");
  Watchdog watchdog(
      watchdog_cfg_, arch_,
      [this] {
        return arch_ + " state:\n" + (dump_ ? dump_() : std::string()) +
               dram_->debug_dump();
      },
      trace_);
  if (plan_ != nullptr && plan_->restore_from != nullptr) {
    restore(*plan_->restore_from, &watchdog);
  }
  const bool want_capture = plan_ != nullptr && plan_->capture;
  while (!done()) {
    if (want_capture && !plan_->captured_ok &&
        compute_.ticks() >= plan_->checkpoint_at && all_quiescent()) {
      capture(watchdog);
    }
    const u64 signature = progress();
    watchdog.step(signature, now_);
    if (compute_.next_edge_ps() <= channel_.next_edge_ps()) {
      now_ = compute_.next_edge_ps();
      const Picos period = compute_.period_ps();
      if (dcache_ != nullptr) dcache_->begin_compute_edge();
      for (Tickable* unit : compute_units_) unit->tick(now_, period);
      if (trace_ != nullptr) trace_->tick_compute(compute_.ticks(), now_);
      compute_.advance();
    } else {
      now_ = channel_.next_edge_ps();
      const Picos period = channel_.period_ps();
      for (Tickable* unit : channel_units_) unit->tick(now_, period);
      channel_.advance();
    }
    if (!fast_forward_) continue;
    if (progress() != signature) {
      scan_enabled_ = true;  // progress may have broken a deadlock
      flat_edges_ = 0;
      continue;
    }
    // Hysteresis: a gap worth skipping is many edges long, so only pay for
    // an event scan once the signature has been flat for a few edges. Busy
    // phases (progress nearly every edge) then never scan at all.
    if (++flat_edges_ < kScanHysteresis) continue;
    if (scan_enabled_ && !try_fast_forward(&watchdog, signature)) {
      scan_enabled_ = false;
    }
  }
  if (trace_ != nullptr) trace_->finish_run(compute_.ticks(), now_);
  return now_;
}

bool SimulationKernel::try_fast_forward(Watchdog* watchdog, u64 signature) {
  // Earliest time any compute component could act...
  Picos compute_at = kNoEvent;
  const Picos compute_edge = compute_.next_edge_ps();
  for (const Tickable* unit : compute_units_) {
    compute_at = std::min(compute_at, unit->next_event(compute_edge));
  }
  // ... capped at the interval sampler's next sample edge, which must be
  // processed for real so the timeline keeps every row.
  if (trace_ != nullptr) {
    const u64 sample_cycle = trace_->next_sample_cycle();
    if (sample_cycle != ~u64{0}) {
      const u64 ticks = compute_.ticks();
      const Picos sample_at =
          sample_cycle <= ticks
              ? compute_edge
              : compute_edge + static_cast<Picos>(sample_cycle - ticks) *
                                   compute_.period_ps();
      compute_at = std::min(compute_at, sample_at);
    }
  }
  Picos channel_at = kNoEvent;
  const Picos channel_edge = channel_.next_edge_ps();
  for (const Tickable* unit : channel_units_) {
    channel_at = std::min(channel_at, unit->next_event(channel_edge));
  }

  // The first edge that must be processed for real. Every edge strictly
  // before it lies strictly before its own domain's earliest event, so its
  // tick would have been a no-op (the Tickable contract) — skip them all.
  const Picos target = std::min(first_edge_at_or_after(compute_, compute_at),
                                first_edge_at_or_after(channel_, channel_at));
  if (target == kNoEvent) return false;  // deadlock: poll to the trip

  const u64 skip_compute = edges_before(compute_, target);
  const u64 skip_channel = edges_before(channel_, target);
  const u64 total = skip_compute + skip_channel;
  // A zero-yield scan (an event sits on the very next edge — e.g. a corelet
  // retry-polling a full MSHR) would repeat every edge of the stall; stand
  // down until progress re-arms the scan. Which edges get skipped is pure
  // policy: results are identical either way, only wall-clock changes.
  if (total == 0) return false;
  // Never skip across a watchdog limit: the trip must fire from a real
  // step() at its exact iteration count (and trace timestamp).
  if (total >= watchdog->steps_until_trip(signature)) return true;

  // `now` at the resumed edge's step() is the last skipped edge's time,
  // exactly as if it had been polled.
  Picos last = now_;
  if (skip_compute > 0) {
    last = std::max(last, compute_edge + (skip_compute - 1) *
                                             compute_.period_ps());
  }
  if (skip_channel > 0) {
    last = std::max(last, channel_edge + (skip_channel - 1) *
                                             channel_.period_ps());
  }
  now_ = last;

  for (Tickable* unit : compute_units_) unit->skip_idle(skip_compute);
  compute_.advance_by(skip_compute);
  channel_.advance_by(skip_channel);
  watchdog->skip(total, signature);
  return true;
}

}  // namespace mlp::sim
