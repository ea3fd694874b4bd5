// Simulation-kernel invariants: bulk clock advancement, watchdog skip
// accounting, and — the load-bearing property — that idle-cycle
// fast-forward is invisible: every counter, metric, trace event and trace
// file byte must be identical to polling every edge
// (MachineConfig::fast_forward = false, --no-fast-forward).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "arch/system.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/watchdog.hpp"
#include "mem/channels.hpp"
#include "sim/kernel.hpp"
#include "sim/runner.hpp"
#include "trace/trace.hpp"

namespace mlp {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- clock ----

TEST(ClockDomain, AdvanceByMatchesRepeatedAdvance) {
  ClockDomain a(277);
  ClockDomain b(277);
  for (int i = 0; i < 5; ++i) a.advance();
  b.advance_by(5);
  EXPECT_EQ(a.ticks(), b.ticks());
  EXPECT_EQ(a.next_edge_ps(), b.next_edge_ps());

  // A retune applies from the next edge in both paths.
  a.set_period_ps(500);
  b.set_period_ps(500);
  for (int i = 0; i < 3; ++i) a.advance();
  b.advance_by(3);
  EXPECT_EQ(a.ticks(), b.ticks());
  EXPECT_EQ(a.next_edge_ps(), b.next_edge_ps());

  b.advance_by(0);
  EXPECT_EQ(a.ticks(), b.ticks());
}

// ------------------------------------------------------------- watchdog ----

u64 iterations_at_trip(Watchdog* dog, u64 signature) {
  for (;;) {
    try {
      dog->step(signature);
    } catch (const SimError&) {
      return dog->iterations();
    }
  }
}

TEST(WatchdogSkip, MatchesConsecutiveSteps) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 100;
  cfg.max_cycles = 0;
  Watchdog stepped(cfg, "test", {});
  Watchdog skipped(cfg, "test", {});

  for (int i = 0; i < 50; ++i) stepped.step(7);
  skipped.skip(50, 7);
  EXPECT_EQ(stepped.iterations(), skipped.iterations());
  EXPECT_EQ(stepped.steps_until_trip(7), skipped.steps_until_trip(7));

  // Fed the same flat signature onward, both trip at the same iteration.
  EXPECT_EQ(iterations_at_trip(&stepped, 7), iterations_at_trip(&skipped, 7));
}

TEST(WatchdogSkip, StallBoundaryTripsOnTheNextRealStep) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 100;
  cfg.max_cycles = 0;
  Watchdog dog(cfg, "test", {});
  const u64 until = dog.steps_until_trip(7);
  // The kernel only ever skips strictly fewer than steps_until_trip edges;
  // after that the very next real step must trip.
  dog.skip(until - 1, 7);
  EXPECT_THROW(dog.step(7), SimError);
}

TEST(WatchdogSkip, CeilingBoundaryTripsOnTheNextRealStep) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 0;
  cfg.max_cycles = 70;
  Watchdog dog(cfg, "test", {});
  dog.skip(dog.steps_until_trip(1) - 1, 1);
  EXPECT_THROW(dog.step(2), SimError);  // ceiling ignores progress
}

TEST(WatchdogSkip, DisabledLimitsNeverTrip) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 0;
  cfg.max_cycles = 0;
  Watchdog dog(cfg, "test", {});
  EXPECT_EQ(dog.steps_until_trip(1), ~u64{0});
  dog.skip(1u << 20, 1);
  dog.step(1);
  EXPECT_EQ(dog.iterations(), (1u << 20) + 1);
}

TEST(WatchdogWall, BudgetTripsWithTheJobTimeoutKind) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 0;
  cfg.max_cycles = 0;
  cfg.wall_ms = 1;
  Watchdog dog(cfg, "test", {});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The amortized check samples the clock only every ~8192 iterations, so
  // the trip needs more than one stride of real steps past the deadline —
  // the progress signature keeps advancing (no stall, no ceiling).
  try {
    for (u64 i = 0; i < 100'000; ++i) dog.step(i);
    FAIL() << "wall-clock budget never tripped";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "job-timeout");
    EXPECT_NE(std::string(e.what()).find("wall-clock budget"),
              std::string::npos);
  }
}

TEST(WatchdogWall, SkippedIterationsStillReachTheCheck) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 0;
  cfg.max_cycles = 0;
  cfg.wall_ms = 1;
  Watchdog dog(cfg, "test", {});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // A fast-forwarded run bulk-advances past the check stride; the very next
  // real step must still sample the clock and trip.
  dog.skip(1u << 20, 1);
  EXPECT_THROW(dog.step(2), SimError);
}

TEST(WatchdogWall, DisabledBudgetNeverSamplesTheClock) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 0;
  cfg.max_cycles = 0;
  cfg.wall_ms = 0;
  Watchdog dog(cfg, "test", {});
  for (u64 i = 0; i < 20'000; ++i) dog.step(i);
  EXPECT_EQ(dog.iterations(), 20'000u);
}

// ----------------------------------------------------- kernel fake unit ----

/// Sleeps until `wake_at`, then retires one unit of work per tick. Its tick
/// is a provable no-op before wake_at, so a fast-forwarding kernel may skip
/// straight to it.
struct SleepyUnit final : sim::Tickable {
  Picos wake_at = 0;
  u64 remaining = 0;
  u64 ticks = 0;
  u64 idle_skipped = 0;
  u64 work = 0;

  void tick(Picos now, Picos /*period_ps*/) override {
    ++ticks;
    if (now >= wake_at && remaining > 0) {
      --remaining;
      ++work;
    }
  }
  Picos next_event(Picos now) const override {
    return remaining > 0 ? std::max(wake_at, now) : sim::kNoEvent;
  }
  void skip_idle(u64 edges) override { idle_skipped += edges; }
};

TEST(KernelFastForward, SkipsProvablyIdleEdges) {
  auto drive = [](bool fast_forward, SleepyUnit* unit) {
    MachineConfig cfg = MachineConfig::paper_defaults();
    cfg.fast_forward = fast_forward;
    unit->wake_at = 3'000'000;  // ~10k compute edges of provable idleness
    unit->remaining = 3;
    sim::SimulationKernel kernel(cfg, "test", nullptr);
    kernel.add_compute(unit);
    // An idle controller adds nothing: progress is the unit's work.
    mem::ChannelDemux dram(cfg.dram, "dram", nullptr, nullptr);
    kernel.set_progress(&dram, &unit->work);
    return kernel.run([unit] { return unit->remaining == 0; });
  };

  SleepyUnit polled, skipped;
  const Picos poll_end = drive(false, &polled);
  const Picos ff_end = drive(true, &skipped);

  // Identical outcome...
  EXPECT_EQ(poll_end, ff_end);
  EXPECT_EQ(polled.work, skipped.work);
  EXPECT_EQ(polled.idle_skipped, 0u);
  EXPECT_EQ(polled.ticks, skipped.ticks + skipped.idle_skipped);
  // ... and the fast-forwarded run actually skipped the idle gap instead of
  // polling its ~10k edges one by one.
  EXPECT_GT(skipped.idle_skipped, polled.ticks / 2);
  EXPECT_LT(skipped.ticks, polled.ticks / 4);
}

// ------------------------------------------ whole-system equivalence ----

sim::MatrixJob matrix_job(arch::ArchKind kind, const std::string& bench,
                          bool fast_forward) {
  sim::MatrixJob job;
  job.kind = kind;
  job.bench = bench;
  job.options.rows = 24;
  job.options.cfg.fast_forward = fast_forward;
  return job;
}

TEST(KernelFastForward, CountersMatchPollingAcrossTheMatrix) {
  for (const arch::ArchKind kind : arch::all_arch_kinds()) {
    for (const std::string bench : {"count", "variance", "kmeans"}) {
      const sim::MatrixResult poll =
          sim::run_job(matrix_job(kind, bench, false));
      const sim::MatrixResult ff = sim::run_job(matrix_job(kind, bench, true));
      ASSERT_TRUE(poll.ok()) << poll.error;
      ASSERT_TRUE(ff.ok()) << ff.error;
      const std::string label =
          std::string(arch::arch_name(kind)) + "/" + bench;
      EXPECT_EQ(poll.result.compute_cycles, ff.result.compute_cycles)
          << label;
      EXPECT_EQ(poll.result.runtime_ps, ff.result.runtime_ps) << label;
      EXPECT_EQ(poll.result.thread_instructions,
                ff.result.thread_instructions)
          << label;
      EXPECT_EQ(poll.result.final_clock_mhz, ff.result.final_clock_mhz)
          << label;
      EXPECT_EQ(poll.result.stats, ff.result.stats) << label;
    }
  }
}

TEST(KernelFastForward, CountersMatchPollingWithRefreshAndHierarchy) {
  // Fast-forward must not skip over refresh cursors, row idle-close
  // deadlines, or striped sub-transfers: with every DRAM feature lit the
  // skip-idle run still lands counter-identical to 1-cycle polling. The
  // arch x bench subset keeps the runtime small; the features live in the
  // shared controller, not the arch frontends.
  for (const arch::ArchKind kind :
       {arch::ArchKind::kMillipede, arch::ArchKind::kGpgpu}) {
    for (const std::string bench : {"count", "kmeans"}) {
      auto dram_job = [&](bool fast_forward) {
        sim::MatrixJob job = matrix_job(kind, bench, fast_forward);
        job.options.cfg.dram.channels = 2;
        job.options.cfg.dram.ranks = 2;
        job.options.cfg.dram.mapping = "row:rank:bank:channel:col";
        job.options.cfg.dram.page_policy = "open:idle=64:hits=8";
        job.options.cfg.dram.refresh = "on:trefi=40:trfc=8:postpone=4";
        return job;
      };
      const sim::MatrixResult poll = sim::run_job(dram_job(false));
      const sim::MatrixResult ff = sim::run_job(dram_job(true));
      ASSERT_TRUE(poll.ok()) << poll.error;
      ASSERT_TRUE(ff.ok()) << ff.error;
      const std::string label =
          std::string(arch::arch_name(kind)) + "/" + bench;
      EXPECT_GT(poll.result.stats.at("dram.refreshes"), 0u) << label;
      EXPECT_EQ(poll.result.runtime_ps, ff.result.runtime_ps) << label;
      EXPECT_EQ(poll.result.stats, ff.result.stats) << label;
    }
  }
}

TEST(KernelFastForward, MillipedeFreqStepsMatchPolling) {
  workloads::WorkloadParams params;
  // 192 rows of 1-word records: enough voting rows for the DFS hill-climber
  // to retune several times (and partially climb back).
  params.num_records = 98304;
  const workloads::Workload workload = workloads::make_bmla("count", params);

  auto freq_steps = [&](bool fast_forward, double* final_mhz) {
    MachineConfig cfg = MachineConfig::paper_defaults();
    cfg.fast_forward = fast_forward;
    trace::TraceConfig tc;
    tc.chrome_json = true;  // capture events in memory; nothing is written
    trace::TraceSession session(tc);
    const arch::RunResult r =
        run_arch(arch::ArchKind::kMillipede, cfg, workload, 1, &session);
    *final_mhz = r.final_clock_mhz;
    std::vector<std::tuple<Picos, u64, u64>> steps;
    for (const trace::Event& e : session.events()) {
      if (e.kind == trace::EventKind::kFreqStep) {
        steps.emplace_back(e.ts, e.a, e.b);
      }
    }
    return steps;
  };

  double poll_mhz = 0, ff_mhz = 0;
  const auto poll_steps = freq_steps(false, &poll_mhz);
  const auto ff_steps = freq_steps(true, &ff_mhz);
  // The DFS rate matcher retunes mid-run on this workload: the sequence of
  // retune events — timestamps, periods, frequencies — must be identical
  // whether or not the kernel fast-forwarded the gaps between them.
  EXPECT_FALSE(poll_steps.empty());
  EXPECT_EQ(poll_steps, ff_steps);
  EXPECT_EQ(poll_mhz, ff_mhz);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(KernelFastForward, TraceFilesAreByteIdenticalToPolling) {
  const fs::path root = fs::path(::testing::TempDir()) / "mlp_kernel_ff";
  fs::remove_all(root);
  auto traced = [&](bool fast_forward) {
    sim::MatrixJob job =
        matrix_job(arch::ArchKind::kMillipede, "variance", fast_forward);
    job.options.trace.chrome_json = true;
    job.options.trace.interval_cycles = 256;
    job.options.trace.dir =
        (root / (fast_forward ? "ff" : "poll")).string();
    const sim::MatrixResult r = sim::run_job(job);
    EXPECT_TRUE(r.ok()) << r.error;
    std::vector<std::string> files = r.trace_files;
    std::sort(files.begin(), files.end());
    return files;
  };

  const std::vector<std::string> poll_files = traced(false);
  const std::vector<std::string> ff_files = traced(true);
  ASSERT_EQ(poll_files.size(), ff_files.size());
  ASSERT_FALSE(poll_files.empty());
  for (std::size_t i = 0; i < poll_files.size(); ++i) {
    EXPECT_EQ(fs::path(poll_files[i]).filename(),
              fs::path(ff_files[i]).filename());
    EXPECT_EQ(read_file(poll_files[i]), read_file(ff_files[i]))
        << poll_files[i];
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace mlp
