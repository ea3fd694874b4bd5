// Configuration-sweep tests mirroring the Fig. 6/7 experiments at small
// scale, plus the layout-mapping ablation path: every swept configuration
// must stay functionally correct (golden verification) and show the
// qualitative trend the paper reports.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/system.hpp"
#include "common/error.hpp"
#include "sim/runner.hpp"
#include "tools/sweep_grid.hpp"

namespace mlp::arch {
namespace {

workloads::Workload wl(const std::string& name, u64 records) {
  workloads::WorkloadParams params;
  params.num_records = records;
  return workloads::make_bmla(name, params);
}

TEST(Sweep, SixtyFourCoreSystemsVerify) {
  // Fig. 6 configuration: doubled cores and bandwidth.
  MachineConfig cfg = MachineConfig::paper_defaults();
  cfg.core.cores = 64;
  cfg.gpgpu.warp_width = 64;
  cfg.dram.channel_bits = 256;
  for (const ArchKind kind :
       {ArchKind::kMillipede, ArchKind::kSsmc, ArchKind::kGpgpu}) {
    const RunResult r = run_arch(kind, cfg, wl("variance", 16384));
    EXPECT_EQ(r.verification, "") << arch_name(kind);
  }
}

TEST(Sweep, DoubledSystemIsFasterOnParallelWork) {
  MachineConfig big = MachineConfig::paper_defaults();
  big.core.cores = 64;
  big.gpgpu.warp_width = 64;
  big.dram.channel_bits = 256;
  const RunResult small_run =
      run_arch(ArchKind::kMillipede, MachineConfig::paper_defaults(),
               wl("kmeans", 16384));
  const RunResult big_run = run_arch(ArchKind::kMillipede, big,
                                     wl("kmeans", 16384));
  EXPECT_LT(big_run.runtime_ps, small_run.runtime_ps);
}

TEST(Sweep, PrefetchBufferCountsVerifyAndHelp) {
  // Fig. 7 at small scale: more entries never hurt, and help multi-field
  // kernels whose records span many rows.
  Picos prev = ~Picos{0};
  for (u32 entries : {12u, 16u, 32u}) {
    MachineConfig cfg = MachineConfig::paper_defaults();
    cfg.millipede.pf_entries = entries;
    const RunResult r =
        run_arch(ArchKind::kMillipedeNoRateMatch, cfg, wl("nbayes", 16384));
    EXPECT_EQ(r.verification, "");
    EXPECT_LE(r.runtime_ps, prev + prev / 50) << entries << " entries";
    prev = r.runtime_ps;
  }
}

TEST(Sweep, WindowSmallerThanRecordFootprintFailsFast) {
  MachineConfig cfg = MachineConfig::paper_defaults();
  cfg.millipede.pf_entries = 8;  // < pca's 16 fields
  try {
    run_arch(ArchKind::kMillipede, cfg, wl("pca", 2048));
    FAIL() << "undersized window must be rejected";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "config");
    EXPECT_NE(std::string(e.what()).find("row footprint"), std::string::npos);
  }
}

TEST(Sweep, MatrixIsolatesFailingPoint) {
  // One undersized-window point in a matrix must land in its own
  // MatrixResult::error; the surrounding jobs still run and verify.
  sim::SuiteOptions good;
  good.records = 2048;
  sim::SuiteOptions bad = good;
  bad.cfg.millipede.pf_entries = 8;  // < pca's 16 fields
  const std::vector<sim::MatrixJob> jobs = {
      {ArchKind::kMillipede, "count", good, ""},
      {ArchKind::kMillipede, "pca", bad, ""},
      {ArchKind::kMillipede, "variance", good, ""},
  };
  const std::vector<sim::MatrixResult> results = sim::run_matrix(jobs, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("row footprint"), std::string::npos)
      << results[1].error;
  EXPECT_TRUE(results[2].ok()) << results[2].error;
}

TEST(Sweep, SlabMappingAblationDestroysCoalescing) {
  MachineConfig word = MachineConfig::paper_defaults();
  MachineConfig slab = MachineConfig::paper_defaults();
  slab.gpgpu.slab_mapping_ablation = true;
  const RunResult w = run_arch(ArchKind::kGpgpu, word, wl("count", 16384));
  const RunResult s = run_arch(ArchKind::kGpgpu, slab, wl("count", 16384));
  EXPECT_EQ(s.verification, "");
  const double w_lines = static_cast<double>(w.stats.at("sm.global_lines")) /
                         static_cast<double>(w.stats.at("sm.global_load_warps"));
  const double s_lines = static_cast<double>(s.stats.at("sm.global_lines")) /
                         static_cast<double>(s.stats.at("sm.global_load_warps"));
  EXPECT_GT(s_lines, 4.0 * w_lines)
      << "slab columns must touch many lines per warp load";
}

TEST(Sweep, NarrowChannelSlowsMemoryBoundKernels) {
  MachineConfig narrow = MachineConfig::paper_defaults();
  narrow.dram.channel_bits = 64;  // half bandwidth
  const RunResult full = run_arch(ArchKind::kMillipedeNoRateMatch,
                                  MachineConfig::paper_defaults(),
                                  wl("count", 65536));
  const RunResult half =
      run_arch(ArchKind::kMillipedeNoRateMatch, narrow, wl("count", 65536));
  EXPECT_GT(half.runtime_ps,
            full.runtime_ps + full.runtime_ps / 2)
      << "count is bandwidth-bound: halving bandwidth must hurt hard";
}

TEST(Sweep, BusEfficiencyOneRestoresPeakBandwidth) {
  MachineConfig ideal = MachineConfig::paper_defaults();
  ideal.dram.bus_efficiency = 1.0;
  const RunResult derated = run_arch(ArchKind::kMillipedeNoRateMatch,
                                     MachineConfig::paper_defaults(),
                                     wl("count", 65536));
  const RunResult full =
      run_arch(ArchKind::kMillipedeNoRateMatch, ideal, wl("count", 65536));
  EXPECT_LT(full.runtime_ps, derated.runtime_ps);
}

// --- SweepGrid DRAM axes ---

// Feeds a synthetic argv through SweepGrid::consume the way the sweep
// drivers do, returning the populated grid.
tools::SweepGrid consume_flags(std::vector<std::string> words) {
  words.insert(words.begin(), "sweep_test");
  std::vector<char*> argv;
  argv.reserve(words.size());
  for (std::string& w : words) argv.push_back(w.data());
  tools::ArgCursor args(static_cast<int>(argv.size()), argv.data());
  tools::SweepGrid grid;
  while (args.next()) {
    if (!grid.consume(args)) {
      ADD_FAILURE() << "flag not consumed: " << args.flag();
      break;
    }
  }
  return grid;
}

TEST(SweepGrid, DramFlagsPopulateAxes) {
  const tools::SweepGrid grid = consume_flags(
      {"--channels", "1,2", "--ranks", "2", "--mapping",
       "row:bank:col,row:rank:bank:channel:col", "--page-policy",
       "open,closed,open:idle=64:hits=4", "--refresh", "off,on:trefi=1000:trfc=100"});
  using Values = std::vector<sim::KnobValue>;
  const auto values = [&grid](const char* key) {
    return grid.values(*sim::find_knob(key));
  };
  EXPECT_EQ(values("channels"), (Values{u64{1}, u64{2}}));
  EXPECT_EQ(values("ranks"), (Values{u64{2}}));
  const Values mappings = values("mapping");
  ASSERT_EQ(mappings.size(), 2u);
  EXPECT_EQ(std::get<std::string>(mappings[1]), "row:rank:bank:channel:col");
  EXPECT_EQ(values("page_policy").size(), 3u);
  const Values refreshes = values("refresh");
  ASSERT_EQ(refreshes.size(), 2u);
  EXPECT_EQ(std::get<std::string>(refreshes[1]), "on:trefi=1000:trfc=100");
  // An axis never given a list is its default value alone.
  EXPECT_EQ(values("cores"), (Values{u64{32}}));
}

TEST(SweepGrid, DramAxesExpandInDocumentedOrder) {
  tools::SweepGrid grid = consume_flags(
      {"--arch", "millipede", "--bench", "count", "--channels", "1,2",
       "--refresh", "off,on"});
  const std::vector<sim::MatrixJob> matrix = grid.expand();
  // channels is the slower axis, refresh the fastest.
  ASSERT_EQ(matrix.size(), 4u);
  EXPECT_EQ(matrix[0].options.cfg.dram.channels, 1u);
  EXPECT_EQ(matrix[0].options.cfg.dram.refresh, "off");
  EXPECT_EQ(matrix[1].options.cfg.dram.channels, 1u);
  EXPECT_EQ(matrix[1].options.cfg.dram.refresh, "on");
  EXPECT_EQ(matrix[2].options.cfg.dram.channels, 2u);
  EXPECT_EQ(matrix[2].options.cfg.dram.refresh, "off");
  EXPECT_EQ(matrix[3].options.cfg.dram.channels, 2u);
  EXPECT_EQ(matrix[3].options.cfg.dram.refresh, "on");
  for (const sim::MatrixJob& job : matrix) {
    EXPECT_EQ(job.options.cfg.dram.mapping, "row:bank:col");
    EXPECT_EQ(job.options.cfg.dram.page_policy, "open");
  }
}

TEST(SweepGrid, MalformedMappingExitsTwoAtParseTime) {
  EXPECT_EXIT(consume_flags({"--mapping", "bank:row:col"}),
              testing::ExitedWithCode(2), "--mapping");
  EXPECT_EXIT(consume_flags({"--mapping", "row:bank"}),
              testing::ExitedWithCode(2), "--mapping");
  EXPECT_EXIT(consume_flags({"--mapping", "row:tower:col"}),
              testing::ExitedWithCode(2), "--mapping");
}

TEST(SweepGrid, MalformedPagePolicyExitsTwoAtParseTime) {
  EXPECT_EXIT(consume_flags({"--page-policy", "ajar"}),
              testing::ExitedWithCode(2), "--page-policy");
  EXPECT_EXIT(consume_flags({"--page-policy", "open:idle=x"}),
              testing::ExitedWithCode(2), "--page-policy");
  EXPECT_EXIT(consume_flags({"--page-policy", "closed:idle=4"}),
              testing::ExitedWithCode(2), "--page-policy");
}

TEST(SweepGrid, MalformedRefreshExitsTwoAtParseTime) {
  EXPECT_EXIT(consume_flags({"--refresh", "sometimes"}),
              testing::ExitedWithCode(2), "--refresh");
  EXPECT_EXIT(consume_flags({"--refresh", "on:trefi=0"}),
              testing::ExitedWithCode(2), "--refresh");
  EXPECT_EXIT(consume_flags({"--refresh", "off:trefi=100"}),
              testing::ExitedWithCode(2), "--refresh");
}

}  // namespace
}  // namespace mlp::arch
