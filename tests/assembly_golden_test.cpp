// Byte-identity pin for machine assembly: every architecture (all eight
// ArchKinds, including the two Millipede ablations and both VWS variants)
// runs nbayes and kmeans at rows=24, seed=1, and the test records, per point,
//
//  * the stats-JSON run object (every counter and derived metric);
//  * the size and stable_hash64 digest of each trace artifact: the Chrome
//    JSON (--trace), the interval CSV at --trace-interval 100 and the binary
//    ring at --trace-ring 256, each from its own traced run;
//  * the captured cycle, size and digest of a snapshot blob requested with
//    checkpoint_at = 200.
//
// The trace layout (track and gauge registration order) and the snapshot
// section order are all visible here, so any drift in how a machine is
// assembled fails this test. The golden is never regenerated to absorb a
// change. To write it for new points only:
//
//   UPDATE_ASSEMBLY_GOLDEN=1 ./assembly_golden_test
//
// (a bulk UPDATE_GOLDEN leaves it alone).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/prepare.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace mlp::sim {
namespace {

constexpr u64 kRows = 24;
constexpr u64 kSeed = 1;
constexpr u64 kCheckpointAt = 200;

std::string golden_path() {
  return std::string(MLP_GOLDEN_DIR) + "/assembly_points.golden";
}

std::string digest_line(const std::string& label, const std::string& bytes) {
  char line[96];
  std::snprintf(line, sizeof(line), "%s bytes=%zu digest=%016llx\n",
                label.c_str(), bytes.size(),
                static_cast<unsigned long long>(stable_hash64(bytes)));
  return line;
}

/// One traced run of `job` under `tcfg`; returns the session's artifact of
/// the requested kind (the bytes run_job would write to disk).
std::string traced_artifact(const MatrixJob& job, const PreparedJob& prepared,
                            const trace::TraceConfig& tcfg) {
  trace::TraceSession session(tcfg);
  const arch::RunResult r =
      arch::run_arch(job.kind, job.options.cfg, prepared.workload,
                     job.options.seed, &session, &prepared.input);
  EXPECT_EQ(r.verification, "") << trace_basename(job);
  if (tcfg.chrome_json) return session.chrome_trace_json();
  if (tcfg.interval_cycles > 0) return session.interval_csv();
  return session.binary_blob();
}

std::string render_point(arch::ArchKind kind, const std::string& bench,
                         PrepareCache* cache) {
  MatrixJob job;
  job.kind = kind;
  job.bench = bench;
  job.options.rows = kRows;
  job.options.seed = kSeed;
  std::string out = "point " + trace_basename(job) + "\n";

  const MatrixResult plain = run_job(job, cache);
  EXPECT_TRUE(plain.ok()) << trace_basename(job) << ": " << plain.error;
  out += "stats " + stats_json_run(plain) + "\n";

  const PreparedJobPtr prepared = cache->get(job, nullptr);
  trace::TraceConfig chrome;
  chrome.chrome_json = true;
  out += digest_line("trace.json",
                     traced_artifact(job, *prepared, chrome));
  trace::TraceConfig interval;
  interval.interval_cycles = 100;
  out += digest_line("timeline.csv",
                     traced_artifact(job, *prepared, interval));
  trace::TraceConfig ring;
  ring.ring_entries = 256;
  out += digest_line("ring.bin", traced_artifact(job, *prepared, ring));

  SnapshotPlan plan;
  plan.capture = true;
  plan.checkpoint_at = kCheckpointAt;
  const MatrixResult captured = run_job(job, cache, nullptr, &plan);
  EXPECT_TRUE(captured.ok()) << trace_basename(job) << ": " << captured.error;
  EXPECT_TRUE(plan.captured_ok) << trace_basename(job);
  out += "snapshot cycle=" + std::to_string(plan.captured_cycle) + " " +
         digest_line("blob", plan.captured);
  return out;
}

std::string render_points() {
  PrepareCache cache;
  std::string out;
  for (const arch::ArchKind kind : arch::all_arch_kinds()) {
    for (const char* bench : {"nbayes", "kmeans"}) {
      out += render_point(kind, bench, &cache);
    }
  }
  return out;
}

TEST(AssemblyGolden, EveryArchMatchesTheGolden) {
  const std::string rendered = render_points();
  const char* env = std::getenv("UPDATE_ASSEMBLY_GOLDEN");
  if (env != nullptr && std::string(env) == "1") {
    std::ofstream(golden_path(), std::ios::binary) << rendered;
    GTEST_SKIP() << "wrote " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path();
  std::stringstream golden;
  golden << in.rdbuf();
  // Line by line first, for a readable failure.
  std::istringstream want(golden.str()), got(rendered);
  std::string want_line, got_line;
  int line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(static_cast<bool>(std::getline(got, got_line)))
        << "rendering ends early at golden line " << line;
    ASSERT_EQ(got_line, want_line) << "golden line " << line;
  }
  EXPECT_EQ(rendered, golden.str());
}

}  // namespace
}  // namespace mlp::sim
