// Byte-identity pin for everything the run knobs feed outside the simulator:
// two SweepGrid expansions (one sweeping no DRAM axis, one sweeping channels
// and refresh) are rendered point by point — trace file stem, sweep CSV row,
// stats-JSON run object (both from an error result, so nothing simulates)
// and the job-spec JSON as a sorted key -> value map — and compared against
// tests/golden/knob_points.golden. Together the two grids set every run
// knob to a non-default value at least once. Knobs the sweep flags cannot
// reach are set on the expanded jobs directly, as mlpsweep does for
// --no-fast-forward.
//
// The golden predates the knob table and pins its output byte for byte; it
// is never regenerated to absorb a change. To write it for new grid points
// only: UPDATE_KNOB_GOLDEN=1 ./knob_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "tools/sweep_grid.hpp"
#include "trace/json.hpp"

namespace mlp {
namespace {

std::string golden_path() {
  return std::string(MLP_GOLDEN_DIR) + "/knob_points.golden";
}

std::vector<sim::MatrixJob> expand_flags(std::vector<std::string> words) {
  words.insert(words.begin(), "knob_golden_test");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  tools::ArgCursor args(static_cast<int>(argv.size()), argv.data());
  tools::SweepGrid grid;
  while (args.next()) {
    if (!grid.consume(args)) {
      ADD_FAILURE() << "flag not consumed: " << args.flag();
      break;
    }
  }
  return grid.expand();
}

/// The job-spec JSON as "key=value" lines in key order, so the comparison
/// is independent of member order.
std::string sorted_members(const std::string& json) {
  const trace::JsonValue doc = trace::json_parse(json);
  std::map<std::string, std::string> members;
  for (const auto& [name, value] : doc.object) {
    std::string text;
    switch (value.type) {
      case trace::JsonValue::Type::kString:
        text = "\"" + trace::json_escape(value.string) + "\"";
        break;
      case trace::JsonValue::Type::kBool:
        text = value.boolean ? "true" : "false";
        break;
      case trace::JsonValue::Type::kNumber: {
        char buf[48];
        if (value.is_integer) {
          std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(
                            value.unsigned_integer));
        } else {
          std::snprintf(buf, sizeof(buf), "%.17g", value.number);
        }
        text = buf;
        break;
      }
      default:
        text = "?";
    }
    members[name] = text;
  }
  std::string out;
  for (const auto& [name, text] : members) {
    out += "job " + name + "=" + text + "\n";
  }
  return out;
}

std::string render_points() {
  // Grid A: no DRAM axis; two values on cores, bus_efficiency and fault_rate.
  std::vector<sim::MatrixJob> a = expand_flags(
      {"--arch", "millipede,ssmc", "--bench", "count", "--cores", "16,64",
       "--pf-entries", "8", "--bus-efficiency", "0.25,0.5", "--rows", "48",
       "--fault-rate", "0,1e-05", "--records", "4096", "--seed", "7",
       "--ecc", "--fault-seed", "9", "--watchdog-cycles", "123456789",
       "--watchdog-stall", "54321", "--trace", "--trace-dir", "golden_traces",
       "--trace-ring", "256", "--trace-interval", "64"});
  // Knobs without a sweep flag, spread over alternate points.
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i % 2 == 0) continue;
    MachineConfig& cfg = a[i].options.cfg;
    a[i].options.record_barrier = true;
    cfg.slab_layout = true;
    cfg.dram.fault.delay_rate = 0.125;
    cfg.dram.fault.drop_rate = 0.0625;
    cfg.watchdog.wall_ms = 90000;
    cfg.fast_forward = false;
    cfg.block_cache = false;
  }
  // Grid B: channels and refresh swept, the other DRAM knobs as scalars.
  const std::vector<sim::MatrixJob> b = expand_flags(
      {"--arch", "gpgpu", "--bench", "kmeans,pca", "--rows", "96",
       "--channels", "1,2", "--ranks", "2", "--mapping",
       "row:rank:bank:channel:col", "--page-policy", "open:idle=64:hits=4",
       "--refresh", "off,on:trefi=1000:trfc=100", "--trace-interval", "128"});

  a.insert(a.end(), b.begin(), b.end());

  std::string out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sim::MatrixResult failed;
    failed.job = a[i];
    failed.error = "not simulated";
    out += "point " + std::to_string(i) + "\n";
    out += "trace " + sim::trace_basename(a[i]) + "\n";
    out += "csv " + sim::sweep_csv_row(failed);
    out += "stats " + sim::stats_json_run(failed) + "\n";
    out += sorted_members(serve::job_json(serve::JobSpec{a[i], 0}));
  }
  return out;
}

TEST(KnobGolden, GridPointsMatchTheGolden) {
  const std::string rendered = render_points();
  const char* env = std::getenv("UPDATE_KNOB_GOLDEN");
  if (env != nullptr && std::string(env) == "1") {
    std::ofstream(golden_path(), std::ios::binary) << rendered;
    GTEST_SKIP() << "wrote " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path();
  std::stringstream golden;
  golden << in.rdbuf();
  // Line-by-line first, for a readable failure.
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
}  // namespace mlp
