// Run-knob table tests: every knob parses to the same job whichever way it
// arrives — a single-run flag (mlpsim, `mlpclient submit/run`), a sweep-grid
// flag (mlpsweep, `mlpclient sweep`) or a job-spec JSON member (mlpserved)
// — and a malformed value exits 2 on the command line and is a typed
// bad-request over JSON, for every row of the table.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "knob_samples.hpp"
#include "serve/protocol.hpp"
#include "sim/fork.hpp"
#include "sim/knobs.hpp"
#include "tools/sweep_grid.hpp"
#include "trace/json.hpp"

namespace mlp {
namespace {

using testing_knobs::json_literal;
using testing_knobs::knob_sample;
using testing_knobs::KnobSample;
using testing_knobs::sample_value;

/// Feed argv words through `consume` the way the tools' flag loops do.
template <typename Consume>
void walk(std::vector<std::string> words, Consume consume) {
  words.insert(words.begin(), "knob_test");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  tools::ArgCursor args(static_cast<int>(argv.size()), argv.data());
  while (args.next()) {
    if (!consume(args)) {
      ADD_FAILURE() << "flag not consumed: " << args.flag();
      return;
    }
  }
}

std::vector<std::string> flag_words(const sim::Knob& knob,
                                    const char* text) {
  if (knob.arg == nullptr) return {knob.flag};
  return {knob.flag, text};
}

/// The single-run path: mlpsim's flag loop and mlpclient's parse_job.
sim::SuiteOptions single_run(const std::vector<std::string>& words) {
  sim::SuiteOptions options;
  walk(words, [&](tools::ArgCursor& args) {
    return tools::consume_knob(args, options);
  });
  return options;
}

/// The sweep path: mlpsweep and `mlpclient sweep`.
std::vector<sim::MatrixJob> sweep(const std::vector<std::string>& words) {
  tools::SweepGrid grid;
  grid.benches = {"count"};
  walk(words, [&](tools::ArgCursor& args) { return grid.consume(args); });
  return grid.expand();
}

/// The service path: a submit's job member.
serve::JobSpec from_json(const std::string& key, const std::string& literal) {
  return serve::job_from_json(trace::json_parse(
      R"({"bench":"count",")" + key + "\":" + literal + "}"));
}

/// Everything a job carries that the knobs can set: the spec JSON (every
/// table field) and the fork key (every MachineConfig field, which catches
/// the warp width riding on cores).
std::string fingerprint(const sim::SuiteOptions& options) {
  const sim::MatrixJob job{arch::ArchKind::kMillipede, "count", options, ""};
  return serve::job_json(serve::JobSpec{job, 0}) + "\n" + sim::fork_key(job);
}

TEST(KnobTable, SamplesCoverEveryKnobWithANonDefaultValue) {
  const sim::SuiteOptions defaults;
  for (const sim::Knob& knob : sim::knobs()) {
    SCOPED_TRACE(knob.key);
    const KnobSample* sample = knob_sample(knob);
    ASSERT_NE(sample, nullptr) << "add the knob to tests/knob_samples.hpp";
    EXPECT_NE(sample_value(knob, sample->good),
              sim::knob_get(knob, defaults));
  }
}

TEST(KnobTable, SweepAxesNestInTheDocumentedOrder) {
  std::vector<std::string> axes;
  for (const sim::Knob& knob : sim::knobs()) {
    if (knob.axis != sim::Knob::Axis::kNone) axes.push_back(knob.key);
  }
  EXPECT_EQ(axes, (std::vector<std::string>{
                      "cores", "pf_entries", "bus_efficiency", "rows",
                      "fault_rate", "channels", "ranks", "mapping",
                      "page_policy", "refresh"}));
}

TEST(KnobFlags, EveryToolParsesAFlagToTheSameJob) {
  for (const sim::Knob& knob : sim::knobs()) {
    SCOPED_TRACE(knob.key);
    const KnobSample* sample = knob_sample(knob);
    ASSERT_NE(sample, nullptr);
    const std::vector<std::string> words = flag_words(knob, sample->good);

    const sim::SuiteOptions single = single_run(words);
    EXPECT_EQ(sim::knob_get(knob, single), sample_value(knob, sample->good));

    const std::vector<sim::MatrixJob> grid = sweep(words);
    ASSERT_EQ(grid.size(), 1u);
    const serve::JobSpec json =
        from_json(knob.key, json_literal(knob, sample->good));

    EXPECT_EQ(fingerprint(grid[0].options), fingerprint(single));
    EXPECT_EQ(fingerprint(json.job.options), fingerprint(single));
  }
}

TEST(KnobFlags, MalformedValuesExitTwoOnEveryTool) {
  for (const sim::Knob& knob : sim::knobs()) {
    SCOPED_TRACE(knob.key);
    const KnobSample* sample = knob_sample(knob);
    ASSERT_NE(sample, nullptr);
    std::vector<std::string> words;
    if (knob.type == sim::Knob::Type::kBool) {
      words = {std::string(knob.flag) + "=1"};  // a switch takes no value
    } else if (sample->bad != nullptr) {
      words = {knob.flag, sample->bad};
    } else {
      continue;
    }
    EXPECT_EXIT(single_run(words), testing::ExitedWithCode(2), knob.flag);
    EXPECT_EXIT(sweep(words), testing::ExitedWithCode(2), knob.flag);
  }
}

TEST(KnobJson, MalformedValuesAreBadRequests) {
  for (const sim::Knob& knob : sim::knobs()) {
    SCOPED_TRACE(knob.key);
    const KnobSample* sample = knob_sample(knob);
    ASSERT_NE(sample, nullptr);
    if (sample->bad == nullptr && knob.type != sim::Knob::Type::kBool) {
      continue;
    }
    try {
      from_json(knob.key, json_literal(knob, sample->bad));
      ADD_FAILURE() << "accepted " << json_literal(knob, sample->bad);
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), serve::kErrBadRequest);
      EXPECT_NE(std::string(e.what()).find(knob.key), std::string::npos);
    }
  }
}

TEST(KnobFlags, BusEfficiencyMustBePositive) {
  EXPECT_DOUBLE_EQ(single_run({"--bus-efficiency", "0.25"}).cfg.dram
                       .bus_efficiency,
                   0.25);
  EXPECT_DOUBLE_EQ(single_run({"--bus-efficiency", "1e-3"}).cfg.dram
                       .bus_efficiency,
                   1e-3);
  for (const char* bad : {"0", "-1.5", "fast"}) {
    EXPECT_EXIT(single_run({"--bus-efficiency", bad}),
                testing::ExitedWithCode(2), "positive");
  }
}

TEST(KnobFlags, FaultRatesMustBeProbabilities) {
  for (const char* flag :
       {"--fault-rate", "--fault-delay-rate", "--fault-drop-rate"}) {
    SCOPED_TRACE(flag);
    for (const char* good : {"0", "1", "1e-6"}) {
      const sim::Knob* knob = sim::find_knob_flag(flag);
      ASSERT_NE(knob, nullptr);
      EXPECT_DOUBLE_EQ(
          std::get<double>(sim::knob_get(*knob, single_run({flag, good}))),
          std::stod(good));
    }
    for (const char* bad : {"1.5", "-0.1"}) {
      EXPECT_EXIT(single_run({flag, bad}), testing::ExitedWithCode(2),
                  "probability");
    }
  }
}

TEST(KnobFlags, ZeroMeansByVolumeOrOffOnEveryPath) {
  // records, trace_ring and trace_interval default to 0 ("size by rows" /
  // "off"), and job_json writes that 0; the command line accepts it too.
  const std::string defaults = fingerprint(sim::SuiteOptions{});
  for (const char* key : {"records", "trace_ring", "trace_interval"}) {
    SCOPED_TRACE(key);
    const sim::Knob* knob = sim::find_knob(key);
    ASSERT_NE(knob, nullptr);
    EXPECT_EQ(fingerprint(single_run({knob->flag, "0"})), defaults);
    EXPECT_EQ(fingerprint(sweep({knob->flag, "0"})[0].options), defaults);
    EXPECT_EQ(fingerprint(from_json(key, "0").job.options), defaults);
  }
}

}  // namespace
}  // namespace mlp
