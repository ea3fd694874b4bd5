#pragma once
// Per-knob test values shared by the knob and service tests: for every row
// of the run-knob table, one valid non-default command-line value ("" for a
// switch) and one malformed value (nullptr where none exists: any string is
// a valid trace directory). Tests assert the list covers the whole table, so
// a new knob cannot skip them.

#include <string>

#include "sim/knobs.hpp"
#include "tools/sweep_grid.hpp"

namespace mlp::testing_knobs {

struct KnobSample {
  const char* key;
  const char* good;
  const char* bad;
};

inline const KnobSample kKnobSamples[] = {
    {"cores", "64", "0"},
    {"pf_entries", "8", "0"},
    {"bus_efficiency", "0.5", "0"},
    {"rows", "96", "0"},
    {"records", "4096", "-1"},
    {"seed", "11", "-1"},
    {"record_barrier", "", nullptr},
    {"fault_rate", "1e-07", "1.5"},
    {"ecc", "", nullptr},
    {"channels", "2", "4294967296"},
    {"ranks", "4", "0"},
    {"mapping", "row:rank:bank:channel:col", "bank:row:col"},
    {"page_policy", "open:idle=64:hits=4", "ajar"},
    {"refresh", "on:trefi=1000:trfc=100", "sometimes"},
    {"slab_layout", "", nullptr},
    {"fault_delay", "0.25", "-0.5"},
    {"fault_drop", "0.125", "fast"},
    {"fault_seed", "3", "3x"},
    {"watchdog_cycles", "123456", "1e4"},
    {"watchdog_stall", "777", "many"},
    {"watchdog_wall", "90000", "-3"},
    {"fast_forward", "", nullptr},
    {"block_cache", "", nullptr},
    {"trace", "", nullptr},
    {"trace_dir", "/tmp/traces", nullptr},
    {"trace_ring", "512", "-2"},
    {"trace_interval", "64", "0.5"},
};

inline const KnobSample* knob_sample(const sim::Knob& knob) {
  for (const KnobSample& sample : kKnobSamples) {
    if (std::string(sample.key) == knob.key) return &sample;
  }
  return nullptr;
}

/// The value a sample text sets, as the tools parse it (a switch sets the
/// non-default value).
inline sim::KnobValue sample_value(const sim::Knob& knob, const char* text) {
  if (knob.type == sim::Knob::Type::kBool) {
    return !std::get<bool>(sim::knob_get(knob, sim::SuiteOptions{}));
  }
  return tools::parse_knob(knob, text);
}

/// The sample text as a JSON member value: numbers stay bare when they
/// parse, everything else is quoted (a type error for numeric knobs). A
/// switch's good sample is its non-default value, its bad one a string.
inline std::string json_literal(const sim::Knob& knob, const char* text) {
  if (knob.type == sim::Knob::Type::kBool) {
    if (text == nullptr) return "\"yes\"";
    return std::get<bool>(sample_value(knob, text)) ? "true" : "false";
  }
  double number = 0;
  if (knob.type != sim::Knob::Type::kString &&
      tools::parse_real(text, &number)) {
    return text;
  }
  return "\"" + std::string(text) + "\"";
}

}  // namespace mlp::testing_knobs
