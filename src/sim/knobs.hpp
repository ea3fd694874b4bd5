#pragma once
// The run-knob table: one row per SuiteOptions field a job spec carries.
// Every place that names a knob outside the models iterates this table
// instead — the tools' flag parsers and usage text (mlpsim, mlpsweep,
// mlpclient), the sweep grid's axes and trace-file stems, the job-spec JSON
// writer and reader of the service protocol, and the config columns of the
// sweep CSV and the stats-JSON document. Adding a knob is one row here plus
// its model code.
//
// Table order is the sweep CSV column order; it also fixes the stats-JSON
// config member order, the job-spec JSON member order and the sweep-axis
// nesting (first axis outermost).

#include <span>
#include <string>
#include <variant>

#include "sim/runner.hpp"
#include "trace/json.hpp"

namespace mlp::sim {

/// A knob value; every integer width travels as u64.
using KnobValue = std::variant<bool, u64, double, std::string>;

struct Knob {
  enum class Type : u8 { kBool, kU32, kU64, kDouble, kString };
  /// What a value must satisfy beyond its type, on the command line and in
  /// a job spec alike.
  enum class Rule : u8 {
    kAny,
    kPositive,
    kProbability,  ///< in [0, 1]
    kMapping,      ///< mem::AddressMap field-order grammar
    kPagePolicy,   ///< parse_page_policy grammar
    kRefresh,      ///< parse_refresh grammar
  };
  /// Sweep role. Axes take comma-separated lists in SweepGrid and put their
  /// value into a traced point's file stem; the DRAM axes do so only when
  /// one of them is swept (keeps older trace file names stable).
  enum class Axis : u8 { kNone, kAxis, kDramAxis };

  const char* key;   ///< job-spec JSON member, CSV column and stats-JSON key
  const char* flag;  ///< command-line flag; a kBool flag is a switch that
                     ///< sets the non-default value
  const char* arg = nullptr;  ///< usage-text metavariable (none: a switch)
  const char* help;  ///< usage-text description
  Type type = Type::kU64;
  Rule rule = Rule::kAny;
  const char* csv = nullptr;  ///< printf format of the CSV column, if any
  bool stats = false;         ///< member of the stats-JSON config object
  Axis axis = Axis::kNone;
  const char* stem = nullptr;  ///< file-stem prefix of an axis value
  /// The SuiteOptions field, typed by `type` (u32, u64, double, bool or
  /// std::string).
  void* (*field)(SuiteOptions&) = nullptr;
  /// Runs after every write (the cores knob also sizes the GPGPU warp).
  void (*also)(SuiteOptions&) = nullptr;
  /// The value reports show, when it differs from the spec's (records:
  /// the effective count of a by-volume job).
  u64 (*report)(const MatrixJob&) = nullptr;
};

/// The table, in CSV column order.
std::span<const Knob> knobs();

/// Row by JSON key / by command-line flag; nullptr when there is none.
const Knob* find_knob(const std::string& key);
const Knob* find_knob_flag(const std::string& flag);

KnobValue knob_get(const Knob& knob, const SuiteOptions& options);
void knob_set(const Knob& knob, SuiteOptions& options, const KnobValue& value);

/// The value shown in the sweep CSV and the stats-JSON config.
KnobValue knob_report(const Knob& knob, const MatrixJob& job);

/// True when `value` fits the knob's type width and satisfies its rule.
bool knob_accepts(const Knob& knob, const KnobValue& value);

/// What a valid value looks like ("a positive 32-bit integer", ...), for
/// error messages.
const char* knob_expects(const Knob& knob);

/// Convert a job-spec JSON member; false when the JSON type is wrong or the
/// value is not accepted.
bool knob_from_json(const Knob& knob, const trace::JsonValue& json,
                    KnobValue* out);

void write_knob_json(trace::JsonWriter& w, const KnobValue& value);

/// The value in the knob's CSV format (type default for knobs without a
/// column): the CSV cell, file-stem part and usage-text default.
std::string knob_text(const Knob& knob, const KnobValue& value);

/// Effective record count of a job (explicit records or sized by rows).
u64 job_records(const MatrixJob& job);

}  // namespace mlp::sim
