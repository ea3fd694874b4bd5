#include "sim/knobs.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "mem/addrmap.hpp"

namespace mlp::sim {

namespace {

using Type = Knob::Type;
using Rule = Knob::Rule;
using Axis = Knob::Axis;

#define MLP_KNOB_FIELD(path) \
  [](SuiteOptions& o) -> void* { return &o.path; }

// Rows 1-14 are the sweep CSV config columns in header order; the rest
// follow in job-spec JSON order.
const Knob kKnobs[] = {
    {.key = "cores", .flag = "--cores", .arg = "N",
     .help = "corelets / lanes / cores; also the GPGPU warp width",
     .type = Type::kU32, .rule = Rule::kPositive, .csv = "%llu",
     .stats = true, .axis = Axis::kAxis, .stem = "c",
     .field = MLP_KNOB_FIELD(cfg.core.cores),
     .also = [](SuiteOptions& o) {
       // One knob sizes both, keeping cross-architecture resources
       // identical by construction.
       o.cfg.gpgpu.warp_width = o.cfg.core.cores;
     }},
    {.key = "pf_entries", .flag = "--pf-entries", .arg = "N",
     .help = "prefetch buffer entries, one DRAM row each",
     .type = Type::kU32, .rule = Rule::kPositive, .csv = "%llu",
     .stats = true, .axis = Axis::kAxis, .stem = "pf",
     .field = MLP_KNOB_FIELD(cfg.millipede.pf_entries)},
    {.key = "bus_efficiency", .flag = "--bus-efficiency", .arg = "F",
     .help = "delivered fraction of peak DRAM bus bandwidth",
     .type = Type::kDouble, .rule = Rule::kPositive, .csv = "%.3f",
     .stats = true, .axis = Axis::kAxis, .stem = "bus",
     .field = MLP_KNOB_FIELD(cfg.dram.bus_efficiency)},
    {.key = "rows", .flag = "--rows", .arg = "N",
     .help = "data volume in DRAM rows",
     .type = Type::kU64, .rule = Rule::kPositive, .csv = "%llu",
     .stats = true, .axis = Axis::kAxis, .stem = "r",
     .field = MLP_KNOB_FIELD(rows)},
    {.key = "records", .flag = "--records", .arg = "N",
     .help = "absolute record count; 0 sizes by --rows",
     .csv = "%llu", .stats = true, .field = MLP_KNOB_FIELD(records),
     .report = job_records},
    {.key = "seed", .flag = "--seed", .arg = "N",
     .help = "data generation seed",
     .csv = "%llu", .stats = true, .field = MLP_KNOB_FIELD(seed)},
    {.key = "record_barrier", .flag = "--record-barrier",
     .help = "software barriers per record instead of flow control",
     .type = Type::kBool, .stats = true,
     .field = MLP_KNOB_FIELD(record_barrier)},
    {.key = "fault_rate", .flag = "--fault-rate", .arg = "P",
     .help = "DRAM bit-flip probability per transferred bit",
     .type = Type::kDouble, .rule = Rule::kProbability, .csv = "%g",
     .stats = true, .axis = Axis::kAxis, .stem = "f",
     .field = MLP_KNOB_FIELD(cfg.dram.fault.bit_flip_rate)},
    {.key = "ecc", .flag = "--ecc",
     .help = "SECDED(72,64): correct 1-bit flips, retry on detect",
     .type = Type::kBool, .csv = "%d", .stats = true,
     .field = MLP_KNOB_FIELD(cfg.dram.fault.ecc)},
    {.key = "channels", .flag = "--channels", .arg = "N",
     .help = "DRAM channels, one controller each (power of two)",
     .type = Type::kU32, .rule = Rule::kPositive, .csv = "%llu",
     .stats = true, .axis = Axis::kDramAxis, .stem = "ch",
     .field = MLP_KNOB_FIELD(cfg.dram.channels)},
    {.key = "ranks", .flag = "--ranks", .arg = "N",
     .help = "DRAM ranks per channel (power of two)",
     .type = Type::kU32, .rule = Rule::kPositive, .csv = "%llu",
     .stats = true, .axis = Axis::kDramAxis, .stem = "rk",
     .field = MLP_KNOB_FIELD(cfg.dram.ranks)},
    {.key = "mapping", .flag = "--mapping", .arg = "SPEC",
     .help = "address interleave field order, msb first",
     .type = Type::kString, .rule = Rule::kMapping, .csv = "%s",
     .stats = true, .axis = Axis::kDramAxis, .stem = "",
     .field = MLP_KNOB_FIELD(cfg.dram.mapping)},
    {.key = "page_policy", .flag = "--page-policy", .arg = "SPEC",
     .help = "open | closed | open:idle=N:hits=M",
     .type = Type::kString, .rule = Rule::kPagePolicy, .csv = "%s",
     .stats = true, .axis = Axis::kDramAxis, .stem = "",
     .field = MLP_KNOB_FIELD(cfg.dram.page_policy)},
    {.key = "refresh", .flag = "--refresh", .arg = "SPEC",
     .help = "off | on | on:trefi=N:trfc=N:postpone=K",
     .type = Type::kString, .rule = Rule::kRefresh, .csv = "%s",
     .stats = true, .axis = Axis::kDramAxis, .stem = "",
     .field = MLP_KNOB_FIELD(cfg.dram.refresh)},
    {.key = "slab_layout", .flag = "--slab-layout",
     .help = "store each record's fields in one DRAM row",
     .type = Type::kBool, .field = MLP_KNOB_FIELD(cfg.slab_layout)},
    {.key = "fault_delay", .flag = "--fault-delay-rate", .arg = "P",
     .help = "per-transfer DRAM response delay probability",
     .type = Type::kDouble, .rule = Rule::kProbability,
     .field = MLP_KNOB_FIELD(cfg.dram.fault.delay_rate)},
    {.key = "fault_drop", .flag = "--fault-drop-rate", .arg = "P",
     .help = "per-transfer DRAM response drop probability",
     .type = Type::kDouble, .rule = Rule::kProbability,
     .field = MLP_KNOB_FIELD(cfg.dram.fault.drop_rate)},
    {.key = "fault_seed", .flag = "--fault-seed", .arg = "N",
     .help = "fault-injection seed",
     .field = MLP_KNOB_FIELD(cfg.dram.fault.seed)},
    {.key = "watchdog_cycles", .flag = "--watchdog-cycles", .arg = "N",
     .help = "fail a run after N step-loop iterations; 0 = off",
     .field = MLP_KNOB_FIELD(cfg.watchdog.max_cycles)},
    {.key = "watchdog_stall", .flag = "--watchdog-stall", .arg = "N",
     .help = "fail after N iterations without progress; 0 = off",
     .field = MLP_KNOB_FIELD(cfg.watchdog.stall_cycles)},
    {.key = "watchdog_wall", .flag = "--watchdog-wall", .arg = "MS",
     .help = "fail a run after MS wall-clock milliseconds; 0 = off",
     .field = MLP_KNOB_FIELD(cfg.watchdog.wall_ms)},
    {.key = "fast_forward", .flag = "--no-fast-forward",
     .help = "step every clock edge (bit-identical results)",
     .type = Type::kBool, .field = MLP_KNOB_FIELD(cfg.fast_forward)},
    {.key = "block_cache", .flag = "--no-block-cache",
     .help = "re-decode every instruction (bit-identical results)",
     .type = Type::kBool, .field = MLP_KNOB_FIELD(cfg.block_cache)},
    {.key = "trace", .flag = "--trace",
     .help = "write a Chrome-trace JSON of typed events per run",
     .type = Type::kBool, .field = MLP_KNOB_FIELD(trace.chrome_json)},
    {.key = "trace_dir", .flag = "--trace-dir", .arg = "DIR",
     .help = "trace output directory",
     .type = Type::kString, .field = MLP_KNOB_FIELD(trace.dir)},
    {.key = "trace_ring", .flag = "--trace-ring", .arg = "N",
     .help = "keep only the last N events, as a binary ring; 0 = off",
     .field = MLP_KNOB_FIELD(trace.ring_entries)},
    {.key = "trace_interval", .flag = "--trace-interval", .arg = "N",
     .help = "counter timeline CSV sampled every N cycles; 0 = off",
     .field = MLP_KNOB_FIELD(trace.interval_cycles)},
};

#undef MLP_KNOB_FIELD

/// Const access through the same field accessor.
const void* field_of(const Knob& knob, const SuiteOptions& options) {
  return knob.field(const_cast<SuiteOptions&>(options));
}

}  // namespace

std::span<const Knob> knobs() { return kKnobs; }

const Knob* find_knob(const std::string& key) {
  for (const Knob& knob : kKnobs) {
    if (key == knob.key) return &knob;
  }
  return nullptr;
}

const Knob* find_knob_flag(const std::string& flag) {
  for (const Knob& knob : kKnobs) {
    if (flag == knob.flag) return &knob;
  }
  return nullptr;
}

KnobValue knob_get(const Knob& knob, const SuiteOptions& options) {
  const void* p = field_of(knob, options);
  switch (knob.type) {
    case Type::kBool:
      return *static_cast<const bool*>(p);
    case Type::kU32:
      return u64{*static_cast<const u32*>(p)};
    case Type::kU64:
      return *static_cast<const u64*>(p);
    case Type::kDouble:
      return *static_cast<const double*>(p);
    case Type::kString:
      return *static_cast<const std::string*>(p);
  }
  return {};
}

void knob_set(const Knob& knob, SuiteOptions& options,
              const KnobValue& value) {
  void* p = knob.field(options);
  switch (knob.type) {
    case Type::kBool:
      *static_cast<bool*>(p) = std::get<bool>(value);
      break;
    case Type::kU32:
      *static_cast<u32*>(p) = static_cast<u32>(std::get<u64>(value));
      break;
    case Type::kU64:
      *static_cast<u64*>(p) = std::get<u64>(value);
      break;
    case Type::kDouble:
      *static_cast<double*>(p) = std::get<double>(value);
      break;
    case Type::kString:
      *static_cast<std::string*>(p) = std::get<std::string>(value);
      break;
  }
  if (knob.also != nullptr) knob.also(options);
}

KnobValue knob_report(const Knob& knob, const MatrixJob& job) {
  if (knob.report != nullptr) return knob.report(job);
  return knob_get(knob, job.options);
}

bool knob_accepts(const Knob& knob, const KnobValue& value) {
  if (knob.type == Type::kU32 && std::get<u64>(value) > 0xffffffffull) {
    return false;
  }
  try {
    switch (knob.rule) {
      case Rule::kAny:
        return true;
      case Rule::kPositive:
        return knob.type == Type::kDouble ? std::get<double>(value) > 0.0
                                          : std::get<u64>(value) > 0;
      case Rule::kProbability: {
        const double p = std::get<double>(value);
        return p >= 0.0 && p <= 1.0;
      }
      case Rule::kMapping:
        // Grammar only: zero-width-field checks need the per-point
        // geometry and stay per-point SimErrors.
        mem::AddressMap::check_grammar(std::get<std::string>(value));
        return true;
      case Rule::kPagePolicy:
        (void)parse_page_policy(std::get<std::string>(value));
        return true;
      case Rule::kRefresh:
        (void)parse_refresh(std::get<std::string>(value));
        return true;
    }
  } catch (const SimError&) {
  }
  return false;
}

const char* knob_expects(const Knob& knob) {
  switch (knob.rule) {
    case Rule::kPositive:
      return knob.type == Type::kDouble ? "a positive number"
             : knob.type == Type::kU32  ? "a positive 32-bit integer"
                                        : "a positive integer";
    case Rule::kProbability:
      return "a probability in [0, 1]";
    case Rule::kMapping:
      return "a field list like row:rank:bank:channel:col";
    case Rule::kPagePolicy:
      return "open, closed, or open:idle=N:hits=M";
    case Rule::kRefresh:
      return "off, on, or on:trefi=N:trfc=N:postpone=K";
    case Rule::kAny:
      break;
  }
  switch (knob.type) {
    case Type::kBool:
      return "a boolean";
    case Type::kU32:
      return "a 32-bit integer";
    case Type::kU64:
      return "a non-negative integer";
    case Type::kDouble:
      return "a number";
    case Type::kString:
      return "a string";
  }
  return "";
}

bool knob_from_json(const Knob& knob, const trace::JsonValue& json,
                    KnobValue* out) {
  using J = trace::JsonValue::Type;
  switch (knob.type) {
    case Type::kBool:
      if (json.type != J::kBool) return false;
      *out = json.boolean;
      break;
    case Type::kString:
      if (json.type != J::kString) return false;
      *out = json.string;
      break;
    case Type::kDouble:
      if (json.type != J::kNumber) return false;
      *out = json.number;
      break;
    case Type::kU32:
    case Type::kU64:
      if (json.type != J::kNumber || !json.is_integer || json.number < 0) {
        return false;
      }
      *out = json.unsigned_integer;
      break;
  }
  return knob_accepts(knob, *out);
}

void write_knob_json(trace::JsonWriter& w, const KnobValue& value) {
  std::visit([&w](const auto& v) { w.value(v); }, value);
}

std::string knob_text(const Knob& knob, const KnobValue& value) {
  char buf[128];
  switch (knob.type) {
    case Type::kBool:
      std::snprintf(buf, sizeof(buf), knob.csv ? knob.csv : "%d",
                    std::get<bool>(value) ? 1 : 0);
      break;
    case Type::kU32:
    case Type::kU64:
      std::snprintf(buf, sizeof(buf), knob.csv ? knob.csv : "%llu",
                    static_cast<unsigned long long>(std::get<u64>(value)));
      break;
    case Type::kDouble:
      std::snprintf(buf, sizeof(buf), knob.csv ? knob.csv : "%g",
                    std::get<double>(value));
      break;
    case Type::kString:
      return std::get<std::string>(value);
  }
  return buf;
}

u64 job_records(const MatrixJob& job) {
  if (job.options.records != 0) return job.options.records;
  // An unknown benchmark (already a per-job error) cannot be sized.
  const std::vector<std::string>& names = workloads::bmla_names();
  if (std::find(names.begin(), names.end(), job.bench) == names.end()) {
    return 0;
  }
  return records_for(job.bench, job.options.cfg, job.options.rows);
}

}  // namespace mlp::sim
