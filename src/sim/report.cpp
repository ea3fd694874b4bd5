#include "sim/report.hpp"

#include <cstdio>

#include "trace/json.hpp"

namespace mlp::sim {

namespace {

u64 stat_or_zero(const arch::RunResult& r, const char* key) {
  const auto it = r.stats.find(key);
  return it == r.stats.end() ? u64{0} : it->second;
}

/// Error messages can contain anything (diagnostics quote machine state);
/// strip the characters that would break the one-row-per-point invariant.
std::string csv_sanitize(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == ',') {
      out.push_back(';');
    } else if (c == '"') {
      out.push_back('\'');
    } else if (c == '\n' || c == '\r') {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// The architecture column: the model's own label when the run produced one
/// (distinguishes the Millipede ablations), the requested kind otherwise.
const char* arch_column(const MatrixResult& run) {
  return run.result.arch.empty() ? arch::arch_name(run.job.kind)
                                 : run.result.arch.c_str();
}

}  // namespace

std::string sweep_csv_header() {
  std::string header = "arch,bench,";
  for (const Knob& knob : knobs()) {
    if (knob.csv == nullptr) continue;
    header += knob.key;
    header += ',';
  }
  header +=
      "runtime_us,cycles,insts,insts_per_word,clock_mhz,"
      "core_uj,dram_uj,leak_uj,row_miss_rate,ecc_corrected,ecc_detected,"
      "fault_retries,error\n";
  return header;
}

std::string sweep_csv_row(const MatrixResult& run) {
  std::string row = arch_column(run);
  row += ',';
  row += run.job.bench;
  row += ',';
  for (const Knob& knob : knobs()) {
    if (knob.csv == nullptr) continue;
    row += knob_text(knob, knob_report(knob, run.job));
    row += ',';
  }
  if (!run.ok()) {
    // 12 empty metric cells, then the error column.
    row += std::string(12, ',');
    row += csv_sanitize(run.error);
    row += '\n';
    return row;
  }
  const arch::RunResult& r = run.result;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%.3f,%llu,%llu,%.2f,%.0f,%.3f,%.3f,%.3f,%.4f,%llu,%llu,%llu",
                static_cast<double>(r.runtime_ps) / 1e6,
                static_cast<unsigned long long>(r.compute_cycles),
                static_cast<unsigned long long>(r.thread_instructions),
                r.insts_per_word, r.final_clock_mhz, r.energy.core_j * 1e6,
                r.energy.dram_j * 1e6, r.energy.leak_j * 1e6, r.row_miss_rate,
                static_cast<unsigned long long>(
                    stat_or_zero(r, "dram.ecc_corrected")),
                static_cast<unsigned long long>(
                    stat_or_zero(r, "dram.ecc_detected")),
                static_cast<unsigned long long>(
                    stat_or_zero(r, "dram.fault_retries")));
  row += buf;
  row += ",\n";  // empty error column
  return row;
}

std::string stats_json_run(const MatrixResult& run) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("arch");
  w.value(std::string(arch_column(run)));
  w.key("bench");
  w.value(run.job.bench);
  w.key("tag");
  w.value(run.job.tag);
  w.key("ok");
  w.value(run.ok());
  w.key("error");
  w.value(run.error);
  w.key("config");
  w.begin_object();
  for (const Knob& knob : knobs()) {
    if (!knob.stats) continue;
    w.key(knob.key);
    write_knob_json(w, knob_report(knob, run.job));
  }
  w.end_object();
  if (run.ok()) {
    const arch::RunResult& r = run.result;
    w.key("metrics");
    w.begin_object();
    w.key("runtime_ps");
    w.value(static_cast<u64>(r.runtime_ps));
    w.key("compute_cycles");
    w.value(r.compute_cycles);
    w.key("thread_instructions");
    w.value(r.thread_instructions);
    w.key("input_words");
    w.value(r.input_words);
    w.key("insts_per_word");
    w.value(r.insts_per_word);
    w.key("branches_per_inst");
    w.value(r.branches_per_inst);
    w.key("row_miss_rate");
    w.value(r.row_miss_rate);
    w.key("final_clock_mhz");
    w.value(r.final_clock_mhz);
    w.key("warp_width");
    w.value(r.warp_width);
    w.key("core_j");
    w.value(r.energy.core_j);
    w.key("dram_j");
    w.value(r.energy.dram_j);
    w.key("leak_j");
    w.value(r.energy.leak_j);
    w.key("total_j");
    w.value(r.energy.total_j());
    w.end_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : r.stats) {  // std::map: sorted names
      w.key(name);
      w.value(value);
    }
    w.end_object();
  }
  if (!run.trace_files.empty()) {
    w.key("trace_files");
    w.begin_array();
    for (const std::string& path : run.trace_files) w.value(path);
    w.end_array();
  }
  w.end_object();
  return w.take();
}

std::string stats_json_document(const std::vector<std::string>& run_objects) {
  return stats_json_document(run_objects, "", "");
}

std::string stats_json_document(const std::vector<std::string>& run_objects,
                                const std::string& footer_key,
                                const std::string& footer_object) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("schema_version");
  w.value(kStatsJsonSchemaVersion);
  w.key("runs");
  w.begin_array();
  for (const std::string& object : run_objects) {
    w.newline();
    w.raw(object);
  }
  w.end_array();
  if (!footer_key.empty()) {
    w.key(footer_key);
    w.raw(footer_object);
  }
  w.end_object();
  std::string out = w.take();
  out += '\n';
  return out;
}

std::string stats_json(const std::vector<MatrixResult>& runs) {
  std::vector<std::string> objects;
  objects.reserve(runs.size());
  for (const MatrixResult& run : runs) objects.push_back(stats_json_run(run));
  return stats_json_document(objects);
}

}  // namespace mlp::sim
