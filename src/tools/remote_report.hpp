#pragma once
// The one printer for a remote sweep's results, shared by `mlpsweep
// --server` and `mlpclient sweep`: the same CSV or stats-JSON document a
// local sweep prints, one row or run per grid point.

#include <cstdio>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "serve/client.hpp"
#include "sim/report.hpp"

namespace mlp::tools {

/// Writes `results` (one per `matrix` point, in grid order) to `out` as the
/// sweep CSV (header plus one row per point) or, with `stats_json`, as the
/// stats-JSON document, with the raw `footer_object` appended as member
/// `footer_key` when that key is non-empty. A point whose SUBMISSION failed
/// (node-lost, queue-full, ...) still gets its row: the config columns plus
/// the typed error as "kind: message", exactly like a local per-job
/// failure, so the table stays rectangular; it is also reported as a
/// "SUBMIT FAILED" line on `err`. Returns the exit code: 1 when any
/// submission or run failed, else 0.
inline int print_remote_results(std::FILE* out, std::FILE* err,
                                const std::vector<sim::MatrixJob>& matrix,
                                const std::vector<serve::RemoteResult>& results,
                                bool stats_json,
                                const std::string& footer_key = "",
                                const std::string& footer_object = "") {
  int exit_code = 0;
  std::vector<std::string> stats_runs;
  if (!stats_json) std::fputs(sim::sweep_csv_header().c_str(), out);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const serve::RemoteResult& r = results[i];
    if (!r.error.empty()) {
      std::fprintf(err, "SUBMIT FAILED %s/%s: %s: %s\n",
                   arch::arch_name(matrix[i].kind), matrix[i].bench.c_str(),
                   r.error.c_str(), r.message.c_str());
      exit_code = 1;
      sim::MatrixResult failed;
      failed.job = matrix[i];
      failed.error = r.error + ": " + r.message;
      if (stats_json) {
        stats_runs.push_back(sim::stats_json_run(failed));
      } else {
        std::fputs(sim::sweep_csv_row(failed).c_str(), out);
      }
      continue;
    }
    // A point that FAILED ON THE SERVER still yields an ok result response;
    // its row carries the error column, exactly like the local path.
    if (!r.run_ok) exit_code = 1;
    if (stats_json) {
      stats_runs.push_back(r.stats_run_json);
    } else {
      std::fputs(r.csv.c_str(), out);
    }
  }
  if (stats_json) {
    std::fputs(
        sim::stats_json_document(stats_runs, footer_key, footer_object).c_str(),
        out);
  }
  return exit_code;
}

}  // namespace mlp::tools
