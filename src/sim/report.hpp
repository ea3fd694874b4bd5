#pragma once
// Machine-readable reporting shared by the command-line tools (mlpsim,
// mlpsweep) and the schema tests: the sweep CSV (one row per grid point,
// config columns first, trailing `error` column so failed points stay in the
// table without corrupting it) and the `--stats-json` document exposing
// every registered counter of every run under a stable schema.

#include <string>
#include <vector>

#include "sim/knobs.hpp"
#include "sim/runner.hpp"

namespace mlp::sim {

/// Version stamp embedded in the stats-JSON document; bump when the schema
/// shape changes so downstream parsers can fail loudly. History:
///  1  initial schema;
///  2  decode.block_hits / decode.block_misses / decode.batched_lanes
///     counters joined every run's counter map (docs/ARCHITECTURE.md,
///     "Interpreter fast path");
///  3  channels / ranks / mapping / page_policy / refresh joined the config
///     object (and the sweep CSV grew the same five columns after `ecc`);
///     refresh-enabled runs add dram.refreshes / dram.refresh_stall_ps,
///     non-open page policies add dram.explicit_precharges, and multi-channel
///     runs add dram.ch<k>.bytes to the counter map (docs/ARCHITECTURE.md,
///     "DRAM timing model").
inline constexpr u32 kStatsJsonSchemaVersion = 3;

/// Header line (with trailing '\n') for the sweep CSV. The final column is
/// `error`: empty for successful points, the sanitized error message for
/// failed ones.
std::string sweep_csv_header();

/// One CSV row (with trailing '\n') for a matrix result. Failed points emit
/// their full configuration columns, empty metric cells, and the error text
/// with CSV-hostile characters (commas, quotes, newlines) replaced, so a
/// partially failed sweep still parses as a rectangular table.
std::string sweep_csv_row(const MatrixResult& run);

/// The `--stats-json` document: schema_version + one entry per run carrying
/// the job configuration, the derived metrics, and EVERY registered counter
/// (sorted by name — the StatSet snapshot order). Deterministic: identical
/// runs produce byte-identical documents.
std::string stats_json(const std::vector<MatrixResult>& runs);

/// One run's entry of the stats-JSON document, as a standalone JSON object.
/// The mlpserved daemon ships these to clients verbatim so a document
/// reassembled client-side is byte-identical to a local stats_json() call.
std::string stats_json_run(const MatrixResult& run);

/// Wrap pre-rendered run objects (stats_json_run output) into the full
/// schema_version-stamped document. stats_json(runs) ==
/// stats_json_document({stats_json_run(r)...}) byte for byte.
std::string stats_json_document(const std::vector<std::string>& run_objects);

/// Same, with one extra raw member appended after "runs" (e.g. mlpsweep's
/// opt-in "fleet" health footer). An empty `footer_key` omits the member,
/// reproducing the plain document byte for byte.
std::string stats_json_document(const std::vector<std::string>& run_objects,
                                const std::string& footer_key,
                                const std::string& footer_object);

}  // namespace mlp::sim
