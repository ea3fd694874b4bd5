// mlpsweep — config-grid sweep driver: expands the cross product of
// {architectures} × {benchmarks} × each axis knob's list (tools::SweepGrid)
// into independent simulation jobs and emits one CSV row per point in
// deterministic grid order. Two
// execution paths with byte-identical output:
//
//  * local (default): sim::run_matrix on an in-process thread pool, with a
//    warm prepare cache deduplicating kernel assembly / record generation /
//    DRAM image construction across the grid;
//  * remote (--server ADDR[,ADDR...]): ship the jobs to one or more running
//    mlpserved daemons (Unix sockets or HOST:PORT) — jobs are consistent-
//    hashed by prepare-cache key so each node's cache stays warm ACROSS
//    sweeps, results merge back in grid order, and the fleet SELF-HEALS: a
//    node lost mid-sweep (crash, hang, graceful drain) has its points
//    re-dispatched to ring survivors, resurrected nodes are probed back in,
//    and the output stays byte-identical to a local run.
//
//   mlpsweep --arch millipede,ssmc --bench count,kmeans --cores 16,32,64
//   mlpsweep --pf-entries 4,8,16,32 --rows 96,192 --jobs 8 > sweep.csv
//   mlpsweep --server /tmp/mlp.sock --arch all --bench all --stats-json
//   mlpsweep --server node1:7411,node2:7411 --bench all --cores 16,32,64

#include <cstdio>
#include <string>
#include <vector>

#include "argparse.hpp"
#include "remote_report.hpp"
#include "serve/shard.hpp"
#include "sim/fork.hpp"
#include "sim/pool.hpp"
#include "sim/prepare.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sweep_grid.hpp"
#include "trace/json.hpp"

namespace {

using namespace mlp;

void usage() {
  std::printf(R"(mlpsweep — parallel configuration-grid sweep

%s
Execution:
  --jobs N              concurrent simulations   (default: all hw threads)
  --fork-at N           warm-snapshot forking (local runs only): grid
                        points differing ONLY in fault-injection rates
                        share one simulated warmup — a leader captures a
                        snapshot at the first quiescent cycle >= N and the
                        divergent points restore from it. Output stays
                        byte-identical to an unforked sweep; savings are
                        reported on stderr
  --server ADDR[,...]   run the grid on mlpserved daemon(s) instead of
                        in-process (same output bytes, warm caches persist
                        across sweeps). ADDR is a Unix socket path or
                        HOST:PORT; several (comma-separated or repeated)
                        shard the grid by prepare-cache key, one sliding
                        window per node, results merged in grid order
  --stats-json          emit one JSON document (per-point config, metrics,
                        every registered counter) instead of the CSV
  --list-arches         list architectures only, one per line
  --list-benches        list benchmarks only, one per line
  --version             print the toolchain version

Fleet resilience (with --server; see docs/ARCHITECTURE.md):
  --connect-timeout-ms N  initial-connect window + TCP handshake bound per
                          node; a just-launched daemon is retried until it
                          elapses (default 5000; 0 = single blocking try)
  --request-timeout-ms N  per-request deadline; a node silent that long is
                          dead and its points fail over (default 30000;
                          0 = no deadline, a hung node hangs the sweep)
  --retry-budget N        re-dispatches per point after node losses before
                          it becomes a typed error row (default 3)
  --no-failover           legacy behaviour: a dead node's points become
                          typed node-lost rows instead of failing over
  --chaos SPEC            seeded fault injection on outgoing frames, e.g.
                          drop=0.05,delay=0.1,delay-ms=20,truncate=0.01,
                          close=0.02,seed=7 (also: MLP_CHAOS env var)
  --fleet-stats           append the fleet-health report as a "fleet"
                          member of the --stats-json document (with
                          --fork-at: the fork report as a "fork" member)

Output: one CSV row per grid point on stdout, config columns first, a
trailing `error` column last. Rows appear in grid order regardless of
--jobs. A failed point (bad config, watchdog trip, uncorrectable memory
fault, verification mismatch) is reported on stderr with its diagnostic,
keeps its row (config columns + error message, metrics empty) so the CSV
stays rectangular, and makes the exit status 1; the remaining points still
run, bit-identically for any --jobs.
)",
              tools::SweepGrid::help().c_str());
}

/// The opt-in "fork" footer of the --stats-json document (mirrors the
/// "fleet" footer of remote sweeps).
std::string fork_stats_json(u64 fork_at, const sim::ForkStats& stats) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("fork_at");
  w.value(fork_at);
  w.key("groups");
  w.value(stats.groups);
  w.key("forked_points");
  w.value(stats.forked_points);
  w.key("unsafe_points");
  w.value(stats.unsafe_points);
  w.key("warmup_cycles_saved");
  w.value(stats.warmup_cycles_saved);
  w.end_object();
  return w.take();
}

void print_fleet_report(const serve::FleetHealth& fleet) {
  std::fprintf(stderr,
               "mlpsweep: fleet health: %llu retries, %llu failovers, "
               "%llu reconnects, %llu node deaths, %llu request timeouts, "
               "%llu chaos injections, %llu points lost\n",
               static_cast<unsigned long long>(fleet.retries),
               static_cast<unsigned long long>(fleet.failovers),
               static_cast<unsigned long long>(fleet.reconnects),
               static_cast<unsigned long long>(fleet.node_deaths),
               static_cast<unsigned long long>(fleet.request_timeouts),
               static_cast<unsigned long long>(fleet.chaos_injected),
               static_cast<unsigned long long>(fleet.points_lost));
  for (const serve::NodeHealth& node : fleet.nodes) {
    std::fprintf(stderr,
                 "mlpsweep:   node %s: %llu jobs, %llu deaths, "
                 "%llu reconnects, window %llu%s\n",
                 node.address.c_str(),
                 static_cast<unsigned long long>(node.jobs_completed),
                 static_cast<unsigned long long>(node.deaths),
                 static_cast<unsigned long long>(node.reconnects),
                 static_cast<unsigned long long>(node.window),
                 node.window_from_status ? "" : " (fallback)");
  }
}

int run_remote(const std::vector<std::string>& servers,
               const std::vector<sim::MatrixJob>& matrix, bool stats_json,
               const serve::ShardOptions& options, bool fleet_stats) {
  serve::FleetHealth fleet;
  const std::vector<serve::RemoteResult> results =
      serve::run_matrix_sharded(servers, matrix, options, &fleet);

  // The fleet footer is OPT-IN: without --fleet-stats the document stays
  // byte-identical to a local run's, failures or not.
  const int exit_code = tools::print_remote_results(
      stdout, stderr, matrix, results, stats_json,
      fleet_stats ? "fleet" : "",
      fleet_stats ? serve::fleet_health_json(fleet) : "");
  if (fleet.degraded() || fleet.chaos_injected != 0) print_fleet_report(fleet);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  tools::SweepGrid grid;
  u32 jobs = 0;
  u64 fork_at = 0;
  bool stats_json = false;
  bool fleet_stats = false;
  std::vector<std::string> servers;
  serve::ShardOptions shard_options;

  tools::ArgCursor args(argc, argv);
  while (args.next()) {
    if (args.is("--help") || args.is("-h")) {
      usage();
      return 0;
    } else if (args.is("--version")) {
      tools::print_version("mlpsweep");
      return 0;
    } else if (args.is("--jobs") || args.is("-j")) {
      jobs = tools::parse_u32(args.flag(), args.value(), /*min=*/1);
    } else if (args.is("--fork-at")) {
      fork_at = tools::parse_u64(args.flag(), args.value(), /*min=*/1);
    } else if (args.is("--list-arches")) {
      std::vector<std::string> names;
      for (arch::ArchKind k : arch::all_arch_kinds()) {
        names.push_back(arch::arch_name(k));
      }
      std::fputs(tools::name_list_lines(names).c_str(), stdout);
      return 0;
    } else if (args.is("--list-benches")) {
      std::fputs(tools::name_list_lines(workloads::bmla_names()).c_str(),
                 stdout);
      return 0;
    } else if (args.is("--stats-json")) {
      stats_json = true;
    } else if (args.is("--server")) {
      for (const std::string& addr :
           tools::split_list(args.flag(), args.value())) {
        servers.push_back(addr);
      }
    } else if (args.is("--connect-timeout-ms")) {
      shard_options.connect_timeout_ms =
          static_cast<i64>(tools::parse_u64(args.flag(), args.value()));
    } else if (args.is("--request-timeout-ms")) {
      shard_options.request_timeout_ms =
          static_cast<i64>(tools::parse_u64(args.flag(), args.value()));
    } else if (args.is("--retry-budget")) {
      shard_options.retry_budget =
          tools::parse_u32(args.flag(), args.value());
    } else if (args.is("--no-failover")) {
      shard_options.failover = false;
    } else if (args.is("--chaos")) {
      try {
        shard_options.chaos = serve::parse_chaos(args.value());
      } catch (const SimError& e) {
        std::fprintf(stderr, "mlpsweep: %s\n", e.what());
        return 2;
      }
    } else if (args.is("--fleet-stats")) {
      fleet_stats = true;
    } else if (!grid.consume(args)) {
      return tools::unknown_flag(args.flag());
    }
  }

  const std::vector<sim::MatrixJob> matrix = grid.expand();

  if (!servers.empty()) {
    if (fork_at > 0) {
      std::fprintf(stderr, "mlpsweep: --fork-at runs locally; it cannot be "
                           "combined with --server\n");
      return 2;
    }
    std::string names = servers[0];
    for (std::size_t i = 1; i < servers.size(); ++i) names += "," + servers[i];
    std::fprintf(stderr, "mlpsweep: %zu grid points via %zu server(s): %s\n",
                 matrix.size(), servers.size(), names.c_str());
    try {
      return run_remote(servers, matrix, stats_json, shard_options,
                        fleet_stats);
    } catch (const SimError& e) {
      std::fprintf(stderr, "mlpsweep: %s\n", e.what());
      return 1;
    }
  }

  std::fprintf(stderr, "mlpsweep: %zu grid points on %u threads\n",
               matrix.size(),
               jobs == 0 ? sim::ThreadPool::default_threads() : jobs);
  // Warm prepare cache: grid points sharing (bench, records, seed, layout)
  // reuse one assembled program / record set / DRAM image / reference.
  sim::PrepareCache cache;
  sim::ForkStats fork;
  const std::vector<sim::MatrixResult> results =
      fork_at > 0
          ? sim::run_matrix_forked(matrix, fork_at, jobs, &cache, &fork)
          : sim::run_matrix(matrix, jobs, &cache);

  int exit_code = 0;
  if (!stats_json) std::fputs(sim::sweep_csv_header().c_str(), stdout);
  for (const sim::MatrixResult& run : results) {
    if (!run.ok()) {
      std::string point;
      for (const sim::Knob& knob : sim::knobs()) {
        if (knob.axis == sim::Knob::Axis::kNone) continue;
        point += " " + std::string(knob.key) + "=" +
                 sim::knob_text(knob, sim::knob_get(knob, run.job.options));
      }
      std::fprintf(stderr, "RUN FAILED %s/%s%s: %s\n",
                   arch::arch_name(run.job.kind), run.job.bench.c_str(),
                   point.c_str(), run.error.c_str());
      if (!run.diagnostic.empty()) {
        std::fprintf(stderr, "%s", run.diagnostic.c_str());
      }
      exit_code = 1;
      // Fall through: a failed point still gets its CSV row (config columns
      // + error message) so the table stays rectangular and in grid order.
    }
    if (!stats_json) std::fputs(sim::sweep_csv_row(run).c_str(), stdout);
  }
  if (stats_json) {
    // The fork footer is OPT-IN, exactly like the remote path's fleet
    // footer: without --fleet-stats the document stays byte-identical to a
    // plain (unforked) sweep's.
    if (fork_at > 0 && fleet_stats) {
      std::vector<std::string> stats_runs;
      stats_runs.reserve(results.size());
      for (const sim::MatrixResult& run : results) {
        stats_runs.push_back(sim::stats_json_run(run));
      }
      std::fputs(sim::stats_json_document(stats_runs, "fork",
                                          fork_stats_json(fork_at, fork))
                     .c_str(),
                 stdout);
    } else {
      std::fputs(sim::stats_json(results).c_str(), stdout);
    }
  }
  if (fork_at > 0) {
    std::fprintf(stderr,
                 "mlpsweep: fork-at %llu: %llu group(s), %llu point(s) "
                 "restored from warm snapshots, %llu ran in full, "
                 "%llu warmup cycles saved\n",
                 static_cast<unsigned long long>(fork_at),
                 static_cast<unsigned long long>(fork.groups),
                 static_cast<unsigned long long>(fork.forked_points),
                 static_cast<unsigned long long>(fork.unsafe_points),
                 static_cast<unsigned long long>(fork.warmup_cycles_saved));
  }
  const sim::PrepareCacheStats cs = cache.stats();
  std::fprintf(stderr,
               "mlpsweep: prepare cache %llu hits / %llu misses "
               "(%llu evictions)\n",
               static_cast<unsigned long long>(cs.hits),
               static_cast<unsigned long long>(cs.misses),
               static_cast<unsigned long long>(cs.evictions));
  return exit_code;
}
