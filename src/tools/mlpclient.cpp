// mlpclient — command-line client for the mlpserved simulation service.
//
//   mlpclient --socket /tmp/mlp.sock ping
//   mlpclient --socket /tmp/mlp.sock run --arch millipede --bench count
//   mlpclient --socket /tmp/mlp.sock submit --bench kmeans --hold-ms 500
//   mlpclient --socket /tmp/mlp.sock result --id 1 --wait
//   mlpclient --socket /tmp/mlp.sock sweep --arch all --bench count,kmeans
//   mlpclient --socket /tmp/mlp.sock shutdown
//
// Exit status: 0 on success, 1 on a typed server error (queue-full,
// no-such-job, ...) or a failed simulation, 2 on usage errors. `run` and
// `sweep` print the same CSV / stats-JSON bytes the local tools emit.

#include <cstdio>
#include <string>
#include <vector>

#include "argparse.hpp"
#include "remote_report.hpp"
#include "serve/client.hpp"
#include "serve/shard.hpp"
#include "sim/report.hpp"
#include "sweep_grid.hpp"

namespace {

using namespace mlp;

void usage() {
  std::printf(R"(mlpclient — client for the mlpserved simulation service

  mlpclient --socket ADDR COMMAND [flags]

ADDR is a Unix socket path ("/tmp/mlp.sock") or a TCP "HOST:PORT"
("127.0.0.1:7411") — same protocol, same bytes, either transport.

Commands:
  ping               handshake; prints protocol and schema versions
  status             server status (job counts, warm-cache counters)
  status --id N      one job's lifecycle state
  submit JOB         submit one job, print its id (--hold-ms N delays
                     execution; the job stays queued and cancellable)
  result --id N      fetch a finished job's CSV row (--wait blocks;
                     --stats-json prints the run's stats document instead)
  cancel --id N      cancel a queued job (running jobs are not preempted)
  run JOB            submit + wait + print (CSV with header, or
                     --stats-json document)
  sweep GRID         expand a config grid (same axes as mlpsweep), run it
                     through the daemon with queue-full-aware windowing,
                     print CSV rows in grid order (or --stats-json)
  shutdown           ask the daemon to drain and exit

Job flags (submit/run): --arch NAME --bench NAME --tag TEXT --hold-ms N,
  plus every run knob of the sweep grid below with a single value

Common:
  --raw                   print raw JSON response frames instead of decoding
  --connect-timeout-ms N  TCP handshake deadline; run and sweep also retry
                          a just-launched daemon that long (default 5000;
                          0 = block)
  --request-timeout-ms N  whole-roundtrip deadline; a silent server fails
                          the command with a typed timeout error instead of
                          hanging it (default 0 = no deadline)
  --version               print the toolchain version

%s)",
              tools::SweepGrid::help().c_str());
}

/// Typed server errors exit 1 with the kind on stderr so scripts (and the
/// CI queue-full assertion) can branch on the outcome.
int report_error(const serve::Response& r) {
  std::fprintf(stderr, "mlpclient: %s: %s\n", r.error.c_str(),
               r.message.c_str());
  return 1;
}

/// Parse one job's flags: the run knobs plus the job-only flags.
serve::JobSpec parse_job(tools::ArgCursor& args, bool* stats_json) {
  serve::JobSpec spec;
  spec.job.bench = "count";
  while (args.next()) {
    const std::string& arg = args.flag();
    if (args.is("--stats-json")) {
      *stats_json = true;
    } else if (args.is("--arch")) {
      const std::string name = args.value();
      if (!arch::arch_from_name(name, &spec.job.kind)) {
        tools::flag_error(arg, name, "a known architecture");
      }
    } else if (args.is("--bench")) {
      spec.job.bench = args.value();
    } else if (args.is("--tag")) {
      spec.job.tag = args.value();
    } else if (args.is("--hold-ms")) {
      spec.hold_ms = tools::parse_u64(arg, args.value());
    } else if (!tools::consume_knob(args, spec.job.options)) {
      std::exit(tools::unknown_flag(arg));
    }
  }
  return spec;
}

int print_response(const serve::Response& r, bool raw) {
  if (raw) {
    std::printf("%s\n", r.raw.c_str());
    return r.ok ? 0 : 1;
  }
  if (!r.ok) return report_error(r);
  // Generic decode for the simple commands: print the interesting members.
  if (r.type == "pong") {
    std::printf("pong: protocol %llu, stats schema %llu\n",
                static_cast<unsigned long long>(r.doc.u64_at("protocol_version")),
                static_cast<unsigned long long>(r.doc.u64_at("schema_version")));
  } else if (r.type == "submitted") {
    std::printf("%llu\n",
                static_cast<unsigned long long>(r.doc.u64_at("id")));
  } else if (r.type == "job-status") {
    std::printf("%s\n", r.doc.str_at("state").c_str());
  } else if (r.type == "status") {
    const trace::JsonValue* jobs = r.doc.find("jobs");
    const trace::JsonValue* cache = r.doc.find("cache");
    std::printf("accepting=%d threads=%llu queue_limit=%llu\n",
                r.doc.find("accepting")->boolean ? 1 : 0,
                static_cast<unsigned long long>(r.doc.u64_at("threads")),
                static_cast<unsigned long long>(r.doc.u64_at("queue_limit")));
    std::printf("jobs: queued=%llu running=%llu done=%llu cancelled=%llu\n",
                static_cast<unsigned long long>(jobs->u64_at("queued")),
                static_cast<unsigned long long>(jobs->u64_at("running")),
                static_cast<unsigned long long>(jobs->u64_at("done")),
                static_cast<unsigned long long>(jobs->u64_at("cancelled")));
    std::printf("cache: hits=%llu misses=%llu evictions=%llu entries=%llu "
                "image_bytes=%llu\n",
                static_cast<unsigned long long>(cache->u64_at("hits")),
                static_cast<unsigned long long>(cache->u64_at("misses")),
                static_cast<unsigned long long>(cache->u64_at("evictions")),
                static_cast<unsigned long long>(cache->u64_at("entries")),
                static_cast<unsigned long long>(cache->u64_at("image_bytes")));
  } else if (r.type == "shutting-down") {
    std::printf("shutting down\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string command;
  serve::ClientOptions client_options;
  bool raw = false;
  bool stats_json = false;
  bool wait = false;
  u64 id = 0;
  bool have_id = false;

  tools::ArgCursor args(argc, argv);
  // Phase 1: common flags up to the command word.
  while (args.next()) {
    if (args.is("--help") || args.is("-h")) {
      usage();
      return 0;
    } else if (args.is("--version")) {
      tools::print_version("mlpclient");
      return 0;
    } else if (args.is("--socket")) {
      socket_path = args.value();
    } else if (args.is("--raw")) {
      raw = true;
    } else if (args.is("--connect-timeout-ms")) {
      client_options.connect_timeout_ms =
          static_cast<i64>(tools::parse_u64(args.flag(), args.value()));
    } else if (args.is("--request-timeout-ms")) {
      client_options.request_timeout_ms =
          static_cast<i64>(tools::parse_u64(args.flag(), args.value()));
    } else if (args.flag().rfind("--", 0) == 0) {
      return tools::unknown_flag(args.flag());
    } else {
      command = args.flag();
      break;
    }
  }
  if (command.empty()) {
    std::fprintf(stderr, "mlpclient: no command (try --help)\n");
    return 2;
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "mlpclient: --socket ADDR is required\n");
    return 2;
  }

  try {
    serve::Client client(client_options);

    if (command == "run" || command == "sweep") {
      // These own the remaining argv; parse before connecting so usage
      // errors don't need a live daemon. Both run as a one-node fleet.
      serve::ShardOptions fleet;
      fleet.connect_timeout_ms = client_options.connect_timeout_ms;
      fleet.request_timeout_ms = client_options.request_timeout_ms;
      if (command == "run") {
        serve::JobSpec spec = parse_job(args, &stats_json);
        const std::vector<serve::RemoteResult> results =
            serve::run_matrix_sharded({socket_path}, {spec.job}, fleet);
        const serve::RemoteResult& r = results.at(0);
        if (!r.error.empty()) {
          std::fprintf(stderr, "mlpclient: %s: %s\n", r.error.c_str(),
                       r.message.c_str());
          return 1;
        }
        if (stats_json) {
          std::fputs(sim::stats_json_document({r.stats_run_json}).c_str(),
                     stdout);
        } else {
          std::fputs(sim::sweep_csv_header().c_str(), stdout);
          std::fputs(r.csv.c_str(), stdout);
        }
        return r.run_ok ? 0 : 1;
      }
      // sweep
      tools::SweepGrid grid;
      while (args.next()) {
        if (args.is("--stats-json")) {
          stats_json = true;
        } else if (!grid.consume(args)) {
          return tools::unknown_flag(args.flag());
        }
      }
      const std::vector<sim::MatrixJob> matrix = grid.expand();
      std::fprintf(stderr, "mlpclient: %zu grid points via %s\n",
                   matrix.size(), socket_path.c_str());
      const std::vector<serve::RemoteResult> results =
          serve::run_matrix_sharded({socket_path}, matrix, fleet);
      return tools::print_remote_results(stdout, stderr, matrix, results,
                                         stats_json);
    }

    if (command == "submit") {
      serve::JobSpec spec = parse_job(args, &stats_json);
      client.connect(socket_path);
      return print_response(client.submit(spec), raw);
    }

    // Remaining commands share the trailing flags: --id N --wait
    // --stats-json.
    while (args.next()) {
      if (args.is("--id")) {
        id = tools::parse_u64(args.flag(), args.value(), /*min=*/1);
        have_id = true;
      } else if (args.is("--wait")) {
        wait = true;
      } else if (args.is("--stats-json")) {
        stats_json = true;
      } else {
        return tools::unknown_flag(args.flag());
      }
    }
    client.connect(socket_path);

    serve::Response r;
    if (command == "ping") {
      r = client.ping();
    } else if (command == "status") {
      r = have_id ? client.job_status(id) : client.server_status();
    } else if (command == "result") {
      if (!have_id) {
        std::fprintf(stderr, "mlpclient: result needs --id N\n");
        return 2;
      }
      r = client.result(id, wait);
      if (r.ok && !raw) {
        const trace::JsonValue* state = r.doc.find("state");
        if (state != nullptr && state->string == "cancelled") {
          std::fprintf(stderr, "mlpclient: job %llu was cancelled\n",
                       static_cast<unsigned long long>(id));
          return 1;
        }
        const trace::JsonValue* run_ok = r.doc.find("run_ok");
        if (stats_json) {
          std::fputs(sim::stats_json_document({r.doc.str_at("stats")})
                         .c_str(),
                     stdout);
        } else {
          std::fputs(sim::sweep_csv_header().c_str(), stdout);
          std::fputs(r.doc.str_at("csv").c_str(), stdout);
        }
        return run_ok != nullptr && run_ok->boolean ? 0 : 1;
      }
      if (!r.ok && !raw) {
        return report_error(r);
      }
      // raw: fall through and print the response frame verbatim.
    } else if (command == "cancel") {
      if (!have_id) {
        std::fprintf(stderr, "mlpclient: cancel needs --id N\n");
        return 2;
      }
      r = client.cancel(id);
    } else if (command == "shutdown") {
      r = client.shutdown();
    } else {
      std::fprintf(stderr, "mlpclient: unknown command \"%s\" (try --help)\n",
                   command.c_str());
      return 2;
    }
    return print_response(r, raw);
  } catch (const SimError& e) {
    std::fprintf(stderr, "mlpclient: %s\n", e.what());
    return 1;
  }
}
