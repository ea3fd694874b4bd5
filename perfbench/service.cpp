// service_mix: an in-process mlpserved (2 simulation workers, TCP on
// 127.0.0.1) driven by two closed-loop client connections. Each client runs
// a seeded script over the service_bench verb mix — submit + result-wait,
// ping + status, cancel of a finished job, snapshot + restore — with job
// specs drawn from a 4 arch x 4 bench x 2 cores x 2 fault-rate (the faulty
// one with ECC) grid of 256-record jobs on the four lightest kernels.
// Framing, queueing, prepare-cache lookups and snapshot capture/restore sit
// on every request; each simulation is small (a fraction of a millisecond).
//
// wall_s and sim_mips come from the same specs run in-process without the
// daemon, so jobs_per_s can be read against the local cost of the jobs.
//
// Threads: main, the daemon's accept loop and the two client threads; the
// daemon adds its two workers and one handler per connection. The process
// pins itself to one CPU before it starts any of them: every request is a
// chain of cross-thread wake-ups, and on a shared virtual machine a wake-up
// sent to another, idle CPU costs whatever the host takes to run it again.
// On one CPU a wake-up is a local context switch, so jobs_per_s measures the
// CPU time the service spends per job, not the host's scheduling. Queueing
// between the two clients and the two workers still happens; running them
// in parallel does not.
//
// The script length is fixed by --seconds (one pass per second; a pass is
// under a second of work on an idle host), not by the clock: the daemon
// keeps every finished job's result until exit, so a clock-bound run would
// make peak_rss_mb follow host speed.

#include <sched.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "arch/system.hpp"
#include "bench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/prepare.hpp"
#include "sim/report.hpp"

namespace perfbench {

namespace {

namespace serve = mlp::serve;
using mlp::arch::ArchKind;
using mlp::sim::MatrixJob;
using mlp::sim::MatrixResult;

constexpr u32 kClients = 2;
constexpr u32 kWorkers = 2;
constexpr u32 kRoundsPerPass = 500;  ///< per client
/// Specs per (arch, bench) pair: 2 core counts x 2 fault rates, innermost
/// in spec_grid().
constexpr u32 kConfigsPerPair = 4;
constexpr u64 kRecords = 256;
constexpr u64 kSnapshotCycle = 1;     ///< always quiescent: deterministic
constexpr std::size_t kMaxFrames = 4000;  ///< recorded per client, traced
/// The four lightest kernels: the simulations stay small.
const std::vector<std::string> kBenches = {"count", "sample", "variance",
                                           "nbayes"};

std::vector<serve::JobSpec> spec_grid(u64 seed) {
  std::vector<serve::JobSpec> specs;
  for (const ArchKind kind : {ArchKind::kMillipede, ArchKind::kSsmc,
                              ArchKind::kGpgpu, ArchKind::kMulticore}) {
    for (const std::string& bench : kBenches) {
      for (const u32 cores : {16u, 32u}) {
        for (const double fault_rate : {0.0, 1e-4}) {
          serve::JobSpec spec;
          MatrixJob& job = spec.job;
          job.kind = kind;
          job.bench = bench;
          job.tag = "service_mix";
          job.options.records = kRecords;
          job.options.seed = seed;
          job.options.cfg.core.cores = cores;
          job.options.cfg.gpgpu.warp_width = cores;  // as job_from_json does
          job.options.cfg.dram.fault.bit_flip_rate = fault_rate;
          job.options.cfg.dram.fault.ecc = fault_rate > 0;
          job.options.cfg.dram.fault.seed = seed;
          specs.push_back(spec);
        }
      }
    }
  }
  return specs;
}

enum class Verb : mlp::u8 { kPing, kSubmit, kStatus, kResult, kCancel, kSnapshot,
                       kRestore };

const char* verb_span(Verb v) {
  switch (v) {
    case Verb::kPing: return "serve::Client::ping";
    case Verb::kSubmit: return "serve::Client::submit";
    case Verb::kStatus: return "serve::Client::server_status";
    case Verb::kResult: return "serve::Client::result";
    case Verb::kCancel: return "serve::Client::cancel";
    case Verb::kSnapshot: return "serve::Client::snapshot";
    case Verb::kRestore: return "serve::Client::restore";
  }
  return "?";
}

/// Seeded draws without replacement: the items of a seeded shuffle of
/// 0..n-1, reshuffled when used up. Every n draws hold each item once, so a
/// pass's verb mix and spec mix barely depend on the seed.
class Deck {
 public:
  Deck(u32 n, u64 seed) : rng_(seed), items_(n) {}

  u32 draw() {
    if (next_ == items_.size()) {
      for (u32 i = 0; i < items_.size(); ++i) items_[i] = i;
      for (std::size_t i = items_.size(); i > 1; --i) {  // Fisher-Yates
        std::swap(items_[i - 1], items_[rng_.below(i)]);
      }
      next_ = 0;
    }
    return items_[next_++];
  }

 private:
  mlp::Rng rng_;
  std::vector<u32> items_;
  std::size_t next_ = items_.size();  ///< used up: shuffle on next draw
};

/// A sent request, kept (traced passes only) to re-time its encoding.
struct SentRequest {
  Verb verb;
  u32 spec;
  u64 id;
};

/// One closed-loop client: its connection, script generator and tallies.
struct ClientState {
  ClientState(u32 client, u64 seed, std::size_t nspecs)
      : index(client),
        groups(5, seed * 1000003 + client),
        specs(static_cast<u32>(nspecs), seed * 1000003 + client + 500),
        payload(nspecs) {}

  u32 index;
  Deck groups;  ///< verb group of each round, see ClientRunner::round
  Deck specs;
  serve::Client conn;
  u64 requests = 0;
  u64 failed = 0;
  u64 submit_attempts = 0;
  u64 admitted = 0;
  std::vector<double> latency_ms;   ///< untraced passes
  std::vector<std::string> payload; ///< per spec: first csv + stats seen
  std::vector<std::string> errors;  ///< first few failures
  std::vector<std::string> frames;  ///< traced: raw response frames
  std::vector<SentRequest> sent;    ///< traced: requests to re-encode
};

class ClientRunner {
 public:
  ClientRunner(ClientState* c, const std::vector<serve::JobSpec>& specs,
               Spans& spans, bool traced)
      : c_(c), specs_(specs), spans_(spans), traced_(traced) {}

  void round(u64 request) {
    request_ = (static_cast<u64>(c_->index) << 48) | request;
    const u32 op = c_->groups.draw();
    const u32 s = c_->specs.draw();
    static const char* const kGroups[] = {"submit+result", "submit+result",
                                          "ping+status", "submit+cancel",
                                          "snapshot+restore"};
    Spans::Scope span(spans_, "client.request", kGroups[op], request_);
    switch (op) {
      case 0:
      case 1:
        fetch(submit(s), s);
        break;
      case 2:
        expect_ok(call(Verb::kPing, s, 0), "ping");
        expect_ok(call(Verb::kStatus, s, 0), "status");
        break;
      case 3: {
        const u64 id = submit(s);
        fetch(id, s);
        const serve::Response r = call(Verb::kCancel, s, id);
        if (r.ok || r.error != serve::kErrJobDone) {
          failure("cancel of a finished job answered " +
                  (r.ok ? std::string("ok") : r.error));
        }
        break;
      }
      case 4: {
        const u32 own = owned_spec(s);
        const serve::Response snap = call(Verb::kSnapshot, own, 0);
        const mlp::trace::JsonValue* captured = snap.doc.find("captured");
        if (!snap.ok || captured == nullptr || !captured->boolean) {
          failure("snapshot did not capture: " + snap.error);
        }
        check_payload(snap, own, "snapshot");
        check_payload(call(Verb::kRestore, own, 0), own, "restore");
        break;
      }
    }
  }

 private:
  /// The daemon keys snapshot blobs by (prepare key, arch, cycle) only, so
  /// a capture by one client can replace another client's blob of the same
  /// (arch, bench) under a different cores / fault config, and the other
  /// client's restore then fails. Each client therefore snapshots only the
  /// (arch, bench) pairs it owns; `s` picks the pair and config.
  u32 owned_spec(u32 s) const {
    const u32 pair = s / kConfigsPerPair;
    const u32 owned_pair = pair - pair % kClients + c_->index;
    return owned_pair * kConfigsPerPair + s % kConfigsPerPair;
  }

  serve::Response call(Verb verb, u32 s, u64 id) {
    const serve::JobSpec& spec = specs_[s];
    const Clock::time_point start = Clock::now();
    serve::Response r;
    {
      const bool has_spec = verb != Verb::kPing && verb != Verb::kStatus;
      Spans::Scope span(spans_, verb_span(verb),
                        has_spec ? std::string(mlp::arch::arch_name(
                                       spec.job.kind)) +
                                       "/" + spec.job.bench
                                 : std::string(),
                        request_);
      switch (verb) {
        case Verb::kPing: r = c_->conn.ping(); break;
        case Verb::kSubmit: r = c_->conn.submit(spec); break;
        case Verb::kStatus: r = c_->conn.server_status(); break;
        case Verb::kResult: r = c_->conn.result(id, /*wait=*/true); break;
        case Verb::kCancel: r = c_->conn.cancel(id); break;
        case Verb::kSnapshot:
          r = c_->conn.snapshot(spec, kSnapshotCycle);
          break;
        case Verb::kRestore:
          r = c_->conn.restore(spec, kSnapshotCycle);
          break;
      }
    }
    ++c_->requests;
    if (traced_) {
      if (c_->frames.size() < kMaxFrames) {
        c_->frames.push_back(r.raw);
        c_->sent.push_back(SentRequest{verb, s, id});
      }
    } else {
      c_->latency_ms.push_back(since(start) * 1e3);
    }
    return r;
  }

  u64 submit(u32 s) {
    u64 backoff_ms = 1;
    for (;;) {
      ++c_->submit_attempts;
      const serve::Response r = call(Verb::kSubmit, s, 0);
      if (r.ok) {
        ++c_->admitted;
        return r.doc.u64_at("id");
      }
      if (r.error != serve::kErrQueueFull) {
        failure("submit refused: " + r.error);
        return 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min<u64>(backoff_ms * 2, 64);
    }
  }

  void fetch(u64 id, u32 s) {
    if (id == 0) return;
    const serve::Response r = call(Verb::kResult, s, id);
    if (!r.ok || r.doc.str_at("state") != "done") {
      failure("result not done: " + r.error);
      return;
    }
    check_payload(r, s, "result");
  }

  /// A returned simulation must be verified and bit-identical to every
  /// other return of the same spec (and, after the run, to a local run).
  void check_payload(const serve::Response& r, u32 s, const char* verb) {
    if (!r.ok) {
      failure(std::string(verb) + " failed: " + r.error + ": " + r.message);
      return;
    }
    serve::RemoteResult result;
    serve::decode_result_response(r, &result);
    if (!result.run_ok) {
      failure(std::string(verb) + " returned a failed run");
      return;
    }
    std::string payload = result.csv + result.stats_run_json;
    if (c_->payload[s].empty()) {
      c_->payload[s] = std::move(payload);
    } else if (c_->payload[s] != payload) {
      failure(std::string(verb) + " result differs from an earlier one");
    }
  }

  void expect_ok(const serve::Response& r, const char* verb) {
    if (!r.ok) failure(std::string(verb) + " failed: " + r.error);
  }

  void failure(const std::string& why) {
    ++c_->failed;
    if (c_->errors.size() < 5) c_->errors.push_back(why);
  }

  ClientState* c_;
  const std::vector<serve::JobSpec>& specs_;
  Spans& spans_;
  bool traced_;
  u64 request_ = 0;  ///< client index << 48 | round number
};

/// A running in-process daemon plus the client connections to it.
struct Service {
  std::unique_ptr<serve::Server> server;
  std::thread accept_loop;
  std::vector<std::unique_ptr<ClientState>> clients;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() { stop(); }

  void start(u64 seed, std::size_t nspecs) {
    serve::ServeConfig cfg;
    cfg.listen_address = "127.0.0.1:0";
    cfg.threads = kWorkers;
    server = std::make_unique<serve::Server>(cfg);
    server->listen();
    accept_loop = std::thread([this] { server->run(); });
    for (u32 i = 0; i < kClients; ++i) {
      auto c = std::make_unique<ClientState>(i, seed, nspecs);
      c->conn.connect(server->tcp_address());
      clients.push_back(std::move(c));
    }
  }

  void stop() {
    for (auto& c : clients) c->conn.close();
    if (server != nullptr) server->request_stop();
    if (accept_loop.joinable()) accept_loop.join();
  }
};

/// Restricts this thread, and every thread it starts later, to the CPU it is
/// running on; returns that CPU, or -1 when the affinity cannot be set.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

/// Runs every spec locally and checks each simulation the daemon returned
/// for it against that run, byte for byte (remote == local).
std::vector<MatrixResult> check_against_local(
    const std::vector<serve::JobSpec>& specs,
    const std::vector<std::unique_ptr<ClientState>>& clients,
    mlp::sim::PrepareCache* cache, Outcome* out) {
  std::vector<MatrixResult> twins;
  for (u32 s = 0; s < specs.size(); ++s) {
    twins.push_back(mlp::sim::run_job(specs[s].job, cache));
    const MatrixResult& twin = twins.back();
    if (!twin.ok()) {
      out->fail("local run of spec failed: " + twin.error);
      continue;
    }
    const std::string local =
        mlp::sim::sweep_csv_row(twin) + mlp::sim::stats_json_run(twin);
    for (const auto& c : clients) {
      if (!c->payload[s].empty() && c->payload[s] != local) {
        out->fail("served result differs from the local run of " +
                  std::string(mlp::arch::arch_name(specs[s].job.kind)) + "/" +
                  specs[s].job.bench);
      }
    }
  }
  return twins;
}

/// Re-times request encoding and response parsing on the frames the traced
/// passes sent and received; sets serve.encode_us and serve.parse_us.
void time_frames(const std::vector<serve::JobSpec>& specs,
                 const std::vector<std::unique_ptr<ClientState>>& clients,
                 Spans& spans, Outcome* out) {
  u64 encoded = 0;
  u64 parsed = 0;
  double encode_s = 0;
  double parse_s = 0;
  for (const auto& c : clients) {
    {
      Spans::Scope span(spans, "serve::encode", "recorded requests");
      const Clock::time_point start = Clock::now();
      std::size_t bytes = 0;
      for (const SentRequest& req : c->sent) {
        const serve::JobSpec& spec = specs[req.spec];
        switch (req.verb) {
          case Verb::kPing: bytes += serve::ping_request().size(); break;
          case Verb::kSubmit:
            bytes += serve::submit_request(spec).size();
            break;
          case Verb::kStatus: bytes += serve::status_request().size(); break;
          case Verb::kResult:
            bytes += serve::result_request(req.id, true).size();
            break;
          case Verb::kCancel:
            bytes += serve::cancel_request(req.id).size();
            break;
          case Verb::kSnapshot:
            bytes += serve::snapshot_request(spec, kSnapshotCycle).size();
            break;
          case Verb::kRestore:
            bytes += serve::restore_request(spec, kSnapshotCycle).size();
            break;
        }
      }
      encode_s += since(start);
      encoded += c->sent.size();
      if (bytes == 0 && !c->sent.empty()) out->fail("empty request encoding");
    }
    Spans::Scope span(spans, "serve::parse_response", "recorded responses");
    const Clock::time_point start = Clock::now();
    for (const std::string& frame : c->frames) {
      if (serve::parse_response(frame).type.empty()) {
        out->fail("recorded response has no type");
      }
    }
    parse_s += since(start);
    parsed += c->frames.size();
  }
  out->set("serve.encode_us", ratio(encode_s * 1e6, static_cast<double>(encoded)),
          "us");
  out->set("serve.parse_us", ratio(parse_s * 1e6, static_cast<double>(parsed)),
          "us");

}

/// The same specs without the daemon: every spec through sim::run_job plus
/// the CSV row and stats-JSON object the daemon renders for each job, in
/// one thread, repeated. Sets wall_s and sim_mips (median pass), the local
/// cost that jobs_per_s is read against.
void run_local_passes(const std::vector<serve::JobSpec>& specs,
                      const std::vector<MatrixResult>& twins,
                      mlp::sim::PrepareCache* cache, Outcome* out) {
  constexpr int kLocalPasses = 60;
  double instructions = 0;
  for (const MatrixResult& t : twins) {
    instructions += static_cast<double>(t.result.thread_instructions);
  }
  std::vector<double> pass_s;
  std::vector<double> sim_s;
  for (int p = 0; p < kLocalPasses; ++p) {
    const Clock::time_point start = Clock::now();
    double sim = 0;
    bool same = true;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const Clock::time_point t0 = Clock::now();
      const MatrixResult r = mlp::sim::run_job(specs[s].job, cache);
      sim += since(t0);
      const std::string rendered =
          mlp::sim::sweep_csv_row(r) + mlp::sim::stats_json_run(r);
      same = same && rendered == mlp::sim::sweep_csv_row(twins[s]) +
                                     mlp::sim::stats_json_run(twins[s]);
    }
    pass_s.push_back(since(start));
    sim_s.push_back(sim);
    if (!same) out->fail("a local pass differs from the first local run");
  }
  out->set("wall_s", median(pass_s), "s");
  out->set("sim_mips", instructions / median(sim_s) / 1e6, "Minst/s");
  out->note(fmt("local passes: %d x %zu specs, median %.4f s",
                kLocalPasses, specs.size(), median(pass_s)));
}

}  // namespace

Outcome run_service_workload(const Options& opt, Spans& spans) {
  Outcome out;
  const int cpu = pin_to_current_cpu();
  out.note(cpu < 0 ? std::string("could not pin to one CPU: threads float")
                   : fmt("pinned to CPU %d with every thread it starts", cpu));
  const std::vector<serve::JobSpec> specs = spec_grid(opt.seed);
  spans.set_enabled(opt.trace);
  Spans::Scope workload_span(spans, "workload", opt.workload);

  std::vector<MatrixJob> spec_jobs;
  for (const serve::JobSpec& spec : specs) spec_jobs.push_back(spec.job);
  const std::vector<MatrixJob> keys = distinct_keys(spec_jobs);

  // Set-up: start the daemon, connect both clients and warm every distinct
  // prepare key through a submit + result-wait; repeated on fresh daemons,
  // the last one serves the passes.
  constexpr int kSetupReps = 15;
  std::vector<double> setup_s;
  auto service = std::make_unique<Service>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) service = std::make_unique<Service>();
    Spans::Scope span(spans, "setup", std::to_string(rep));
    const Clock::time_point start = Clock::now();
    service->start(opt.seed, specs.size());
    ClientState& c = *service->clients[0];
    for (const MatrixJob& key : keys) {
      const serve::Response r = c.conn.submit(serve::JobSpec{key, 0});
      const serve::Response done =
          r.ok ? c.conn.result(r.doc.u64_at("id"), true) : r;
      if (!done.ok || done.doc.str_at("state") != "done") {
        out.fail("set-up job failed: " + done.error);
      }
    }
    setup_s.push_back(since(start));
  }
  std::vector<std::unique_ptr<ClientState>>& clients = service->clients;

  // Passes: a fixed script length; a traced run alternates untraced and
  // traced passes.
  const u64 npasses = std::max<u64>(3, static_cast<u64>(opt.seconds));
  std::vector<double> pass_s;
  std::vector<double> traced_s;
  std::vector<double> jobs_per_s;
  const Clock::time_point loop_start = Clock::now();
  for (u64 index = 0; index < npasses; ++index) {
    if (since(loop_start) > 3.0 * static_cast<double>(npasses)) {
      out.fail("script ran past three times its time budget");
      break;
    }
    const bool traced = opt.trace && index % 2 == 1;
    spans.set_enabled(traced);
    u64 admitted_before = 0;
    for (const auto& c : clients) admitted_before += c->admitted;

    const Clock::time_point start = Clock::now();
    {
      Spans::Scope span(spans, "pass", std::to_string(index));
      const i64 pass_span = Spans::current();
      std::vector<std::thread> threads;
      for (auto& c : clients) {
        threads.emplace_back([&, cs = c.get()] {
          Spans::adopt(pass_span);
          ClientRunner runner(cs, specs, spans, traced);
          for (u32 r = 0; r < kRoundsPerPass; ++r) {
            runner.round(index * kRoundsPerPass + r);
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    const double wall = since(start);
    spans.set_enabled(opt.trace);
    u64 admitted = 0;
    for (const auto& c : clients) admitted += c->admitted;
    admitted -= admitted_before;
    if (traced) {
      traced_s.push_back(wall);
    } else {
      pass_s.push_back(wall);
      jobs_per_s.push_back(static_cast<double>(admitted) / wall);
    }
  }

  // The daemon's prepare-cache counters, then shut it down.
  const serve::Response status = clients[0]->conn.server_status();
  u64 cache_hits = 0;
  u64 cache_lookups = 0;
  if (const mlp::trace::JsonValue* cache = status.doc.find("cache")) {
    cache_hits = cache->u64_at("hits");
    cache_lookups = cache_hits + cache->u64_at("misses");
  } else {
    out.fail("status response lacks cache counters");
  }
  service->stop();

  // Correctness: every response as expected, and every returned simulation
  // bit-identical to the same spec run locally (remote == local).
  std::vector<double> latency_ms;
  u64 submit_attempts = 0;
  u64 admitted = 0;
  for (const auto& c : clients) {
    out.attempted += c->requests;
    out.failed += c->failed;
    submit_attempts += c->submit_attempts;
    admitted += c->admitted;
    latency_ms.insert(latency_ms.end(), c->latency_ms.begin(),
                      c->latency_ms.end());
    for (const std::string& e : c->errors) out.note("request failed: " + e);
  }
  spans.set_enabled(false);
  mlp::sim::PrepareCache local_cache;
  const std::vector<MatrixResult> twins =
      check_against_local(specs, clients, &local_cache, &out);
  if (out.failed != 0) {
    out.fail(fmt("%llu requests failed",
                 static_cast<unsigned long long>(out.failed)));
  }

  run_local_passes(specs, twins, &local_cache, &out);

  std::vector<MatrixResult> accuracy_points;
  for (const MatrixJob& job : accuracy_jobs(opt.seed)) {
    accuracy_points.push_back(mlp::sim::run_job(job, &local_cache));
    if (!accuracy_points.back().ok()) {
      out.fail("accuracy point failed: " + accuracy_points.back().error);
    }
  }
  add_accuracy_metrics(accuracy_points, &out);
  spans.set_enabled(opt.trace);

  out.note(fmt("model.digest = %016llx over %zu specs",
               static_cast<unsigned long long>(model_digest(twins)),
               twins.size()));
  out.note(fmt("failed_frac = %.6g (%llu / %llu requests)",
               ratio(static_cast<double>(out.failed),
                     static_cast<double>(out.attempted)),
               static_cast<unsigned long long>(out.failed),
               static_cast<unsigned long long>(out.attempted)));
  out.note(fmt("passes: %zu untraced, %zu traced, %u rounds per client each; "
               "%zu latency samples",
               pass_s.size(), traced_s.size(), kRoundsPerPass,
               latency_ms.size()));

  out.note(fmt("untraced pass wall times: min %.4f s, median %.4f s, max "
               "%.4f s",
               *std::min_element(pass_s.begin(), pass_s.end()),
               median(pass_s),
               *std::max_element(pass_s.begin(), pass_s.end())));
  out.set("setup_s", median(setup_s), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("jobs_per_s", median(jobs_per_s), "1/s");
  out.set("request_p50_ms", percentile(latency_ms, 50), "ms");
  out.set("request_p99_ms", percentile(latency_ms, 99), "ms");

  if (!opt.trace) return out;

  // ---- per-layer metrics (traced run) ----
  add_counter_metrics(twins, &out);
  out.note("counter metrics cover one local run of each of the " +
           std::to_string(twins.size()) + " specs");
  out.set("prepare.keys", static_cast<double>(keys.size()), "count");
  out.set("prepare.hit_ratio",
          ratio(static_cast<double>(cache_hits),
                static_cast<double>(cache_lookups)),
          "ratio");
  out.note(fmt("prepare.hit_ratio base: %llu hits / %llu lookups",
               static_cast<unsigned long long>(cache_hits),
               static_cast<unsigned long long>(cache_lookups)));
  out.set("serve.admit_ratio",
          ratio(static_cast<double>(admitted),
                static_cast<double>(submit_attempts)),
          "ratio");
  out.note(fmt("serve.admit_ratio base: %llu admitted / %llu submits",
               static_cast<unsigned long long>(admitted),
               static_cast<unsigned long long>(submit_attempts)));
  out.set("trace.overhead_frac", median(traced_s) / median(pass_s) - 1.0,
          "ratio");

  time_frames(specs, clients, spans, &out);
  add_prepare_split(keys, spans, &out);
  run_component_loops(kBenches, mlp::MachineConfig::paper_defaults(),
                        opt.seed, spans, &out);

  const std::vector<Span> recorded = spans.snapshot();
  const auto verb_percentiles = [&](const char* span_name,
                                    const std::string& metric) {
    const std::vector<double> ms = span_durations_ms(recorded, span_name);
    out.set(metric + "_p50_ms", percentile(ms, 50), "ms");
    out.set(metric + "_p99_ms", percentile(ms, 99), "ms");
    out.note(fmt("%s: %zu samples", metric.c_str(), ms.size()));
  };
  verb_percentiles("serve::Client::ping", "serve.ping");
  verb_percentiles("serve::Client::submit", "serve.submit");
  verb_percentiles("serve::Client::server_status", "serve.status");
  verb_percentiles("serve::Client::result", "serve.result");
  verb_percentiles("serve::Client::cancel", "serve.cancel");
  verb_percentiles("serve::Client::snapshot", "snapshot.capture");
  verb_percentiles("serve::Client::restore", "snapshot.restore");
  return out;
}

}  // namespace perfbench
