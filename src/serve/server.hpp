#pragma once
// mlpserved core: a persistent simulation service. One Server owns
//
//  * up to two listening sockets — Unix-domain and/or TCP — speaking the
//    same serve/protocol framing (the transport is invisible above accept),
//  * a sim::ThreadPool executing admitted jobs,
//  * a bounded admission queue — when the number of not-yet-finished jobs
//    reaches `queue_limit`, submits are REJECTED with a typed queue-full
//    error (backpressure the client can see), never silently dropped,
//  * a sim::PrepareCache keeping assembled programs, record sets, initial
//    DRAM images and golden references warm across jobs, so a 4-arch ×
//    8-bench matrix assembles each kernel once instead of 32 times.
//
// Lifecycle: run() blocks in the accept loop until request_stop() (SIGTERM/
// SIGINT handler or a shutdown request) and then DRAINS — queued and running
// jobs complete (their results stay fetchable until exit), new submits are
// refused with shutting-down, and in-flight jobs remain under the per-job
// forward-progress watchdog, so drain cannot hang on a wedged simulation.
// Connections are handled one thread each; results are plain protocol
// responses carrying the run's CSV row and its stats-JSON object.

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "sim/fork.hpp"
#include "sim/pool.hpp"
#include "sim/prepare.hpp"

namespace mlp::serve {

struct ServeConfig {
  std::string socket_path;  ///< AF_UNIX path (sun_path limit ~107 chars)
  /// TCP listen address "HOST:PORT" (port 0 = ephemeral, discover through
  /// tcp_port()). Either endpoint may be empty; at least one is required.
  std::string listen_address;
  u32 threads = 0;          ///< simulation workers; 0 = hardware threads
  /// Admission bound: maximum jobs queued-or-running at once. A submit
  /// beyond it gets a typed queue-full rejection.
  u64 queue_limit = 64;
  std::size_t cache_entries = sim::PrepareCache::kDefaultEntries;
  /// Snapshot-blob cache capacity (protocol v2 snapshot/restore verbs);
  /// LRU-evicted. Blobs can reach tens of MB for big images, so the bound
  /// is entries, with blob_bytes observable through status.
  std::size_t snapshot_entries = sim::SnapshotCache::kDefaultEntries;
  /// Wall-clock budget per job in ms (0 = unlimited). Caps every job's
  /// watchdog.wall_ms — the backstop for the hang class the cycle watchdog
  /// cannot see (a simulation making nominal forward progress forever). A
  /// trip surfaces as a typed "job-timeout" error in the job's result.
  u64 job_timeout_ms = 0;
};

class Server {
 public:
  explicit Server(const ServeConfig& cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on every configured endpoint; throws SimError("serve",
  /// ...) on socket errors (path too long, address in use, ...). Separate
  /// from run() so callers can report readiness before blocking.
  void listen();

  /// Accept/serve until request_stop(), then drain in-flight jobs and
  /// return. The accept loop polls with a 100 ms timeout so a signal
  /// handler's request_stop() is honoured promptly without self-pipes.
  void run();

  /// Async-signal-safe stop request (only touches lock-free state).
  void request_stop();

  /// Aggregate counters for the status response (also used by tests).
  ServerStatus status() const;

  const std::string& socket_path() const { return cfg_.socket_path; }

  /// Bound TCP port after listen(); 0 when no TCP endpoint is configured.
  /// With a ":0" listen address this is how the ephemeral port is found.
  u16 tcp_port() const { return tcp_port_; }

  /// "host:port" client address of the TCP listener ("" without one).
  std::string tcp_address() const;

 private:
  struct JobEntry {
    JobSpec spec;
    JobState state = JobState::kQueued;
    sim::MatrixResult result;
    bool cache_hit = false;
    /// Set when the hold/queue wait should end early (cancel or drain).
    bool wake = false;
    /// Per-job wakeups (result-waiters, held workers). A single server-wide
    /// condition variable broadcasts every completion to EVERY parked
    /// connection — O(clients) wakeups per job, which melts down at
    /// thousand-client fan-in; map entries are address-stable, so each job
    /// carries its own.
    std::condition_variable cv;
  };

  std::string handle_request(const std::string& payload);
  std::string handle_submit(const trace::JsonValue& doc);
  std::string handle_status(const trace::JsonValue& doc);
  std::string handle_result(const trace::JsonValue& doc);
  std::string handle_cancel(const trace::JsonValue& doc);
  /// Protocol v2 verbs; both run SYNCHRONOUSLY on the connection thread
  /// (the caller wants the state transition, not a ticket) and require the
  /// request to declare "protocol_version":2.
  std::string handle_snapshot(const trace::JsonValue& doc);
  std::string handle_restore(const trace::JsonValue& doc);
  void execute(u64 id);
  void serve_connection(int fd);

  void close_listeners();

  ServeConfig cfg_;
  int unix_fd_ = -1;  ///< AF_UNIX listener (-1 when not configured)
  int tcp_fd_ = -1;   ///< AF_INET listener (-1 when not configured)
  u16 tcp_port_ = 0;  ///< actual bound TCP port (resolves ":0" bindings)
  std::atomic<bool> stop_{false};

  std::unique_ptr<sim::ThreadPool> pool_;
  sim::PrepareCache cache_;
  /// Captured snapshot blobs keyed by fork key, fault rates and requested
  /// cycle; thread-safe, shared by every connection thread. Blobs never
  /// leave the daemon.
  sim::SnapshotCache snapshots_;

  mutable std::mutex mutex_;
  std::map<u64, JobEntry> jobs_;
  u64 next_id_ = 1;
  u64 active_ = 0;  ///< queued + running (the admission-bounded population)

  std::mutex threads_mutex_;
  std::vector<std::thread> connection_threads_;
  std::vector<int> open_fds_;  ///< live connection sockets, for drain
};

}  // namespace mlp::serve
