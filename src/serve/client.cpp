#include "serve/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "serve/health.hpp"
#include "serve/transport.hpp"

namespace mlp::serve {

namespace {

/// Connection ordinal feeding each connection's decorrelated chaos stream.
std::atomic<u64> g_connection_serial{0};

}  // namespace

Client::~Client() { close(); }

void Client::connect(const std::string& address) {
  close();
  fd_ = connect_endpoint(parse_endpoint(address), options_.connect_timeout_ms);
  if (options_.chaos.enabled()) {
    chaos_.emplace(options_.chaos,
                   g_connection_serial.fetch_add(1,
                                                 std::memory_order_relaxed));
  }
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  chaos_.reset();
}

Response Client::roundtrip(const std::string& request) {
  MLP_SIM_CHECK(fd_ >= 0, "serve", "not connected");
  const i64 timeout = options_.request_timeout_ms;
  bool skip_write = false;
  if (chaos_) {
    switch (chaos_->next()) {
      case ChaosInjector::Action::kNone:
        break;
      case ChaosInjector::Action::kDelay:
        // Injected latency only; the frame still goes out.
        health_counters().chaos_injected.fetch_add(1,
                                                   std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(chaos_->delay_ms()));
        break;
      case ChaosInjector::Action::kDrop:
        health_counters().chaos_injected.fetch_add(1,
                                                   std::memory_order_relaxed);
        if (timeout > 0) {
          // Swallow the request and let the response read run into the
          // deadline — the exact signature of a hung peer.
          skip_write = true;
          break;
        }
        // Without a deadline a dropped frame would hang forever; degrade
        // to a close so the caller still sees a clean transport failure.
        close();
        throw SimError("serve", "chaos: request frame dropped "
                                "(no request deadline; closed)");
      case ChaosInjector::Action::kTruncate: {
        health_counters().chaos_injected.fetch_add(1,
                                                   std::memory_order_relaxed);
        // Half a frame on the wire: header promising the full payload,
        // then silence — the peer sees a mid-frame close and drops us.
        const u32 len = static_cast<u32>(request.size());
        const char header[4] = {static_cast<char>(len & 0xff),
                                static_cast<char>((len >> 8) & 0xff),
                                static_cast<char>((len >> 16) & 0xff),
                                static_cast<char>((len >> 24) & 0xff)};
        ::send(fd_, header, sizeof(header), MSG_NOSIGNAL);
        if (len > 1) ::send(fd_, request.data(), len / 2, MSG_NOSIGNAL);
        close();
        throw SimError("serve", "chaos: request frame truncated");
      }
      case ChaosInjector::Action::kClose:
        health_counters().chaos_injected.fetch_add(1,
                                                   std::memory_order_relaxed);
        close();
        throw SimError("serve", "chaos: connection closed before request");
    }
  }
  try {
    if (!skip_write) {
      MLP_SIM_CHECK(write_frame(fd_, request, timeout), "serve",
                    "connection lost while sending request");
    }
    std::optional<std::string> frame = read_frame(fd_, timeout);
    MLP_SIM_CHECK(frame.has_value(), "serve",
                  "server closed the connection before responding");
    return parse_response(*frame);
  } catch (const SimError& e) {
    if (e.kind() == kErrTimeout) {
      // The half-finished exchange poisons the byte stream; drop it so the
      // next request cannot desync against a late response.
      health_counters().request_timeouts.fetch_add(
          1, std::memory_order_relaxed);
      close();
    }
    throw;
  }
}

Response Client::ping() { return roundtrip(ping_request()); }
Response Client::submit(const JobSpec& spec) {
  return roundtrip(submit_request(spec));
}
Response Client::server_status() { return roundtrip(status_request()); }
Response Client::job_status(u64 id) {
  return roundtrip(job_status_request(id));
}
Response Client::result(u64 id, bool wait) {
  return roundtrip(result_request(id, wait));
}
Response Client::result(u64 id, bool wait, u64 wait_ms) {
  return roundtrip(result_request(id, wait, wait_ms));
}
Response Client::cancel(u64 id) { return roundtrip(cancel_request(id)); }
Response Client::shutdown() { return roundtrip(shutdown_request()); }
Response Client::snapshot(const JobSpec& spec, u64 cycle) {
  return roundtrip(snapshot_request(spec, cycle));
}
Response Client::restore(const JobSpec& spec, u64 cycle) {
  return roundtrip(restore_request(spec, cycle));
}

/// Decode a result response into the RemoteResult slot.
void decode_result_response(const Response& r, RemoteResult* out) {
  const trace::JsonValue* csv = r.doc.find("csv");
  const trace::JsonValue* stats = r.doc.find("stats");
  const trace::JsonValue* hit = r.doc.find("cache_hit");
  const trace::JsonValue* run_ok = r.doc.find("run_ok");
  out->ok = true;
  out->run_ok = run_ok != nullptr && run_ok->boolean;
  out->csv = csv != nullptr ? csv->string : "";
  out->stats_run_json = stats != nullptr ? stats->string : "";
  out->cache_hit = hit != nullptr && hit->boolean;
}

}  // namespace mlp::serve
