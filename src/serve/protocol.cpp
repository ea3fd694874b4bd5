#include "serve/protocol.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/error.hpp"
#include "sim/report.hpp"

namespace mlp::serve {

namespace {

/// Read exactly `len` bytes; false on clean EOF at offset 0, throws on EOF
/// mid-buffer (a truncated frame is a protocol violation, not a shutdown).
bool read_exact(int fd, char* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, buf + done, len - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n == 0 && done == 0) return false;  // clean EOF between frames
    MLP_SIM_CHECK(false, "protocol",
                  "connection closed mid-frame (" + std::to_string(done) +
                      "/" + std::to_string(len) + " bytes)");
  }
  return true;
}

bool write_exact(int fd, const char* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t n = ::send(fd, buf + done, len - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    return false;  // EPIPE / closed peer: caller drops the connection
  }
  return true;
}

[[noreturn]] void bad_request(const std::string& message) {
  throw SimError(kErrBadRequest, message);
}

// ---- deadline-bounded I/O --------------------------------------------------
// The fds stay BLOCKING; each read/write is gated by a poll() with the time
// remaining until the frame's deadline, so the EINTR/EAGAIN semantics of
// the untimed helpers carry over unchanged and a timeout is always a typed
// SimError("timeout", ...), never a silent partial frame.

i64 steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void poll_until(int fd, short events, i64 deadline_ms) {
  for (;;) {
    const i64 remaining = deadline_ms - steady_now_ms();
    MLP_SIM_CHECK(remaining > 0, kErrTimeout,
                  "no peer activity before the request deadline");
    pollfd pfd{fd, events, 0};
    const int ready = ::poll(
        &pfd, 1, static_cast<int>(std::min<i64>(remaining, 60'000)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      MLP_SIM_CHECK(false, "protocol",
                    std::string("poll: ") + std::strerror(errno));
    }
    if (ready > 0) return;  // readable/writable (or error/hup: let I/O see it)
  }
}

bool read_exact_deadline(int fd, char* buf, std::size_t len,
                         i64 deadline_ms) {
  std::size_t done = 0;
  while (done < len) {
    poll_until(fd, POLLIN, deadline_ms);
    const ssize_t n = ::read(fd, buf + done, len - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n == 0 && done == 0) return false;  // clean EOF between frames
    MLP_SIM_CHECK(false, "protocol",
                  "connection closed mid-frame (" + std::to_string(done) +
                      "/" + std::to_string(len) + " bytes)");
  }
  return true;
}

bool write_exact_deadline(int fd, const char* buf, std::size_t len,
                          i64 deadline_ms) {
  std::size_t done = 0;
  while (done < len) {
    poll_until(fd, POLLOUT, deadline_ms);
    const ssize_t n = ::send(fd, buf + done, len - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    return false;  // EPIPE / closed peer: caller drops the connection
  }
  return true;
}

// ---- strict typed member extraction ----------------------------------------
// Every accessor checks presence AND type so a malformed submit is rejected
// with a message naming the offending member instead of silently defaulting.

u64 member_u64(const trace::JsonValue& obj, const std::string& name, u64 def) {
  const trace::JsonValue* v = obj.find(name);
  if (v == nullptr) return def;
  if (v->type != trace::JsonValue::Type::kNumber || !v->is_integer ||
      v->number < 0) {
    bad_request("\"" + name + "\" must be a non-negative integer");
  }
  return v->unsigned_integer;
}

std::string member_string(const trace::JsonValue& obj, const std::string& name,
                          const std::string& def) {
  const trace::JsonValue* v = obj.find(name);
  if (v == nullptr) return def;
  if (v->type != trace::JsonValue::Type::kString) {
    bad_request("\"" + name + "\" must be a string");
  }
  return v->string;
}

/// Wrap an envelope: every response is {"ok":..,"type":..,...}.
trace::JsonWriter response_head(bool ok, const char* type) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("ok");
  w.value(ok);
  w.key("type");
  w.value(type);
  return w;
}

std::string id_request(const char* type, u64 id) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("type");
  w.value(type);
  w.key("id");
  w.value(id);
  w.end_object();
  return w.take();
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

// ---- framing ---------------------------------------------------------------

bool write_frame(int fd, const std::string& payload) {
  MLP_SIM_CHECK(payload.size() <= kMaxFrameBytes, "protocol",
                "outgoing frame exceeds " + std::to_string(kMaxFrameBytes) +
                    " bytes");
  const u32 len = static_cast<u32>(payload.size());
  char header[4] = {static_cast<char>(len & 0xff),
                    static_cast<char>((len >> 8) & 0xff),
                    static_cast<char>((len >> 16) & 0xff),
                    static_cast<char>((len >> 24) & 0xff)};
  if (!write_exact(fd, header, sizeof(header))) return false;
  return write_exact(fd, payload.data(), payload.size());
}

std::optional<std::string> read_frame(int fd) {
  char header[4];
  if (!read_exact(fd, header, sizeof(header))) return std::nullopt;
  const u32 len = static_cast<u32>(static_cast<unsigned char>(header[0])) |
                  static_cast<u32>(static_cast<unsigned char>(header[1])) << 8 |
                  static_cast<u32>(static_cast<unsigned char>(header[2]))
                      << 16 |
                  static_cast<u32>(static_cast<unsigned char>(header[3]))
                      << 24;
  MLP_SIM_CHECK(len <= kMaxFrameBytes, "protocol",
                "frame length " + std::to_string(len) + " exceeds limit (" +
                    std::to_string(kMaxFrameBytes) + ")");
  // A zero-length frame can never hold the JSON object every request and
  // response is; it is a desynced or broken peer, rejected with the typed
  // kind instead of surfacing downstream as a confusing parse error.
  MLP_SIM_CHECK(len > 0, kErrBadRequest, "zero-length frame");
  std::string payload(len, '\0');
  if (!read_exact(fd, payload.data(), len)) {
    MLP_SIM_CHECK(false, "protocol", "connection closed before frame payload");
  }
  return payload;
}

bool write_frame(int fd, const std::string& payload, i64 timeout_ms) {
  if (timeout_ms <= 0) return write_frame(fd, payload);
  MLP_SIM_CHECK(payload.size() <= kMaxFrameBytes, "protocol",
                "outgoing frame exceeds " + std::to_string(kMaxFrameBytes) +
                    " bytes");
  const i64 deadline = steady_now_ms() + timeout_ms;
  const u32 len = static_cast<u32>(payload.size());
  char header[4] = {static_cast<char>(len & 0xff),
                    static_cast<char>((len >> 8) & 0xff),
                    static_cast<char>((len >> 16) & 0xff),
                    static_cast<char>((len >> 24) & 0xff)};
  if (!write_exact_deadline(fd, header, sizeof(header), deadline)) {
    return false;
  }
  return write_exact_deadline(fd, payload.data(), payload.size(), deadline);
}

std::optional<std::string> read_frame(int fd, i64 timeout_ms) {
  if (timeout_ms <= 0) return read_frame(fd);
  const i64 deadline = steady_now_ms() + timeout_ms;
  char header[4];
  if (!read_exact_deadline(fd, header, sizeof(header), deadline)) {
    return std::nullopt;
  }
  const u32 len = static_cast<u32>(static_cast<unsigned char>(header[0])) |
                  static_cast<u32>(static_cast<unsigned char>(header[1])) << 8 |
                  static_cast<u32>(static_cast<unsigned char>(header[2]))
                      << 16 |
                  static_cast<u32>(static_cast<unsigned char>(header[3]))
                      << 24;
  MLP_SIM_CHECK(len <= kMaxFrameBytes, "protocol",
                "frame length " + std::to_string(len) + " exceeds limit (" +
                    std::to_string(kMaxFrameBytes) + ")");
  MLP_SIM_CHECK(len > 0, kErrBadRequest, "zero-length frame");
  std::string payload(len, '\0');
  if (!read_exact_deadline(fd, payload.data(), len, deadline)) {
    MLP_SIM_CHECK(false, "protocol", "connection closed before frame payload");
  }
  return payload;
}

// ---- job spec (de)serialization --------------------------------------------

std::string job_json(const JobSpec& spec) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("arch");
  w.value(arch::arch_name(spec.job.kind));
  w.key("bench");
  w.value(spec.job.bench);
  w.key("tag");
  w.value(spec.job.tag);
  for (const sim::Knob& knob : sim::knobs()) {
    w.key(knob.key);
    sim::write_knob_json(w, sim::knob_get(knob, spec.job.options));
  }
  w.key("hold_ms");
  w.value(spec.hold_ms);
  w.end_object();
  return w.take();
}

JobSpec job_from_json(const trace::JsonValue& doc) {
  if (!doc.is_object()) bad_request("job must be a JSON object");
  for (const auto& [name, value] : doc.object) {
    if (name != "arch" && name != "bench" && name != "tag" &&
        name != "hold_ms" && sim::find_knob(name) == nullptr) {
      bad_request("unknown job member \"" + name + "\"");
    }
  }

  JobSpec spec;
  sim::MatrixJob& job = spec.job;
  const std::string arch_name = member_string(doc, "arch", "millipede");
  if (!arch::arch_from_name(arch_name, &job.kind)) {
    bad_request("unknown architecture \"" + arch_name + "\"");
  }
  job.bench = member_string(doc, "bench", "");
  if (job.bench.empty()) bad_request("\"bench\" is required");
  job.tag = member_string(doc, "tag", "");

  // Each knob's value rule runs here, so a malformed member is a
  // kErrBadRequest rather than a per-job failure (geometry-dependent checks
  // stay per-job: the worker validates the full config when it builds the
  // machine).
  for (const sim::Knob& knob : sim::knobs()) {
    const trace::JsonValue* member = doc.find(knob.key);
    if (member == nullptr) continue;
    sim::KnobValue value;
    if (!sim::knob_from_json(knob, *member, &value)) {
      bad_request("\"" + std::string(knob.key) + "\" must be " +
                  sim::knob_expects(knob));
    }
    sim::knob_set(knob, job.options, value);
  }

  spec.hold_ms = member_u64(doc, "hold_ms", 0);
  return spec;
}

// ---- request builders ------------------------------------------------------

std::string ping_request() { return R"({"type":"ping"})"; }

std::string submit_request(const JobSpec& spec) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("type");
  w.value("submit");
  w.key("job");
  w.raw(job_json(spec));
  w.end_object();
  return w.take();
}

std::string status_request() { return R"({"type":"status"})"; }

std::string job_status_request(u64 id) { return id_request("status", id); }

std::string result_request(u64 id, bool wait) {
  return result_request(id, wait, 0);
}

std::string result_request(u64 id, bool wait, u64 wait_ms) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("type");
  w.value("result");
  w.key("id");
  w.value(id);
  w.key("wait");
  w.value(wait);
  if (wait_ms > 0) {
    // Additive member: servers that predate the bounded wait ignore it and
    // park unbounded, exactly the old behaviour.
    w.key("wait_ms");
    w.value(wait_ms);
  }
  w.end_object();
  return w.take();
}

std::string cancel_request(u64 id) { return id_request("cancel", id); }

std::string shutdown_request() { return R"({"type":"shutdown"})"; }

namespace {

std::string versioned_job_request(const char* type, const JobSpec& spec,
                                  u64 cycle) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("type");
  w.value(type);
  // The version declaration is MANDATORY for the snapshot verbs: the server
  // rejects its absence with version-mismatch, so a v1 client replaying
  // captured frames cannot trip into semantics it predates.
  w.key("protocol_version");
  w.value(kProtocolVersion);
  w.key("cycle");
  w.value(cycle);
  w.key("job");
  w.raw(job_json(spec));
  w.end_object();
  return w.take();
}

}  // namespace

std::string snapshot_request(const JobSpec& spec, u64 cycle) {
  return versioned_job_request("snapshot", spec, cycle);
}

std::string restore_request(const JobSpec& spec, u64 cycle) {
  return versioned_job_request("restore", spec, cycle);
}

// ---- response builders -----------------------------------------------------

std::string pong_response() {
  trace::JsonWriter w = response_head(true, "pong");
  w.key("protocol_version");
  w.value(kProtocolVersion);
  w.key("schema_version");
  w.value(sim::kStatsJsonSchemaVersion);
  w.end_object();
  return w.take();
}

std::string submitted_response(u64 id) {
  trace::JsonWriter w = response_head(true, "submitted");
  w.key("id");
  w.value(id);
  w.end_object();
  return w.take();
}

std::string status_response(const ServerStatus& status) {
  trace::JsonWriter w = response_head(true, "status");
  w.key("accepting");
  w.value(status.accepting);
  w.key("threads");
  w.value(status.threads);
  w.key("queue_limit");
  w.value(status.queue_limit);
  w.key("jobs");
  w.begin_object();
  w.key("queued");
  w.value(status.queued);
  w.key("running");
  w.value(status.running);
  w.key("done");
  w.value(status.done);
  w.key("cancelled");
  w.value(status.cancelled);
  w.end_object();
  w.key("cache");
  w.begin_object();
  w.key("hits");
  w.value(status.cache.hits);
  w.key("misses");
  w.value(status.cache.misses);
  w.key("evictions");
  w.value(status.cache.evictions);
  w.key("entries");
  w.value(status.cache.entries);
  w.key("image_bytes");
  w.value(status.cache.image_bytes);
  w.end_object();
  w.key("snapshots");
  w.begin_object();
  w.key("hits");
  w.value(status.snapshot_hits);
  w.key("misses");
  w.value(status.snapshot_misses);
  w.key("evictions");
  w.value(status.snapshot_evictions);
  w.key("entries");
  w.value(status.snapshot_entries);
  w.key("blob_bytes");
  w.value(status.snapshot_blob_bytes);
  w.end_object();
  w.end_object();
  return w.take();
}

std::string job_status_response(u64 id, JobState state) {
  trace::JsonWriter w = response_head(true, "job-status");
  w.key("id");
  w.value(id);
  w.key("state");
  w.value(job_state_name(state));
  w.end_object();
  return w.take();
}

std::string result_response(u64 id, JobState state, bool cache_hit,
                            bool run_ok, const std::string& csv,
                            const std::string& stats_run_json) {
  trace::JsonWriter w = response_head(true, "result");
  w.key("id");
  w.value(id);
  w.key("state");
  w.value(job_state_name(state));
  w.key("cache_hit");
  w.value(cache_hit);
  w.key("run_ok");
  w.value(run_ok);
  w.key("csv");
  w.value(csv);
  // Shipped as an escaped string (not a nested object) so the client can
  // reassemble sim::stats_json_document byte-for-byte from the fragments.
  w.key("stats");
  w.value(stats_run_json);
  w.end_object();
  return w.take();
}

std::string snapshot_response(const std::string& key, u64 captured_cycle,
                              u64 blob_bytes, bool captured, bool run_ok,
                              const std::string& csv,
                              const std::string& stats_run_json) {
  trace::JsonWriter w = response_head(true, "snapshot");
  w.key("key");
  w.value(key);
  w.key("captured");
  w.value(captured);
  w.key("cycle");
  w.value(captured_cycle);
  w.key("blob_bytes");
  w.value(blob_bytes);
  w.key("run_ok");
  w.value(run_ok);
  w.key("csv");
  w.value(csv);
  w.key("stats");
  w.value(stats_run_json);
  w.end_object();
  return w.take();
}

std::string restored_response(const std::string& key, u64 captured_cycle,
                              bool run_ok, const std::string& csv,
                              const std::string& stats_run_json) {
  trace::JsonWriter w = response_head(true, "restored");
  w.key("key");
  w.value(key);
  w.key("cycle");
  w.value(captured_cycle);
  w.key("run_ok");
  w.value(run_ok);
  w.key("csv");
  w.value(csv);
  w.key("stats");
  w.value(stats_run_json);
  w.end_object();
  return w.take();
}

std::string shutting_down_response() {
  trace::JsonWriter w = response_head(true, "shutting-down");
  w.end_object();
  return w.take();
}

std::string error_response(const std::string& kind,
                           const std::string& message) {
  trace::JsonWriter w = response_head(false, "error");
  w.key("error");
  w.value(kind);
  w.key("message");
  w.value(message);
  w.end_object();
  return w.take();
}

// ---- response decoding -----------------------------------------------------

Response parse_response(const std::string& payload) {
  Response out;
  out.raw = payload;
  out.doc = trace::json_parse(payload);
  MLP_SIM_CHECK(out.doc.is_object(), "protocol",
                "response is not a JSON object");
  const trace::JsonValue* ok = out.doc.find("ok");
  const trace::JsonValue* type = out.doc.find("type");
  MLP_SIM_CHECK(ok != nullptr && ok->type == trace::JsonValue::Type::kBool,
                "protocol", "response lacks a boolean \"ok\"");
  MLP_SIM_CHECK(
      type != nullptr && type->type == trace::JsonValue::Type::kString,
      "protocol", "response lacks a string \"type\"");
  out.ok = ok->boolean;
  out.type = type->string;
  if (!out.ok) {
    const trace::JsonValue* kind = out.doc.find("error");
    const trace::JsonValue* message = out.doc.find("message");
    out.error = kind != nullptr ? kind->string : "unknown";
    out.message = message != nullptr ? message->string : "";
  }
  return out;
}

}  // namespace mlp::serve
