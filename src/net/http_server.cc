#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/stats.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/wait_profiler.h"
#include "query/query_engine.h"
#include "query/render.h"
#include "server/telemetry.h"

namespace prometheus::net {

namespace {

constexpr const char* kJsonType = "application/json";
constexpr const char* kTextType = "text/plain; charset=utf-8";
/// The content type Prometheus scrapers expect for the text format.
constexpr const char* kPromType = "text/plain; version=0.0.4; charset=utf-8";

/// Receive timeout per recv() call — short so handler threads notice the
/// stop flag promptly without busy-waiting.
constexpr int kRecvPollMs = 250;

void SetRecvTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Writes the whole buffer; false on peer reset. MSG_NOSIGNAL keeps a
/// disconnected peer from raising SIGPIPE at the process.
bool SendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Maps a request's transport disposition + database status to HTTP.
int HttpStatusFor(const server::Response& resp) {
  switch (resp.code) {
    case server::ResponseCode::kOk:
      return resp.status.ok() ? 200 : 400;
    case server::ResponseCode::kRejected:
      return 429;  // backpressure: retry with less load
    case server::ResponseCode::kTimedOut:
      return 504;  // deadline expired before/inside execution
    case server::ResponseCode::kUnavailable:
      return 503;  // degraded read-only mode
    case server::ResponseCode::kShutdown:
      return 503;
  }
  return 500;
}

/// Trace ids travel in headers, URLs and log lines, so the accepted
/// alphabet is deliberately narrow: 1-128 chars of [A-Za-z0-9._:-].
bool ValidTraceId(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.' || c == ':';
    if (!ok) return false;
  }
  return true;
}

/// Parses the X-Deadline-Micros / X-Priority request headers into the
/// envelope. Returns false (with *error set) on a malformed value — the
/// caller answers 400 rather than silently running without the caller's
/// intended budget.
bool ApplyRequestHeaders(const HttpRequest& http, server::Request* req,
                         std::string* error) {
  if (const std::string* v = http.Header("x-deadline-micros")) {
    if (v->empty() ||
        v->find_first_not_of("0123456789") != std::string::npos) {
      *error = "malformed X-Deadline-Micros (want a relative microsecond "
               "budget)";
      return false;
    }
    // strtoull + an explicit range check: std::stoll would throw
    // out_of_range on a 20-digit header, and an uncaught exception on the
    // handler thread takes the whole server down.
    errno = 0;
    char* end = nullptr;
    const unsigned long long micros = std::strtoull(v->c_str(), &end, 10);
    if (errno == ERANGE ||
        micros > static_cast<unsigned long long>(
                     std::numeric_limits<std::int64_t>::max())) {
      *error = "X-Deadline-Micros out of range";
      return false;
    }
    req->WithTimeout(
        std::chrono::microseconds(static_cast<std::int64_t>(micros)));
  }
  if (const std::string* v = http.Header("x-priority")) {
    if (*v == "low") {
      req->WithPriority(server::Priority::kLow);
    } else if (*v == "normal") {
      req->WithPriority(server::Priority::kNormal);
    } else if (*v == "high") {
      req->WithPriority(server::Priority::kHigh);
    } else {
      *error = "malformed X-Priority (want low|normal|high)";
      return false;
    }
  }
  if (const std::string* v = http.Header("x-trace-id")) {
    if (!ValidTraceId(*v)) {
      *error = "malformed X-Trace-Id (want 1-128 chars of [A-Za-z0-9._:-])";
      return false;
    }
    req->WithTraceId(*v);
  }
  return true;
}

std::string ErrorBody(const std::string& message) {
  stats::JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.String(message);
  w.EndObject();
  return w.str();
}

}  // namespace

HttpFrontEnd::HttpFrontEnd(server::Server* server, Options options)
    : server_(server), options_(std::move(options)) {}

HttpFrontEnd::~HttpFrontEnd() { Stop(); }

Status HttpFrontEnd::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("front-end already running");
  }
  stopping_.store(false, std::memory_order_release);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind(" + options_.bind_address + ":" +
                            std::to_string(options_.port) + "): " + err);
  }
  if (::listen(fd, static_cast<int>(options_.pending_connections)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen(): " + err);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  listen_fd_.store(fd, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  const int threads = options_.handler_threads < 1 ? 1
                                                   : options_.handler_threads;
  handlers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpFrontEnd::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Publish the stop flag under mu_: a handler that evaluated the wait
  // predicate just before the store would otherwise miss the notify and
  // block forever (lost wakeup), hanging the joins below.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true, std::memory_order_release);
  }
  ready_.notify_all();
  // Closing the listener unblocks accept(); shutdown() first covers
  // platforms where close() alone does not wake a blocked accept.
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  // Connections still waiting for a handler are closed unserved.
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

HttpFrontEnd::Stats HttpFrontEnd::stats() const {
  Stats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_dropped = dropped_.load(std::memory_order_relaxed);
  s.requests_served = served_.load(std::memory_order_relaxed);
  s.bad_requests = bad_.load(std::memory_order_relaxed);
  return s;
}

void HttpFrontEnd::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EBADF / EINVAL after Stop() closed the listener — exit quietly.
      break;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() < options_.pending_connections) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      ready_.notify_one();
    } else {
      // Hand-off queue full: shed at the door instead of buffering an
      // unbounded backlog of idle sockets.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
    }
  }
}

void HttpFrontEnd::HandlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (pending_.empty()) return;  // stopping, queue drained
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
  }
}

void HttpFrontEnd::ServeConnection(int fd) {
  SetRecvTimeout(fd, kRecvPollMs);
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

  // One logical session per connection: remote requests flow through the
  // same admission control as in-process clients.
  std::shared_ptr<server::Session> session = server_->Connect();

  std::string buffer;
  char chunk[8192];
  auto last_activity = std::chrono::steady_clock::now();
  bool open = true;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    // Drain every complete pipelined request already buffered.
    while (open) {
      HttpRequest req;
      std::size_t consumed = 0;
      std::string error;
      const ParseResult pr =
          ParseHttpRequest(buffer, &consumed, &req, &error, options_.limits);
      if (pr == ParseResult::kIncomplete) break;
      if (pr == ParseResult::kBad || pr == ParseResult::kTooLarge) {
        bad_.fetch_add(1, std::memory_order_relaxed);
        const int code = pr == ParseResult::kBad ? 400 : 413;
        SendAll(fd, SerializeHttpResponse(code, kJsonType, ErrorBody(error),
                                          /*keep_alive=*/false));
        open = false;
        break;
      }
      buffer.erase(0, consumed);
      const bool keep =
          options_.keep_alive && req.KeepAlive() &&
          !stopping_.load(std::memory_order_acquire);
      const std::string out = Handle(req, *session, keep);
      served_.fetch_add(1, std::memory_order_relaxed);
      if (!SendAll(fd, out) || !keep) {
        open = false;
        break;
      }
      last_activity = std::chrono::steady_clock::now();
    }
    if (!open) break;

    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n == 0) break;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      const auto idle = std::chrono::steady_clock::now() - last_activity;
      if (idle >= std::chrono::milliseconds(options_.idle_timeout_ms)) {
        break;  // idle keep-alive connection: reclaim the handler
      }
      continue;
    }
    break;  // hard socket error
  }

  server_->sessions().Close(session->id());
  ::close(fd);
}

std::string HttpFrontEnd::Handle(const HttpRequest& req,
                                 server::Session& session, bool keep_alive) {
  // Trace context first: an id on *any* request — including the /repl/*
  // fetches the aux handler serves — lands in this server's flight
  // recorder, so one id stitches a request's path across the fleet
  // (follower fetch -> leader serve). Malformed ids are refused up front.
  const std::string* trace_hdr = req.Header("x-trace-id");
  if (trace_hdr != nullptr && !ValidTraceId(*trace_hdr)) {
    bad_.fetch_add(1, std::memory_order_relaxed);
    return SerializeHttpResponse(
        400, kJsonType,
        ErrorBody("malformed X-Trace-Id (want 1-128 chars of "
                  "[A-Za-z0-9._:-])"),
        keep_alive);
  }
  // Records a handler-thread-served (non-worker) request under its trace
  // id: /repl/* fetches and traced telemetry GETs never reach the server
  // core, so the transport writes the recorder entry itself.
  auto record_traced = [this, trace_hdr, &req](const char* type,
                                               double micros) {
    if (trace_hdr == nullptr || !server_->flight_recorder().enabled()) return;
    obs::FlightRecorder::Entry entry;
    entry.trace_id = *trace_hdr;
    entry.type = type;
    entry.code = "ok";
    entry.ok = true;
    entry.executed = true;
    entry.total_micros = micros;
    entry.detail = req.method + " " + req.target;
    server_->flight_recorder().Record(std::move(entry));
  };

  if (options_.aux_handler) {
    std::string out;
    const auto aux_start = std::chrono::steady_clock::now();
    if (options_.aux_handler(req, keep_alive, &out)) {
      record_traced("aux", std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - aux_start)
                               .count());
      return out;
    }
  }
  std::string_view path_view;
  std::string_view query_view;
  SplitTarget(req.target, &path_view, &query_view);
  const std::string path(path_view);

  // Telemetry routes are answered directly on the handler thread: the
  // registry, the health row, or a fixed `sys.*` query run by
  // `Server::QueryCatalog` against a pinned snapshot — never the work
  // queue or the database guard, so a scrape succeeds while a writer holds
  // the exclusive lock or the work queue is saturated.
  if (req.method == "GET" || req.method == "HEAD") {
    const auto get_start = std::chrono::steady_clock::now();
    std::string body;
    std::string content_type = kJsonType;
    int status = 200;
    auto bad_param = [&](const std::string& message) {
      return SerializeHttpResponse(400, kJsonType, ErrorBody(message),
                                   keep_alive);
    };
    // Runs a telemetry query and renders its rows; false (with `body` the
    // error) when the catalog refused it.
    auto catalog_json = [&](const std::string& text, std::string* out) {
      Result<pool::ResultSet> rows = server_->QueryCatalog(text);
      if (!rows.ok()) {
        status = 500;
        body = ErrorBody(rows.status().ToString());
        return false;
      }
      *out = pool::RenderJson(rows.value());
      return true;
    };
    if (path == "/metrics") {
      obs::UpdateProcessUptime();
      obs::MetricsSnapshot snap = obs::Registry().Snapshot();
      body = obs::RenderPrometheusText(snap) +
             "# HELP server_epoch Wall-clock microseconds at server "
             "construction; changes on restart\n"
             "# TYPE server_epoch gauge\n"
             "server_epoch " +
             std::to_string(server_->server_epoch()) + "\n";
      content_type = kPromType;
    } else if (path == "/stats") {
      obs::UpdateProcessUptime();
      body = obs::RenderJson(obs::Registry().Snapshot(),
                             {{"server_epoch", server_->server_epoch()}});
    } else if (path == "/health") {
      // The `sys.health` row, rendered without the engine: lock-free, so
      // the 503 a probe alerts on never waits for anything.
      const server::Server::Health h = server_->health();
      body = pool::RenderJson(h.ToRow());
      if (h.degraded) status = 503;  // probes alert on the code alone
    } else if (path == "/slowlog") {
      catalog_json(server::telemetry::kSlowLog, &body);
    } else if (path == "/debug/requests") {
      // ?id= narrows to one trace id ("show me what request t-123 did on
      // this node"). It is spliced into the query text, so it must pass
      // the X-Trace-Id alphabet, which has no quote.
      std::string want_id;
      if (QueryParam(query_view, "id", &want_id) && !ValidTraceId(want_id)) {
        return bad_param("id must be 1-128 chars of [A-Za-z0-9._:-]");
      }
      // ?limit=N keeps only the N most recent entries. Strictly validated:
      // a malformed or out-of-range value is a client error, not a silent
      // full dump.
      std::string limit_str;
      std::uint64_t limit = 0;
      if (QueryParam(query_view, "limit", &limit_str)) {
        const bool digits =
            !limit_str.empty() && limit_str.size() <= 7 &&
            limit_str.find_first_not_of("0123456789") == std::string::npos;
        limit = digits ? std::strtoull(limit_str.c_str(), nullptr, 10) : 0;
        if (limit < 1 || limit > 1000000) {
          return bad_param("limit must be an integer in [1, 1000000], got '" +
                           limit_str + "'");
        }
      }
      catalog_json(server::telemetry::RequestsQuery(want_id, limit), &body);
    } else if (path == "/debug/contention") {
      // ?window=1 returns only what accumulated since the previous
      // windowed read — the "what is blocking right now" view. The value
      // is validated: a typo'd ?window=yes must not silently fall back to
      // the cumulative view an operator wasn't asking for.
      std::string window;
      bool windowed = false;
      if (QueryParam(query_view, "window", &window)) {
        if (window.empty() || window == "1" || window == "true") {
          windowed = true;
        } else if (window != "0" && window != "false") {
          return bad_param("window must be one of 1/0/true/false, got '" +
                           window + "'");
        }
      }
      std::string report =
          std::string("{\"windowed\":") + (windowed ? "true" : "false");
      for (const server::telemetry::Section& section :
           server::telemetry::ContentionSections(windowed)) {
        std::string rows;
        if (!catalog_json(section.query, &rows)) break;
        report += std::string(",\"") + section.name + "\":" + rows;
      }
      if (status == 200) body = report + "}";
    } else if (path == "/query" || path == "/profile") {
      return SerializeHttpResponse(
          405, kJsonType, ErrorBody("use POST with a POOL query body"),
          keep_alive, {{"Allow", "POST"}});
    } else {
      return SerializeHttpResponse(404, kJsonType,
                                   ErrorBody("no route for " + path),
                                   keep_alive);
    }
    if (req.method == "HEAD") body.clear();
    record_traced("http_get", std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - get_start)
                                  .count());
    std::vector<std::pair<std::string, std::string>> extra;
    if (trace_hdr != nullptr) extra.emplace_back("X-Trace-Id", *trace_hdr);
    return SerializeHttpResponse(status, content_type, body, keep_alive,
                                 extra);
  }

  if (req.method == "POST" && (path == "/query" || path == "/profile")) {
    std::string text = req.body;
    if (text.empty()) {
      return SerializeHttpResponse(400, kJsonType,
                                   ErrorBody("empty query body"), keep_alive);
    }
    if (path == "/profile" && !pool::IsProfileQuery(text)) {
      text = "profile " + text;
    }
    server::Request query = server::Request::Query(std::move(text));
    std::string header_error;
    if (!ApplyRequestHeaders(req, &query, &header_error)) {
      return SerializeHttpResponse(400, kJsonType, ErrorBody(header_error),
                                   keep_alive);
    }
    const server::Response resp = session.Call(std::move(query));
    // X-Cache reports the result-cache disposition when the cache was
    // consulted; an uncached server (cache.enabled=false) omits it.
    std::vector<std::pair<std::string, std::string>> extra;
    if (resp.cache_checked) {
      extra.emplace_back("X-Cache", resp.cache_hit ? "hit" : "miss");
    }
    // Echo the trace id (caller-supplied or server-assigned) so a client
    // can follow up with /debug/requests?id=<it> on any node it touched.
    if (!resp.trace_id.empty()) {
      extra.emplace_back("X-Trace-Id", resp.trace_id);
    }
    // Serialization is the last wait state a request passes through; time
    // it like the others so a response-rendering regression shows up in
    // the same breakdown.
    const bool time_serialize = obs::MetricsEnabled();
    const auto ser_start = time_serialize ? std::chrono::steady_clock::now()
                                          : std::chrono::steady_clock::time_point{};
    const std::string body = server::RenderQueryBody(resp);
    if (time_serialize) {
      obs::WaitInstruments::Get().serialize->Observe(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - ser_start)
              .count());
    }
    return SerializeHttpResponse(HttpStatusFor(resp), kJsonType, body,
                                 keep_alive, extra);
  }

  // Known telemetry path with the wrong verb?
  if (path == "/metrics" || path == "/stats" || path == "/health" ||
      path == "/slowlog" || path == "/debug/requests" ||
      path == "/debug/contention") {
    return SerializeHttpResponse(405, kJsonType,
                                 ErrorBody("use GET for " + path), keep_alive,
                                 {{"Allow", "GET"}});
  }
  return SerializeHttpResponse(404, kJsonType,
                               ErrorBody("no route for " + path), keep_alive);
}

}  // namespace prometheus::net
