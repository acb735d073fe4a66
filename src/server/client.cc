#include "server/client.h"

#include <algorithm>
#include <random>
#include <thread>
#include <utility>

namespace prometheus::server {

namespace {

/// Full-jitter backoff before retry `attempt` (1-based): uniform in
/// [0, min(initial * multiplier^(attempt-1), max)].
std::chrono::microseconds JitteredBackoff(const RetryPolicy& policy,
                                          int attempt) {
  double ceiling = static_cast<double>(policy.initial_backoff.count());
  for (int i = 1; i < attempt; ++i) ceiling *= policy.multiplier;
  ceiling = std::min(ceiling, static_cast<double>(policy.max_backoff.count()));
  if (ceiling <= 0) return std::chrono::microseconds(0);
  thread_local std::mt19937_64 rng{std::random_device{}()};
  std::uniform_real_distribution<double> dist(0.0, ceiling);
  return std::chrono::microseconds(static_cast<std::int64_t>(dist(rng)));
}

/// The rows a response holds, copied out: the in-process API hands the
/// caller its own `ResultSet`, while the server's rows stay shared (a
/// result-cache entry may be serving them to other requests).
pool::ResultSet CopyRows(const Response& resp) {
  return resp.result != nullptr ? *resp.result : pool::ResultSet{};
}

}  // namespace

Client::Client(Server* server)
    : server_(server), session_(server->Connect()) {}

Client::~Client() { server_->sessions().Close(session_->id()); }

Status Client::TransportStatus(const Response& resp) {
  // For executed requests the database-level status is authoritative; for
  // rejected / shutdown requests the server already phrased the transport
  // failure as a Status.
  return resp.status;
}

Result<pool::ResultSet> Client::Query(const std::string& pool_text) {
  Response resp = Call(Request::Query(pool_text));
  if (!resp.ok()) return TransportStatus(resp);
  return CopyRows(resp);
}

Result<Oid> Client::CreateObject(std::string class_name,
                                 std::vector<AttrInit> inits) {
  Response resp =
      Call(Request::CreateObject(std::move(class_name), std::move(inits)));
  if (!resp.ok()) return TransportStatus(resp);
  return resp.oid;
}

Status Client::SetAttribute(Oid oid, std::string attribute, Value value) {
  return TransportStatus(
      Call(Request::SetAttribute(oid, std::move(attribute), std::move(value))));
}

Status Client::DeleteObject(Oid oid) {
  return TransportStatus(Call(Request::DeleteObject(oid)));
}

Result<Oid> Client::CreateLink(std::string rel_name, Oid source, Oid dest,
                               Oid context, std::vector<AttrInit> inits) {
  Response resp = Call(Request::CreateLink(std::move(rel_name), source, dest,
                                           context, std::move(inits)));
  if (!resp.ok()) return TransportStatus(resp);
  return resp.oid;
}

Status Client::SetLinkAttribute(Oid oid, std::string attribute, Value value) {
  return TransportStatus(Call(
      Request::SetLinkAttribute(oid, std::move(attribute), std::move(value))));
}

Status Client::DeleteLink(Oid oid) {
  return TransportStatus(Call(Request::DeleteLink(oid)));
}

Status Client::Mutate(std::function<Status(Database&)> fn) {
  return TransportStatus(Call(Request::Custom(std::move(fn))));
}

Result<std::uint64_t> Client::Ping() {
  Response resp = Call(Request::Ping());
  if (!resp.ok()) return TransportStatus(resp);
  return resp.epoch;
}

Result<std::string> Client::Stats(StatsFormat format) {
  Response resp = Call(Request::Stats(format));
  if (!resp.ok()) return TransportStatus(resp);
  return std::move(resp.text);
}

Result<std::string> Client::Health() {
  Response resp = Call(Request::Health());
  if (!resp.ok()) return TransportStatus(resp);
  return std::move(resp.text);
}

Server::Health Client::HealthInfo() { return server_->health(); }

Status Client::Checkpoint() {
  return TransportStatus(Call(Request::Checkpoint()));
}

bool Client::Retryable(const Response& resp) {
  if (resp.code == ResponseCode::kRejected) return true;
  // Timed out before a worker picked it up: provably never ran. A request
  // that timed out *during* execution is final — a mutation may have
  // partially applied, and a fresh attempt would expire immediately
  // against the same absolute deadline anyway.
  return resp.code == ResponseCode::kTimedOut && !resp.executed;
}

Response Client::CallWithRetry(Request req, const RetryPolicy& policy) {
  // Pin a trace id before the loop: every attempt then submits under the
  // same id, so the flight recorder shows one logical request's retries as
  // one trace instead of N unrelated ones. (The server would otherwise
  // stamp each resubmission afresh.)
  if (req.trace_id.empty()) {
    thread_local std::mt19937_64 trace_rng{std::random_device{}()};
    req.trace_id = "retry-" + std::to_string(trace_rng());
  }
  const auto start = DeadlineClock::now();
  for (int attempt = 1;; ++attempt) {
    Response resp = Call(req);  // copy: each attempt submits afresh
    if (!Retryable(resp) || attempt >= policy.max_attempts) return resp;
    const auto backoff = JitteredBackoff(policy, attempt);
    const auto resume = DeadlineClock::now() + backoff;
    // The retry budget and the request's own deadline both bound the
    // retrying; give up (returning the last outcome) rather than submit a
    // request that cannot finish in time.
    if (resume - start > policy.budget) return resp;
    if (req.deadline != kNoDeadline && resume >= req.deadline) return resp;
    std::this_thread::sleep_for(backoff);
  }
}

Result<pool::ResultSet> Client::QueryWithRetry(const std::string& pool_text,
                                               const RetryPolicy& policy) {
  Response resp = CallWithRetry(Request::Query(pool_text), policy);
  if (!resp.ok()) return TransportStatus(resp);
  return CopyRows(resp);
}

Result<Client::ProfiledQuery> Client::Profile(const std::string& pool_text) {
  std::string query = pool::IsProfileQuery(pool_text)
                          ? pool_text
                          : "profile " + pool_text;
  Response resp = Call(Request::Query(std::move(query)));
  if (!resp.ok()) return TransportStatus(resp);
  ProfiledQuery out;
  out.stages = CopyRows(resp);
  out.tree = std::move(resp.text);
  return out;
}

Response Client::Call(Request req) { return session_->Call(std::move(req)); }

std::future<Response> Client::Submit(Request req) {
  return session_->Submit(std::move(req));
}

}  // namespace prometheus::server
