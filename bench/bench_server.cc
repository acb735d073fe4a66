// E14 — concurrent query serving (the src/server/ service layer standing in
// for the thesis' omitted §6.1.7 front-end). Builds the OO7 small module,
// wraps it in a `server::Server`, and drives it with a multi-threaded
// in-process load generator:
//
//   1. read-only sweep: 8 client threads issuing POOL range-scan queries,
//      worker pool swept over 1/2/4/8 threads — read throughput should
//      scale with workers (shared-lock readers) up to the core count;
//   2. mixed load: 7 reader clients + 1 writer client (SetAttribute
//      mutations under the exclusive lock) at 4 workers.
//
// E16 — overload protection & graceful degradation:
//
//   a. overload: 1 worker behind a 16-slot queue, 8 clients with 2ms
//      deadlines and mixed priorities — reports the reject / timeout /
//      shed rates and how they skew by priority class;
//   b. degraded read-only mode: a fault-injected DurableStore breaks mid-
//      run, the server degrades, and read throughput plus the mutation
//      fast-fail latency are measured while degraded; a checkpoint then
//      re-arms the store.
//
// E17 — remote telemetry plane (src/net/ HTTP front-end):
//
//   a. scrape cost: GET /metrics over keep-alive HTTP while 8 in-process
//      reader clients keep the workers busy — the scrape path takes no
//      database lock, so its p99 should stay in single-digit milliseconds
//      (< 5 ms target) regardless of query load;
//   b. remote overhead: the same POOL query issued through POST /query
//      (keep-alive, one connection) vs the in-process client, reporting
//      the per-request cost the HTTP envelope adds.
//
// E18 — journal-shipping replication (src/replication/):
//
//   a. read offload: aggregate read throughput over the fleet with 0, 1
//      and 2 caught-up followers — replicas add read capacity without
//      touching the leader's exclusive lock;
//   b. catch-up: a write burst on the leader, then the time until both
//      followers report caught-up again (records/s shipping rate);
//   c. failover: the leader is killed, the most-advanced follower is
//      promoted, and the time from kill to the first successful write on
//      the promoted store is the measured recovery window.
//
// Reports throughput and p50/p95/p99 latency per sweep and writes the
// machine-readable BENCH_server.json next to the binary's working dir.
//
// Usage: bench_server [requests_per_client]   (default 150)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/wait_profiler.h"
#include "oo7/oo7.h"
#include "query/render.h"
#include "replication/follower.h"
#include "replication/source.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/fault.h"
#include "storage/recovery.h"

namespace {

using prometheus::Database;
using prometheus::Oid;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::bench::JsonWriter;
using prometheus::bench::LatencyStats;
using prometheus::bench::SummarizeLatencies;
using prometheus::oo7::Config;
using prometheus::oo7::PrometheusOo7;
using prometheus::pool::RenderJson;
using prometheus::server::Client;
using prometheus::server::Priority;
using prometheus::server::Request;
using prometheus::server::Response;
using prometheus::server::ResponseCode;
using prometheus::server::Server;
using prometheus::storage::DurableStore;
using prometheus::storage::FaultInjectionEnv;
using prometheus::storage::FaultPolicy;

using Clock = std::chrono::steady_clock;

constexpr int kClientThreads = 8;
constexpr int kWorkerSweep[] = {1, 2, 4, 8};

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Q2-style selective range scan over the atomic-part extent — enough work
/// per request (~1000-object scan with predicate evaluation) that locking
/// and dispatch overhead are a small fraction.
std::string ReadQuery(std::mt19937& rng) {
  std::uniform_int_distribution<int> lo_dist(0, 1800);
  const int lo = lo_dist(rng);
  const int hi = lo + 200;
  return "select a.id from AtomicPart a where a.build_date >= " +
         std::to_string(lo) + " and a.build_date <= " + std::to_string(hi);
}

struct SweepResult {
  int workers = 0;
  int reader_clients = 0;
  int writer_clients = 0;
  std::size_t requests = 0;
  std::size_t failed = 0;
  double wall_ms = 0;
  double throughput_rps = 0;
  LatencyStats read_lat;
  LatencyStats write_lat;
  std::uint64_t rejected = 0;
};

/// Drives `server` with `readers` query clients and `writers` mutation
/// clients, each issuing `requests_per_client` blocking calls.
SweepResult RunLoad(Server& server, const std::vector<Oid>& parts, int workers,
                    int readers, int writers, int requests_per_client) {
  SweepResult result;
  result.workers = workers;
  result.reader_clients = readers;
  result.writer_clients = writers;

  std::vector<std::vector<double>> read_lats(
      static_cast<std::size_t>(readers));
  std::vector<std::vector<double>> write_lats(
      static_cast<std::size_t>(writers));
  std::atomic<std::size_t> failed{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers + writers));

  const Clock::time_point wall_start = Clock::now();
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      Client client(&server);
      std::mt19937 rng(1000u + static_cast<unsigned>(c));
      auto& lats = read_lats[static_cast<std::size_t>(c)];
      lats.reserve(static_cast<std::size_t>(requests_per_client));
      for (int i = 0; i < requests_per_client; ++i) {
        const std::string q = ReadQuery(rng);
        const Clock::time_point t0 = Clock::now();
        auto r = client.Query(q);
        lats.push_back(MillisSince(t0));
        if (!r.ok()) failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      Client client(&server);
      std::mt19937 rng(9000u + static_cast<unsigned>(w));
      std::uniform_int_distribution<std::size_t> pick(0, parts.size() - 1);
      auto& lats = write_lats[static_cast<std::size_t>(w)];
      lats.reserve(static_cast<std::size_t>(requests_per_client));
      for (int i = 0; i < requests_per_client; ++i) {
        const Oid oid = parts[pick(rng)];
        const Clock::time_point t0 = Clock::now();
        auto st = client.SetAttribute(oid, "x", Value::Int(i));
        lats.push_back(MillisSince(t0));
        if (!st.ok()) failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_ms = MillisSince(wall_start);

  std::vector<double> all_reads;
  for (auto& v : read_lats) {
    all_reads.insert(all_reads.end(), v.begin(), v.end());
  }
  std::vector<double> all_writes;
  for (auto& v : write_lats) {
    all_writes.insert(all_writes.end(), v.begin(), v.end());
  }
  result.requests = all_reads.size() + all_writes.size();
  result.failed = failed.load();
  result.throughput_rps =
      result.wall_ms > 0
          ? static_cast<double>(result.requests) / (result.wall_ms / 1000.0)
          : 0;
  result.read_lat = SummarizeLatencies(all_reads);
  result.write_lat = SummarizeLatencies(all_writes);
  result.rejected = server.stats().rejected;
  return result;
}

void PrintRow(const SweepResult& r, const char* label) {
  std::printf(
      "  %-12s w=%d  %6zu req  %8.1f rps   p50 %7.3f  p95 %7.3f  p99 %7.3f "
      "ms%s\n",
      label, r.workers, r.requests, r.throughput_rps, r.read_lat.p50,
      r.read_lat.p95, r.read_lat.p99, r.failed != 0 ? "  [FAILURES]" : "");
}

void EmitSweepJson(JsonWriter& json, const SweepResult& r) {
  json.BeginObject();
  json.Key("workers").Int(r.workers);
  json.Key("reader_clients").Int(r.reader_clients);
  json.Key("writer_clients").Int(r.writer_clients);
  json.Key("requests").Int(static_cast<long long>(r.requests));
  json.Key("failed").Int(static_cast<long long>(r.failed));
  json.Key("rejected").Int(static_cast<long long>(r.rejected));
  json.Key("wall_ms").Number(r.wall_ms);
  json.Key("throughput_rps").Number(r.throughput_rps);
  json.Key("read_p50_ms").Number(r.read_lat.p50);
  json.Key("read_p95_ms").Number(r.read_lat.p95);
  json.Key("read_p99_ms").Number(r.read_lat.p99);
  json.Key("read_max_ms").Number(r.read_lat.max);
  json.Key("write_p50_ms").Number(r.write_lat.p50);
  json.Key("write_p95_ms").Number(r.write_lat.p95);
  json.Key("write_p99_ms").Number(r.write_lat.p99);
  json.EndObject();
}

// ------------------------------------------------------------------- E21

struct MvccChurnResult {
  SweepResult sweep;
  std::uint64_t writer_txns = 0;  ///< 400-write transactions committed
  double writer_txn_p50_ms = 0;
  /// Delta of guard_wait_micros{mode="shared"} over the phase. MVCC readers
  /// pin a snapshot at dequeue instead of taking the shared guard, so this
  /// should stay at (or within noise of) zero even while the writer loops.
  std::uint64_t guard_shared_waits = 0;
  double guard_shared_wait_micros = 0;
};

/// `readers` query clients at full tilt while ONE writer loops 400-write
/// transactions (Begin, 400x SetAttribute, Commit) back to back — the
/// stalled-writer scenario MVCC snapshot reads exist for. Pre-MVCC, every
/// reader queued behind the exclusive guard for the length of each
/// transaction; now readers execute against their pinned snapshot and the
/// writer's hold time should not show up in read latency at all.
MvccChurnResult RunMvccChurn(Server& server, const std::vector<Oid>& parts,
                             int workers, int readers,
                             int requests_per_client) {
  MvccChurnResult out;
  const auto shared_before =
      prometheus::obs::GuardInstruments::Get().shared_wait->snapshot();

  std::vector<std::vector<double>> read_lats(
      static_cast<std::size_t>(readers));
  std::atomic<std::size_t> failed{0};
  std::atomic<bool> readers_done{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers));

  std::vector<double> txn_lats;
  std::atomic<std::uint64_t> txns{0};
  std::thread writer([&] {
    Client client(&server);
    std::mt19937 rng(7700u);
    std::uniform_int_distribution<std::size_t> pick(0, parts.size() - 1);
    while (!readers_done.load(std::memory_order_acquire)) {
      const Clock::time_point t0 = Clock::now();
      const Status st = client.Mutate([&](Database& db) {
        PROMETHEUS_RETURN_IF_ERROR(db.Begin());
        for (int i = 0; i < 400; ++i) {
          Status s = db.SetAttribute(parts[pick(rng)], "x", Value::Int(i));
          if (!s.ok()) {
            (void)db.Abort();
            return s;
          }
        }
        return db.Commit();
      });
      txn_lats.push_back(MillisSince(t0));
      if (st.ok()) txns.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const Clock::time_point wall_start = Clock::now();
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      Client client(&server);
      std::mt19937 rng(2100u + static_cast<unsigned>(c));
      auto& lats = read_lats[static_cast<std::size_t>(c)];
      lats.reserve(static_cast<std::size_t>(requests_per_client));
      for (int i = 0; i < requests_per_client; ++i) {
        const std::string q = ReadQuery(rng);
        const Clock::time_point t0 = Clock::now();
        auto r = client.Query(q);
        lats.push_back(MillisSince(t0));
        if (!r.ok()) failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.sweep.wall_ms = MillisSince(wall_start);
  readers_done.store(true, std::memory_order_release);
  writer.join();

  out.sweep.workers = workers;
  out.sweep.reader_clients = readers;
  out.sweep.writer_clients = 1;
  std::vector<double> all_reads;
  for (auto& v : read_lats) {
    all_reads.insert(all_reads.end(), v.begin(), v.end());
  }
  out.sweep.requests = all_reads.size();
  out.sweep.failed = failed.load();
  out.sweep.throughput_rps =
      out.sweep.wall_ms > 0
          ? static_cast<double>(out.sweep.requests) /
                (out.sweep.wall_ms / 1000.0)
          : 0;
  out.sweep.read_lat = SummarizeLatencies(all_reads);
  out.sweep.write_lat = SummarizeLatencies(txn_lats);
  out.sweep.rejected = server.stats().rejected;

  out.writer_txns = txns.load();
  out.writer_txn_p50_ms = out.sweep.write_lat.p50;
  const auto shared_after =
      prometheus::obs::GuardInstruments::Get().shared_wait->snapshot();
  out.guard_shared_waits = shared_after.count - shared_before.count;
  out.guard_shared_wait_micros = shared_after.sum - shared_before.sum;
  return out;
}

// ------------------------------------------------------------------- E16

struct OverloadResult {
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t rejected = 0;
  std::size_t timed_out = 0;
  std::size_t ok_by_priority[3] = {0, 0, 0};
  std::size_t refused_by_priority[3] = {0, 0, 0};
  double wall_ms = 0;
};

/// 8 clients with tight deadlines and mixed priorities against 1 worker
/// behind a tiny queue: most requests cannot be served in time, and the
/// point of the exercise is that refusal is cheap, immediate, and skewed
/// toward the low-priority class.
OverloadResult RunOverload(Server& server, int clients,
                           int requests_per_client) {
  OverloadResult result;
  std::atomic<std::size_t> ok{0}, rejected{0}, timed_out{0};
  std::atomic<std::size_t> ok_pri[3] = {{0}, {0}, {0}};
  std::atomic<std::size_t> refused_pri[3] = {{0}, {0}, {0}};
  std::vector<std::thread> threads;
  const Clock::time_point wall_start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client(&server);
      std::mt19937 rng(4000u + static_cast<unsigned>(c));
      for (int i = 0; i < requests_per_client; ++i) {
        const int pri = (c + i) % 3;
        Request req = Request::Query(ReadQuery(rng))
                          .WithTimeout(std::chrono::milliseconds(2))
                          .WithPriority(static_cast<Priority>(pri));
        Response r = client.Call(std::move(req));
        switch (r.code) {
          case ResponseCode::kOk:
            ok.fetch_add(1, std::memory_order_relaxed);
            ok_pri[pri].fetch_add(1, std::memory_order_relaxed);
            break;
          case ResponseCode::kRejected:
            rejected.fetch_add(1, std::memory_order_relaxed);
            refused_pri[pri].fetch_add(1, std::memory_order_relaxed);
            break;
          case ResponseCode::kTimedOut:
            timed_out.fetch_add(1, std::memory_order_relaxed);
            refused_pri[pri].fetch_add(1, std::memory_order_relaxed);
            break;
          default:
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_ms = MillisSince(wall_start);
  result.requests =
      static_cast<std::size_t>(clients) *
      static_cast<std::size_t>(requests_per_client);
  result.ok = ok.load();
  result.rejected = rejected.load();
  result.timed_out = timed_out.load();
  for (int p = 0; p < 3; ++p) {
    result.ok_by_priority[p] = ok_pri[p].load();
    result.refused_by_priority[p] = refused_pri[p].load();
  }
  return result;
}

struct DegradedResult {
  double healthy_read_rps = 0;
  double degraded_read_rps = 0;
  LatencyStats fastfail_lat;  ///< kUnavailable mutation round-trip, ms
  std::size_t unavailable = 0;
  bool rearmed = false;
};

/// Read throughput with `clients` query threads over the Item extent.
double MeasureReadRps(Server& server, int clients, int requests_per_client) {
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client(&server);
      std::mt19937 rng(7000u + static_cast<unsigned>(c));
      std::uniform_int_distribution<int> lo_dist(0, 800);
      for (int i = 0; i < requests_per_client; ++i) {
        const int lo = lo_dist(rng);
        auto r = client.Query("select i.n from Item i where i.n >= " +
                              std::to_string(lo) + " and i.n <= " +
                              std::to_string(lo + 100));
        if (r.ok()) done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms = MillisSince(start);
  return wall_ms > 0 ? static_cast<double>(done.load()) / (wall_ms / 1000.0)
                     : 0;
}

DegradedResult RunDegraded(const std::string& dir, int clients,
                           int requests_per_client) {
  DegradedResult result;
  std::filesystem::remove_all(dir);
  FaultInjectionEnv env;
  DurableStore::Options store_options;
  store_options.env = &env;
  store_options.bootstrap = [](Database* db) {
    prometheus::AttributeDef n;
    n.name = "n";
    n.type = ValueType::kInt;
    PROMETHEUS_RETURN_IF_ERROR(db->DefineClass("Item", {}, {n}).status());
    for (int i = 0; i < 1000; ++i) {
      PROMETHEUS_RETURN_IF_ERROR(
          db->CreateObject("Item", {{"n", Value::Int(i)}}).status());
    }
    return Status::Ok();
  };
  auto store = DurableStore::Open(dir, store_options);
  if (!store.ok()) {
    std::fprintf(stderr, "E16b: store open failed: %s\n",
                 store.status().ToString().c_str());
    return result;
  }

  Server::Options options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  options.store = store.value().get();
  options.cache.enabled = false;  // comparable with pre-cache E16b numbers
  Server server(&store.value()->db(), options);
  Client client(&server);

  result.healthy_read_rps =
      MeasureReadRps(server, clients, requests_per_client);

  // Break durability (serialized with journal appends by running inside a
  // mutation), then trip degraded mode with one doomed write.
  FaultPolicy broken;
  broken.fail_after_appends = 0;
  (void)client.Mutate([&env, broken](Database&) {
    env.SetPolicy(broken);
    return Status::Ok();
  });
  (void)client.SetAttribute(store.value()->db().Extent("Item").front(), "n",
                            Value::Int(-1));
  if (!server.degraded()) {
    std::fprintf(stderr, "E16b: server failed to degrade\n");
    return result;
  }

  result.degraded_read_rps =
      MeasureReadRps(server, clients, requests_per_client);

  // Mutation fast-fail latency while degraded: refusals happen at
  // admission, so the round trip should cost microseconds, not a queue
  // traversal.
  std::vector<double> fastfail;
  const Oid item = store.value()->db().Extent("Item").front();
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point t0 = Clock::now();
    Response r = client.Call(Request::SetAttribute(item, "n", Value::Int(i)));
    fastfail.push_back(MillisSince(t0));
    if (r.code == ResponseCode::kUnavailable) ++result.unavailable;
  }
  result.fastfail_lat = SummarizeLatencies(fastfail);

  // Heal the filesystem and re-arm via the operator path.
  env.SetPolicy(FaultPolicy{});
  result.rearmed = client.Checkpoint().ok() && !server.degraded() &&
                   client.SetAttribute(item, "n", Value::Int(0)).ok();
  server.Shutdown();
  store.value().reset();
  std::filesystem::remove_all(dir);
  return result;
}

// ------------------------------------------------------------------- E17

struct TelemetryResult {
  LatencyStats scrape_lat;        ///< GET /metrics under load, ms
  std::size_t scrape_failures = 0;
  std::size_t scrape_bytes = 0;   ///< last payload size
  LatencyStats remote_query_lat;  ///< POST /query (keep-alive), ms
  LatencyStats local_query_lat;   ///< same queries, in-process client
  std::size_t remote_failures = 0;
};

/// Scrape + remote-query cost against a front-end mounted on `server`,
/// with `readers` in-process clients keeping the workers busy throughout.
TelemetryResult RunTelemetry(Server& server, int readers, int scrapes,
                             int queries) {
  using prometheus::net::HttpConnection;
  using prometheus::net::HttpFrontEnd;

  TelemetryResult result;
  HttpFrontEnd::Options net_options;
  net_options.port = 0;  // ephemeral
  HttpFrontEnd front(&server, net_options);
  if (!front.Start().ok()) {
    std::fprintf(stderr, "E17: front-end failed to start\n");
    return result;
  }

  // Background read pressure for the whole measurement window.
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int c = 0; c < readers; ++c) {
    load.emplace_back([&server, &stop, c] {
      Client client(&server);
      std::mt19937 rng(2000u + static_cast<unsigned>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        (void)client.Query(ReadQuery(rng));
      }
    });
  }

  // E17a: keep-alive scrapes, as a Prometheus server would issue them.
  auto scrape_conn = HttpConnection::Connect("127.0.0.1", front.port());
  if (scrape_conn.ok()) {
    std::vector<double> lats;
    lats.reserve(static_cast<std::size_t>(scrapes));
    for (int i = 0; i < scrapes; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto resp = scrape_conn.value()->RoundTrip("GET", "/metrics");
      lats.push_back(MillisSince(t0));
      if (!resp.ok() || resp.value().status_code != 200) {
        ++result.scrape_failures;
      } else {
        result.scrape_bytes = resp.value().body.size();
      }
    }
    result.scrape_lat = SummarizeLatencies(lats);
  } else {
    result.scrape_failures = static_cast<std::size_t>(scrapes);
  }

  // E17b: identical queries remote (POST /query, keep-alive) vs local.
  auto query_conn = HttpConnection::Connect("127.0.0.1", front.port());
  {
    std::vector<double> remote, local;
    remote.reserve(static_cast<std::size_t>(queries));
    local.reserve(static_cast<std::size_t>(queries));
    Client client(&server);
    std::mt19937 remote_rng(5000), local_rng(5000);  // same query stream
    for (int i = 0; i < queries; ++i) {
      const std::string q = ReadQuery(remote_rng);
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      if (query_conn.ok()) {
        auto resp = query_conn.value()->RoundTrip("POST", "/query", q);
        ok = resp.ok() && resp.value().status_code == 200;
      }
      remote.push_back(MillisSince(t0));
      if (!ok) ++result.remote_failures;
    }
    for (int i = 0; i < queries; ++i) {
      const std::string q = ReadQuery(local_rng);
      const Clock::time_point t0 = Clock::now();
      (void)client.Query(q);
      local.push_back(MillisSince(t0));
    }
    result.remote_query_lat = SummarizeLatencies(remote);
    result.local_query_lat = SummarizeLatencies(local);
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : load) t.join();
  front.Stop();
  return result;
}

// ------------------------------------------------------------------- E18

struct ReplicationBench {
  double read_rps[3] = {0, 0, 0};  ///< fleet throughput, 0/1/2 replicas
  std::size_t catchup_writes = 0;
  double catchup_ms = 0;
  double ship_records_per_sec = 0;
  std::uint64_t residual_lag_records = 0;
  double failover_ms = 0;
  bool failover_ok = false;
};

/// Fleet read throughput: `clients` query threads spread round-robin over
/// `nodes`, each thread with its own session on its node.
double MeasureFleetReadRps(const std::vector<Server*>& nodes, int clients,
                           int requests_per_client) {
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    Server* node = nodes[static_cast<std::size_t>(c) % nodes.size()];
    threads.emplace_back([&, node, c] {
      Client client(node);
      std::mt19937 rng(7000u + static_cast<unsigned>(c));
      std::uniform_int_distribution<int> lo_dist(0, 800);
      for (int i = 0; i < requests_per_client; ++i) {
        const int lo = lo_dist(rng);
        auto r = client.Query("select i.n from Item i where i.n >= " +
                              std::to_string(lo) + " and i.n <= " +
                              std::to_string(lo + 100));
        if (r.ok()) done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms = MillisSince(start);
  return wall_ms > 0 ? static_cast<double>(done.load()) / (wall_ms / 1000.0)
                     : 0;
}

ReplicationBench RunReplication(const std::string& base, int clients,
                                int requests_per_client) {
  using prometheus::net::HttpFrontEnd;
  using prometheus::replication::Follower;
  using prometheus::replication::ReplicationSource;

  ReplicationBench result;
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  DurableStore::Options store_options;
  store_options.bootstrap = [](Database* db) {
    prometheus::AttributeDef n;
    n.name = "n";
    n.type = ValueType::kInt;
    PROMETHEUS_RETURN_IF_ERROR(db->DefineClass("Item", {}, {n}).status());
    for (int i = 0; i < 1000; ++i) {
      PROMETHEUS_RETURN_IF_ERROR(
          db->CreateObject("Item", {{"n", Value::Int(i)}}).status());
    }
    return Status::Ok();
  };
  auto store = DurableStore::Open(base + "/leader", store_options);
  if (!store.ok()) {
    std::fprintf(stderr, "E18: store open failed: %s\n",
                 store.status().ToString().c_str());
    return result;
  }

  Server::Options options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  options.store = store.value().get();
  options.cache.enabled = false;  // comparable with pre-cache E18 numbers
  auto server = std::make_unique<Server>(&store.value()->db(), options);
  auto source = std::make_unique<ReplicationSource>(store.value().get());
  HttpFrontEnd::Options net_options;
  net_options.port = 0;  // ephemeral
  net_options.aux_handler = source->AuxHandler();
  auto front = std::make_unique<HttpFrontEnd>(server.get(), net_options);
  if (!front->Start().ok()) {
    std::fprintf(stderr, "E18: front-end failed to start\n");
    return result;
  }

  std::unique_ptr<Follower> followers[2];
  auto start_follower = [&](int i) {
    Follower::Options fo;
    fo.dir = base + "/f" + std::to_string(i + 1);
    fo.leader_port = front->port();
    fo.serve_http = false;
    fo.poll_interval_ms = 2;
    auto f = Follower::Start(std::move(fo));
    if (!f.ok()) {
      std::fprintf(stderr, "E18: follower %d failed: %s\n", i + 1,
                   f.status().ToString().c_str());
      return false;
    }
    followers[i] = std::move(f).value();
    return followers[i]->WaitCaughtUp(10000);
  };

  // E18a: fleet read throughput as replicas join.
  std::vector<Server*> nodes = {server.get()};
  result.read_rps[0] =
      MeasureFleetReadRps(nodes, clients, requests_per_client);
  for (int i = 0; i < 2; ++i) {
    if (!start_follower(i)) return result;
    nodes.push_back(&followers[i]->server());
    result.read_rps[i + 1] =
        MeasureFleetReadRps(nodes, clients, requests_per_client);
  }

  // E18b: write burst on the leader, then time until both replicas report
  // caught-up again (from the start of the burst — the replicas ship
  // concurrently with the writes, not after them).
  {
    Client writer(server.get());
    const std::vector<Oid> items = store.value()->db().Extent("Item");
    result.catchup_writes = static_cast<std::size_t>(clients) *
                            static_cast<std::size_t>(requests_per_client);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < result.catchup_writes; ++i) {
      (void)writer.SetAttribute(items[i % items.size()], "n",
                                Value::Int(static_cast<std::int64_t>(i)));
    }
    const bool caught = followers[0]->WaitCaughtUp(30000) &&
                        followers[1]->WaitCaughtUp(30000);
    result.catchup_ms = MillisSince(t0);
    if (!caught) {
      std::fprintf(stderr, "E18: catch-up timed out\n  f1=%s\n  f2=%s\n",
                   RenderJson(followers[0]->ProgressRows().front()).c_str(),
                   RenderJson(followers[1]->ProgressRows().front()).c_str());
    }
    if (caught && result.catchup_ms > 0) {
      result.ship_records_per_sec =
          static_cast<double>(result.catchup_writes) /
          (result.catchup_ms / 1000.0);
    }
    result.residual_lag_records =
        std::max(followers[0]->progress().lag_records,
                 followers[1]->progress().lag_records);
  }

  // E18c: kill the leader, promote the most-advanced replica, and time the
  // window from kill to the first committed write on the promoted store.
  {
    const Clock::time_point t0 = Clock::now();
    front->Stop();
    server->Shutdown();
    front.reset();
    source.reset();
    server.reset();
    store.value().reset();

    const Follower::Progress p0 = followers[0]->progress();
    const Follower::Progress p1 = followers[1]->progress();
    const int newest = (p1.journal_seq > p0.journal_seq ||
                        (p1.journal_seq == p0.journal_seq &&
                         p1.offset > p0.offset))
                           ? 1
                           : 0;
    followers[1 - newest]->Stop();
    auto promoted = followers[newest]->Promote();
    if (promoted.ok()) {
      followers[newest].reset();
      auto new_store = std::move(promoted).value();
      Server::Options o2;
      o2.worker_threads = 4;
      o2.store = new_store.get();
      Server new_server(&new_store->db(), o2);
      Client new_client(&new_server);
      const Oid item = new_store->db().Extent("Item").front();
      result.failover_ok =
          new_client.SetAttribute(item, "n", Value::Int(-1)).ok();
      result.failover_ms = MillisSince(t0);
      new_server.Shutdown();
    } else {
      std::fprintf(stderr, "E18: promote failed: %s\n",
                   promoted.status().ToString().c_str());
    }
    followers[0].reset();
    followers[1].reset();
  }
  std::filesystem::remove_all(base);
  return result;
}

}  // namespace

// ------------------------------------------------------------------- E19

/// A fixed hot set of Q2-style range scans. The fleet draws from it with a
/// Zipf-like skew (weight 1/rank), the shape of a production dashboard
/// workload: a few queries dominate, a long tail keeps the cache churning.
std::vector<std::string> HotQuerySet(int n) {
  std::vector<std::string> queries;
  queries.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int lo = (i * 37) % 1800;
    const int hi = lo + 200;
    queries.push_back(
        "select a.id from AtomicPart a where a.build_date >= " +
        std::to_string(lo) + " and a.build_date <= " + std::to_string(hi));
  }
  return queries;
}

struct CacheFleetResult {
  SweepResult sweep;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double hit_rate_percent = 0;
};

/// Zipf-skewed readers (plus optional writers churning the epoch) against
/// one server; reports the load-side numbers and the cache's own counters.
CacheFleetResult RunCachedFleet(Server& server,
                                const std::vector<std::string>& queries,
                                const std::vector<Oid>& parts, int readers,
                                int writers, int requests_per_client) {
  CacheFleetResult result;
  result.sweep.workers = server.worker_threads();
  result.sweep.reader_clients = readers;
  result.sweep.writer_clients = writers;

  std::vector<double> weights;
  weights.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    weights.push_back(1.0 / static_cast<double>(i + 1));
  }

  std::vector<std::vector<double>> read_lats(
      static_cast<std::size_t>(readers));
  std::atomic<std::size_t> failed{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers + writers));

  const Clock::time_point wall_start = Clock::now();
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      Client client(&server);
      std::mt19937 rng(4000u + static_cast<unsigned>(c));
      std::discrete_distribution<std::size_t> pick(weights.begin(),
                                                   weights.end());
      auto& lats = read_lats[static_cast<std::size_t>(c)];
      lats.reserve(static_cast<std::size_t>(requests_per_client));
      for (int i = 0; i < requests_per_client; ++i) {
        const std::string& q = queries[pick(rng)];
        const Clock::time_point t0 = Clock::now();
        auto r = client.Query(q);
        lats.push_back(MillisSince(t0));
        if (!r.ok()) failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      Client client(&server);
      std::mt19937 rng(8000u + static_cast<unsigned>(w));
      std::uniform_int_distribution<std::size_t> pick(0, parts.size() - 1);
      for (int i = 0; i < requests_per_client; ++i) {
        const Oid oid = parts[pick(rng)];
        if (!client.SetAttribute(oid, "x", Value::Int(i)).ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.sweep.wall_ms = MillisSince(wall_start);

  std::vector<double> all_reads;
  for (auto& v : read_lats) {
    all_reads.insert(all_reads.end(), v.begin(), v.end());
  }
  result.sweep.requests =
      all_reads.size() +
      static_cast<std::size_t>(writers) *
          static_cast<std::size_t>(requests_per_client);
  result.sweep.failed = failed.load();
  result.sweep.throughput_rps =
      result.sweep.wall_ms > 0
          ? static_cast<double>(result.sweep.requests) /
                (result.sweep.wall_ms / 1000.0)
          : 0;
  result.sweep.read_lat = SummarizeLatencies(all_reads);

  const auto cache_stats = server.query_cache().results().stats();
  result.hits = cache_stats.hits;
  result.misses = cache_stats.misses;
  result.hit_rate_percent = cache_stats.hit_rate_percent;
  return result;
}

int main(int argc, char** argv) {
  const int requests_per_client = argc > 1 ? std::atoi(argv[1]) : 150;
  const unsigned cores = std::thread::hardware_concurrency();

  Config config;  // OO7 small module: 50 composites, 1000 atomic parts
  std::printf("bench_server: OO7 small module (%d atomic parts), %d client "
              "threads, %d requests/client, %u hardware threads\n",
              config.total_atomic_parts(), kClientThreads,
              requests_per_client, cores);

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("server");
  json.Key("hardware_concurrency").Int(cores);
  json.Key("atomic_parts").Int(config.total_atomic_parts());
  json.Key("requests_per_client").Int(requests_per_client);

  // ---- read-only sweep over worker counts ------------------------------
  prometheus::bench::PrintTableHeader(
      "E14a: read-only query serving (8 clients, workers swept)",
      "  phase        workers  requests  throughput   latency");
  json.Key("read_sweep").BeginArray();
  double rps_at_1 = 0;
  double rps_at_4 = 0;
  for (int workers : kWorkerSweep) {
    PrometheusOo7 oo7(config);  // fresh, identical database per sweep
    Server::Options options;
    options.worker_threads = workers;
    options.queue_capacity = 4096;
    options.cache.enabled = false;  // E19 measures the cache; E14 never did
    Server server(&oo7.db(), options);
    SweepResult r = RunLoad(server, {}, workers, kClientThreads,
                            /*writers=*/0, requests_per_client);
    server.Shutdown();
    PrintRow(r, "read-only");
    EmitSweepJson(json, r);
    if (workers == 1) rps_at_1 = r.throughput_rps;
    if (workers == 4) rps_at_4 = r.throughput_rps;
  }
  json.EndArray();
  const double scaling = rps_at_1 > 0 ? rps_at_4 / rps_at_1 : 0;
  json.Key("scaling_4v1").Number(scaling);
  std::printf("  read scaling 4 workers vs 1: %.2fx", scaling);
  if (cores < 4) {
    std::printf("  (only %u hardware thread%s — scaling is bounded by the "
                "host, expect ~1x)",
                cores, cores == 1 ? "" : "s");
  }
  std::printf("\n");

  // ---- mixed read/write load ------------------------------------------
  prometheus::bench::PrintTableHeader(
      "E14b: mixed load (7 readers + 1 writer, 4 workers)",
      "  phase        workers  requests  throughput   read latency");
  json.Key("mixed").BeginArray();
  {
    PrometheusOo7 oo7(config);
    const std::vector<Oid> parts = oo7.db().Extent("AtomicPart");
    Server::Options options;
    options.worker_threads = 4;
    options.queue_capacity = 4096;
    options.cache.enabled = false;
    Server server(&oo7.db(), options);
    SweepResult r = RunLoad(server, parts, 4, kClientThreads - 1,
                            /*writers=*/1, requests_per_client);
    server.Shutdown();
    PrintRow(r, "mixed");
    std::printf("               write latency: p50 %7.3f  p95 %7.3f  p99 "
                "%7.3f ms\n",
                r.write_lat.p50, r.write_lat.p95, r.write_lat.p99);
    EmitSweepJson(json, r);
  }
  json.EndArray();

  // ---- E16a: overload (deadlines + priorities vs a saturated worker) ---
  prometheus::bench::PrintTableHeader(
      "E16a: overload shedding (8 clients, 2ms deadlines, 1 worker, "
      "16-slot queue)",
      "  outcome            count    rate");
  json.Key("overload").BeginObject();
  {
    PrometheusOo7 oo7(config);
    Server::Options options;
    options.worker_threads = 1;
    options.queue_capacity = 16;
    options.cache.enabled = false;
    Server server(&oo7.db(), options);
    OverloadResult r =
        RunOverload(server, kClientThreads, requests_per_client);
    server.Shutdown();
    const double n = static_cast<double>(r.requests);
    std::printf("  served            %6zu  %5.1f%%\n", r.ok,
                100.0 * static_cast<double>(r.ok) / n);
    std::printf("  rejected          %6zu  %5.1f%%\n", r.rejected,
                100.0 * static_cast<double>(r.rejected) / n);
    std::printf("  timed out         %6zu  %5.1f%%\n", r.timed_out,
                100.0 * static_cast<double>(r.timed_out) / n);
    std::printf("  served by priority  low %zu / normal %zu / high %zu "
                "(shedding favours important work)\n",
                r.ok_by_priority[0], r.ok_by_priority[1],
                r.ok_by_priority[2]);
    json.Key("requests").Int(static_cast<long long>(r.requests));
    json.Key("served").Int(static_cast<long long>(r.ok));
    json.Key("rejected").Int(static_cast<long long>(r.rejected));
    json.Key("timed_out").Int(static_cast<long long>(r.timed_out));
    json.Key("wall_ms").Number(r.wall_ms);
    json.Key("served_low").Int(static_cast<long long>(r.ok_by_priority[0]));
    json.Key("served_normal")
        .Int(static_cast<long long>(r.ok_by_priority[1]));
    json.Key("served_high").Int(static_cast<long long>(r.ok_by_priority[2]));
  }
  json.EndObject();

  // ---- E16b: degraded read-only mode ----------------------------------
  prometheus::bench::PrintTableHeader(
      "E16b: degraded read-only mode (fault-injected store, 8 readers)",
      "  metric                         value");
  json.Key("degraded").BeginObject();
  {
    DegradedResult r = RunDegraded("bench_e16_store", kClientThreads,
                                   requests_per_client);
    std::printf("  healthy read throughput     %10.1f rps\n",
                r.healthy_read_rps);
    std::printf("  degraded read throughput    %10.1f rps  (%.0f%% of "
                "healthy)\n",
                r.degraded_read_rps,
                r.healthy_read_rps > 0
                    ? 100.0 * r.degraded_read_rps / r.healthy_read_rps
                    : 0);
    std::printf("  mutation fast-fail p50      %10.4f ms  (%zu/200 "
                "kUnavailable)\n",
                r.fastfail_lat.p50, r.unavailable);
    std::printf("  checkpoint re-armed         %10s\n",
                r.rearmed ? "yes" : "NO");
    json.Key("healthy_read_rps").Number(r.healthy_read_rps);
    json.Key("degraded_read_rps").Number(r.degraded_read_rps);
    json.Key("fastfail_p50_ms").Number(r.fastfail_lat.p50);
    json.Key("fastfail_p99_ms").Number(r.fastfail_lat.p99);
    json.Key("unavailable").Int(static_cast<long long>(r.unavailable));
    json.Key("rearmed").Int(r.rearmed ? 1 : 0);
  }
  json.EndObject();

  // ---- E17: remote telemetry plane ------------------------------------
  prometheus::bench::PrintTableHeader(
      "E17: remote telemetry plane (keep-alive HTTP, 8 readers as load)",
      "  metric                         value");
  json.Key("e17").BeginObject();
  {
    PrometheusOo7 oo7(config);
    Server::Options options;
    options.worker_threads = 4;
    options.queue_capacity = 4096;
    options.cache.enabled = false;
    Server server(&oo7.db(), options);
    const int scrapes = std::max(50, requests_per_client);
    const int queries = std::max(50, requests_per_client);
    TelemetryResult r =
        RunTelemetry(server, kClientThreads, scrapes, queries);
    server.Shutdown();
    std::printf("  /metrics scrape p50         %10.3f ms\n",
                r.scrape_lat.p50);
    std::printf("  /metrics scrape p95         %10.3f ms\n",
                r.scrape_lat.p95);
    std::printf("  /metrics scrape p99         %10.3f ms  (target < 5 ms)"
                "%s\n",
                r.scrape_lat.p99,
                r.scrape_lat.p99 < 5.0 ? "" : "  [OVER TARGET]");
    std::printf("  scrape payload              %10zu bytes, %zu failures\n",
                r.scrape_bytes, r.scrape_failures);
    std::printf("  query p50  remote / local   %10.3f / %.3f ms  "
                "(overhead %+.3f ms)\n",
                r.remote_query_lat.p50, r.local_query_lat.p50,
                r.remote_query_lat.p50 - r.local_query_lat.p50);
    std::printf("  query p99  remote / local   %10.3f / %.3f ms\n",
                r.remote_query_lat.p99, r.local_query_lat.p99);
    json.Key("scrapes").Int(scrapes);
    json.Key("scrape_p50_ms").Number(r.scrape_lat.p50);
    json.Key("scrape_p95_ms").Number(r.scrape_lat.p95);
    json.Key("scrape_p99_ms").Number(r.scrape_lat.p99);
    json.Key("scrape_max_ms").Number(r.scrape_lat.max);
    json.Key("scrape_bytes").Int(static_cast<long long>(r.scrape_bytes));
    json.Key("scrape_failures")
        .Int(static_cast<long long>(r.scrape_failures));
    json.Key("remote_query_p50_ms").Number(r.remote_query_lat.p50);
    json.Key("remote_query_p99_ms").Number(r.remote_query_lat.p99);
    json.Key("local_query_p50_ms").Number(r.local_query_lat.p50);
    json.Key("local_query_p99_ms").Number(r.local_query_lat.p99);
    json.Key("remote_overhead_p50_ms")
        .Number(r.remote_query_lat.p50 - r.local_query_lat.p50);
    json.Key("remote_failures")
        .Int(static_cast<long long>(r.remote_failures));
  }
  json.EndObject();

  // ---- E18: journal-shipping replication ------------------------------
  prometheus::bench::PrintTableHeader(
      "E18: journal-shipping replication (8 clients over the fleet)",
      "  metric                         value");
  json.Key("e18").BeginObject();
  {
    ReplicationBench r = RunReplication("bench_e18_repl", kClientThreads,
                                        requests_per_client);
    std::printf("  fleet read rps, 0 replicas  %10.1f\n", r.read_rps[0]);
    std::printf("  fleet read rps, 1 replica   %10.1f  (%.2fx)\n",
                r.read_rps[1],
                r.read_rps[0] > 0 ? r.read_rps[1] / r.read_rps[0] : 0);
    std::printf("  fleet read rps, 2 replicas  %10.1f  (%.2fx)\n",
                r.read_rps[2],
                r.read_rps[0] > 0 ? r.read_rps[2] / r.read_rps[0] : 0);
    std::printf("  catch-up: %zu writes shipped to both replicas in %.1f ms "
                "(%.0f records/s)\n",
                r.catchup_writes, r.catchup_ms, r.ship_records_per_sec);
    std::printf("  residual lag                %10llu records\n",
                static_cast<unsigned long long>(r.residual_lag_records));
    std::printf("  failover (kill -> writable) %10.1f ms  %s\n",
                r.failover_ms, r.failover_ok ? "" : "[FAILED]");
    json.Key("read_rps_0_replicas").Number(r.read_rps[0]);
    json.Key("read_rps_1_replica").Number(r.read_rps[1]);
    json.Key("read_rps_2_replicas").Number(r.read_rps[2]);
    json.Key("catchup_writes").Int(static_cast<long long>(r.catchup_writes));
    json.Key("catchup_ms").Number(r.catchup_ms);
    json.Key("ship_records_per_sec").Number(r.ship_records_per_sec);
    json.Key("residual_lag_records")
        .Int(static_cast<long long>(r.residual_lag_records));
    json.Key("failover_ms").Number(r.failover_ms);
    json.Key("failover_ok").Int(r.failover_ok ? 1 : 0);
  }
  json.EndObject();

  // ---- E19: query cache under a Zipf hot-query fleet -------------------
  prometheus::bench::PrintTableHeader(
      "E19: result cache, Zipf-skewed hot set (8 readers, 4 workers)",
      "  phase        workers  requests  throughput   latency");
  json.Key("e19").BeginObject();
  {
    const std::vector<std::string> hot = HotQuerySet(64);
    json.Key("hot_set_size").Int(static_cast<int>(hot.size()));
    // Dashboards re-issue the same few queries; double the per-client count
    // so the steady state (not the warm-up misses) dominates the numbers.
    const int fleet_requests = 2 * requests_per_client;
    json.Key("requests_per_client").Int(fleet_requests);

    double rps_off = 0;
    {
      PrometheusOo7 oo7(config);
      Server::Options options;
      options.worker_threads = 4;
      options.queue_capacity = 4096;
      options.cache.enabled = false;
      Server server(&oo7.db(), options);
      CacheFleetResult r = RunCachedFleet(server, hot, {}, kClientThreads,
                                          /*writers=*/0, fleet_requests);
      server.Shutdown();
      PrintRow(r.sweep, "cache off");
      json.Key("cache_off");
      EmitSweepJson(json, r.sweep);
      rps_off = r.sweep.throughput_rps;
    }

    double rps_on = 0;
    {
      PrometheusOo7 oo7(config);
      Server::Options options;
      options.worker_threads = 4;
      options.queue_capacity = 4096;
      Server server(&oo7.db(), options);  // cache on by default
      CacheFleetResult r = RunCachedFleet(server, hot, {}, kClientThreads,
                                          /*writers=*/0, fleet_requests);
      server.Shutdown();
      PrintRow(r.sweep, "cache on");
      std::printf("               result cache: %llu hits / %llu misses "
                  "(%.1f%% hit rate)\n",
                  static_cast<unsigned long long>(r.hits),
                  static_cast<unsigned long long>(r.misses),
                  r.hit_rate_percent);
      json.Key("cache_on");
      EmitSweepJson(json, r.sweep);
      json.Key("cache_on_hits").Int(static_cast<long long>(r.hits));
      json.Key("cache_on_misses").Int(static_cast<long long>(r.misses));
      json.Key("cache_on_hit_rate_percent").Number(r.hit_rate_percent);
      rps_on = r.sweep.throughput_rps;
    }
    const double speedup = rps_off > 0 ? rps_on / rps_off : 0;
    json.Key("speedup").Number(speedup);
    std::printf("  cache speedup (on vs off): %.2fx  (target >= 2x)%s\n",
                speedup, speedup >= 2.0 ? "" : "  [UNDER TARGET]");

    // Writer churn: one mutator bumps the epoch continuously, so every
    // committed write invalidates the whole result tier. The cache must
    // still help (hot entries re-warm between writes) and must never serve
    // stale rows — staleness is asserted by test_cache's stress test; here
    // we report what churn does to the hit rate.
    {
      PrometheusOo7 oo7(config);
      const std::vector<Oid> parts = oo7.db().Extent("AtomicPart");
      Server::Options options;
      options.worker_threads = 4;
      options.queue_capacity = 4096;
      Server server(&oo7.db(), options);
      CacheFleetResult r =
          RunCachedFleet(server, hot, parts, kClientThreads - 1,
                         /*writers=*/1, fleet_requests);
      server.Shutdown();
      PrintRow(r.sweep, "churn");
      std::printf("               result cache: %llu hits / %llu misses "
                  "(%.1f%% hit rate under writer churn)\n",
                  static_cast<unsigned long long>(r.hits),
                  static_cast<unsigned long long>(r.misses),
                  r.hit_rate_percent);
      json.Key("churn");
      EmitSweepJson(json, r.sweep);
      json.Key("churn_hits").Int(static_cast<long long>(r.hits));
      json.Key("churn_misses").Int(static_cast<long long>(r.misses));
      json.Key("churn_hit_rate_percent").Number(r.hit_rate_percent);
    }
  }
  json.EndObject();

  // ---- E21: MVCC snapshot reads under 400-write transaction churn ------
  // Readers pin an immutable snapshot at dequeue and never touch the
  // shared guard, so a writer looping long transactions must not move read
  // latency: target p99 within 20% of the reader-only baseline, and the
  // guard_wait_micros{mode="shared"} histogram flat across the phase. The
  // cache is off in both phases so every request actually executes.
  prometheus::bench::PrintTableHeader(
      "E21: MVCC snapshot reads (8 readers vs one 400-write txn writer, "
      "4 workers, cache off)",
      "  phase        workers  requests  throughput   latency");
  json.Key("e21").BeginObject();
  {
    double baseline_p99 = 0;
    {
      PrometheusOo7 oo7(config);
      Server::Options options;
      options.worker_threads = 4;
      options.queue_capacity = 4096;
      options.cache.enabled = false;
      Server server(&oo7.db(), options);
      SweepResult r = RunLoad(server, {}, 4, kClientThreads,
                              /*writers=*/0, requests_per_client);
      server.Shutdown();
      PrintRow(r, "reader-only");
      json.Key("reader_only");
      EmitSweepJson(json, r);
      baseline_p99 = r.read_lat.p99;
    }
    {
      PrometheusOo7 oo7(config);
      const std::vector<Oid> parts = oo7.db().Extent("AtomicPart");
      Server::Options options;
      options.worker_threads = 4;
      options.queue_capacity = 4096;
      options.cache.enabled = false;
      Server server(&oo7.db(), options);
      MvccChurnResult r =
          RunMvccChurn(server, parts, 4, kClientThreads, requests_per_client);
      server.Shutdown();
      PrintRow(r.sweep, "txn-churn");
      std::printf("               writer: %llu committed 400-write txns, "
                  "p50 %.3f ms/txn\n",
                  static_cast<unsigned long long>(r.writer_txns),
                  r.writer_txn_p50_ms);
      std::printf("               guard shared-mode waits during phase: %llu "
                  "(%.0f us total; MVCC target: 0)\n",
                  static_cast<unsigned long long>(r.guard_shared_waits),
                  r.guard_shared_wait_micros);
      json.Key("churn");
      EmitSweepJson(json, r.sweep);
      json.Key("writer_txns").Int(static_cast<long long>(r.writer_txns));
      json.Key("writer_writes_per_txn").Int(400);
      json.Key("writer_txn_p50_ms").Number(r.writer_txn_p50_ms);
      json.Key("guard_shared_waits")
          .Int(static_cast<long long>(r.guard_shared_waits));
      json.Key("guard_shared_wait_micros").Number(r.guard_shared_wait_micros);
      const double ratio =
          baseline_p99 > 0 ? r.sweep.read_lat.p99 / baseline_p99 : 0;
      json.Key("read_p99_ratio").Number(ratio);
      json.Key("scaling_4v1").Number(scaling);  // E14a read sweep, same path
      json.Key("host_bounded").Bool(cores < 4);
      std::printf("  reader p99 under txn churn vs reader-only: %.2fx  "
                  "(target <= 1.2x)%s\n",
                  ratio, ratio <= 1.2 ? "" : "  [OVER TARGET]");
      if (cores < 4) {
        std::printf("  (only %u hardware thread%s — churn and baseline share "
                    "the core%s; ratio is host-bounded)\n",
                    cores, cores == 1 ? "" : "s", cores == 1 ? "" : "s");
      }
    }
  }
  json.EndObject();
  json.EndObject();

  const std::string out = "BENCH_server.json";
  if (!prometheus::bench::WriteTextFile(out, json.str() + "\n")) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
