#ifndef PROMETHEUS_SERVER_SERVER_H_
#define PROMETHEUS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "cache/query_cache.h"
#include "core/database.h"
#include "event/event_bus.h"
#include "index/index_manager.h"
#include "obs/flight_recorder.h"
#include "obs/slow_query_log.h"
#include "query/query_engine.h"
#include "server/executor.h"
#include "server/request.h"
#include "server/session.h"
#include "storage/recovery.h"

namespace prometheus::server {

/// The query-serving subsystem: turns an embedded `Database` into a
/// concurrently usable service (the stand-in for the thesis' omitted
/// Prometheus service layer, §6.1.7).
///
/// Concurrency protocol (MVCC snapshot reads; see `Database`):
///  - **kQuery** requests pin an immutable `DbSnapshot` at dequeue
///    (`Database::AcquireSnapshot`) and execute against it with **no**
///    lock — any number run in parallel, each sees one consistent
///    cut for its whole evaluation (the paper's single-user query
///    semantics per request), and none ever blocks behind a writer. A
///    writer stalled in journal_sync degrades write latency only; the
///    read fleet keeps serving the last published snapshot.
///  - **kMutation** requests execute under `Database::WriteGuard` — the
///    writers-only epoch guard, so the journal (when a `DurableStore`
///    wraps the database) observes a serial mutation history. Commit
///    publishes the next snapshot before the epoch becomes observable.
///
/// Overload protection: a bounded priority-tiered work queue with adaptive
/// admission control (see executor.h / admission.h), per-request deadlines
/// enforced at admission, at dequeue and cooperatively inside query
/// execution (`ResponseCode::kTimedOut`), and graceful drain-on-shutdown.
/// Every admitted request resolves its future exactly once.
///
/// Graceful degradation: when an attached `DurableStore` reports a sticky
/// durability failure, the server enters **degraded read-only mode** —
/// queries keep executing, mutations fail fast with
/// `ResponseCode::kUnavailable` (they never reach the write path), and a
/// `Request::Checkpoint()` that succeeds re-arms the store and lifts the
/// mode. `Request::Health()` reports the state without taking any lock.
class Server {
 public:
  struct Options {
    /// Worker threads executing requests.
    int worker_threads = 4;
    /// Bounded queue depth; submissions beyond it are rejected.
    std::size_t queue_capacity = 256;
    /// Optional index layer consulted by query execution. Must outlive the
    /// server. Its indexes live in the database's store, maintained by the
    /// mutating worker under the write guard; each query reads the indexes
    /// of the snapshot it pinned.
    IndexManager* indexes = nullptr;
    /// Queries slower than this are recorded in the slow-query log with
    /// their plan (or full trace when profiled). Negative = disabled (the
    /// default): the fast path then never reads the clock for it.
    double slow_query_micros = -1;
    /// Writer-starvation watchdog: a mutation whose exclusive-guard
    /// acquisition wait reaches this many microseconds leaves a
    /// `[writer-wait]` entry in the slow-query log (readers don't hold the
    /// guard under MVCC, so a long wait means a stalled *writer* ahead of
    /// this one). The `guard_writer_longest_wait_micros` gauge tracks the
    /// high-water mark regardless. Negative = disabled (the default).
    double writer_wait_warn_micros = -1;
    /// Slow-query log ring capacity.
    std::size_t slow_query_capacity = 128;
    /// Flight-recorder ring capacity: the last N completed request traces
    /// (`GET /debug/requests`, shell `.recent`). 0 disables recording.
    std::size_t flight_recorder_capacity = 128;
    /// Optional durability manager wrapping `db`. Must outlive the server
    /// and must be the store whose `db()` the server serves. Enables
    /// degraded read-only mode and the kCheckpoint mutation.
    storage::DurableStore* store = nullptr;
    /// Adaptive admission policy (watermarks, wait prediction).
    AdmissionOptions admission;
    /// Permanent read-only role (a replication follower): every mutation —
    /// including kCheckpoint — answers `kUnavailable` without reaching the
    /// write path. Unlike degraded mode there is no re-arm; only
    /// `Follower::Promote()` (which builds a fresh writable server) exits
    /// the role.
    bool read_only = false;
    /// Optional replication status: the rows the `sys.replication` catalog
    /// class materializes (one struct Value per replication link); the
    /// health row embeds the first as "replication". Must be lock-light
    /// and thread-safe; on a follower the `Follower` installs it. A leader
    /// (or standalone server) without one serves an empty
    /// `sys.replication` extent.
    std::function<std::vector<Value>()> replication_rows;
    /// Query-cache configuration (plan + result tiers), on by default.
    /// Result-cache hits resolve at Enqueue on the submitting thread —
    /// they skip the queue, the workers and the epoch guard entirely, and
    /// stay correct through lock-free epoch validation (any committed
    /// write invalidates). Hits keep serving in degraded read-only mode
    /// and on a read-only follower. Set `cache.enabled = false` for an
    /// uncached server (benchmark baselines).
    cache::QueryCacheConfig cache;
  };

  /// `db` must outlive the server. While the server runs, all access to
  /// `db` must flow through sessions — direct reads or writes from other
  /// threads race the workers (the epoch guard's debug assertions catch
  /// exactly this). Single-threaded setup before construction and after
  /// `Shutdown` needs no locking.
  Server(Database* db, Options options);
  explicit Server(Database* db) : Server(db, Options{}) {}

  /// Shuts down (draining) if the caller did not.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens a logical client session (shorthand for `sessions().Open()`).
  std::shared_ptr<Session> Connect() { return sessions_.Open(); }

  SessionManager& sessions() { return sessions_; }

  /// Stops admission, closes every session and joins the workers. With
  /// `drain` queued requests execute first (expired ones still shed as
  /// kTimedOut); without, each queued request resolves with
  /// `ResponseCode::kShutdown`. Idempotent.
  void Shutdown(bool drain = true);

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// True while the attached store's durability is broken and mutations
  /// are refused (queries still serve).
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  struct Stats {
    std::uint64_t accepted = 0;     ///< admitted to the queue
    std::uint64_t rejected = 0;     ///< refused by admission / shutdown
    std::uint64_t queries = 0;      ///< kQuery requests executed
    std::uint64_t mutations = 0;    ///< kMutation requests executed
    std::uint64_t errors = 0;       ///< executed with a non-OK status
    std::uint64_t timed_out = 0;    ///< resolved kTimedOut (any stage)
    std::uint64_t shed = 0;         ///< evicted by priority under overload
    std::uint64_t unavailable = 0;  ///< mutations refused while degraded
  };
  Stats stats() const;

  /// Point-in-time overload/degradation summary — what `/health`, kHealth,
  /// `.health` and `sys.health` render. Lock-free with respect to the
  /// database: never queues behind a writer.
  struct Health {
    std::uint64_t server_epoch = 0;  ///< see Server::server_epoch()
    bool degraded = false;
    bool read_only = false;       ///< permanent follower role
    /// The `sys.replication` row of this server's link; null when it
    /// replicates from nobody.
    Value replication;
    Status store_status;          ///< last observed store status
    std::size_t queue_depth = 0;
    std::size_t queue_capacity = 0;
    int workers = 0;
    double estimated_wait_micros = 0;  ///< admission's queue-wait estimate
    Stats stats;
    std::size_t sessions_active = 0;

    /// The one struct row every health surface renders: the fields above
    /// in order, with the `stats` counters inline (accepted, rejected,
    /// timed_out, shed, unavailable, errors).
    Value ToRow() const;
  };
  Health health() const;

  /// The two-tier query cache (see cache/query_cache.h). Thread-safe;
  /// `query_cache().Stats()` / `Clear()` are what kCacheControl runs.
  cache::QueryCache& query_cache() { return query_cache_; }

  /// The virtual `sys.*` system catalog this server registered over its
  /// own internals (see query/system_catalog.h). Immutable after
  /// construction; `sys.catalog` (the shell's `.sys`) lists it.
  const pool::SystemCatalog& system_catalog() const { return catalog_; }

  /// Runs a `sys.*` query on the calling thread against a pinned snapshot:
  /// no queue, admission, flight record or guard, so the telemetry
  /// surfaces answer while the work queue is full or a writer holds the
  /// write guard. Refuses (InvalidArgument) any text that does not touch
  /// the `sys.` namespace. The fixed texts the surfaces run live in
  /// server/telemetry.h.
  Result<pool::ResultSet> QueryCatalog(const std::string& text);

  /// Queries that exceeded Options::slow_query_micros (empty when disabled).
  const obs::SlowQueryLog& slow_query_log() const { return slow_log_; }

  /// The last N completed request traces (see Options).
  const obs::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }
  /// Mutable access for transport layers that record non-worker events —
  /// the HTTP plane records traced GET/aux requests (e.g. a follower's
  /// /repl/* fetches) and a follower records its own leader fetches, so
  /// one trace id stitches a request's path across the fleet.
  obs::FlightRecorder& flight_recorder() { return flight_recorder_; }

  /// Wall-clock microseconds at server construction — a value that is
  /// monotonic *across restarts*, unlike the in-memory counters it
  /// accompanies. A remote scraper seeing counters go backwards while
  /// `server_epoch` held steady is looking at a counter reset; a changed
  /// epoch means a different server instance.
  std::uint64_t server_epoch() const { return server_epoch_; }

  Database& db() { return *db_; }
  int worker_threads() const { return executor_.threads(); }

 private:
  friend class Session;

  /// Session-side entry: assigns a RequestId, enqueues, and guarantees the
  /// returned future resolves with exactly one Response on every path.
  std::future<Response> Enqueue(Request req);

  /// Runs on a worker thread. `queue_wait_micros` is the time the request
  /// spent queued (admission to worker pickup), recorded in the flight
  /// recorder alongside the execution outcome.
  Response Execute(RequestId id, const Request& req, double queue_wait_micros);
  /// `queue_wait_micros` rides along so slow-query-log entries carry the
  /// full wait breakdown, not just execution time.
  Response ExecuteQuery(RequestId id, const Request& req,
                        double queue_wait_micros);
  Response ExecuteMutation(RequestId id, const Request& req);
  Response ExecuteStats(RequestId id, const Request& req);
  Response ExecuteHealth(RequestId id, const Request& req);
  Response ExecuteCacheControl(RequestId id, const Request& req);

  /// Enqueue-side fast path: answers a kQuery from the result cache when a
  /// valid entry exists. Returns true with `*out` resolved on a hit.
  bool TryServeFromCache(RequestId id, const Request& req, Response* out);

  /// Caches `rows`, computed against `snap`, under `key`. The entry is
  /// stamped with the snapshot's epoch — not the database's current one,
  /// which a writer may have advanced since the query pinned its snapshot:
  /// that would launder stale rows as fresh. When a write has already
  /// committed the insert is skipped, since such an entry could never
  /// serve.
  void InsertResult(std::string_view key, const DbSnapshot& snap,
                    std::shared_ptr<const pool::ResultSet> rows);

  /// Re-reads the store's sticky status (caller must hold the write guard)
  /// and enters degraded mode when it went bad. Exit happens only in the
  /// kCheckpoint success path.
  void ObserveStoreStatus();

  /// Records a disposition (executed or shed) in the flight recorder.
  void RecordFlight(RequestId id, const Request& req, const Response& resp,
                    double queue_wait_micros, double total_micros);

  /// Registers every `sys.*` class over this server's internals. Runs in
  /// the constructor (single-threaded); the providers themselves are
  /// called from query workers and must stay lock-light.
  void RegisterSystemCatalog();

  Database* db_;
  cache::QueryCache query_cache_;
  pool::SystemCatalog catalog_;
  pool::QueryEngine engine_;
  /// `QueryCatalog`'s engine: the same catalog, no plan cache, so the
  /// trace ids spliced into telemetry texts never evict workload plans.
  pool::QueryEngine catalog_engine_;
  obs::SlowQueryLog slow_log_;
  obs::FlightRecorder flight_recorder_;
  ThreadPoolExecutor executor_;
  SessionManager sessions_;
  storage::DurableStore* store_;
  IndexManager* indexes_;
  const bool read_only_;
  const double writer_wait_warn_micros_;
  const std::function<std::vector<Value>()> replication_rows_;
  const std::uint64_t server_epoch_;
  /// DDL listener bumping the plan cache's schema generation. Subscribed
  /// during (single-threaded) construction, unsubscribed in the destructor
  /// after Shutdown joined the workers — the bus itself is not thread-safe
  /// for registration, but the listener body is one relaxed atomic add, so
  /// publishing under the write guard is fine.
  ListenerId ddl_listener_ = 0;
  std::atomic<RequestId> next_request_id_{1};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> degraded_{false};
  /// Cache of the store's status as last observed under the write guard.
  /// kHealth reads this copy — `DurableStore::status()` itself is not safe
  /// to call concurrently with a checkpoint swapping the journal.
  mutable std::mutex store_status_mu_;
  Status store_status_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> mutations_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> unavailable_{0};
};

}  // namespace prometheus::server

#endif  // PROMETHEUS_SERVER_SERVER_H_
