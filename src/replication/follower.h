#ifndef PROMETHEUS_REPLICATION_FOLLOWER_H_
#define PROMETHEUS_REPLICATION_FOLLOWER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "core/database.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "replication/applier.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/fault.h"
#include "storage/recovery.h"

namespace prometheus::replication {

/// A journal-shipping read replica.
///
/// The follower keeps a byte-identical prefix mirror of the leader's store
/// directory: it bootstraps by downloading the newest snapshot from
/// `/repl/snapshot`, then tails the live journal from `/repl/journal`,
/// mirroring every committed unit to its own copy of the file and applying
/// it to an in-memory database (see `JournalStreamApplier` for the
/// atomicity rules). Its cursor — (generation, journal seq, byte offset of
/// the last applied committed unit) — is therefore durable *implicitly*:
/// after a crash or restart, replaying the local mirror rebuilds exactly
/// the applied state and the mirror's size is the resume offset.
///
/// Robustness:
///  - the fetch loop reconnects with `RetryPolicy` backoff + full jitter
///    across leader outages; a black-holed leader cannot hang it (the
///    client's connect and I/O deadlines are satellite work of this PR);
///  - torn or CRC-corrupt frames are never applied: the applier rewinds
///    and re-fetches from its boundary; three corrupt fetches at the same
///    boundary escalate to a full rebootstrap;
///  - a 410 (file pruned despite the leader's follower pinning — e.g. the
///    follower was silent past the expiry) or 416 (divergent history)
///    answer triggers a rebootstrap from the leader's newest snapshot,
///    done in place: the database is cleared and reloaded under one write
///    guard while the read-only server keeps serving around it.
///
/// The follower serves read-only POOL queries plus /metrics, /stats and
/// /health behind its own `HttpFrontEnd`; mutations answer `kUnavailable`
/// through the server's read-only role. Replication lag is exported as
/// `replication_lag_records` / `replication_lag_bytes` gauges, served as
/// `sys.replication` rows, and embedded in /health as "replication".
///
/// `Promote()` turns the mirror into a standalone writable leader: the
/// fetch loop and read-only plane stop, and the directory — a valid store
/// by construction — is reopened through `DurableStore::Open`, exercising
/// recovery end to end.
class Follower {
 public:
  struct Options {
    /// Local mirror directory (created if missing).
    std::string dir;
    std::string leader_host = "127.0.0.1";
    int leader_port = 0;
    /// How the leader tracks and pins this follower; defaults to `dir`.
    std::string follower_id;
    /// Serve HTTP (read-only queries + telemetry). Off for tests that only
    /// exercise the replication core.
    bool serve_http = true;
    std::string bind_address = "127.0.0.1";
    int http_port = 0;  ///< 0 picks an ephemeral port
    int worker_threads = 2;
    /// Poll cadence against a caught-up leader.
    int poll_interval_ms = 20;
    /// Connect + I/O deadline for leader fetches.
    int fetch_timeout_ms = 2000;
    /// Bytes requested per fetch (clamped by the leader too).
    std::size_t fetch_limit_bytes = 256 * 1024;
    /// Backoff schedule across disconnects (budget/max_attempts are not
    /// used: a follower retries forever, that is its job).
    server::RetryPolicy retry;
    /// Filesystem for the local mirror (default `Env::Default()`; tests
    /// inject faults here).
    storage::Env* env = nullptr;
  };

  /// Recovers local mirror state, starts the read-only plane and the fetch
  /// loop. Returns immediately; catch-up happens in the background (see
  /// `WaitCaughtUp`).
  static Result<std::unique_ptr<Follower>> Start(Options options);

  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Stops the fetch loop, the HTTP plane and the server. Idempotent.
  void Stop();

  /// Ends replication and reopens the mirror as a writable store (the
  /// caller wraps it in a new writable Server/front-end). The follower is
  /// stopped; only committed units were ever mirrored, so no committed
  /// transaction is lost and recovery finds a consistent store.
  Result<std::unique_ptr<storage::DurableStore>> Promote();

  server::Server& server() { return *server_; }
  Database& db() { return *db_; }
  /// Null when Options::serve_http was false.
  net::HttpFrontEnd* front_end() { return front_.get(); }
  int http_port() const { return front_ ? front_->port() : 0; }

  struct Progress {
    bool connected = false;   ///< a leader fetch succeeded recently
    bool caught_up = false;   ///< at the live journal's current tail
    std::uint64_t generation = 0;
    std::uint64_t journal_seq = 0;     ///< journal being tailed
    std::uint64_t offset = 0;          ///< applied committed boundary
    std::uint64_t records_applied = 0; ///< in the current journal
    std::uint64_t lag_records = 0;     ///< exact when on the live journal
    std::uint64_t lag_bytes = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t rebootstraps = 0;
    std::uint64_t corrupt_frames = 0;
    /// Completed leader fetches. `caught_up` is a verdict *as of* a poll;
    /// WaitCaughtUp uses this counter to insist on a verdict issued after
    /// it started, not one left over from before the caller's last write.
    std::uint64_t polls = 0;
  };
  Progress progress() const;

  /// The progress as `sys.replication` rows: one struct Value for this
  /// follower's link. The server's health row (`/health`, `sys.health`)
  /// embeds the same row as "replication", so the two can never drift.
  std::vector<Value> ProgressRows() const;

  /// Blocks until the follower is connected and at the leader's live tail
  /// (or `timeout_ms` elapses). False on timeout.
  bool WaitCaughtUp(int timeout_ms);

 private:
  struct Manifest {
    std::uint64_t generation = 0;
    std::uint64_t live_seq = 0;
    std::uint64_t live_records = 0;
    std::map<std::uint64_t, std::uint64_t> snapshots;  ///< seq -> bytes
    std::map<std::uint64_t, std::uint64_t> journals;
  };
  struct FollowerMetrics;

  explicit Follower(Options options);

  /// Rebuilds the database from the local mirror (newest valid snapshot +
  /// journal replays) and positions the applier; surfaces each journal's
  /// ReplayReport through the catch-up counters. Single-threaded (runs
  /// before the server exists).
  Status LocalRecover();

  void FetchLoop();
  /// One connection lifetime: fetch/bootstrap/tail until an error or stop.
  /// Sets `*made_progress` when at least one fetch succeeded.
  Status RunSession(bool* made_progress);
  Result<Manifest> FetchManifest(net::HttpConnection* conn);
  /// Clears the database and rebuilds from the manifest's newest snapshot
  /// (downloaded through `conn`), pruning stale local files.
  Status Bootstrap(net::HttpConnection* conn, const Manifest& manifest);
  Status OpenMirror(std::uint64_t seq, bool truncate);

  /// Trace id for the next leader fetch: "repl-<follower-id>-<n>". Sent as
  /// X-Trace-Id so the leader's flight recorder shows who asked for what;
  /// the follower records its own side via RecordFetchTrace, and the same
  /// id then surfaces in `/debug/requests?id=` on both nodes. Fetch thread
  /// only.
  std::string NextFetchTraceId();
  /// Records a completed leader fetch in this follower's own flight
  /// recorder (no-op when recording is off).
  void RecordFetchTrace(const std::string& trace_id, const std::string& what,
                        std::size_t bytes, double micros);

  /// Sleeps up to `ms`, waking early on Stop(). True when stopping.
  bool StopRequestedWithin(int ms);

  void UpdateProgress(const Progress& p);

  const Options options_;
  storage::Env* env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<server::Server> server_;
  std::unique_ptr<net::HttpFrontEnd> front_;

  // Fetch-loop state (owned by the fetch thread after Start).
  std::unique_ptr<JournalStreamApplier> applier_;
  std::unique_ptr<storage::WritableFile> mirror_;
  std::uint64_t generation_ = 0;
  std::uint64_t journal_seq_ = 0;
  bool need_bootstrap_ = false;
  std::uint64_t corrupt_boundary_ = 0;
  int corrupt_repeats_ = 0;
  std::uint64_t fetch_trace_seq_ = 0;  ///< fetch thread only

  std::thread fetcher_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  bool stopped_ = false;  ///< Stop() completed

  mutable std::mutex progress_mu_;
  Progress progress_;
};

}  // namespace prometheus::replication

#endif  // PROMETHEUS_REPLICATION_FOLLOWER_H_
