#include "replication/follower.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/journal.h"
#include "storage/snapshot.h"

namespace prometheus::replication {

namespace {

bool ParseU64(std::string_view text, std::uint64_t* value) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *value = v;
  return true;
}

std::uint64_t HeaderU64(const net::HttpResponse& resp, const std::string& name) {
  const std::string* value = resp.Header(name);
  std::uint64_t v = 0;
  if (value != nullptr) (void)ParseU64(*value, &v);
  return v;
}

/// Maps a follower id (often a directory path) into the trace-id alphabet
/// the HTTP plane accepts ([A-Za-z0-9._:-]).
std::string SanitizeTraceComponent(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.' || c == ':';
    out.push_back(ok ? c : '-');
  }
  if (out.empty()) out = "follower";
  if (out.size() > 64) out.resize(64);
  return out;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// Per-follower instruments, labelled by follower id so several replicas in
/// one process (tests, benchmarks) stay distinguishable.
struct Follower::FollowerMetrics {
  obs::Gauge* lag_records;
  obs::Gauge* lag_bytes;
  obs::Gauge* connected;
  obs::Counter* applied_records;
  obs::Counter* reconnects;
  obs::Counter* rebootstraps;
  obs::Counter* corrupt_frames;
  obs::Counter* dropped_bytes;
  obs::Counter* catchup_replayed;
  obs::Counter* catchup_dropped_records;
  obs::Counter* catchup_dropped_bytes;
  obs::Counter* catchup_torn_tails;

  explicit FollowerMetrics(const std::string& id) {
    const std::string label =
        "{follower=\"" + obs::EscapeLabelValue(id) + "\"}";
    obs::MetricsRegistry& reg = obs::Registry();
    lag_records =
        reg.GetGauge("replication_lag_records" + label,
                     "Committed leader records not yet applied here "
                     "(exact while tailing the live journal)");
    lag_bytes = reg.GetGauge(
        "replication_lag_bytes" + label,
        "Journal bytes between this replica's boundary and the leader tail");
    connected = reg.GetGauge("replication_connected" + label,
                             "1 while the leader is reachable");
    applied_records =
        reg.GetCounter("replication_applied_records_total" + label,
                       "Mutation records applied from the stream");
    reconnects = reg.GetCounter("replication_reconnects_total" + label,
                                "Fetch-loop reconnects after an error");
    rebootstraps =
        reg.GetCounter("replication_rebootstraps_total" + label,
                       "Full re-downloads from the leader's snapshot");
    corrupt_frames = reg.GetCounter(
        "replication_corrupt_frames_total" + label,
        "Stream frames that failed CRC/framing and were re-fetched");
    dropped_bytes =
        reg.GetCounter("replication_dropped_bytes_total" + label,
                       "Unverified stream bytes discarded by rewinds");
    catchup_replayed = reg.GetCounter(
        "replication_catchup_replayed_records_total" + label,
        "Records replayed from the local mirror during catch-up recovery");
    catchup_dropped_records = reg.GetCounter(
        "replication_catchup_dropped_records_total" + label,
        "Records dropped from torn local-mirror tails during catch-up");
    catchup_dropped_bytes = reg.GetCounter(
        "replication_catchup_dropped_bytes_total" + label,
        "Torn-tail bytes dropped from the local mirror during catch-up");
    catchup_torn_tails = reg.GetCounter(
        "replication_catchup_torn_tails_total" + label,
        "Catch-up recoveries that found a torn local-mirror tail");
  }
};

Follower::Follower(Options options)
    : options_(std::move(options)),
      env_(options_.env != nullptr ? options_.env : storage::Env::Default()),
      db_(std::make_unique<Database>()) {}

Result<std::unique_ptr<Follower>> Follower::Start(Options options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("follower needs a mirror directory");
  }
  if (options.leader_port <= 0) {
    return Status::InvalidArgument("follower needs the leader's port");
  }
  if (options.follower_id.empty()) options.follower_id = options.dir;
  std::unique_ptr<Follower> follower(new Follower(std::move(options)));
  PROMETHEUS_RETURN_IF_ERROR(follower->LocalRecover());

  server::Server::Options server_options;
  server_options.worker_threads = follower->options_.worker_threads;
  server_options.read_only = true;
  Follower* raw = follower.get();
  server_options.replication_rows = [raw] { return raw->ProgressRows(); };
  follower->server_ = std::make_unique<server::Server>(
      follower->db_.get(), std::move(server_options));

  if (follower->options_.serve_http) {
    net::HttpFrontEnd::Options http_options;
    http_options.bind_address = follower->options_.bind_address;
    http_options.port = follower->options_.http_port;
    follower->front_ = std::make_unique<net::HttpFrontEnd>(
        follower->server_.get(), std::move(http_options));
    PROMETHEUS_RETURN_IF_ERROR(follower->front_->Start());
  }

  follower->fetcher_ = std::thread([raw] { raw->FetchLoop(); });
  return follower;
}

Follower::~Follower() { Stop(); }

void Follower::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (fetcher_.joinable()) fetcher_.join();
  if (front_ != nullptr) front_->Stop();
  if (server_ != nullptr) server_->Shutdown();
  mirror_.reset();
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopped_ = true;
  }
}

Result<std::unique_ptr<storage::DurableStore>> Follower::Promote() {
  Stop();
  // The mirror holds only committed units (a byte-identical prefix of the
  // leader's history), so this is an ordinary recovery: newest snapshot +
  // journal replays + live-journal truncation to the committed boundary.
  storage::DurableStore::Options store_options;
  store_options.env = options_.env;  // nullptr selects the default env
  return storage::DurableStore::Open(options_.dir, std::move(store_options));
}

Follower::Progress Follower::progress() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  return progress_;
}

void Follower::UpdateProgress(const Progress& p) {
  std::lock_guard<std::mutex> lock(progress_mu_);
  progress_ = p;
}

std::vector<Value> Follower::ProgressRows() const {
  const Progress p = progress();
  auto u64 = [](std::uint64_t v) {
    return Value::Int(static_cast<std::int64_t>(v));
  };
  std::vector<Value> rows;
  rows.push_back(Value::MakeStruct({{"role", Value::String("follower")},
                                    {"connected", Value::Bool(p.connected)},
                                    {"caught_up", Value::Bool(p.caught_up)},
                                    {"generation", u64(p.generation)},
                                    {"journal_seq", u64(p.journal_seq)},
                                    {"offset", u64(p.offset)},
                                    {"records_applied", u64(p.records_applied)},
                                    {"lag_records", u64(p.lag_records)},
                                    {"lag_bytes", u64(p.lag_bytes)},
                                    {"reconnects", u64(p.reconnects)},
                                    {"rebootstraps", u64(p.rebootstraps)},
                                    {"corrupt_frames", u64(p.corrupt_frames)},
                                    {"polls", u64(p.polls)}}));
  return rows;
}

bool Follower::WaitCaughtUp(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // A caught-up verdict from before this call may predate the caller's
  // last write; only a poll issued after entry proves the tail is current.
  const std::uint64_t polls_at_entry = progress().polls;
  for (;;) {
    const Progress p = progress();
    if (p.connected && p.caught_up && p.polls > polls_at_entry) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    if (StopRequestedWithin(5)) return false;
  }
}

bool Follower::StopRequestedWithin(int ms) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  return stop_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                           [this] { return stop_; });
}

Status Follower::OpenMirror(std::uint64_t seq, bool truncate) {
  mirror_.reset();
  const std::string path =
      options_.dir + "/" + storage::JournalFileName(seq);
  PROMETHEUS_ASSIGN_OR_RETURN(mirror_,
                              env_->NewWritableFile(path, truncate));
  journal_seq_ = seq;
  return Status::Ok();
}

Status Follower::LocalRecover() {
  FollowerMetrics metrics(options_.follower_id);
  PROMETHEUS_RETURN_IF_ERROR(env_->CreateDir(options_.dir));
  PROMETHEUS_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                              env_->ListDir(options_.dir));
  std::map<std::uint64_t, std::string> snapshots;
  std::map<std::uint64_t, std::string> journals;
  for (const std::string& name : entries) {
    std::uint64_t seq = 0;
    if (storage::ParseSnapshotFileName(name, &seq)) {
      snapshots[seq] = name;
    } else if (storage::ParseJournalFileName(name, &seq)) {
      journals[seq] = name;
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      (void)env_->RemoveFile(options_.dir + "/" + name);  // torn download
    }
  }

  // Newest snapshot that validates wins, exactly like DurableStore::Open.
  generation_ = 0;
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    auto fresh = std::make_unique<Database>();
    if (storage::LoadSnapshot(fresh.get(), options_.dir + "/" + it->second)
            .ok()) {
      db_ = std::move(fresh);
      generation_ = it->first;
      break;
    }
  }

  storage::Journal::ReplayReport last_report;
  std::uint64_t last_seq = 0;
  std::string last_path;
  for (const auto& [seq, name] : journals) {
    if (seq <= generation_) continue;
    storage::Journal::ReplayReport report;
    const std::string path = options_.dir + "/" + name;
    PROMETHEUS_RETURN_IF_ERROR(
        storage::Journal::ReplayTail(db_.get(), path, &report));
    // Satellite: every catch-up replay is visible in /metrics, so silent
    // mirror corruption shows up as dropped bytes, not as quiet divergence.
    metrics.catchup_replayed->Increment(report.applied_records);
    metrics.catchup_dropped_records->Increment(report.dropped_records);
    metrics.catchup_dropped_bytes->Increment(report.dropped_bytes);
    if (report.torn_tail) metrics.catchup_torn_tails->Increment();
    last_report = report;
    last_seq = seq;
    last_path = path;
  }

  applier_ = std::make_unique<JournalStreamApplier>(
      db_.get(), [this](std::string_view bytes) -> Status {
        PROMETHEUS_RETURN_IF_ERROR(mirror_->Append(bytes));
        return mirror_->Flush();
      });

  if (last_seq != 0 && last_report.resumable) {
    // Cut the mirror back to the committed boundary (drops torn tails and,
    // when the leader closed this journal, its END marker — the stream
    // will re-deliver whatever follows) and resume appending there.
    PROMETHEUS_RETURN_IF_ERROR(
        env_->TruncateFile(last_path, last_report.append_offset));
    PROMETHEUS_RETURN_IF_ERROR(OpenMirror(last_seq, /*truncate=*/false));
    applier_->ResumeJournal(last_report.append_offset,
                            last_report.applied_records);
  } else if (last_seq != 0) {
    // Header never fully landed: the file holds nothing applied. Drop it
    // and re-fetch the journal from offset 0.
    (void)env_->RemoveFile(last_path);
    PROMETHEUS_RETURN_IF_ERROR(OpenMirror(last_seq, /*truncate=*/true));
    applier_->StartJournal(/*expect_full=*/generation_ == 0 && last_seq == 1);
  } else if (generation_ != 0) {
    // Snapshot only: tail the journal that continues it.
    PROMETHEUS_RETURN_IF_ERROR(
        OpenMirror(generation_ + 1, /*truncate=*/true));
    applier_->StartJournal(/*expect_full=*/false);
  } else {
    // Nothing local: bootstrap from the leader on first contact.
    need_bootstrap_ = true;
  }

  Progress p;
  p.generation = generation_;
  p.journal_seq = journal_seq_;
  p.offset = applier_ != nullptr ? applier_->boundary() : 0;
  p.records_applied = applier_ != nullptr ? applier_->records_applied() : 0;
  UpdateProgress(p);
  return Status::Ok();
}

std::string Follower::NextFetchTraceId() {
  return "repl-" + SanitizeTraceComponent(options_.follower_id) + "-" +
         std::to_string(++fetch_trace_seq_);
}

void Follower::RecordFetchTrace(const std::string& trace_id,
                                const std::string& what, std::size_t bytes,
                                double micros) {
  if (server_ == nullptr || !server_->flight_recorder().enabled()) return;
  obs::FlightRecorder::Entry entry;
  entry.trace_id = trace_id;
  entry.type = "repl_fetch";
  entry.code = "ok";
  entry.ok = true;
  entry.executed = true;
  entry.total_micros = micros;
  entry.detail = what + " (" + std::to_string(bytes) + " bytes)";
  server_->flight_recorder().Record(std::move(entry));
}

Result<Follower::Manifest> Follower::FetchManifest(net::HttpConnection* conn) {
  const std::string trace_id = NextFetchTraceId();
  const auto start = std::chrono::steady_clock::now();
  PROMETHEUS_ASSIGN_OR_RETURN(
      net::HttpResponse resp,
      conn->RoundTrip("GET", "/repl/manifest", "",
                      {{"X-Trace-Id", trace_id}}));
  if (resp.status_code != 200) {
    return Status::IoError("manifest fetch failed: HTTP " +
                           std::to_string(resp.status_code));
  }
  RecordFetchTrace(trace_id, "GET /repl/manifest", resp.body.size(),
                   MicrosSince(start));
  Manifest m;
  std::istringstream in(resp.body);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "generation") {
      fields >> m.generation;
    } else if (key == "live_seq") {
      fields >> m.live_seq;
    } else if (key == "live_records") {
      fields >> m.live_records;
    } else if (key == "snapshot" || key == "journal") {
      std::uint64_t seq = 0, size = 0;
      fields >> seq >> size;
      if (!fields.fail()) {
        (key == "snapshot" ? m.snapshots : m.journals)[seq] = size;
      }
    }
  }
  return m;
}

Status Follower::Bootstrap(net::HttpConnection* conn,
                           const Manifest& manifest) {
  FollowerMetrics metrics(options_.follower_id);
  metrics.rebootstraps->Increment();
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    ++progress_.rebootstraps;
    progress_.caught_up = false;
  }
  mirror_.reset();

  std::string snapshot_name;
  if (manifest.generation != 0) {
    // Download the newest snapshot in chunks to a staging file, then
    // rename — a crash mid-download leaves only a .tmp that recovery
    // deletes.
    snapshot_name = storage::SnapshotFileName(manifest.generation);
    const std::string path = options_.dir + "/" + snapshot_name;
    const std::string tmp = path + ".tmp";
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<storage::WritableFile> out,
                                env_->NewWritableFile(tmp, /*truncate=*/true));
    std::uint64_t offset = 0;
    for (;;) {
      const std::string target =
          "/repl/snapshot?gen=" + std::to_string(manifest.generation) +
          "&offset=" + std::to_string(offset) +
          "&limit=" + std::to_string(options_.fetch_limit_bytes) +
          "&follower=" + options_.follower_id;
      const std::string trace_id = NextFetchTraceId();
      const auto fetch_start = std::chrono::steady_clock::now();
      PROMETHEUS_ASSIGN_OR_RETURN(
          net::HttpResponse resp,
          conn->RoundTrip("GET", target, "", {{"X-Trace-Id", trace_id}}));
      RecordFetchTrace(trace_id, "GET /repl/snapshot", resp.body.size(),
                       MicrosSince(fetch_start));
      if (resp.status_code == 410) {
        // Pruned under us (we were silent past the pin expiry): the next
        // session starts over from a fresh manifest.
        return Status::Unavailable("snapshot pruned mid-download");
      }
      if (resp.status_code != 200) {
        return Status::IoError("snapshot fetch failed: HTTP " +
                               std::to_string(resp.status_code));
      }
      const std::uint64_t total = HeaderU64(resp, "x-repl-total-size");
      if (!resp.body.empty()) {
        PROMETHEUS_RETURN_IF_ERROR(out->Append(resp.body));
        offset += resp.body.size();
      }
      if (offset >= total) break;
      if (resp.body.empty()) {
        return Status::IoError("snapshot stream stalled short of its size");
      }
    }
    PROMETHEUS_RETURN_IF_ERROR(out->Sync());
    PROMETHEUS_RETURN_IF_ERROR(out->Close());
    PROMETHEUS_RETURN_IF_ERROR(env_->RenameFile(tmp, path));
  }

  // Swap the database to the snapshot state in place: the read-only server
  // keeps its `Database*`, queries before/after the guard see the old or
  // the new world, never a mix.
  {
    Database::WriteGuard guard(*db_);
    PROMETHEUS_RETURN_IF_ERROR(db_->Clear());
    if (manifest.generation != 0) {
      Status st = storage::LoadSnapshot(db_.get(),
                                        options_.dir + "/" + snapshot_name);
      if (!st.ok()) {
        // A corrupt download must not leave readers a partial prefix; the
        // next session downloads again into an empty database.
        (void)db_->Clear();
        (void)env_->RemoveFile(options_.dir + "/" + snapshot_name);
        return st;
      }
    }
  }
  generation_ = manifest.generation;
  // The epoch bump from the write guard above already invalidated every
  // cached result, but a wholesale rebootstrap also obsoletes cached plans
  // whose schema analysis predates the new snapshot — drop both tiers.
  if (server_ != nullptr) server_->query_cache().Clear();

  // Prune mirror files from the superseded history so a promoted follower
  // never resurrects (or leaks) generations the leader no longer has.
  PROMETHEUS_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                              env_->ListDir(options_.dir));
  for (const std::string& name : entries) {
    std::uint64_t seq = 0;
    if (storage::ParseSnapshotFileName(name, &seq)) {
      if (name != snapshot_name) {
        (void)env_->RemoveFile(options_.dir + "/" + name);
      }
    } else if (storage::ParseJournalFileName(name, &seq)) {
      (void)env_->RemoveFile(options_.dir + "/" + name);
    }
  }

  // Tail the oldest journal after the snapshot (the one that continues
  // it). Generation 0 means the leader never checkpointed: its first
  // journal is `full` and carries the schema prologue.
  std::uint64_t next_seq = 0;
  for (const auto& [seq, size] : manifest.journals) {
    if (seq > generation_) {
      next_seq = seq;
      break;
    }
  }
  if (next_seq == 0) {
    return Status::Unavailable("leader manifest lists no journal to tail");
  }
  PROMETHEUS_RETURN_IF_ERROR(OpenMirror(next_seq, /*truncate=*/true));
  applier_->StartJournal(/*expect_full=*/generation_ == 0 && next_seq == 1);
  corrupt_repeats_ = 0;
  return Status::Ok();
}

Status Follower::RunSession(bool* made_progress) {
  FollowerMetrics metrics(options_.follower_id);
  PROMETHEUS_ASSIGN_OR_RETURN(
      std::unique_ptr<net::HttpConnection> conn,
      net::HttpConnection::Connect(options_.leader_host, options_.leader_port,
                                   options_.fetch_timeout_ms));

  // Validate the local chain against the leader before tailing: the mirror
  // must be a prefix of *this* leader's history.
  {
    PROMETHEUS_ASSIGN_OR_RETURN(Manifest m, FetchManifest(conn.get()));
    *made_progress = true;
    bool chain_ok = !need_bootstrap_;
    if (chain_ok && generation_ > m.generation) chain_ok = false;  // diverged
    if (chain_ok && journal_seq_ != 0 &&
        m.journals.find(journal_seq_) == m.journals.end() &&
        journal_seq_ <= m.live_seq) {
      chain_ok = false;  // our journal was pruned
    }
    if (!chain_ok) {
      need_bootstrap_ = true;
      PROMETHEUS_RETURN_IF_ERROR(Bootstrap(conn.get(), m));
      need_bootstrap_ = false;
    }
  }

  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      if (stop_) return Status::Ok();
    }
    const std::string target =
        "/repl/journal?seq=" + std::to_string(journal_seq_) +
        "&offset=" + std::to_string(applier_->fetch_offset()) +
        "&limit=" + std::to_string(options_.fetch_limit_bytes) +
        "&follower=" + options_.follower_id;
    const std::string trace_id = NextFetchTraceId();
    const auto fetch_start = std::chrono::steady_clock::now();
    PROMETHEUS_ASSIGN_OR_RETURN(
        net::HttpResponse resp,
        conn->RoundTrip("GET", target, "", {{"X-Trace-Id", trace_id}}));
    // Only fetches that moved bytes are recorded: a caught-up follower
    // polls forever, and empty polls would wash every useful trace out of
    // the bounded ring.
    if (!resp.body.empty()) {
      RecordFetchTrace(trace_id, "GET /repl/journal", resp.body.size(),
                       MicrosSince(fetch_start));
    }
    if (resp.status_code == 410 || resp.status_code == 416) {
      // Pruned or divergent: rebootstrap from the leader's newest
      // snapshot, on this same connection.
      PROMETHEUS_ASSIGN_OR_RETURN(Manifest m, FetchManifest(conn.get()));
      PROMETHEUS_RETURN_IF_ERROR(Bootstrap(conn.get(), m));
      need_bootstrap_ = false;
      continue;
    }
    if (resp.status_code != 200) {
      return Status::IoError("journal fetch failed: HTTP " +
                             std::to_string(resp.status_code));
    }
    *made_progress = true;
    const std::uint64_t file_size = HeaderU64(resp, "x-repl-size");
    const std::uint64_t live_seq = HeaderU64(resp, "x-repl-live-seq");
    const std::uint64_t live_records = HeaderU64(resp, "x-repl-live-records");

    const std::uint64_t before = applier_->records_applied();
    if (!resp.body.empty()) {
      Status st = applier_->Feed(resp.body);
      if (!st.ok()) {
        // Mirror write or apply failure: this copy of the journal cannot
        // be trusted any more. Start over from a snapshot.
        metrics.dropped_bytes->Increment(applier_->fetch_offset() -
                                         applier_->boundary());
        need_bootstrap_ = true;
        return st;
      }
    }
    metrics.applied_records->Increment(applier_->records_applied() - before);

    if (applier_->state() == JournalStreamApplier::State::kCorrupt) {
      metrics.corrupt_frames->Increment();
      {
        std::lock_guard<std::mutex> lock(progress_mu_);
        ++progress_.corrupt_frames;
      }
      metrics.dropped_bytes->Increment(applier_->fetch_offset() -
                                       applier_->boundary());
      if (applier_->boundary() == corrupt_boundary_) {
        if (++corrupt_repeats_ >= 3) {
          // Persistent corruption at one offset is not a torn tail — the
          // leader's file (or our mirror) is damaged. Rebootstrap.
          PROMETHEUS_ASSIGN_OR_RETURN(Manifest m, FetchManifest(conn.get()));
          PROMETHEUS_RETURN_IF_ERROR(Bootstrap(conn.get(), m));
          need_bootstrap_ = false;
          continue;
        }
      } else {
        corrupt_boundary_ = applier_->boundary();
        corrupt_repeats_ = 1;
      }
      applier_->Rewind();
      continue;
    }

    if (applier_->state() == JournalStreamApplier::State::kEnd) {
      // This journal closed cleanly. Its successor appears in the manifest
      // once the leader's checkpoint finishes; until then, poll.
      PROMETHEUS_ASSIGN_OR_RETURN(Manifest m, FetchManifest(conn.get()));
      std::uint64_t next_seq = 0;
      for (const auto& [seq, size] : m.journals) {
        if (seq > journal_seq_) {
          next_seq = seq;
          break;
        }
      }
      if (next_seq != 0) {
        generation_ = m.generation;
        PROMETHEUS_RETURN_IF_ERROR(OpenMirror(next_seq, /*truncate=*/true));
        applier_->StartJournal(/*expect_full=*/false);
        continue;
      }
      if (StopRequestedWithin(options_.poll_interval_ms)) return Status::Ok();
      applier_->Rewind();  // drop the unconsumed END; re-fetch will confirm
      continue;
    }

    // Lag accounting. On the live journal both gauges are exact; on an
    // older journal the byte gauge covers the remainder of this file (an
    // underestimate) and the record gauge is unknowable until we catch up.
    const bool on_live = journal_seq_ == live_seq;

    if (!on_live && resp.body.empty() &&
        applier_->fetch_offset() >= file_size) {
      // A non-live journal is immutable on the leader, so consuming it to
      // its full size is equivalent to reaching END. This is the *only*
      // rotation signal when the leader is itself a promoted mirror:
      // mirrors never carry END markers (see the applier's END rule).
      if (applier_->fetch_offset() != applier_->boundary()) {
        // The immutable file ends inside a frame: damaged history.
        metrics.dropped_bytes->Increment(applier_->fetch_offset() -
                                         applier_->boundary());
        need_bootstrap_ = true;
        return Status::IoError("closed journal ends mid-frame");
      }
      PROMETHEUS_ASSIGN_OR_RETURN(Manifest m, FetchManifest(conn.get()));
      std::uint64_t next_seq = 0;
      for (const auto& [seq, size] : m.journals) {
        if (seq > journal_seq_) {
          next_seq = seq;
          break;
        }
      }
      if (next_seq != 0) {
        generation_ = m.generation;
        PROMETHEUS_RETURN_IF_ERROR(OpenMirror(next_seq, /*truncate=*/true));
        applier_->StartJournal(/*expect_full=*/false);
        continue;
      }
      if (StopRequestedWithin(options_.poll_interval_ms)) return Status::Ok();
      continue;
    }
    const std::uint64_t lag_bytes =
        file_size > applier_->boundary() ? file_size - applier_->boundary()
                                         : 0;
    const std::uint64_t lag_records =
        on_live && live_records > applier_->records_applied()
            ? live_records - applier_->records_applied()
            : 0;
    const bool caught_up =
        on_live && resp.body.empty() && applier_->fetch_offset() >= file_size;
    metrics.lag_bytes->Set(static_cast<std::int64_t>(lag_bytes));
    metrics.lag_records->Set(static_cast<std::int64_t>(lag_records));
    metrics.connected->Set(1);

    {
      std::lock_guard<std::mutex> lock(progress_mu_);
      progress_.connected = true;
      progress_.caught_up = caught_up;
      ++progress_.polls;
      progress_.generation = generation_;
      progress_.journal_seq = journal_seq_;
      progress_.offset = applier_->boundary();
      progress_.records_applied = applier_->records_applied();
      progress_.lag_records = lag_records;
      progress_.lag_bytes = lag_bytes;
    }

    if (resp.body.empty()) {
      // Caught up: poll at the configured cadence.
      if (StopRequestedWithin(options_.poll_interval_ms)) return Status::Ok();
    }
  }
}

void Follower::FetchLoop() {
  FollowerMetrics metrics(options_.follower_id);
  std::mt19937_64 rng(std::random_device{}());
  int attempt = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      if (stop_) return;
    }
    bool made_progress = false;
    Status st = RunSession(&made_progress);
    if (made_progress) attempt = 0;
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      if (stop_) return;
    }
    if (st.ok()) continue;  // clean exit paths loop straight back

    // Disconnected (leader down, killed mid-stream, network fault): any
    // buffered unverified bytes are dropped and re-fetched from the
    // committed boundary after a jittered exponential backoff.
    applier_->Rewind();
    metrics.reconnects->Increment();
    metrics.connected->Set(0);
    {
      std::lock_guard<std::mutex> lock(progress_mu_);
      progress_.connected = false;
      progress_.caught_up = false;
      ++progress_.reconnects;
    }
    double backoff_us = static_cast<double>(
        options_.retry.initial_backoff.count());
    for (int i = 0; i < attempt; ++i) backoff_us *= options_.retry.multiplier;
    backoff_us = std::min(
        backoff_us, static_cast<double>(options_.retry.max_backoff.count()));
    // Full jitter: uniform in [0, backoff]. Followers hammering a
    // restarted leader in lockstep is exactly what this avoids.
    std::uniform_real_distribution<double> jitter(0.0, backoff_us);
    const int sleep_ms =
        std::max(1, static_cast<int>(jitter(rng) / 1000.0));
    if (StopRequestedWithin(sleep_ms)) return;
    ++attempt;
  }
}

}  // namespace prometheus::replication
