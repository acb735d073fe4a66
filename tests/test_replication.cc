// Journal-shipping replication (src/replication/): the stream applier's
// unit atomicity under byte-level truncation and corruption, the leader
// endpoint's pruning pins, and end-to-end leader/follower drills over real
// sockets — convergence to byte-identical query results, restart-resume
// from the implicit cursor, torn-frame streams, 410-driven rebootstrap and
// follower promotion.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "replication/applier.h"
#include "replication/follower.h"
#include "replication/source.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/fault.h"
#include "storage/journal.h"
#include "storage/recovery.h"

namespace {

namespace fs = std::filesystem;

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::Oid;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::net::HttpConnection;
using prometheus::net::HttpFetch;
using prometheus::net::HttpFrontEnd;
using prometheus::net::HttpRequest;
using prometheus::net::HttpResponse;
using prometheus::net::ParseHttpResponse;
using prometheus::net::ParseResult;
using prometheus::net::SerializeHttpResponse;
using prometheus::replication::Follower;
using prometheus::replication::JournalStreamApplier;
using prometheus::replication::ReplicationSource;
using prometheus::server::Client;
using prometheus::server::Response;
using prometheus::server::ResponseCode;
using prometheus::server::Server;
using prometheus::storage::DurableStore;
using prometheus::storage::Journal;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef def;
  def.name = std::move(name);
  def.type = type;
  return def;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

Status BootstrapSchema(Database* db) {
  return db
      ->DefineClass("Sp", {},
                    {Attr("name", ValueType::kString),
                     Attr("rank", ValueType::kInt)})
      .status();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Order-sensitive digest of the replicated state: every Sp row rendered.
std::string StateDigest(Client* client) {
  auto rs = client->Query("select s.name, s.rank from Sp s");
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  std::string digest;
  for (const auto& row : rs.value().rows) {
    for (const auto& v : row) digest += v.ToString() + "|";
    digest += "\n";
  }
  return digest;
}

/// A full writable leader: durable store + server + replication endpoint
/// mounted on an HTTP front end. `wrap`, when set, interposes on the
/// replication aux handler (fault injection).
struct Leader {
  using Wrap = std::function<bool(
      const std::function<bool(const HttpRequest&, bool, std::string*)>&,
      const HttpRequest&, bool, std::string*)>;

  std::unique_ptr<DurableStore> store;
  std::unique_ptr<Server> server;
  std::unique_ptr<ReplicationSource> source;
  std::unique_ptr<HttpFrontEnd> front;

  static std::unique_ptr<Leader> Start(const std::string& dir,
                                       ReplicationSource::Options src_options =
                                           ReplicationSource::Options{},
                                       Wrap wrap = nullptr) {
    auto leader = std::make_unique<Leader>();
    DurableStore::Options store_options;
    store_options.bootstrap = [](Database* db) {
      return BootstrapSchema(db);
    };
    auto store = DurableStore::Open(dir, store_options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return nullptr;
    leader->store = std::move(store).value();

    Server::Options server_options;
    server_options.worker_threads = 2;
    server_options.store = leader->store.get();
    leader->server = std::make_unique<Server>(&leader->store->db(),
                                              server_options);
    leader->source = std::make_unique<ReplicationSource>(leader->store.get(),
                                                         src_options);

    HttpFrontEnd::Options front_options;
    // Each polling follower parks on one handler thread; leave headroom
    // for a scraper besides the two followers the tests run.
    front_options.handler_threads = 4;
    auto inner = leader->source->AuxHandler();
    if (wrap) {
      front_options.aux_handler = [inner, wrap](const HttpRequest& req,
                                                bool keep_alive,
                                                std::string* out) {
        return wrap(inner, req, keep_alive, out);
      };
    } else {
      front_options.aux_handler = inner;
    }
    leader->front = std::make_unique<HttpFrontEnd>(leader->server.get(),
                                                   front_options);
    EXPECT_TRUE(leader->front->Start().ok());
    return leader;
  }

  int port() const { return front->port(); }

  void Stop() {
    front->Stop();
    server->Shutdown();
    source.reset();  // uninstalls the prune-floor hook before the store dies
  }

  ~Leader() {
    if (front) Stop();
  }
};

Follower::Options FollowerOptions(const std::string& dir, int leader_port,
                                  const std::string& id) {
  Follower::Options o;
  o.dir = dir;
  o.leader_port = leader_port;
  o.follower_id = id;
  o.poll_interval_ms = 5;
  return o;
}

// ------------------------------------------------------------ applier unit

/// Writes a small but representative history through a DurableStore —
/// standalone mutations, a committed transaction, attribute updates — and
/// returns the raw bytes of its first (full-header) journal.
std::string LeaderJournalBytes(const std::string& dir, Database** db_out,
                               std::unique_ptr<DurableStore>* store_out) {
  DurableStore::Options store_options;
  store_options.bootstrap = [](Database* db) { return BootstrapSchema(db); };
  auto store = DurableStore::Open(dir, store_options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  Database& db = store.value()->db();
  for (int i = 0; i < 4; ++i) {
    auto oid = db.CreateObject(
        "Sp", {{"name", Value::String("sp" + std::to_string(i))},
               {"rank", Value::Int(i)}});
    EXPECT_TRUE(oid.ok());
  }
  EXPECT_TRUE(db.Begin().ok());
  auto txa = db.CreateObject("Sp", {{"name", Value::String("tx-a")},
                                    {"rank", Value::Int(100)}});
  auto txb = db.CreateObject("Sp", {{"name", Value::String("tx-b")},
                                    {"rank", Value::Int(200)}});
  EXPECT_TRUE(txa.ok() && txb.ok());
  EXPECT_TRUE(db.SetAttribute(txa.value(), "rank", Value::Int(101)).ok());
  EXPECT_TRUE(db.Commit().ok());
  auto last = db.CreateObject("Sp", {{"name", Value::String("after")},
                                     {"rank", Value::Int(7)}});
  EXPECT_TRUE(last.ok());

  const std::string bytes =
      ReadFile(dir + "/" + prometheus::storage::JournalFileName(1));
  *db_out = &db;
  *store_out = std::move(store).value();
  return bytes;
}

/// Digest of a bare database (no server): count plus every row.
std::string DbDigest(const Database& db) {
  std::string digest = std::to_string(db.object_count()) + ";";
  for (Oid oid : db.Extent("Sp")) {
    auto name = db.GetAttribute(oid, "name");
    auto rank = db.GetAttribute(oid, "rank");
    EXPECT_TRUE(name.ok() && rank.ok());
    digest += name.value().ToString() + "=" + rank.value().ToString() + "|";
  }
  return digest;
}

TEST(ApplierTest, EveryTruncationPointIsAtomicAndMirrorsExact) {
  const std::string dir = FreshDir("repl_applier_trunc");
  Database* leader_db = nullptr;
  std::unique_ptr<DurableStore> store;
  const std::string bytes = LeaderJournalBytes(dir, &leader_db, &store);
  ASSERT_GT(bytes.size(), 100u);

  // Reference states: for every committed boundary B, the digest obtained
  // by replaying the first B bytes through the recovery path.
  const std::string tmp = dir + "/prefix.log";
  auto replay_digest = [&](const std::string& prefix) {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(prefix.data(), static_cast<std::streamsize>(prefix.size()));
    out.close();
    Database db;
    Journal::ReplayReport report;
    EXPECT_TRUE(Journal::ReplayTail(&db, tmp, &report).ok());
    return DbDigest(db);
  };

  // Feed the stream cut at every byte position. The applier must (a) never
  // error, (b) keep its mirror byte-identical to the prefix it committed,
  // and (c) hold exactly the state the recovery path computes for that
  // mirror — i.e. no torn record, no half-applied transaction, ever.
  for (std::size_t cut = 0; cut <= bytes.size(); cut += 1) {
    Database replica;
    std::string mirror;
    JournalStreamApplier applier(
        &replica, [&mirror](std::string_view b) -> Status {
          mirror.append(b.data(), b.size());
          return Status::Ok();
        });
    applier.StartJournal(/*expect_full=*/true);
    ASSERT_TRUE(applier.Feed(std::string_view(bytes).substr(0, cut)).ok());
    ASSERT_NE(applier.state(), JournalStreamApplier::State::kCorrupt)
        << "cut=" << cut;
    ASSERT_EQ(mirror, bytes.substr(0, applier.boundary())) << "cut=" << cut;
    ASSERT_EQ(DbDigest(replica), replay_digest(mirror)) << "cut=" << cut;

    // Feeding the remainder must always converge to the leader's state.
    ASSERT_TRUE(applier.Feed(std::string_view(bytes).substr(cut)).ok());
    ASSERT_EQ(applier.boundary(), bytes.size());
    ASSERT_EQ(DbDigest(replica), DbDigest(*leader_db));
  }
}

TEST(ApplierTest, CorruptFrameParksWithoutApplyingAndRewindRecovers) {
  const std::string dir = FreshDir("repl_applier_corrupt");
  Database* leader_db = nullptr;
  std::unique_ptr<DurableStore> store;
  const std::string bytes = LeaderJournalBytes(dir, &leader_db, &store);

  // Flip one byte in the middle of the stream (inside some frame body).
  std::string corrupted = bytes;
  const std::size_t victim = bytes.size() / 2;
  corrupted[victim] = static_cast<char>(corrupted[victim] ^ 0x5a);

  Database replica;
  std::string mirror;
  JournalStreamApplier applier(&replica,
                               [&mirror](std::string_view b) -> Status {
                                 mirror.append(b.data(), b.size());
                                 return Status::Ok();
                               });
  applier.StartJournal(/*expect_full=*/true);
  ASSERT_TRUE(applier.Feed(corrupted).ok());
  ASSERT_EQ(applier.state(), JournalStreamApplier::State::kCorrupt);
  // Nothing past the last good boundary leaked into the mirror or the db.
  ASSERT_LE(applier.boundary(), victim);
  ASSERT_EQ(mirror, bytes.substr(0, applier.boundary()));

  // Parked: further bytes are refused until Rewind().
  ASSERT_FALSE(applier.Feed("x").ok());

  // A rewind plus a clean re-fetch from the boundary converges.
  applier.Rewind();
  ASSERT_EQ(applier.fetch_offset(), applier.boundary());
  ASSERT_TRUE(
      applier.Feed(std::string_view(bytes).substr(applier.boundary())).ok());
  ASSERT_EQ(applier.boundary(), bytes.size());
  ASSERT_EQ(DbDigest(replica), DbDigest(*leader_db));
}

// ----------------------------------------------------------- leader source

TEST(ReplicationSourceTest, FollowerPinsStallCheckpointPruning) {
  const std::string dir = FreshDir("repl_source_pin");
  DurableStore::Options store_options;
  store_options.bootstrap = [](Database* db) { return BootstrapSchema(db); };
  auto store = DurableStore::Open(dir, store_options);
  ASSERT_TRUE(store.ok());
  Database& db = store.value()->db();

  ReplicationSource::Options src_options;
  src_options.follower_expiry_ms = 200;
  ReplicationSource source(store.value().get(), src_options);
  auto handler = source.AuxHandler();

  // A follower reading journal 1 pins everything >= 1.
  HttpRequest req;
  req.method = "GET";
  req.target = "/repl/journal?seq=1&offset=0&follower=f1";
  std::string out;
  ASSERT_TRUE(handler(req, true, &out));
  ASSERT_NE(out.find("200"), std::string::npos);
  ASSERT_EQ(source.PruneFloor(), 1u);
  ASSERT_EQ(source.active_followers(), 1u);

  ASSERT_TRUE(
      db.CreateObject("Sp", {{"name", Value::String("x")},
                             {"rank", Value::Int(1)}})
          .ok());
  ASSERT_TRUE(store.value()->Checkpoint().ok());
  // Pinned: the pre-checkpoint journal survives.
  EXPECT_TRUE(fs::exists(dir + "/" +
                         prometheus::storage::JournalFileName(1)));

  // Once the pin expires, the next checkpoint prunes it.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(source.PruneFloor(), ~0ull);
  ASSERT_EQ(source.active_followers(), 0u);
  ASSERT_TRUE(
      db.CreateObject("Sp", {{"name", Value::String("y")},
                             {"rank", Value::Int(2)}})
          .ok());
  ASSERT_TRUE(store.value()->Checkpoint().ok());
  EXPECT_FALSE(fs::exists(dir + "/" +
                          prometheus::storage::JournalFileName(1)));
}

TEST(ReplicationSourceTest, AnswersGoneAndRangeNotSatisfiable) {
  const std::string dir = FreshDir("repl_source_codes");
  DurableStore::Options store_options;
  store_options.bootstrap = [](Database* db) { return BootstrapSchema(db); };
  auto store = DurableStore::Open(dir, store_options);
  ASSERT_TRUE(store.ok());
  ReplicationSource source(store.value().get());
  auto handler = source.AuxHandler();

  HttpRequest req;
  req.method = "GET";
  std::string out;
  req.target = "/repl/journal?seq=99&offset=0&follower=f1";
  ASSERT_TRUE(handler(req, true, &out));
  EXPECT_NE(out.find("410"), std::string::npos);
  req.target = "/repl/journal?seq=1&offset=99999999&follower=f1";
  ASSERT_TRUE(handler(req, true, &out));
  EXPECT_NE(out.find("416"), std::string::npos);
  req.target = "/repl/snapshot?gen=42&offset=0&follower=f1";
  ASSERT_TRUE(handler(req, true, &out));
  EXPECT_NE(out.find("410"), std::string::npos);
  // Non-replication targets fall through to the normal front-end routes.
  req.target = "/metrics";
  EXPECT_FALSE(handler(req, true, &out));
}

// ------------------------------------------------------------- end to end

TEST(ReplicationE2ETest, FollowerConvergesServesReadsRefusesWrites) {
  const std::string leader_dir = FreshDir("repl_e2e_leader");
  const std::string follower_dir = FreshDir("repl_e2e_follower");
  auto leader = Leader::Start(leader_dir);
  ASSERT_NE(leader, nullptr);

  Client writer(leader->server.get());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer
                    .CreateObject("Sp",
                                  {{"name", Value::String(
                                                "sp" + std::to_string(i))},
                                   {"rank", Value::Int(i)}})
                    .ok());
  }
  // A multi-step transaction must arrive atomically.
  ASSERT_TRUE(writer
                  .Mutate([](Database& db) {
                    auto a = db.CreateObject(
                        "Sp", {{"name", Value::String("tx-1")},
                               {"rank", Value::Int(1000)}});
                    PROMETHEUS_RETURN_IF_ERROR(a.status());
                    return db.SetAttribute(a.value(), "rank",
                                           Value::Int(1001));
                  })
                  .ok());

  auto follower = Follower::Start(
      FollowerOptions(follower_dir, leader->port(), "e2e"));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));

  // Byte-identical query results through both read planes.
  Client reader(&follower.value()->server());
  EXPECT_EQ(StateDigest(&writer), StateDigest(&reader));
  EXPECT_NE(StateDigest(&reader).find("tx-1"), std::string::npos);

  // Mutations on the replica answer kUnavailable without executing.
  auto denied = reader.CreateObject(
      "Sp", {{"name", Value::String("nope")}, {"rank", Value::Int(0)}});
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), Status::Code::kUnavailable);

  // The replica's own telemetry plane: /health embeds replication state,
  // /metrics exports the lag gauges.
  const int fport = follower.value()->http_port();
  ASSERT_GT(fport, 0);
  auto health = HttpFetch("127.0.0.1", fport, "GET", "/health");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.value().body.find("\"read_only\":true"),
            std::string::npos)
      << health.value().body;
  EXPECT_NE(health.value().body.find("replication"), std::string::npos);
  auto metrics = HttpFetch("127.0.0.1", fport, "GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().body.find("replication_lag_records"),
            std::string::npos);

  // The leader tracks the follower's cursor in its own exposition.
  auto leader_metrics = HttpFetch("127.0.0.1", leader->port(), "GET",
                                  "/metrics");
  ASSERT_TRUE(leader_metrics.ok());
  EXPECT_NE(
      leader_metrics.value().body.find(
          "replication_follower_cursor_seq{follower=\"e2e\"}"),
      std::string::npos);

  // Progress is coherent: caught up on the live journal with zero lag.
  const Follower::Progress p = follower.value()->progress();
  EXPECT_TRUE(p.connected);
  EXPECT_TRUE(p.caught_up);
  EXPECT_EQ(p.lag_records, 0u);

  // sys.replication is the same Progress snapshot as POOL rows: querying
  // the replica's own catalog reports exactly what /health embeds. The
  // stream is quiescent (writer stopped, caught up), so every field but
  // the poll counter is stable across the two reads.
  auto repl = reader.Query(
      "select r.role, r.connected, r.caught_up, r.generation, "
      "r.journal_seq, r.offset, r.records_applied, r.lag_records, "
      "r.lag_bytes from sys.replication r");
  ASSERT_TRUE(repl.ok()) << repl.status().ToString();
  ASSERT_EQ(repl.value().rows.size(), 1u);
  const auto& row = repl.value().rows[0];
  EXPECT_EQ(row[0].AsString(), "follower");
  EXPECT_TRUE(row[1].AsBool());
  EXPECT_TRUE(row[2].AsBool());
  EXPECT_EQ(row[3].AsInt(), static_cast<std::int64_t>(p.generation));
  EXPECT_EQ(row[4].AsInt(), static_cast<std::int64_t>(p.journal_seq));
  EXPECT_EQ(row[5].AsInt(), static_cast<std::int64_t>(p.offset));
  EXPECT_EQ(row[6].AsInt(),
            static_cast<std::int64_t>(p.records_applied));
  EXPECT_EQ(row[7].AsInt(), 0);
  EXPECT_EQ(row[8].AsInt(), 0);
  // Field for field against the health gauges the probe renders.
  EXPECT_NE(health.value().body.find("\"lag_records\":0"),
            std::string::npos)
      << health.value().body;
  EXPECT_NE(health.value().body.find(
                "\"offset\":" + std::to_string(p.offset)),
            std::string::npos)
      << health.value().body;
  // The leader, which replicates to nobody, reports an empty extent.
  auto leader_rows = writer.Query("select r from sys.replication r");
  ASSERT_TRUE(leader_rows.ok()) << leader_rows.status().ToString();
  EXPECT_TRUE(leader_rows.value().rows.empty());
}

// Fleet-wide trace stitching: every leader fetch carries an
// X-Trace-Id ("repl-<follower-id>-<n>"); the follower records its side in
// its own flight recorder and the leader's HTTP plane records the served
// /repl/* request under the same id — so one id resolves on both nodes.
TEST(ReplicationE2ETest, FetchTraceIdsAppearOnBothLeaderAndFollower) {
  const std::string leader_dir = FreshDir("repl_trace_leader");
  const std::string follower_dir = FreshDir("repl_trace_follower");
  auto leader = Leader::Start(leader_dir);
  ASSERT_NE(leader, nullptr);

  Client writer(leader->server.get());
  ASSERT_TRUE(writer
                  .CreateObject("Sp", {{"name", Value::String("traced")},
                                       {"rank", Value::Int(1)}})
                  .ok());

  auto follower = Follower::Start(
      FollowerOptions(follower_dir, leader->port(), "tracer"));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));
  // Stop polling before snapshotting: after catch-up the follower's empty
  // polls keep writing new trace ids into the leader's bounded ring, and
  // enough of them would evict the fetches the follower recorded.
  follower.value()->Stop();

  std::vector<std::string> follower_ids;
  for (const auto& e : follower.value()->server().flight_recorder()
                           .Snapshot()) {
    if (e.type != "repl_fetch") continue;
    EXPECT_EQ(e.trace_id.rfind("repl-tracer-", 0), 0u) << e.trace_id;
    EXPECT_TRUE(e.executed);
    follower_ids.push_back(e.trace_id);
  }
  ASSERT_FALSE(follower_ids.empty());

  // At least one of those ids resolves on the leader too, recorded by the
  // HTTP plane as an aux (/repl/*) request.
  int stitched = 0;
  for (const auto& e : leader->server->flight_recorder().Snapshot()) {
    if (e.type != "aux") continue;
    EXPECT_EQ(e.trace_id.rfind("repl-tracer-", 0), 0u) << e.trace_id;
    for (const auto& id : follower_ids) {
      if (e.trace_id == id) {
        ++stitched;
        EXPECT_NE(e.detail.find("/repl/"), std::string::npos) << e.detail;
        break;
      }
    }
  }
  EXPECT_GT(stitched, 0);
}

// The follower's read-only server caches results like any other; journal
// application under the write guard bumps the replica's epoch, so a
// replicated write invalidates the follower's cached entries without any
// explicit wiring. Cached reads must converge to the leader's new value
// and never serve the old one after it has been observed once.
TEST(ReplicationE2ETest, FollowerCacheServesHitsAndInvalidatesOnApply) {
  const std::string leader_dir = FreshDir("repl_cache_leader");
  const std::string follower_dir = FreshDir("repl_cache_follower");
  auto leader = Leader::Start(leader_dir);
  ASSERT_NE(leader, nullptr);

  Client writer(leader->server.get());
  auto oid = writer.CreateObject(
      "Sp", {{"name", Value::String("hot")}, {"rank", Value::Int(1)}});
  ASSERT_TRUE(oid.ok());

  auto follower = Follower::Start(
      FollowerOptions(follower_dir, leader->port(), "cache"));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));

  Client reader(&follower.value()->server());
  const std::string q = "select s.rank from Sp s where s.name = 'hot'";

  // The replica's server caches: warm then hit, with the pre-write value.
  Response warm = reader.Call(prometheus::server::Request::Query(q));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.result->rows.size(), 1u);
  EXPECT_EQ(warm.result->rows[0][0].AsInt(), 1);
  Response hit = reader.Call(prometheus::server::Request::Query(q));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.result->rows[0][0].AsInt(), 1);

  // Leader commits a new value; the applier's epoch bump must retire the
  // follower's cached entry. Poll until the new value shows (propagation
  // delay is legal; serving 1 again meanwhile is a valid cached read).
  ASSERT_TRUE(writer.SetAttribute(oid.value(), "rank", Value::Int(2)).ok());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool converged = false;
  while (std::chrono::steady_clock::now() < give_up) {
    Response r = reader.Call(prometheus::server::Request::Query(q));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.result->rows.size(), 1u);
    if (r.result->rows[0][0].AsInt() == 2) {
      converged = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(converged) << "follower never served the replicated write";

  // Once the new value has been observed, it can never regress: the next
  // reads — cached or not — must keep answering 2.
  for (int i = 0; i < 10; ++i) {
    Response r = reader.Call(prometheus::server::Request::Query(q));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.result->rows[0][0].AsInt(), 2);
  }
  // And the hot entry is servable again at the new epoch.
  EXPECT_TRUE(reader.Call(prometheus::server::Request::Query(q)).cache_hit);
  EXPECT_GE(follower.value()
                ->server()
                .query_cache()
                .results()
                .stats()
                .hits,
            1u);
}

// MVCC on the replica: the applier commits each replicated transaction
// under the follower database's write guard, and replica reads execute
// against pinned snapshots — so a journal frame landing mid-read must
// never tear it. The leader updates a pair of rows transactionally in
// lockstep; follower readers, running flat out while frames stream in,
// must always see the pair equal (a consistent cut), never one row from
// before the apply and one from after.
TEST(ReplicationE2ETest, JournalApplyNeverTearsInFlightReplicaReads) {
  const std::string leader_dir = FreshDir("repl_mvcc_leader");
  const std::string follower_dir = FreshDir("repl_mvcc_follower");
  auto leader = Leader::Start(leader_dir);
  ASSERT_NE(leader, nullptr);

  Client writer(leader->server.get());
  auto pa = writer.CreateObject(
      "Sp", {{"name", Value::String("pa")}, {"rank", Value::Int(0)}});
  auto pb = writer.CreateObject(
      "Sp", {{"name", Value::String("pb")}, {"rank", Value::Int(0)}});
  ASSERT_TRUE(pa.ok() && pb.ok());

  auto follower = Follower::Start(
      FollowerOptions(follower_dir, leader->port(), "mvcc"));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> pair_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Client reader(&follower.value()->server());
      while (!stop.load(std::memory_order_acquire)) {
        auto rs = reader.Query("select s.name, s.rank from Sp s");
        if (!rs.ok()) continue;  // overload shedding is legal
        std::int64_t ra = -1, rb = -1;
        for (const auto& row : rs.value().rows) {
          if (row[0].ToString().find("pa") != std::string::npos) {
            ra = row[1].AsInt();
          } else if (row[0].ToString().find("pb") != std::string::npos) {
            rb = row[1].AsInt();
          }
        }
        if (ra >= 0 && rb >= 0) {
          pair_reads.fetch_add(1);
          if (ra != rb) torn.fetch_add(1);
        }
      }
    });
  }

  // The leader advances the pair transactionally while frames stream to
  // the follower (poll interval 5 ms, so applies interleave the reads).
  constexpr std::int64_t kRounds = 150;
  for (std::int64_t v = 1; v <= kRounds; ++v) {
    ASSERT_TRUE(writer
                    .Mutate([&, v](Database& db) {
                      PROMETHEUS_RETURN_IF_ERROR(db.Begin());
                      Status st = db.SetAttribute(pa.value(), "rank",
                                                  Value::Int(v));
                      if (st.ok()) {
                        st = db.SetAttribute(pb.value(), "rank",
                                             Value::Int(v));
                      }
                      if (!st.ok()) {
                        (void)db.Abort();
                        return st;
                      }
                      return db.Commit();
                    })
                    .ok());
  }

  // Let the follower catch up to the final round before stopping the
  // readers, so the apply path ran under live read load the whole way.
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(pair_reads.load(), 0u);
  Client reader(&follower.value()->server());
  auto final_rs =
      reader.Query("select s.rank from Sp s where s.name = 'pa'");
  ASSERT_TRUE(final_rs.ok());
  ASSERT_EQ(final_rs.value().rows.size(), 1u);
  EXPECT_EQ(final_rs.value().rows[0][0].AsInt(), kRounds);
}

// Schema defined on the live leader — not in its bootstrap — must ship to
// followers like any mutation: a follower that joined before the DDL
// applies the new class and the objects created in it.
TEST(ReplicationE2ETest, RuntimeDdlShipsToFollowers) {
  const std::string leader_dir = FreshDir("repl_ddl_leader");
  const std::string follower_dir = FreshDir("repl_ddl_follower");
  auto leader = Leader::Start(leader_dir);
  ASSERT_NE(leader, nullptr);

  auto follower = Follower::Start(
      FollowerOptions(follower_dir, leader->port(), "ddl"));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));

  Client writer(leader->server.get());
  ASSERT_TRUE(writer
                  .Mutate([](Database& db) {
                    auto cls = db.DefineClass(
                        "Genus", {}, {Attr("name", ValueType::kString)});
                    PROMETHEUS_RETURN_IF_ERROR(cls.status());
                    PROMETHEUS_RETURN_IF_ERROR(
                        db.DefineRelationship("contains", "Genus", "Sp",
                                              prometheus::
                                                  RelationshipSemantics{})
                            .status());
                    auto g = db.CreateObject(
                        "Genus", {{"name", Value::String("Apium")}});
                    PROMETHEUS_RETURN_IF_ERROR(g.status());
                    auto s = db.CreateObject(
                        "Sp", {{"name", Value::String("graveolens")},
                               {"rank", Value::Int(7)}});
                    PROMETHEUS_RETURN_IF_ERROR(s.status());
                    return db
                        .CreateLink("contains", g.value(), s.value(),
                                    prometheus::kNullOid, {})
                        .status();
                  })
                  .ok());
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));

  Client reader(&follower.value()->server());
  auto rs = reader.Query("select g.name from Genus g");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].ToString(), "\"Apium\"");
  auto links = reader.Query("select c from contains c");
  ASSERT_TRUE(links.ok()) << links.status().ToString();
  EXPECT_EQ(links.value().rows.size(), 1u);
  EXPECT_EQ(follower.value()->progress().lag_records, 0u);
}

TEST(ReplicationE2ETest, RestartResumesFromDurableCursor) {
  const std::string leader_dir = FreshDir("repl_resume_leader");
  const std::string follower_dir = FreshDir("repl_resume_follower");
  auto leader = Leader::Start(leader_dir);
  ASSERT_NE(leader, nullptr);
  Client writer(leader->server.get());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer
                    .CreateObject("Sp",
                                  {{"name", Value::String(
                                                "a" + std::to_string(i))},
                                   {"rank", Value::Int(i)}})
                    .ok());
  }

  std::uint64_t resumed_offset = 0;
  {
    auto follower = Follower::Start(
        FollowerOptions(follower_dir, leader->port(), "resume"));
    ASSERT_TRUE(follower.ok());
    ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));
    resumed_offset = follower.value()->progress().offset;
  }  // destroyed: simulates a crash/restart mid-deployment

  // More history lands while the follower is down.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer
                    .CreateObject("Sp",
                                  {{"name", Value::String(
                                                "b" + std::to_string(i))},
                                   {"rank", Value::Int(i)}})
                    .ok());
  }

  auto follower = Follower::Start(
      FollowerOptions(follower_dir, leader->port(), "resume"));
  ASSERT_TRUE(follower.ok());
  // Local recovery must land exactly on the mirror's committed boundary —
  // the implicit durable cursor — before any fetch happens.
  EXPECT_EQ(follower.value()->progress().offset, resumed_offset);
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));
  EXPECT_EQ(follower.value()->progress().rebootstraps, 0u);

  Client reader(&follower.value()->server());
  EXPECT_EQ(StateDigest(&writer), StateDigest(&reader));
}

TEST(ReplicationE2ETest, TornMidFrameStreamNeverAppliesNorDiverges) {
  const std::string leader_dir = FreshDir("repl_torn_leader");
  const std::string follower_dir = FreshDir("repl_torn_follower");

  // Fault plan: the first journal response with a meaty body is cut in the
  // middle of a frame; the next journal fetch fails outright (socket-level
  // fault stand-in), forcing a reconnect with the torn tail buffered.
  struct TornState {
    std::mutex mu;
    int phase = 0;  // 0 = waiting to cut, 1 = fail next, 2 = passthrough
  };
  auto state = std::make_shared<TornState>();
  Leader::Wrap wrap = [state](const auto& inner, const HttpRequest& req,
                              bool keep_alive, std::string* out) {
    if (!inner(req, keep_alive, out)) return false;
    if (req.target.rfind("/repl/journal", 0) != 0) return true;
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->phase == 0) {
      HttpResponse resp;
      std::size_t consumed = 0;
      std::string error;
      if (ParseHttpResponse(*out, &consumed, &resp, &error) ==
              ParseResult::kComplete &&
          resp.status_code == 200 && resp.body.size() > 64) {
        std::vector<std::pair<std::string, std::string>> repl_headers;
        for (const auto& [name, value] : resp.headers) {
          if (name.rfind("x-repl-", 0) == 0) {
            repl_headers.emplace_back(name, value);
          }
        }
        resp.body.resize(resp.body.size() / 2);  // mid-frame cut
        *out = SerializeHttpResponse(200, "application/octet-stream",
                                     resp.body, keep_alive, repl_headers);
        state->phase = 1;
      }
    } else if (state->phase == 1) {
      *out = SerializeHttpResponse(500, "text/plain", "injected fault\n",
                                   keep_alive);
      state->phase = 2;
    }
    return true;
  };
  auto leader = Leader::Start(leader_dir, ReplicationSource::Options{},
                              wrap);
  ASSERT_NE(leader, nullptr);

  Client writer(leader->server.get());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(writer
                    .CreateObject("Sp",
                                  {{"name", Value::String(
                                                "t" + std::to_string(i))},
                                   {"rank", Value::Int(i)}})
                    .ok());
  }

  auto follower = Follower::Start(
      FollowerOptions(follower_dir, leader->port(), "torn"));
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));

  // The fault fired, forced a reconnect, and the replica still converged
  // to the leader's exact state: the torn record was re-fetched, applied
  // once, and nothing diverged.
  {
    std::lock_guard<std::mutex> lock(state->mu);
    EXPECT_EQ(state->phase, 2);
  }
  EXPECT_GE(follower.value()->progress().reconnects, 1u);
  Client reader(&follower.value()->server());
  EXPECT_EQ(StateDigest(&writer), StateDigest(&reader));

  // The mirror is a byte-identical prefix (here: the whole journal).
  const std::string leader_journal =
      ReadFile(leader_dir + "/" + prometheus::storage::JournalFileName(1));
  const std::string mirror_journal = ReadFile(
      follower_dir + "/" + prometheus::storage::JournalFileName(1));
  EXPECT_EQ(mirror_journal, leader_journal);
}

TEST(ReplicationE2ETest, PrunedHistoryForcesRebootstrapFromSnapshot) {
  const std::string leader_dir = FreshDir("repl_prune_leader");
  const std::string follower_dir = FreshDir("repl_prune_follower");
  ReplicationSource::Options src_options;
  src_options.follower_expiry_ms = 100;  // pins die fast in this test
  auto leader = Leader::Start(leader_dir, src_options);
  ASSERT_NE(leader, nullptr);
  Client writer(leader->server.get());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer
                    .CreateObject("Sp",
                                  {{"name", Value::String(
                                                "a" + std::to_string(i))},
                                   {"rank", Value::Int(i)}})
                    .ok());
  }

  {
    auto follower = Follower::Start(
        FollowerOptions(follower_dir, leader->port(), "prune"));
    ASSERT_TRUE(follower.ok());
    ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));
  }

  // While the follower is away its pin expires and the leader checkpoints
  // twice: the journal the follower was tailing is pruned.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(writer.Checkpoint().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer
                    .CreateObject("Sp",
                                  {{"name", Value::String(
                                                "b" + std::to_string(i))},
                                   {"rank", Value::Int(i)}})
                    .ok());
  }
  ASSERT_TRUE(writer.Checkpoint().ok());
  ASSERT_FALSE(
      fs::exists(leader_dir + "/" +
                 prometheus::storage::JournalFileName(1)));

  auto follower = Follower::Start(
      FollowerOptions(follower_dir, leader->port(), "prune"));
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));
  EXPECT_GE(follower.value()->progress().rebootstraps, 1u);
  EXPECT_GE(follower.value()->progress().generation, 1u);
  Client reader(&follower.value()->server());
  EXPECT_EQ(StateDigest(&writer), StateDigest(&reader));
}

TEST(ReplicationE2ETest, PromoteTurnsTheMirrorIntoAWritableLeader) {
  const std::string leader_dir = FreshDir("repl_promote_leader");
  const std::string follower_dir = FreshDir("repl_promote_follower");
  auto leader = Leader::Start(leader_dir);
  ASSERT_NE(leader, nullptr);
  Client writer(leader->server.get());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(writer
                    .CreateObject("Sp",
                                  {{"name", Value::String(
                                                "p" + std::to_string(i))},
                                   {"rank", Value::Int(i)}})
                    .ok());
  }
  const std::string want = StateDigest(&writer);

  auto follower = Follower::Start(
      FollowerOptions(follower_dir, leader->port(), "promote"));
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower.value()->WaitCaughtUp(10000));

  // Leader dies; the follower becomes the new leader.
  leader->Stop();
  auto promoted = follower.value()->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();

  // No committed transaction was lost, and the store is writable: a new
  // server takes mutations and a checkpoint round-trips.
  Server::Options server_options;
  server_options.store = promoted.value().get();
  Server new_leader(&promoted.value()->db(), server_options);
  Client new_writer(&new_leader);
  EXPECT_EQ(StateDigest(&new_writer), want);
  ASSERT_TRUE(new_writer
                  .CreateObject("Sp", {{"name", Value::String("post")},
                                       {"rank", Value::Int(1)}})
                  .ok());
  ASSERT_TRUE(new_writer.Checkpoint().ok());
  new_leader.Shutdown();
}

}  // namespace
