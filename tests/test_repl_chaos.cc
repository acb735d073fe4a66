// Replication chaos drill: a leader and two followers under churn, cycling
// kill-the-leader -> promote-the-newest-follower -> re-point-the-survivor
// for PROMETHEUS_CHAOS_SECONDS (default 3; CI runs 30 under ASan/UBSan and
// TSan). Invariants held through every failover:
//
//  - after a drain, the promoted follower serves *exactly* the acknowledged
//    leader state — no committed transaction lost, none invented;
//  - multi-record transactions land atomically (both halves or neither);
//  - the survivor re-points to the promoted leader and reconverges without
//    a rebootstrap (its mirror is a prefix of the new leader's history);
//  - a wiped node bootstraps from scratch each epoch (snapshot + tail);
//  - when the dust settles, expired pins stop protecting files and
//    checkpoints prune superseded generations — nothing leaks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "net/http_server.h"
#include "query/render.h"
#include "replication/follower.h"
#include "replication/source.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/recovery.h"

namespace {

namespace fs = std::filesystem;

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::net::HttpFrontEnd;
using prometheus::pool::RenderJson;
using prometheus::replication::Follower;
using prometheus::replication::ReplicationSource;
using prometheus::server::Client;
using prometheus::server::Server;
using prometheus::storage::DurableStore;

int ChaosSeconds() {
  const char* env = std::getenv("PROMETHEUS_CHAOS_SECONDS");
  if (env == nullptr) return 3;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : 3;
}

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef def;
  def.name = std::move(name);
  def.type = type;
  return def;
}

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

/// A leader node: store + server + replication endpoint + HTTP front end.
/// Built either by opening a directory or by adopting a store a promotion
/// just produced.
struct Node {
  std::unique_ptr<DurableStore> store;
  std::unique_ptr<Server> server;
  std::unique_ptr<ReplicationSource> source;
  std::unique_ptr<HttpFrontEnd> front;

  static std::unique_ptr<Node> Open(const std::string& dir) {
    DurableStore::Options store_options;
    store_options.bootstrap = [](Database* db) {
      return db
          ->DefineClass("Sp", {},
                        {Attr("name", ValueType::kString),
                         Attr("rank", ValueType::kInt)})
          .status();
    };
    auto store = DurableStore::Open(dir, store_options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return nullptr;
    return Adopt(std::move(store).value());
  }

  static std::unique_ptr<Node> Adopt(std::unique_ptr<DurableStore> s) {
    auto node = std::make_unique<Node>();
    node->store = std::move(s);
    Server::Options server_options;
    server_options.worker_threads = 2;
    server_options.store = node->store.get();
    node->server = std::make_unique<Server>(&node->store->db(),
                                            server_options);
    ReplicationSource::Options src_options;
    src_options.follower_expiry_ms = 500;  // leak check runs fast
    node->source = std::make_unique<ReplicationSource>(node->store.get(),
                                                       src_options);
    HttpFrontEnd::Options front_options;
    front_options.handler_threads = 4;  // 2 polling followers + slack
    front_options.aux_handler = node->source->AuxHandler();
    node->front = std::make_unique<HttpFrontEnd>(node->server.get(),
                                                 front_options);
    EXPECT_TRUE(node->front->Start().ok());
    return node;
  }

  int port() const { return front->port(); }

  /// The "kill": the replication and client planes vanish mid-poll.
  void Kill() {
    front->Stop();
    server->Shutdown();
    source.reset();
  }

  ~Node() {
    if (front && front->running()) Kill();
  }
};

std::unique_ptr<Follower> StartFollower(const std::string& dir, int port,
                                        const std::string& id) {
  Follower::Options o;
  o.dir = dir;
  o.leader_port = port;
  o.follower_id = id;
  o.serve_http = false;  // the drill reads through the in-process server
  o.poll_interval_ms = 2;
  auto follower = Follower::Start(std::move(o));
  EXPECT_TRUE(follower.ok()) << follower.status().ToString();
  return follower.ok() ? std::move(follower).value() : nullptr;
}

TEST(ReplChaosTest, FailoverLoopLosesNothingAndLeaksNothing) {
  const std::string base = ::testing::TempDir() + "/prometheus_repl_chaos";
  fs::remove_all(base);
  fs::create_directories(base);
  // Three directories rotate through the roles leader / follower /
  // follower. Tracked explicitly per slot — the leader and a follower must
  // never share a directory.
  std::string leader_dir = base + "/n0";
  std::string follower_dir[2] = {base + "/n1", base + "/n2"};
  auto follower_id = [](const std::string& dir) {
    return dir.substr(dir.rfind('/') + 1);
  };

  auto leader = Node::Open(leader_dir);
  ASSERT_NE(leader, nullptr);
  std::unique_ptr<Follower> followers[2] = {
      StartFollower(follower_dir[0], leader->port(),
                    follower_id(follower_dir[0])),
      StartFollower(follower_dir[1], leader->port(),
                    follower_id(follower_dir[1])),
  };
  ASSERT_NE(followers[0], nullptr);
  ASSERT_NE(followers[1], nullptr);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(ChaosSeconds());
  std::atomic<std::uint64_t> next_id{0};
  std::atomic<std::uint64_t> acked{0};
  std::atomic<std::uint64_t> txns{0};
  int epochs = 0;

  while (std::chrono::steady_clock::now() < deadline) {
    ++epochs;
    // Churn: one writer hammers the leader; every 25th write is a
    // two-object transaction, every 60th a checkpoint (journal rotation
    // under the followers' feet).
    std::atomic<bool> stop_writer{false};
    std::thread writer([&] {
      Client client(leader->server.get());
      while (!stop_writer.load(std::memory_order_acquire)) {
        const std::uint64_t id =
            next_id.fetch_add(1, std::memory_order_relaxed);
        if (id % 25 == 24) {
          Status st = client.Mutate([id](Database& db) {
            auto a = db.CreateObject(
                "Sp", {{"name", Value::String("tx" + std::to_string(id) +
                                              "-a")},
                       {"rank", Value::Int(static_cast<std::int64_t>(id))}});
            PROMETHEUS_RETURN_IF_ERROR(a.status());
            return db
                .CreateObject(
                    "Sp",
                    {{"name", Value::String("tx" + std::to_string(id) +
                                            "-b")},
                     {"rank", Value::Int(static_cast<std::int64_t>(id))}})
                .status();
          });
          if (st.ok()) {
            acked.fetch_add(2, std::memory_order_relaxed);
            txns.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          if (client
                  .CreateObject(
                      "Sp",
                      {{"name", Value::String("w" + std::to_string(id))},
                       {"rank", Value::Int(static_cast<std::int64_t>(id))}})
                  .ok()) {
            acked.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (id % 60 == 59) (void)client.Checkpoint();
        // Paced, not flat-out: the drill is about failover under churn,
        // not about how many rotations a follower can walk per second.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    stop_writer.store(true, std::memory_order_release);
    writer.join();

    // Drain: both followers reach the acknowledged tail while the stream
    // is live, then the leader dies mid-poll.
    ASSERT_TRUE(followers[0]->WaitCaughtUp(15000));
    ASSERT_TRUE(followers[1]->WaitCaughtUp(15000));
    std::string want;
    {
      Client reader(leader->server.get());
      want = StateDigest(&reader);
    }
    leader->Kill();

    // Promote the newest follower (they drained, so either qualifies —
    // pick by cursor to exercise the comparison the operator would make).
    const auto p0 = followers[0]->progress();
    const auto p1 = followers[1]->progress();
    const std::string pj0 =
        RenderJson(followers[0]->ProgressRows().front());
    const std::string pj1 =
        RenderJson(followers[1]->ProgressRows().front());
    const int newest =
        (p1.journal_seq > p0.journal_seq ||
         (p1.journal_seq == p0.journal_seq && p1.offset > p0.offset))
            ? 1
            : 0;
    const int survivor = 1 - newest;

    auto promoted = followers[newest]->Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    followers[newest].reset();
    followers[survivor]->Stop();

    const std::string old_leader_dir = leader_dir;
    leader_dir = follower_dir[newest];
    leader = Node::Adopt(std::move(promoted).value());
    ASSERT_NE(leader, nullptr);

    // No committed transaction lost, none invented, atomicity intact.
    {
      Client reader(leader->server.get());
      ASSERT_EQ(StateDigest(&reader), want)
          << "epoch " << epochs << " newest=" << newest << "\np0=" << pj0
          << "\np1=" << pj1;
      auto count = reader.Query("select s from Sp s");
      ASSERT_TRUE(count.ok());
      ASSERT_EQ(count.value().rows.size(),
                static_cast<std::size_t>(acked.load()));
      auto pairs = reader.Query("select s.name from Sp s");
      ASSERT_TRUE(pairs.ok());
      std::size_t tx_members = 0;
      for (const auto& row : pairs.value().rows) {
        if (row[0].AsString().rfind("tx", 0) == 0) ++tx_members;
      }
      ASSERT_EQ(tx_members, 2 * txns.load()) << "torn transaction";
    }

    // The survivor re-points at the promoted leader and reconverges from
    // its mirror (no rebootstrap: its history is a prefix). The old
    // leader's machine is wiped and rejoins from nothing.
    followers[survivor] =
        StartFollower(follower_dir[survivor], leader->port(),
                      follower_id(follower_dir[survivor]));
    ASSERT_NE(followers[survivor], nullptr);
    fs::remove_all(old_leader_dir);
    follower_dir[newest] = old_leader_dir;
    followers[newest] = StartFollower(follower_dir[newest], leader->port(),
                                      follower_id(follower_dir[newest]));
    ASSERT_NE(followers[newest], nullptr);
    ASSERT_TRUE(followers[survivor]->WaitCaughtUp(15000));
    ASSERT_EQ(followers[survivor]->progress().rebootstraps, 0u)
        << "survivor should resume, not rebootstrap";
    ASSERT_TRUE(followers[newest]->WaitCaughtUp(15000));
  }

  EXPECT_GE(epochs, 1);

  // Leak check: with the followers gone and their pins expired, two
  // checkpoints settle back to the designed steady state — the loaded
  // snapshot plus one fallback generation, nothing older pinned alive.
  followers[0].reset();
  followers[1].reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  {
    Client client(leader->server.get());
    ASSERT_TRUE(client
                    .CreateObject("Sp", {{"name", Value::String("final")},
                                         {"rank", Value::Int(0)}})
                    .ok());
    ASSERT_TRUE(client.Checkpoint().ok());
    ASSERT_TRUE(client.Checkpoint().ok());
  }
  std::size_t snapshots = 0, journals = 0;
  for (const auto& entry : fs::directory_iterator(leader_dir)) {
    std::uint64_t seq = 0;
    const std::string name = entry.path().filename().string();
    if (prometheus::storage::ParseSnapshotFileName(name, &seq)) ++snapshots;
    if (prometheus::storage::ParseJournalFileName(name, &seq)) ++journals;
  }
  EXPECT_LE(snapshots, 2u) << "leaked snapshot generations";
  EXPECT_LE(journals, 2u) << "leaked journals";
  leader->Kill();
}

}  // namespace
