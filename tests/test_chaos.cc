// Chaos harness: a fault-injected DurableStore under concurrent
// multi-client load. The server cycles healthy -> durability-broken ->
// healed-and-checkpointed while 6 readers and 2 writers hammer it, and the
// invariants of graceful degradation are asserted the whole time:
//
//  - readers never observe a torn attribute pair and never get a
//    database-level error (queries keep serving in degraded mode);
//  - once the server is degraded, writer mutations fail fast with
//    kUnavailable and `executed == false` (they never reach the journal);
//  - a checkpoint through the healed filesystem re-arms the store, after
//    which writes flow (and are durable) again;
//  - reopening the directory afterwards recovers a consistent state.
//
// Wall-clock duration comes from PROMETHEUS_CHAOS_SECONDS (default 3; CI
// runs 30 under ASan/UBSan). The harness always finishes a cycle by
// healing, so the store is intact at exit regardless of where the clock
// ran out.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "storage/fault.h"
#include "storage/recovery.h"

namespace {

namespace fs = std::filesystem;

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::Oid;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::server::Client;
using prometheus::server::Request;
using prometheus::server::Response;
using prometheus::server::ResponseCode;
using prometheus::server::RetryPolicy;
using prometheus::server::Server;
using prometheus::storage::DurableStore;
using prometheus::storage::FaultInjectionEnv;
using prometheus::storage::FaultPolicy;

constexpr int kReaders = 6;
constexpr int kWriters = 2;
constexpr int kVictims = 4;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef def;
  def.name = std::move(name);
  def.type = type;
  return def;
}

int ChaosSeconds() {
  const char* env = std::getenv("PROMETHEUS_CHAOS_SECONDS");
  if (env == nullptr) return 3;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : 3;
}

/// Spin-waits (politely) until `cond` holds or `budget` elapses.
template <typename Cond>
bool AwaitFor(Cond cond, std::chrono::milliseconds budget) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!cond()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ChaosTest, ServerDegradesGracefullyUnderInjectedDurabilityFaults) {
  const std::string dir = ::testing::TempDir() + "/prometheus_chaos";
  fs::remove_all(dir);
  FaultInjectionEnv env;

  DurableStore::Options store_options;
  store_options.env = &env;
  store_options.bootstrap = [](Database* db) {
    PROMETHEUS_RETURN_IF_ERROR(
        db->DefineClass("Victim", {},
                        {Attr("name", ValueType::kString),
                         Attr("a", ValueType::kInt),
                         Attr("b", ValueType::kInt)})
            .status());
    for (int i = 0; i < kVictims; ++i) {
      PROMETHEUS_RETURN_IF_ERROR(
          db->CreateObject("Victim",
                           {{"name", Value::String("v" + std::to_string(i))},
                            {"a", Value::Int(0)},
                            {"b", Value::Int(0)}})
              .status());
    }
    return Status::Ok();
  };
  auto store = DurableStore::Open(dir, store_options);
  ASSERT_TRUE(store.ok()) << store.status().message();

  std::vector<Oid> victims = store.value()->db().Extent("Victim");
  ASSERT_EQ(victims.size(), static_cast<std::size_t>(kVictims));

  Server::Options options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  options.store = store.value().get();
  Server server(&store.value()->db(), options);

  std::atomic<bool> stop{false};

  // Reader-side accounting. `reader_errors` is the hard invariant: a query
  // that executed must succeed and must never show a torn a/b pair, healthy
  // or degraded. Timed-out / rejected queries are legitimate overload
  // outcomes, counted but not failures.
  std::atomic<std::uint64_t> reads_ok{0};
  std::atomic<std::uint64_t> reads_shed{0};
  std::atomic<std::uint64_t> reader_errors{0};
  std::atomic<std::uint64_t> torn_pairs{0};

  // Writer-side accounting. Every writer response lands in exactly one
  // bucket; `writer_anomalies` is the hard invariant (an executed==true
  // kUnavailable, or a success while the server said degraded).
  std::atomic<std::uint64_t> writes_ok{0};
  std::atomic<std::uint64_t> writes_errored{0};  // executed, rolled back
  std::atomic<std::uint64_t> writes_unavailable{0};
  std::atomic<std::uint64_t> writer_anomalies{0};
  // Bumped per writer whenever it receives kUnavailable; the controller
  // waits for both before healing, which guarantees no writer mutation is
  // executing (let alone appending) when the fault policy is swapped.
  std::atomic<std::uint64_t> unavailable_by[kWriters] = {};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Client client(&server);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        Request req = Request::Query(
            "select v.name, v.a, v.b from Victim v");
        if (i % 4 == 0) req.WithTimeout(std::chrono::milliseconds(50));
        Response resp = client.Call(std::move(req));
        ++i;
        if (resp.code == ResponseCode::kTimedOut ||
            resp.code == ResponseCode::kRejected) {
          reads_shed.fetch_add(1);
          continue;
        }
        if (resp.code != ResponseCode::kOk || !resp.status.ok()) {
          reader_errors.fetch_add(1);
          continue;
        }
        reads_ok.fetch_add(1);
        for (const auto& row : resp.result->rows) {
          if (!row[1].Equals(row[2])) torn_pairs.fetch_add(1);
        }
        // One reader doubles as a health prober — the probe must answer
        // regardless of server state.
        if (r == 0 && i % 16 == 0) {
          Response probe = client.Call(Request::Health());
          if (probe.code != ResponseCode::kOk) reader_errors.fetch_add(1);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Client client(&server);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const Oid victim = victims[(w + i) % victims.size()];
        const std::int64_t value =
            static_cast<std::int64_t>(w + 1) * 1000000 +
            static_cast<std::int64_t>(i);
        ++i;
        // The pair update is transactional: the journal buffers the whole
        // transaction and brackets it TXB/TXC, so a fault either loses or
        // keeps BOTH writes — never one of them — and a sticky-veto during
        // the transaction rolls both back in memory.
        Response resp = client.Call(Request::Custom([victim,
                                                     value](Database& db) {
          PROMETHEUS_RETURN_IF_ERROR(db.Begin());
          Status st = db.SetAttribute(victim, "a", Value::Int(value));
          if (st.ok()) st = db.SetAttribute(victim, "b", Value::Int(value));
          if (!st.ok()) {
            (void)db.Abort();
            return st;
          }
          return db.Commit();
        }));
        switch (resp.code) {
          case ResponseCode::kOk:
            if (resp.status.ok()) {
              writes_ok.fetch_add(1);
            } else {
              writes_errored.fetch_add(1);  // sticky veto rolled it back
            }
            break;
          case ResponseCode::kUnavailable:
            if (resp.executed) writer_anomalies.fetch_add(1);
            writes_unavailable.fetch_add(1);
            unavailable_by[w].fetch_add(1);
            break;
          case ResponseCode::kRejected:
          case ResponseCode::kTimedOut:
            break;  // overload outcomes, fine
          case ResponseCode::kShutdown:
            return;
        }
        // Degraded fast-fail should be instant; do not hammer it.
        if (resp.code == ResponseCode::kUnavailable) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }

  // The controller: healthy -> break the journal -> watch the server
  // degrade -> heal the filesystem -> checkpoint to re-arm. Loops until
  // the chaos budget is spent; always exits healed.
  Client controller(&server);
  const auto chaos_end =
      std::chrono::steady_clock::now() + std::chrono::seconds(ChaosSeconds());
  int cycles = 0;
  int degraded_cycles = 0;
  do {
    // Healthy phase: let traffic flow.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    // Inject. SetPolicy is not synchronised against journal appends, so it
    // runs inside a mutation — serialized with every append by the
    // exclusive lock. Vary where the crash lands cycle to cycle.
    FaultPolicy broken;
    broken.fail_after_appends = (cycles % 3 == 0) ? 0 : cycles % 7;
    broken.torn_writes = (cycles % 2 == 0);
    Status inject = controller.Mutate([&env, broken](Database&) {
      env.SetPolicy(broken);
      return Status::Ok();
    });
    ASSERT_TRUE(inject.ok()) << inject.message();

    // The next writer mutations hit the dead env, get vetoed, and flip the
    // server to degraded; then each writer must observe at least one
    // fast-fail. Both together prove no writer mutation is still running.
    const std::uint64_t seen_before[kWriters] = {
        unavailable_by[0].load(), unavailable_by[1].load()};
    const bool degraded_seen = AwaitFor(
        [&] {
          if (!server.degraded()) return false;
          for (int w = 0; w < kWriters; ++w) {
            if (unavailable_by[w].load() == seen_before[w]) return false;
          }
          return true;
        },
        std::chrono::seconds(20));
    ASSERT_TRUE(degraded_seen)
        << "server never degraded (cycle " << cycles << ")";
    ++degraded_cycles;

    // Let readers run against the degraded server for a while.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(server.degraded());

    // Heal and re-arm. Mutations are refused at admission while degraded
    // and the wait above flushed the in-flight ones, so no append can race
    // this SetPolicy.
    env.SetPolicy(FaultPolicy{});
    Status rearm = controller.Checkpoint();
    ASSERT_TRUE(rearm.ok()) << rearm.message();
    EXPECT_FALSE(server.degraded());

    // Post-heal probe: a mutation through the controller must succeed.
    Status probe = controller.Mutate([&victims](Database& db) {
      PROMETHEUS_RETURN_IF_ERROR(
          db.SetAttribute(victims[0], "a", Value::Int(-1)));
      return db.SetAttribute(victims[0], "b", Value::Int(-1));
    });
    ASSERT_TRUE(probe.ok()) << probe.message();
    ++cycles;
  } while (std::chrono::steady_clock::now() < chaos_end);

  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  server.Shutdown();

  // Hard invariants.
  EXPECT_EQ(reader_errors.load(), 0u);
  EXPECT_EQ(torn_pairs.load(), 0u);
  EXPECT_EQ(writer_anomalies.load(), 0u);
  // The harness actually exercised what it claims to: every cycle
  // degraded and re-armed, writers saw fast-fails, and plenty of traffic
  // flowed on both sides of the fault line.
  EXPECT_EQ(degraded_cycles, cycles);
  EXPECT_GE(cycles, 1);
  EXPECT_GT(writes_unavailable.load(), 0u);
  EXPECT_GT(writes_ok.load(), 0u);
  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_EQ(server.stats().unavailable, writes_unavailable.load());

  // The surviving state is internally consistent...
  for (Oid victim : victims) {
    auto a = store.value()->db().GetAttribute(victim, "a");
    auto b = store.value()->db().GetAttribute(victim, "b");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a.value().Equals(b.value())) << "torn pair on disk";
  }
  ASSERT_TRUE(store.value()->Sync().ok());
  store.value().reset();  // close the journal

  // ...and recovers identically from disk.
  auto reopened = DurableStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->db().object_count(),
            static_cast<std::size_t>(kVictims));
  for (Oid victim : reopened.value()->db().Extent("Victim")) {
    auto a = reopened.value()->db().GetAttribute(victim, "a");
    auto b = reopened.value()->db().GetAttribute(victim, "b");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a.value().Equals(b.value()))
        << "torn pair after recovery";
  }
  fs::remove_all(dir);
}

// MVCC under faults: a writer "crash" (a durability veto rolling back a
// transaction mid-flight, possibly mid-journal-append) must leave no
// partially visible version. Readers pin snapshots, so the only states
// they can ever observe are published post-section cuts — and a vetoed
// section publishes its *rolled-back* state. The writer tags every
// transaction with a unique value and records which ones actually
// committed; the readers record every value they ever saw. At the end the
// seen set must be a subset of {initial} ∪ committed — a single value from
// a rolled-back transaction in a reader's result set is a failure.
TEST(ChaosTest, RolledBackWritesNeverVisibleToPinnedReaders) {
  const std::string dir = ::testing::TempDir() + "/prometheus_chaos_mvcc";
  fs::remove_all(dir);
  FaultInjectionEnv env;

  DurableStore::Options store_options;
  store_options.env = &env;
  store_options.bootstrap = [](Database* db) {
    PROMETHEUS_RETURN_IF_ERROR(
        db->DefineClass("Victim", {},
                        {Attr("a", ValueType::kInt),
                         Attr("b", ValueType::kInt)})
            .status());
    return db
        ->CreateObject("Victim", {{"a", Value::Int(0)}, {"b", Value::Int(0)}})
        .status();
  };
  auto store = DurableStore::Open(dir, store_options);
  ASSERT_TRUE(store.ok()) << store.status().message();
  const Oid victim = store.value()->db().Extent("Victim")[0];

  Server::Options options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  options.store = store.value().get();
  Server server(&store.value()->db(), options);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn_pairs{0};
  std::atomic<std::uint64_t> reads_ok{0};

  constexpr int kMvccReaders = 3;
  std::vector<std::unordered_set<std::int64_t>> seen(kMvccReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kMvccReaders; ++r) {
    readers.emplace_back([&, r] {
      Client client(&server);
      while (!stop.load(std::memory_order_acquire)) {
        Response resp =
            client.Call(Request::Query("select v.a, v.b from Victim v"));
        if (resp.code != ResponseCode::kOk || !resp.status.ok()) continue;
        reads_ok.fetch_add(1);
        for (const auto& row : resp.result->rows) {
          if (!row[0].Equals(row[1])) torn_pairs.fetch_add(1);
          seen[r].insert(row[0].AsInt());
        }
      }
    });
  }

  // Writer + fault controller in one loop: values are unique per attempt,
  // and the fault policy flips while transactions are in flight so some
  // roll back mid-append.
  Client writer(&server);
  std::unordered_set<std::int64_t> committed;
  const auto chaos_end =
      std::chrono::steady_clock::now() + std::chrono::seconds(ChaosSeconds());
  std::int64_t value = 0;
  int cycles = 0;
  std::uint64_t rolled_back = 0;
  do {
    // Healthy writes.
    for (int i = 0; i < 20; ++i) {
      ++value;
      Status st = writer.Mutate([victim, value](Database& db) {
        PROMETHEUS_RETURN_IF_ERROR(db.Begin());
        Status s = db.SetAttribute(victim, "a", Value::Int(value));
        if (s.ok()) s = db.SetAttribute(victim, "b", Value::Int(value));
        if (!s.ok()) {
          (void)db.Abort();
          return s;
        }
        return db.Commit();
      });
      if (st.ok()) committed.insert(value);
    }

    // Break the journal mid-stream; the next transactions are vetoed and
    // rolled back (or refused once the server degrades).
    FaultPolicy broken;
    broken.fail_after_appends = cycles % 3;
    broken.torn_writes = (cycles % 2 == 0);
    ASSERT_TRUE(writer
                    .Mutate([&env, broken](Database&) {
                      env.SetPolicy(broken);
                      return Status::Ok();
                    })
                    .ok());
    for (int i = 0; i < 10; ++i) {
      ++value;
      Status st = writer.Mutate([victim, value](Database& db) {
        PROMETHEUS_RETURN_IF_ERROR(db.Begin());
        Status s = db.SetAttribute(victim, "a", Value::Int(value));
        if (s.ok()) s = db.SetAttribute(victim, "b", Value::Int(value));
        if (!s.ok()) {
          (void)db.Abort();
          return s;
        }
        return db.Commit();
      });
      if (st.ok()) {
        committed.insert(value);
      } else {
        ++rolled_back;
      }
    }

    // Wait for the degraded transition (the writes above guarantee the
    // store observed the fault), then heal and re-arm.
    ASSERT_TRUE(AwaitFor([&] { return server.degraded(); },
                         std::chrono::seconds(20)));
    env.SetPolicy(FaultPolicy{});
    ASSERT_TRUE(writer.Checkpoint().ok());
    ASSERT_FALSE(server.degraded());
    ++cycles;
  } while (std::chrono::steady_clock::now() < chaos_end);

  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  server.Shutdown();

  EXPECT_EQ(torn_pairs.load(), 0u);
  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_GT(rolled_back, 0u) << "no transaction ever rolled back; the "
                                "harness exercised nothing";
  for (int r = 0; r < kMvccReaders; ++r) {
    for (std::int64_t v : seen[r]) {
      EXPECT_TRUE(v == 0 || committed.count(v) > 0)
          << "reader " << r << " saw value " << v
          << " from a rolled-back transaction";
    }
  }
  fs::remove_all(dir);
}

// Regression: degraded read-only mode must keep serving result-cache hits.
// The Enqueue-side hit path sits before the degraded fast-fail (which only
// concerns mutations), so a degraded server still answers its hot set from
// cache — and `.cache` administration stays available too.
TEST(ChaosTest, DegradedModeKeepsServingCacheHits) {
  const std::string dir = ::testing::TempDir() + "/prometheus_chaos_cache";
  fs::remove_all(dir);
  FaultInjectionEnv env;

  DurableStore::Options store_options;
  store_options.env = &env;
  store_options.bootstrap = [](Database* db) {
    PROMETHEUS_RETURN_IF_ERROR(
        db->DefineClass("Victim", {},
                        {Attr("name", ValueType::kString),
                         Attr("a", ValueType::kInt)})
            .status());
    return db
        ->CreateObject("Victim", {{"name", Value::String("v")},
                                  {"a", Value::Int(42)}})
        .status();
  };
  auto store = DurableStore::Open(dir, store_options);
  ASSERT_TRUE(store.ok()) << store.status().message();
  const Oid victim = store.value()->db().Extent("Victim")[0];

  Server::Options options;
  options.store = store.value().get();
  Server server(&store.value()->db(), options);
  Client client(&server);
  const std::string q = "select v.a from Victim v where v.name = 'v'";

  // Healthy: warm, then hit.
  ASSERT_TRUE(client.Call(Request::Query(q)).ok());
  ASSERT_TRUE(client.Call(Request::Query(q)).cache_hit);

  // Break the journal; the next mutation fails and flips degraded mode.
  FaultPolicy broken;
  broken.fail_after_appends = 0;
  ASSERT_TRUE(client
                  .Mutate([&env, broken](Database&) {
                    env.SetPolicy(broken);
                    return Status::Ok();
                  })
                  .ok());
  Response failed_write =
      client.Call(Request::SetAttribute(victim, "a", Value::Int(99)));
  EXPECT_FALSE(failed_write.ok());
  ASSERT_TRUE(server.degraded());

  // The failed writer's guard bumped the epoch, so the first degraded
  // query re-executes (queries still serve) and re-warms the cache...
  Response rewarm = client.Call(Request::Query(q));
  ASSERT_TRUE(rewarm.ok());
  ASSERT_EQ(rewarm.result->rows.size(), 1u);
  EXPECT_EQ(rewarm.result->rows[0][0].AsInt(), 42);  // rolled back, not 99
  // ...and the second must hit *while degraded*: the bugfix under test.
  Response hit = client.Call(Request::Query(q));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.result->rows[0][0].AsInt(), 42);
  EXPECT_TRUE(server.degraded());

  // Cache administration is not a mutation: it serves in degraded mode.
  Response stats = client.Call(
      Request::CacheControl(prometheus::server::CacheOp::kStats));
  EXPECT_TRUE(stats.ok());

  // Heal + checkpoint so the directory is consistent at teardown. While
  // degraded, mutations are refused at admission and none is in flight,
  // so the direct SetPolicy cannot race an append.
  env.SetPolicy(FaultPolicy{});
  ASSERT_TRUE(client.Checkpoint().ok());
  EXPECT_FALSE(server.degraded());
  server.Shutdown();
  fs::remove_all(dir);
}

}  // namespace
