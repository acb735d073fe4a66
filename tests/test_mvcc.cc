// MVCC snapshot reads (src/core/oid_trie.h, snapshot.h, database.h and the
// server read path built on them):
//
//  - the persistent OidTrie version store: path copying, root growth,
//    structural sharing between consecutive versions;
//  - snapshot semantics: a pinned `DbSnapshot` is a frozen consistent cut —
//    later commits, in-flight write sections, DDL and aborted transactions
//    are all invisible to it, and a fresh acquire sees exactly the live
//    state at the current epoch;
//  - GC: superseded versions are freed the moment the last snapshot
//    reaching them is released (`mvcc::RetainedVersions`), and the pin
//    registry watermark (`oldest_pinned_epoch`) follows the handles;
//  - the result-cache epoch contract (the insert-race regression): entries
//    are stamped with the epoch the rows were *computed* at, so a writer
//    committing between execution and insertion can never launder stale
//    rows as fresh;
//  - a reader-pinning GC soak under writer churn, wall-clock-scaled by
//    PROMETHEUS_MVCC_SOAK_SECONDS (default 1; CI runs 30 under ASan).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/result_cache.h"
#include "core/database.h"
#include "core/oid_trie.h"
#include "core/snapshot.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::DbSnapshot;
using prometheus::Oid;
using prometheus::OidTrie;
using prometheus::SnapshotHandle;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::cache::ResultCache;
using prometheus::server::Client;
using prometheus::server::Request;
using prometheus::server::Response;
using prometheus::server::Server;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef def;
  def.name = std::move(name);
  def.type = type;
  return def;
}

int SoakSeconds() {
  const char* env = std::getenv("PROMETHEUS_MVCC_SOAK_SECONDS");
  if (env == nullptr) return 1;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : 1;
}

// ----------------------------------------------------------------- OidTrie

TEST(OidTrieTest, SetFindEraseAcrossRootGrowth) {
  OidTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.Find(1), nullptr);

  // Keys straddling several slot boundaries, including ones that force the
  // root to grow (64 = height 2, 64^3 + 5 = height 4).
  const Oid keys[] = {1, 63, 64, 65, 4095, 4096, 262144 + 5};
  for (Oid k : keys) {
    trie.Set(k, std::make_shared<const int>(static_cast<int>(k * 10)));
  }
  for (Oid k : keys) {
    ASSERT_NE(trie.Find(k), nullptr) << "key " << k;
    EXPECT_EQ(*trie.Find(k), static_cast<int>(k * 10));
  }
  EXPECT_EQ(trie.Find(2), nullptr);
  EXPECT_EQ(trie.Find(262144 + 6), nullptr);

  trie.Erase(64);
  EXPECT_EQ(trie.Find(64), nullptr);
  EXPECT_NE(trie.Find(63), nullptr);
  EXPECT_NE(trie.Find(65), nullptr);
  trie.Erase(64);  // idempotent
  EXPECT_EQ(trie.Find(64), nullptr);

  // Overwrite keeps the latest version only.
  trie.Set(1, std::make_shared<const int>(999));
  EXPECT_EQ(*trie.Find(1), 999);
}

TEST(OidTrieTest, CopiesAreImmutableAndStructurallyShared) {
  OidTrie<int> trie;
  for (Oid k = 1; k <= 200; ++k) {
    trie.Set(k, std::make_shared<const int>(static_cast<int>(k)));
  }

  OidTrie<int> snapshot = trie;  // O(1) structural share
  // The untouched entries are literally the same version objects.
  EXPECT_EQ(snapshot.Find(7), trie.Find(7));

  // Mutating the live trie path-copies around the shared structure: the
  // snapshot keeps the old version, untouched keys stay shared.
  trie.Set(7, std::make_shared<const int>(-7));
  trie.Erase(100);
  trie.Set(500, std::make_shared<const int>(500));

  EXPECT_EQ(*trie.Find(7), -7);
  ASSERT_NE(snapshot.Find(7), nullptr);
  EXPECT_EQ(*snapshot.Find(7), 7);
  EXPECT_EQ(trie.Find(100), nullptr);
  ASSERT_NE(snapshot.Find(100), nullptr);
  EXPECT_EQ(*snapshot.Find(100), 100);
  EXPECT_EQ(snapshot.Find(500), nullptr);
  EXPECT_NE(trie.Find(500), nullptr);
  // A key in an untouched subtree is still the shared version.
  EXPECT_EQ(snapshot.Find(3), trie.Find(3));
}

// ---------------------------------------------------------------- fixture

class MvccSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.DefineClass("Rec", {},
                                {Attr("name", ValueType::kString),
                                 Attr("a", ValueType::kInt),
                                 Attr("b", ValueType::kInt)})
                    .ok());
    ASSERT_TRUE(db_.DefineRelationship("refs", "Rec", "Rec").ok());
    for (int i = 0; i < 4; ++i) {
      auto oid = db_.CreateObject(
          "Rec", {{"name", Value::String("r" + std::to_string(i))},
                  {"a", Value::Int(i)},
                  {"b", Value::Int(i)}});
      ASSERT_TRUE(oid.ok());
      recs_.push_back(oid.value());
    }
    ASSERT_TRUE(db_.CreateLink("refs", recs_[0], recs_[1]).ok());
  }

  Database db_;
  std::vector<Oid> recs_;
};

TEST_F(MvccSnapshotTest, SnapshotMatchesLiveCutExactly) {
  SnapshotHandle snap = db_.AcquireSnapshot();
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->epoch(), db_.epoch());
  EXPECT_EQ(snap->object_count(), db_.object_count());
  EXPECT_EQ(snap->link_count(), db_.link_count());
  EXPECT_EQ(snap->Extent("Rec"), db_.Extent("Rec"));
  EXPECT_NE(snap->FindClass("Rec"), nullptr);
  EXPECT_NE(snap->FindRelationship("refs"), nullptr);
  for (Oid oid : recs_) {
    EXPECT_TRUE(snap->IsInstanceOf(oid, "Rec"));
    auto live = db_.GetAttribute(oid, "a");
    auto seen = snap->GetAttribute(oid, "a");
    ASSERT_TRUE(live.ok() && seen.ok());
    EXPECT_TRUE(live.value().Equals(seen.value()));
  }
  EXPECT_EQ(snap->Neighbors(recs_[0], "refs"), db_.Neighbors(recs_[0], "refs"));
}

TEST_F(MvccSnapshotTest, PinnedSnapshotIgnoresLaterCommits) {
  SnapshotHandle snap = db_.AcquireSnapshot();
  const std::uint64_t pinned_epoch = snap->epoch();

  // Three committed write sections: update, create, delete.
  {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.SetAttribute(recs_[0], "a", Value::Int(100)).ok());
    ASSERT_TRUE(db_.SetAttribute(recs_[0], "b", Value::Int(100)).ok());
  }
  Oid fresh = prometheus::kNullOid;
  {
    Database::WriteGuard g(db_);
    auto oid = db_.CreateObject("Rec", {{"name", Value::String("late")},
                                        {"a", Value::Int(9)},
                                        {"b", Value::Int(9)}});
    ASSERT_TRUE(oid.ok());
    fresh = oid.value();
  }
  {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.DeleteObject(recs_[3]).ok());
  }

  // The pinned cut is frozen at its epoch.
  EXPECT_EQ(snap->epoch(), pinned_epoch);
  EXPECT_EQ(db_.epoch(), pinned_epoch + 3);
  EXPECT_EQ(snap->GetAttribute(recs_[0], "a").value().AsInt(), 0);
  EXPECT_EQ(snap->GetObject(fresh), nullptr);
  EXPECT_NE(snap->GetObject(recs_[3]), nullptr);
  EXPECT_EQ(snap->Extent("Rec").size(), 4u);

  // A fresh acquire sees all three commits at the bumped epoch.
  SnapshotHandle now = db_.AcquireSnapshot();
  EXPECT_EQ(now->epoch(), pinned_epoch + 3);
  EXPECT_EQ(now->GetAttribute(recs_[0], "a").value().AsInt(), 100);
  EXPECT_NE(now->GetObject(fresh), nullptr);
  EXPECT_EQ(now->GetObject(recs_[3]), nullptr);
  EXPECT_EQ(now->Extent("Rec").size(), 4u);  // +1 created, -1 deleted
}

TEST_F(MvccSnapshotTest, HalfAppliedWriteSectionInvisibleToNewReaders) {
  // Engage MVCC before the writer starts so the acquire below stays on the
  // lock-free fast path (it must not need the guard the writer holds).
  (void)db_.AcquireSnapshot();
  const std::uint64_t before = db_.epoch();

  std::atomic<bool> half_applied{false};
  std::atomic<bool> release_writer{false};
  std::thread writer([&] {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.SetAttribute(recs_[1], "a", Value::Int(77)).ok());
    half_applied.store(true, std::memory_order_release);
    while (!release_writer.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(db_.SetAttribute(recs_[1], "b", Value::Int(77)).ok());
  });

  while (!half_applied.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // The writer sits mid-section with a torn pair in the live store. A
  // reader admitted now still gets the last *published* cut: consistent,
  // pre-section, and acquired without blocking on the held guard.
  SnapshotHandle mid = db_.AcquireSnapshot();
  EXPECT_EQ(mid->epoch(), before);
  EXPECT_EQ(mid->GetAttribute(recs_[1], "a").value().AsInt(), 1);
  EXPECT_EQ(mid->GetAttribute(recs_[1], "b").value().AsInt(), 1);

  release_writer.store(true, std::memory_order_release);
  writer.join();

  SnapshotHandle after = db_.AcquireSnapshot();
  EXPECT_EQ(after->epoch(), before + 1);
  EXPECT_EQ(after->GetAttribute(recs_[1], "a").value().AsInt(), 77);
  EXPECT_EQ(after->GetAttribute(recs_[1], "b").value().AsInt(), 77);
}

TEST_F(MvccSnapshotTest, DdlCommitsAtomicallyForSnapshots) {
  SnapshotHandle pinned = db_.AcquireSnapshot();

  // One write section defines a subclass and populates it.
  {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.DefineClass("SubRec", {"Rec"}, {}).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(db_.CreateObject(
                         "SubRec",
                         {{"name", Value::String("s" + std::to_string(i))},
                          {"a", Value::Int(0)},
                          {"b", Value::Int(0)}})
                      .ok());
    }
  }

  // The pinned snapshot predates the DDL entirely: no class, no instances,
  // and the deep extent of the base class is untouched.
  EXPECT_EQ(pinned->FindClass("SubRec"), nullptr);
  EXPECT_EQ(pinned->Extent("Rec").size(), 4u);

  // A fresh snapshot sees the class *and* all of its instances — never a
  // cut between the two.
  SnapshotHandle now = db_.AcquireSnapshot();
  ASSERT_NE(now->FindClass("SubRec"), nullptr);
  EXPECT_EQ(now->Extent("SubRec").size(), 3u);
  EXPECT_EQ(now->Extent("Rec").size(), 7u);
}

TEST_F(MvccSnapshotTest, AbortedTransactionNeverVisibleInAnySnapshot) {
  (void)db_.AcquireSnapshot();  // engage
  const std::uint64_t before = db_.epoch();
  {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.Begin().ok());
    ASSERT_TRUE(db_.SetAttribute(recs_[2], "a", Value::Int(500)).ok());
    ASSERT_TRUE(db_.CreateObject("Rec", {{"name", Value::String("ghost")},
                                         {"a", Value::Int(0)},
                                         {"b", Value::Int(0)}})
                    .ok());
    ASSERT_TRUE(db_.Abort().ok());
  }
  // The section committed nothing, but it still closes with a (restamped)
  // publish: the epoch advances, the state does not.
  SnapshotHandle snap = db_.AcquireSnapshot();
  EXPECT_EQ(snap->epoch(), before + 1);
  EXPECT_EQ(snap->GetAttribute(recs_[2], "a").value().AsInt(), 2);
  EXPECT_EQ(snap->Extent("Rec").size(), 4u);
  EXPECT_EQ(snap->object_count(), db_.object_count());
}

TEST_F(MvccSnapshotTest, UntouchedRecordsAreOneCopyInStoreAndSnapshot) {
  SnapshotHandle pinned = db_.AcquireSnapshot();
  // Published, untouched records are the very same versions in the live
  // store and in the snapshot: there is one copy of the data.
  for (Oid oid : recs_) {
    EXPECT_EQ(db_.GetObject(oid), pinned->GetObject(oid)) << "@" << oid;
  }

  {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.SetAttribute(recs_[2], "a", Value::Int(20)).ok());
  }

  // Only the written record was copied; the pinned snapshot keeps the old
  // version and still shares every other record with the live store.
  for (Oid oid : recs_) {
    if (oid == recs_[2]) {
      EXPECT_NE(db_.GetObject(oid), pinned->GetObject(oid));
    } else {
      EXPECT_EQ(db_.GetObject(oid), pinned->GetObject(oid)) << "@" << oid;
    }
  }
  EXPECT_EQ(pinned->GetAttribute(recs_[2], "a").value().AsInt(), 2);

  // The snapshot published by the write section shares every record.
  SnapshotHandle now = db_.AcquireSnapshot();
  for (Oid oid : recs_) {
    EXPECT_EQ(db_.GetObject(oid), now->GetObject(oid)) << "@" << oid;
  }
}

TEST_F(MvccSnapshotTest, UnguardedMutationVisibleToNextAcquire) {
  SnapshotHandle first = db_.AcquireSnapshot();

  // Single-threaded use needs no guard: these mutations close no write
  // section and publish nothing by themselves.
  ASSERT_TRUE(db_.SetAttribute(recs_[3], "a", Value::Int(33)).ok());
  auto fresh = db_.CreateObject("Rec", {{"name", Value::String("unguarded")},
                                        {"a", Value::Int(0)},
                                        {"b", Value::Int(0)}});
  ASSERT_TRUE(fresh.ok());

  SnapshotHandle next = db_.AcquireSnapshot();
  EXPECT_EQ(next->epoch(), first->epoch());  // no write section closed
  EXPECT_EQ(next->GetAttribute(recs_[3], "a").value().AsInt(), 33);
  EXPECT_NE(next->GetObject(fresh.value()), nullptr);
  EXPECT_EQ(next->object_count(), db_.object_count());

  // The earlier pin is untouched by the republish.
  EXPECT_EQ(first->GetAttribute(recs_[3], "a").value().AsInt(), 3);
  EXPECT_EQ(first->GetObject(fresh.value()), nullptr);
}

// --------------------------------------------------------------------- GC

TEST(MvccGcTest, SupersededVersionsFreeWhenLastPinReleases) {
  Database db;
  ASSERT_TRUE(
      db.DefineClass("Rec", {}, {Attr("v", ValueType::kInt)}).ok());
  std::vector<Oid> recs;
  for (int i = 0; i < 8; ++i) {
    auto oid = db.CreateObject("Rec", {{"v", Value::Int(0)}});
    ASSERT_TRUE(oid.ok());
    recs.push_back(oid.value());
  }

  SnapshotHandle old_pin = db.AcquireSnapshot();
  const std::uint64_t baseline = prometheus::mvcc::RetainedVersions();
  EXPECT_EQ(db.pinned_snapshots(), 1u);
  EXPECT_EQ(db.oldest_pinned_epoch(), old_pin->epoch());

  // Rewrite one record many times. Intermediate versions are dropped as
  // each publish supersedes the last; only the version `old_pin` reaches
  // and the current one stay alive.
  for (int i = 1; i <= 50; ++i) {
    Database::WriteGuard g(db);
    ASSERT_TRUE(db.SetAttribute(recs[0], "v", Value::Int(i)).ok());
  }
  const std::uint64_t churned = prometheus::mvcc::RetainedVersions();
  EXPECT_GT(churned, baseline);       // the pinned old version is retained
  EXPECT_LT(churned, baseline + 10);  // ...but not one per rewrite

  SnapshotHandle new_pin = db.AcquireSnapshot();
  EXPECT_EQ(db.pinned_snapshots(), 2u);
  EXPECT_EQ(db.oldest_pinned_epoch(), old_pin->epoch());

  // Releasing the old pin frees every version only it reached, on the
  // spot — refcount reclamation, no GC thread to wait for.
  old_pin = SnapshotHandle();
  EXPECT_EQ(db.pinned_snapshots(), 1u);
  EXPECT_EQ(db.oldest_pinned_epoch(), new_pin->epoch());
  EXPECT_LE(prometheus::mvcc::RetainedVersions(), baseline);

  new_pin = SnapshotHandle();
  EXPECT_EQ(db.pinned_snapshots(), 0u);
  EXPECT_EQ(db.oldest_pinned_epoch(), db.epoch());
}

// ------------------------------------------------------- writer churn race

TEST(MvccConcurrencyTest, ReadersNeverSeeTornPairsUnderWriterChurn) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Rec", {},
                             {Attr("a", ValueType::kInt),
                              Attr("b", ValueType::kInt)})
                  .ok());
  std::vector<Oid> recs;
  for (int i = 0; i < 4; ++i) {
    auto oid =
        db.CreateObject("Rec", {{"a", Value::Int(0)}, {"b", Value::Int(0)}});
    ASSERT_TRUE(oid.ok());
    recs.push_back(oid.value());
  }
  (void)db.AcquireSnapshot();  // engage before the threads start

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> epoch_regressions{0};
  std::atomic<std::uint64_t> reads{0};

  std::thread writer([&] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ++i;
      Database::WriteGuard g(db);
      for (Oid oid : recs) {
        ASSERT_TRUE(db.SetAttribute(oid, "a", Value::Int(i)).ok());
        ASSERT_TRUE(db.SetAttribute(oid, "b", Value::Int(i)).ok());
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotHandle snap = db.AcquireSnapshot();
        if (snap->epoch() < last_epoch) epoch_regressions.fetch_add(1);
        last_epoch = snap->epoch();
        for (Oid oid : recs) {
          auto a = snap->GetAttribute(oid, "a");
          auto b = snap->GetAttribute(oid, "b");
          if (!a.ok() || !b.ok() || !a.value().Equals(b.value())) {
            torn.fetch_add(1);
          }
        }
        reads.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(epoch_regressions.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(db.pinned_snapshots(), 0u);
}

// ---------------------------------------------------- cache epoch contract

// The insert-race regression, deterministically: a query executes against
// a pinned snapshot at epoch E; a writer commits (epoch E+1) *before* the
// result is inserted. The server stamps the entry with the snapshot's
// epoch (E) — the epoch the rows were computed at — so the next lookup
// (validating against the current epoch E+1) must miss. Stamping the
// insert-time epoch instead (the old protocol, where insertion happened
// under the same read guard that computed the rows) would serve the stale
// rows as fresh.
TEST(MvccCacheTest, RanAtEpochStampNeverServesStaleRowsAfterLaterCommit) {
  Database db;
  ASSERT_TRUE(
      db.DefineClass("Rec", {}, {Attr("v", ValueType::kInt)}).ok());
  auto oid = db.CreateObject("Rec", {{"v", Value::Int(1)}});
  ASSERT_TRUE(oid.ok());

  ResultCache cache{ResultCache::Config{}};
  const std::string key = "select r.v from Rec r";

  SnapshotHandle snap = db.AcquireSnapshot();
  auto rows = std::make_shared<prometheus::pool::ResultSet>();
  rows->columns = {"v"};
  rows->rows = {{snap->GetAttribute(oid.value(), "v").value()}};

  // The racing writer lands between execution and insertion.
  {
    Database::WriteGuard g(db);
    ASSERT_TRUE(db.SetAttribute(oid.value(), "v", Value::Int(2)).ok());
  }
  ASSERT_NE(snap->epoch(), db.epoch());

  cache.Insert(key, snap->epoch(), rows, 64);

  // The entry is present and serves at the epoch it was computed at — but
  // a current-epoch lookup must miss (and lazily erases the stale entry).
  EXPECT_NE(cache.Lookup(key, snap->epoch()), nullptr);
  EXPECT_EQ(cache.Lookup(key, db.epoch()), nullptr);
}

// The same contract end-to-end through the server under a real race:
// readers hammer one query text (constantly re-warming the cache) while a
// churn writer bumps the epoch on an unrelated object. After every write
// to the checked object, a read of the same text must observe it —
// whether served from cache or re-executed. A current-epoch stamp would
// let a reader that executed before the write but inserted after it
// poison the cache with the old value.
TEST(MvccCacheTest, CacheHitsNeverServeStaleRowsUnderConcurrentWriters) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Rec", {},
                             {Attr("name", ValueType::kString),
                              Attr("v", ValueType::kInt)})
                  .ok());
  auto checked = db.CreateObject(
      "Rec", {{"name", Value::String("checked")}, {"v", Value::Int(0)}});
  auto churned = db.CreateObject(
      "Rec", {{"name", Value::String("churn")}, {"v", Value::Int(0)}});
  ASSERT_TRUE(checked.ok() && churned.ok());

  Server::Options options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  Server server(&db, options);

  const std::string q = "select r.v from Rec r where r.name = 'checked'";
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Client churner(&server);
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      (void)churner.SetAttribute(churned.value(), "v", Value::Int(++i));
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      Client reader(&server);
      while (!stop.load(std::memory_order_acquire)) {
        (void)reader.Query(q);
      }
    });
  }

  Client checker(&server);
  for (std::int64_t i = 1; i <= 200; ++i) {
    ASSERT_TRUE(checker.SetAttribute(checked.value(), "v", Value::Int(i)).ok());
    auto rs = checker.Query(q);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_EQ(rs.value().rows.size(), 1u);
    EXPECT_EQ(rs.value().rows[0][0].AsInt(), i) << "stale read at round " << i;
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  server.Shutdown();
}

// -------------------------------------------------------------------- soak

// Reader-pinning GC soak: staggered snapshot lifetimes under constant
// writer churn. Throughout, retention must track the *oldest pin*, not the
// churn volume; at the end, with every handle released, exactly one
// published snapshot's worth of versions remains.
TEST(MvccSoakTest, ReaderPinningGcSoakReclaimsEverything) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Rec", {},
                             {Attr("a", ValueType::kInt),
                              Attr("b", ValueType::kInt)})
                  .ok());
  std::vector<Oid> recs;
  for (int i = 0; i < 16; ++i) {
    auto oid =
        db.CreateObject("Rec", {{"a", Value::Int(0)}, {"b", Value::Int(0)}});
    ASSERT_TRUE(oid.ok());
    recs.push_back(oid.value());
  }
  (void)db.AcquireSnapshot();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> acquired{0};

  std::thread writer([&] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ++i;
      Database::WriteGuard g(db);
      const Oid oid = recs[static_cast<std::size_t>(i) % recs.size()];
      ASSERT_TRUE(db.SetAttribute(oid, "a", Value::Int(i)).ok());
      ASSERT_TRUE(db.SetAttribute(oid, "b", Value::Int(i)).ok());
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      // Each reader keeps a small ladder of pinned snapshots with
      // staggered lifetimes: the oldest rung can pin versions dozens of
      // write sections old before it rotates out.
      std::vector<SnapshotHandle> ladder;
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ladder.push_back(db.AcquireSnapshot());
        acquired.fetch_add(1);
        const SnapshotHandle& snap = ladder.back();
        for (Oid oid : recs) {
          auto a = snap->GetAttribute(oid, "a");
          auto b = snap->GetAttribute(oid, "b");
          if (!a.ok() || !b.ok() || !a.value().Equals(b.value())) {
            torn.fetch_add(1);
          }
        }
        if (ladder.size() > static_cast<std::size_t>(2 + r)) {
          ladder.erase(ladder.begin());  // release the oldest pin
        }
        if (++i % 64 == 0) std::this_thread::yield();
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(SoakSeconds()));
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(acquired.load(), 0u);
  // Every pin is gone: the registry is empty, the watermark is current,
  // and retention has collapsed to the one published snapshot (a version
  // per live object plus one per live link — here there are no links).
  EXPECT_EQ(db.pinned_snapshots(), 0u);
  EXPECT_EQ(db.oldest_pinned_epoch(), db.epoch());
  EXPECT_EQ(prometheus::mvcc::RetainedVersions(),
            db.object_count() + db.link_count());
}

}  // namespace
