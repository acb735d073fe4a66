// The query cache (src/cache/): plan-tier LRU and schema-generation
// invalidation, result-tier byte-budgeted LRU and epoch validation, the
// server integration (hit/miss envelope flags, kCacheControl, PROFILE of a
// hit, rows shared between the entry and every response that serves them,
// and their lifetime), and the staleness stress the subsystem's
// correctness claim rests on — concurrent readers over cached entries must
// never observe a result older than the writes they provably happened
// after.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/plan_cache.h"
#include "cache/query_cache.h"
#include "cache/result_cache.h"
#include "cache/result_size.h"
#include "json_check.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::Oid;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::cache::PlanCache;
using prometheus::cache::PlanEntry;
using prometheus::cache::QueryCache;
using prometheus::cache::QueryCacheConfig;
using prometheus::cache::ResultCache;
using prometheus::pool::ResultSet;
using prometheus::server::CacheOp;
using prometheus::server::Client;
using prometheus::server::Request;
using prometheus::server::Response;
using prometheus::server::ResponseCode;
using prometheus::server::Server;
using prometheus::testing::JsonChecker;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef def;
  def.name = std::move(name);
  def.type = type;
  return def;
}

std::shared_ptr<const ResultSet> MakeRows(std::int64_t v) {
  auto rs = std::make_shared<ResultSet>();
  rs->columns = {"v"};
  rs->rows.push_back({Value::Int(v)});
  return rs;
}

// ------------------------------------------------------------ plan cache

TEST(PlanCacheTest, LookupReturnsInsertedEntryUntilLruEvicts) {
  PlanCache cache(PlanCache::Config{/*max_entries=*/2, /*enabled=*/true});
  cache.Insert("q1", std::make_shared<PlanEntry>());
  cache.Insert("q2", std::make_shared<PlanEntry>());
  EXPECT_NE(cache.Lookup("q1"), nullptr);
  EXPECT_NE(cache.Lookup("q2"), nullptr);
  // q1 was touched least recently... no: Lookup refreshed both; q1 is now
  // the older of the two, so a third insert evicts it.
  cache.Insert("q3", std::make_shared<PlanEntry>());
  EXPECT_EQ(cache.Lookup("q1"), nullptr);
  EXPECT_NE(cache.Lookup("q2"), nullptr);
  EXPECT_NE(cache.Lookup("q3"), nullptr);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(PlanCacheTest, SchemaChangeInvalidatesLazily) {
  PlanCache cache(PlanCache::Config{});
  cache.Insert("q", std::make_shared<PlanEntry>());
  EXPECT_NE(cache.Lookup("q"), nullptr);
  cache.OnSchemaChange();
  EXPECT_EQ(cache.schema_generation(), 1u);
  // The stale entry is erased by the lookup that discovers it.
  EXPECT_EQ(cache.Lookup("q"), nullptr);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.entries, 0u);
  // Re-inserted under the new generation, it serves again.
  cache.Insert("q", std::make_shared<PlanEntry>());
  EXPECT_NE(cache.Lookup("q"), nullptr);
}

TEST(PlanCacheTest, DisabledCacheNeverServes) {
  PlanCache cache(PlanCache::Config{/*max_entries=*/8, /*enabled=*/false});
  cache.Insert("q", std::make_shared<PlanEntry>());
  EXPECT_EQ(cache.Lookup("q"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------- result cache

TEST(ResultCacheTest, EpochMismatchInvalidatesEntry) {
  ResultCache cache(ResultCache::Config{});
  cache.Insert("q", /*epoch=*/7, MakeRows(1), /*bytes=*/100);
  std::shared_ptr<const ResultSet> hit = cache.Lookup("q", 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows[0][0].AsInt(), 1);
  // A bumped epoch (any committed write) makes the entry unservable; the
  // discovering lookup erases it.
  EXPECT_EQ(cache.Lookup("q", 8), nullptr);
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(ResultCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  ResultCache::Config config;
  config.max_bytes = 300;
  config.shards = 1;  // deterministic: all keys share one budget slice
  config.max_entry_bytes = 300;
  ResultCache cache(config);
  cache.Insert("a", 1, MakeRows(1), 100);
  cache.Insert("b", 1, MakeRows(2), 100);
  cache.Insert("c", 1, MakeRows(3), 100);
  EXPECT_EQ(cache.stats().entries, 3u);
  // Touch "a" so "b" is the LRU victim when "d" overflows the budget.
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  cache.Insert("d", 1, MakeRows(4), 100);
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  EXPECT_NE(cache.Lookup("c", 1), nullptr);
  EXPECT_NE(cache.Lookup("d", 1), nullptr);
  const ResultCache::Stats s = cache.stats();
  EXPECT_GE(s.evictions, 1u);
  EXPECT_LE(s.bytes, 300u);
}

TEST(ResultCacheTest, OversizeResultsAreNeverCached) {
  ResultCache::Config config;
  config.max_bytes = 1u << 20;
  config.max_entry_bytes = 64;
  ResultCache cache(config);
  cache.Insert("big", 1, MakeRows(1), 1000);
  EXPECT_EQ(cache.Lookup("big", 1), nullptr);
  EXPECT_EQ(cache.stats().oversize, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, ClearDropsEverything) {
  ResultCache cache(ResultCache::Config{});
  cache.Insert("a", 1, MakeRows(1), 10);
  cache.Insert("b", 1, MakeRows(2), 10);
  cache.Clear();
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ResultCacheTest, OlderEpochNeverEvictsAFresherEntry) {
  // A reader pinned at epoch 5 finishes after one pinned at epoch 6: its
  // rows could never serve, so the epoch-6 entry must stay. So must it
  // when a lookup that read epoch 5 just before the commit arrives late.
  ResultCache cache(ResultCache::Config{});
  const auto fresh = MakeRows(6);
  cache.Insert("q", 6, fresh, 10);
  cache.Insert("q", 5, MakeRows(5), 10);
  EXPECT_EQ(cache.Lookup("q", 5), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.Lookup("q", 6), fresh);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, 10u);
  // A fresher insert still replaces an older entry.
  const auto newer = MakeRows(7);
  cache.Insert("q", 7, newer, 10);
  EXPECT_EQ(cache.Lookup("q", 7), newer);
}

TEST(ResultCacheTest, ApproxResultBytesCountsStringsAndRows) {
  ResultSet rs;
  rs.columns = {"name"};
  rs.rows.push_back({Value::String(std::string(1000, 'x'))});
  EXPECT_GE(prometheus::cache::ApproxResultBytes(rs), 1000u);
}

// ----------------------------------------------------- server integration

/// The `/query` body of `resp`, as the HTTP plane sends it, checked as
/// strict JSON.
std::string RenderBody(const Response& resp) {
  const std::string body = prometheus::server::RenderQueryBody(resp);
  EXPECT_EQ(JsonChecker::Validate(body), "") << body;
  return body;
}

std::unique_ptr<Database> MakePartsDb() {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->DefineClass("Part", {},
                              {Attr("name", ValueType::kString),
                               Attr("a", ValueType::kInt)})
                  .ok());
  return db;
}

TEST(ServerCacheTest, SecondIdenticalQueryHitsWithSameRows) {
  auto db = MakePartsDb();
  {
    Database::WriteGuard guard(*db);
    ASSERT_TRUE(db->CreateObject("Part", {{"name", Value::String("bolt")},
                                          {"a", Value::Int(7)}})
                    .ok());
  }
  Server server(db.get());
  auto client = std::make_unique<Client>(&server);
  const std::string q = "select p.a from Part p where p.name = 'bolt'";

  Response first = client->Call(Request::Query(q));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.cache_checked);
  EXPECT_FALSE(first.cache_hit);

  Response second = client->Call(Request::Query(q));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_checked);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.executed);
  EXPECT_EQ(second.epoch, first.epoch);
  ASSERT_EQ(second.result->rows.size(), 1u);
  EXPECT_EQ(second.result->rows[0][0].AsInt(), 7);

  // A hit is an accepted, executed query in the books.
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_GE(server.query_cache().results().stats().hits, 1u);
}

TEST(ServerCacheTest, HitsShareTheCacheEntrysRows) {
  auto db = MakePartsDb();
  {
    Database::WriteGuard guard(*db);
    ASSERT_TRUE(db->CreateObject("Part", {{"name", Value::String("bolt")},
                                          {"a", Value::Int(7)}})
                    .ok());
  }
  Server server(db.get());
  Client client(&server);
  const std::string q = "select p.a from Part p";
  const Response miss = client.Call(Request::Query(q));
  const Response hit1 = client.Call(Request::Query(q));
  const Response hit2 = client.Call(Request::Query(q));
  ASSERT_TRUE(miss.ok() && hit1.ok() && hit2.ok());
  ASSERT_TRUE(hit1.cache_hit && hit2.cache_hit);
  // One object, no copies: the miss moved its rows into the entry, and
  // both hits point at that same entry.
  const std::shared_ptr<const ResultSet> entry =
      server.query_cache().results().Lookup(q, db->epoch());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(miss.result, entry);
  EXPECT_EQ(hit1.result, entry);
  EXPECT_EQ(hit2.result, entry);
  // The in-process client still hands back a copy of its own.
  auto rows = client.Query(q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().rows, entry->rows);
}

TEST(ServerCacheTest, HeldResponseOutlivesClearAndWrites) {
  auto db = MakePartsDb();
  Oid oid;
  {
    Database::WriteGuard guard(*db);
    auto created = db->CreateObject(
        "Part", {{"name", Value::String(std::string(64, 'n'))},
                 {"a", Value::Int(1)}});
    ASSERT_TRUE(created.ok());
    oid = created.value();
  }
  Server server(db.get());
  Client client(&server);
  const std::string q = "select p.name, p.a from Part p";
  ASSERT_TRUE(client.Call(Request::Query(q)).ok());
  const Response held = client.Call(Request::Query(q));
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held.cache_hit);

  // Drop the entry, then commit writes and cache their results: the held
  // response keeps its rows alive and unchanged (ASan flags a read of
  // freed rows here).
  ASSERT_TRUE(client.Call(Request::CacheControl(CacheOp::kClear)).ok());
  for (int i = 2; i <= 4; ++i) {
    ASSERT_TRUE(client.SetAttribute(oid, "a", Value::Int(i)).ok());
    ASSERT_TRUE(client.SetAttribute(oid, "name", Value::String("m")).ok());
    const Response now = client.Call(Request::Query(q));
    ASSERT_TRUE(now.ok());
    EXPECT_EQ(now.result->rows[0][1].AsInt(), i);
  }
  ASSERT_EQ(held.result->rows.size(), 1u);
  EXPECT_EQ(held.result->rows[0][0].AsString(), std::string(64, 'n'));
  EXPECT_EQ(held.result->rows[0][1].AsInt(), 1);
}

// A reader that pinned an older snapshot and finishes after a write
// committed must not evict the entry a reader at the newer epoch stored
// meanwhile. The query is a 300 x 300 join, slow enough for a write to
// commit while it runs; an attempt in which the two did not overlap is
// retried.
TEST(ServerCacheTest, LateReaderOnAnOlderSnapshotKeepsTheFresherEntry) {
  auto db = MakePartsDb();
  Oid oid;
  {
    Database::WriteGuard guard(*db);
    for (int i = 0; i < 300; ++i) {
      auto created = db->CreateObject(
          "Part", {{"name", Value::String("p" + std::to_string(i))},
                   {"a", Value::Int(i)}});
      ASSERT_TRUE(created.ok());
      oid = created.value();
    }
  }
  Server::Options options;
  options.worker_threads = 2;
  Server server(db.get(), options);
  Client reader(&server);
  Client writer(&server);
  ResultCache& results = server.query_cache().results();
  const std::string q = "select a.a from Part a, Part b where a.a + b.a = 1";
  bool overlapped = false;
  for (int attempt = 0; attempt < 20 && !overlapped; ++attempt) {
    std::future<Response> late = reader.Submit(Request::Query(q));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(writer.SetAttribute(oid, "a", Value::Int(1000 + attempt))
                    .ok());
    if (late.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      ASSERT_TRUE(late.get().ok());
      continue;  // finished before the write committed
    }
    // What a reader that pinned the new snapshot would have stored.
    const std::uint64_t fresh_epoch = db->epoch();
    const auto fresh = MakeRows(1);
    results.Insert(q, fresh_epoch, fresh, 64);
    const std::uint64_t inserts = results.stats().inserts;
    const Response resp = late.get();
    ASSERT_TRUE(resp.ok());
    if (resp.epoch == fresh_epoch) continue;  // pinned after the write
    overlapped = true;
    EXPECT_LT(resp.epoch, fresh_epoch);
    EXPECT_FALSE(resp.cache_hit);
    EXPECT_EQ(resp.result->rows.size(), 2u);  // (0, 1) and (1, 0)
    EXPECT_EQ(results.stats().inserts, inserts);
    EXPECT_EQ(results.Lookup(q, fresh_epoch), fresh);
  }
  EXPECT_TRUE(overlapped) << "no attempt overlapped a write with the query";
}

TEST(ServerCacheTest, CommittedWriteInvalidatesCachedResult) {
  auto db = MakePartsDb();
  Oid oid;
  {
    Database::WriteGuard guard(*db);
    auto created = db->CreateObject("Part", {{"name", Value::String("nut")},
                                             {"a", Value::Int(1)}});
    ASSERT_TRUE(created.ok());
    oid = created.value();
  }
  Server server(db.get());
  auto client = std::make_unique<Client>(&server);
  const std::string q = "select p.a from Part p where p.name = 'nut'";

  ASSERT_TRUE(client->Call(Request::Query(q)).ok());  // warm
  ASSERT_TRUE(client->Call(Request::SetAttribute(oid, "a", Value::Int(2)))
                  .ok());
  Response after = client->Call(Request::Query(q));
  ASSERT_TRUE(after.ok());
  // Never the stale 1: the epoch bump made the cached entry unservable.
  EXPECT_FALSE(after.cache_hit);
  ASSERT_EQ(after.result->rows.size(), 1u);
  EXPECT_EQ(after.result->rows[0][0].AsInt(), 2);
  EXPECT_GE(server.query_cache().results().stats().invalidations, 1u);
}

TEST(ServerCacheTest, SchemaDdlBumpsPlanGeneration) {
  auto db = MakePartsDb();
  Server server(db.get());
  auto client = std::make_unique<Client>(&server);
  const std::string q = "select p.name from Part p";
  ASSERT_TRUE(client->Call(Request::Query(q)).ok());
  const std::uint64_t gen_before =
      server.query_cache().plans().schema_generation();
  ASSERT_TRUE(client
                  ->Call(Request::Custom([](Database& d) {
                    return d
                        .DefineClass("Widget", {},
                                     {Attr("w", ValueType::kInt)})
                        .status();
                  }))
                  .ok());
  EXPECT_GT(server.query_cache().plans().schema_generation(), gen_before);
  // The replanned query still answers correctly.
  Response after = client->Call(Request::Query(q));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.result->rows.size(), 0u);
}

TEST(ServerCacheTest, CacheControlRoundTrip) {
  auto db = MakePartsDb();
  Server server(db.get());
  auto client = std::make_unique<Client>(&server);
  const std::string q = "select p.name from Part p";
  ASSERT_TRUE(client->Call(Request::Query(q)).ok());
  ASSERT_TRUE(client->Call(Request::Query(q)).cache_hit);

  // stats: the sys.cache field/value rows, covering both tiers.
  Response stats = client->Call(Request::CacheControl(CacheOp::kStats));
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.result->columns,
            (std::vector<std::string>{"field", "value"}));
  std::set<std::string> fields;
  for (const auto& row : stats.result->rows) fields.insert(row[0].AsString());
  EXPECT_EQ(fields.count("result_hits"), 1u);
  EXPECT_EQ(fields.count("plan_hits"), 1u);

  // clear: the warmed entry is gone, the next run misses.
  ASSERT_TRUE(client->Call(Request::CacheControl(CacheOp::kClear)).ok());
  EXPECT_EQ(server.query_cache().results().stats().entries, 0u);
  EXPECT_FALSE(client->Call(Request::Query(q)).cache_hit);

  // off: queries stop consulting the cache entirely.
  ASSERT_TRUE(client->Call(Request::CacheControl(CacheOp::kDisable)).ok());
  Response off = client->Call(Request::Query(q));
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.cache_checked);

  // on: the first run re-warms, the second hits again.
  ASSERT_TRUE(client->Call(Request::CacheControl(CacheOp::kEnable)).ok());
  ASSERT_TRUE(client->Call(Request::Query(q)).ok());
  EXPECT_TRUE(client->Call(Request::Query(q)).cache_hit);
}

TEST(ServerCacheTest, ProfiledHitEmitsCacheSpan) {
  auto db = MakePartsDb();
  {
    Database::WriteGuard guard(*db);
    ASSERT_TRUE(db->CreateObject("Part", {{"name", Value::String("pin")},
                                          {"a", Value::Int(3)}})
                    .ok());
  }
  Server server(db.get());
  auto client = std::make_unique<Client>(&server);
  const std::string q = "select p.a from Part p";

  // A profiled miss reports the plan-stage view and a cache span with the
  // miss detail (the engine consulted the plan tier).
  Response miss = client->Call(Request::Query("profile " + q));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_NE(miss.text.find("cache"), std::string::npos);

  // The profiled run cached its rows under the stripped key: a *plain* run
  // of the same select hits, and a profiled one collapses to a cache span.
  Response plain = client->Call(Request::Query(q));
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain.cache_hit);
  ASSERT_EQ(plain.result->rows.size(), 1u);
  EXPECT_EQ(plain.result->rows[0][0].AsInt(), 3);

  Response hit = client->Call(Request::Query("profile " + q));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_NE(hit.text.find("result hit"), std::string::npos);
  // The stage table is the profile rendering; the raw rows came from the
  // shared entry and are reported through the trace's cardinality.
  EXPECT_NE(hit.text.find("rows=1"), std::string::npos);
}

TEST(ServerCacheTest, DisabledServerNeverReportsCacheState) {
  auto db = MakePartsDb();
  Server::Options options;
  options.cache.enabled = false;
  Server server(db.get(), options);
  auto client = std::make_unique<Client>(&server);
  const std::string q = "select p.name from Part p";
  Response r1 = client->Call(Request::Query(q));
  Response r2 = client->Call(Request::Query(q));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r1.cache_checked);
  EXPECT_FALSE(r2.cache_checked);
  EXPECT_FALSE(r2.cache_hit);
}

// --------------------------------------------------------------- stress

// The staleness protocol: one writer walks an attribute through a
// monotonically increasing sequence and publishes, *after* each mutation's
// response, the value every later read must at least see. Readers sample
// that floor before submitting, then assert the (often cached) answer is
// no older. A result cache serving by anything weaker than current-epoch
// validation fails this within a few iterations. A DDL thread churns the
// plan tier's schema generation at the same time, and a second hot query
// keeps the result tier busy with genuine hits.
TEST(ServerCacheStressTest, ConcurrentReadersNeverObserveStaleResults) {
  auto db = MakePartsDb();
  Oid oid;
  {
    Database::WriteGuard guard(*db);
    auto created = db->CreateObject("Part", {{"name", Value::String("hot")},
                                             {"a", Value::Int(0)}});
    ASSERT_TRUE(created.ok());
    oid = created.value();
  }
  Server::Options options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  Server server(db.get(), options);

  constexpr int kWrites = 200;
  constexpr int kReaders = 4;
  std::atomic<std::int64_t> floor{0};
  std::atomic<bool> writers_done{false};
  std::atomic<int> stale_reads{0};
  std::atomic<int> hits_observed{0};

  std::thread writer([&] {
    Client client(&server);
    for (int i = 1; i <= kWrites; ++i) {
      Response resp =
          client.Call(Request::SetAttribute(oid, "a", Value::Int(i)));
      ASSERT_TRUE(resp.ok());
      // The mutation committed and its epoch bump happened: every read
      // submitted from here on must see at least i.
      floor.store(i, std::memory_order_release);
    }
    writers_done.store(true, std::memory_order_release);
  });

  std::thread ddl([&] {
    Client client(&server);
    int n = 0;
    while (!writers_done.load(std::memory_order_acquire)) {
      const std::string name = "Churn" + std::to_string(n++);
      ASSERT_TRUE(client
                      .Call(Request::Custom([name](Database& d) {
                        return d
                            .DefineClass(name, {},
                                         {Attr("x", ValueType::kInt)})
                            .status();
                      }))
                      .ok());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Client client(&server);
      const std::string hot = "select p.a from Part p";
      const std::string steady = "select p.name from Part p";
      while (!writers_done.load(std::memory_order_acquire)) {
        const std::int64_t lower = floor.load(std::memory_order_acquire);
        Response resp = client.Call(Request::Query(hot));
        ASSERT_TRUE(resp.ok());
        ASSERT_EQ(resp.result->rows.size(), 1u);
        if (resp.result->rows[0][0].AsInt() < lower) {
          stale_reads.fetch_add(1);
        }
        if (resp.cache_hit) {
          hits_observed.fetch_add(1);
          // Render the shared rows while other readers render them too
          // and the writer moves on: the body must carry what was read.
          EXPECT_NE(RenderBody(resp).find(
                        "\"rows\":[[\"" +
                        std::to_string(resp.result->rows[0][0].AsInt()) +
                        "\"]]"),
                    std::string::npos);
        }
        // The steady query's rows never change, so it exercises genuine
        // hit traffic whenever the writer pauses between commits.
        Response s = client.Call(Request::Query(steady));
        ASSERT_TRUE(s.ok());
        ASSERT_EQ(s.result->rows.size(), 1u);
        if (s.cache_hit) {
          EXPECT_NE(RenderBody(s).find("\"rows\":[[\"\\\"hot\\\"\"]]"),
                    std::string::npos);
        }
      }
    });
  }

  writer.join();
  ddl.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(stale_reads.load(), 0);

  // Quiescent: the next repeat pair must warm then hit, and carry the
  // final value — the cache converged to the last committed state.
  Client client(&server);
  Response warm = client.Call(Request::Query("select p.a from Part p"));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.result->rows[0][0].AsInt(), kWrites);
  Response hit = client.Call(Request::Query("select p.a from Part p"));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.result->rows[0][0].AsInt(), kWrites);
}

}  // namespace
