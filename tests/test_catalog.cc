// The virtual system catalog (sys.*): introspection rows materialized as
// first-class POOL structs. Covers the full query surface over every
// registered class (projection, predicates, joins, the OQL range form,
// PROFILE), the consistency rules the design leans on — one materialization
// per top-level query, result-cache exclusion so rows are always live, the
// lock-free extent heat counters — and the TSan stress: catalog readers
// racing a churning writer and DDL must never observe a torn row.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "index/index_manager.h"
#include "query/query_engine.h"
#include "query/system_catalog.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::IndexManager;
using prometheus::Oid;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::pool::QueryEngine;
using prometheus::pool::QueryTouchesCatalog;
using prometheus::pool::ResultSet;
using prometheus::pool::SystemCatalog;
using prometheus::server::CacheOp;
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

std::unique_ptr<Database> MakePartsDb() {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->DefineClass("Part", {},
                              {Attr("name", ValueType::kString),
                               Attr("a", ValueType::kInt)})
                  .ok());
  return db;
}

// ------------------------------------------------------- name detection

TEST(SystemCatalogTest, IsCatalogNameRequiresSysPrefixAndMember) {
  EXPECT_TRUE(SystemCatalog::IsCatalogName("sys.metrics"));
  EXPECT_TRUE(SystemCatalog::IsCatalogName("sys.x"));
  EXPECT_FALSE(SystemCatalog::IsCatalogName("sys."));
  EXPECT_FALSE(SystemCatalog::IsCatalogName("sys"));
  EXPECT_FALSE(SystemCatalog::IsCatalogName("system.metrics"));
  EXPECT_FALSE(SystemCatalog::IsCatalogName("Taxon"));
}

TEST(SystemCatalogTest, QueryTouchesCatalogScansOutsideStrings) {
  EXPECT_TRUE(QueryTouchesCatalog("select m from sys.metrics m"));
  EXPECT_TRUE(QueryTouchesCatalog("SELECT M FROM SYS.METRICS M"));
  EXPECT_TRUE(QueryTouchesCatalog(
      "select t, s from Taxon t, sys.storage s where s.class = 'Taxon'"));
  // "sys." inside a string literal is data, not a catalog range.
  EXPECT_FALSE(
      QueryTouchesCatalog("select t from Taxon t where t.name = 'sys.x'"));
  // A longer identifier ending in "sys." is not the namespace.
  EXPECT_FALSE(QueryTouchesCatalog("select x from foosys.bar x"));
  EXPECT_FALSE(QueryTouchesCatalog("select t from Taxon t"));
}

// ------------------------------------------------------- basic queries

TEST(CatalogQueryTest, EveryRegisteredClassAnswersSelect) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  for (const SystemCatalog::ClassInfo& info :
       server.system_catalog().ListClasses()) {
    auto r = client.Query("select x from " + info.name + " x");
    ASSERT_TRUE(r.ok()) << info.name << ": " << r.status().ToString();
    for (const auto& row : r.value().rows) {
      ASSERT_EQ(row.size(), 1u);
      ASSERT_EQ(row[0].type(), ValueType::kStruct) << info.name;
      // Every row carries exactly the advertised attributes, in order.
      const Value::Struct& fields = row[0].AsStruct();
      ASSERT_EQ(fields.size(), info.attributes.size()) << info.name;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        EXPECT_EQ(fields[i].first, info.attributes[i]) << info.name;
      }
    }
  }
}

TEST(CatalogQueryTest, SysCatalogListsEveryClassIncludingItself) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  auto r = client.Query("select c.class from sys.catalog c");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> names;
  for (const auto& row : r.value().rows) names.insert(row[0].AsString());
  for (const char* expected :
       {"sys.catalog", "sys.metrics", "sys.requests", "sys.slowlog",
        "sys.contention", "sys.contention_window", "sys.cache",
        "sys.replication", "sys.health", "sys.snapshots", "sys.classes",
        "sys.storage"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
}

TEST(CatalogQueryTest, MetricsRowsProjectAndFilter) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  ASSERT_TRUE(client.Query("select p from Part p").ok());

  auto r = client.Query(
      "select m.value from sys.metrics m "
      "where m.name = 'server_requests_total'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_GE(r.value().rows[0][0].AsInt(), 1);

  // Histograms project their summary fields; counters leave them null.
  auto h = client.Query(
      "select m.count from sys.metrics m "
      "where m.kind = 'histogram' and m.count > 0 limit 1");
  ASSERT_TRUE(h.ok()) << h.status().ToString();
}

TEST(CatalogQueryTest, RequestsReflectTheFlightRecorder) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  ASSERT_TRUE(client.Query("select p from Part p").ok());
  ASSERT_TRUE(client.CreateObject("Part", {{"a", Value::Int(1)}}).ok());

  auto r = client.Query(
      "select q.type, q.ok from sys.requests q where q.executed = true");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r.value().rows.size(), 2u);
  std::set<std::string> types;
  for (const auto& row : r.value().rows) {
    types.insert(row[0].AsString());
    EXPECT_TRUE(row[1].AsBool());
  }
  EXPECT_EQ(types.count("query"), 1u);
  EXPECT_EQ(types.count("mutation"), 1u);
}

TEST(CatalogQueryTest, SnapshotsRowIsSane) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  ASSERT_TRUE(client.CreateObject("Part", {{"a", Value::Int(1)}}).ok());
  auto r = client.Query(
      "select s.epoch, s.pinned_snapshots from sys.snapshots s");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_GE(r.value().rows[0][0].AsInt(), 1);  // the create bumped the epoch
  // The catalog query itself holds the one pin.
  EXPECT_GE(r.value().rows[0][1].AsInt(), 1);
}

TEST(CatalogQueryTest, ReplicationIsEmptyOnAStandaloneServer) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  auto r = client.Query("select l from sys.replication l");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().rows.empty());
}

// ---------------------------------------------- joins & language surface

TEST(CatalogQueryTest, JoinsAcrossCatalogClasses) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  // Every class in the schema has a storage row, joined by name.
  auto r = client.Query(
      "select c.name, s.rows from sys.classes c, sys.storage s "
      "where s.class = c.name order by c.name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(r.value().rows[0][0].AsString(), "Part");
  EXPECT_EQ(r.value().rows[0][1].AsInt(), 0);
}

TEST(CatalogQueryTest, JoinsCatalogAgainstRealExtents) {
  auto db = MakePartsDb();
  {
    Database::WriteGuard guard(*db);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(db->CreateObject("Part", {{"a", Value::Int(i)}}).ok());
    }
  }
  Server server(db.get());
  Client client(&server);
  // A real range and a catalog range in one query: each Part pairs with
  // its class's storage row.
  auto r = client.Query(
      "select p.a, s.rows from Part p, sys.storage s "
      "where s.class = 'Part' order by p.a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 3u);
  for (const auto& row : r.value().rows) {
    EXPECT_EQ(row[1].AsInt(), 3);
  }
}

TEST(CatalogQueryTest, OqlRangeFormAndAggregates) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  auto r = client.Query("select m.name from m in sys.metrics limit 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows.size(), 5u);
  // Grouped aggregation over catalog rows.
  auto agg = client.Query(
      "select m.kind, count(m) as n from sys.metrics m "
      "group by m.kind order by m.kind");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_GE(agg.value().rows.size(), 2u);  // counters and gauges at least
  for (const auto& row : agg.value().rows) {
    EXPECT_GT(row[1].AsInt(), 0) << row[0].ToString();
  }
}

TEST(CatalogQueryTest, SelfJoinSeesOneMaterialization) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  // Seed the recorder, then self-join. Both ranges reuse one
  // materialization, so the diagonal has exactly one row per entry.
  ASSERT_TRUE(client.Query("select p from Part p").ok());
  auto single = client.Query("select q.request_id from sys.requests q");
  ASSERT_TRUE(single.ok());
  const std::size_t n = single.value().rows.size();
  ASSERT_GE(n, 1u);
  auto diag = client.Query(
      "select a.request_id from sys.requests a, sys.requests b "
      "where a.request_id = b.request_id");
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();
  // One more request (the single-range query) completed in between.
  EXPECT_EQ(diag.value().rows.size(), n + 1);
}

TEST(CatalogQueryTest, ProfileShowsCatalogMaterialization) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  Response r = client.Call(
      Request::Query("profile select m.name from sys.metrics m limit 3"));
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_NE(r.text.find("catalog materialization of sys.metrics"),
            std::string::npos)
      << r.text;
}

// --------------------------------------------------------------- errors

TEST(CatalogQueryTest, UnknownCatalogClassIsNotFound) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  auto r = client.Query("select x from sys.nope x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  EXPECT_NE(r.status().message().find("no system catalog class"),
            std::string::npos)
      << r.status().ToString();
}

TEST(CatalogQueryTest, UnknownStructFieldIsNotFound) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  auto r = client.Query("select m.nom from sys.metrics m");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  EXPECT_NE(r.status().message().find("struct has no field"),
            std::string::npos)
      << r.status().ToString();
}

TEST(CatalogQueryTest, EngineWithoutCatalogRejectsSysRanges) {
  // The parser reserves the namespace unconditionally; an engine with no
  // catalog attached (the bare library, importers) answers NotFound
  // rather than falling through to extent resolution.
  auto db = MakePartsDb();
  QueryEngine engine;
  auto r = engine.Execute("select m from sys.metrics m", db->live_store());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  EXPECT_NE(r.status().message().find("no system catalog class"),
            std::string::npos);
}

// ------------------------------------------------- result-cache exclusion

TEST(CatalogCacheTest, CatalogQueriesBypassTheResultCache) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  const std::string q = "select s.rows from sys.storage s";

  Response first = client.Call(Request::Query(q));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_checked);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.result->rows[0][0].AsInt(), 0);

  // No write happened, yet the repeat is not served from cache — and it
  // sees the live state after a mutation, proving rows are never pinned.
  ASSERT_TRUE(client.CreateObject("Part", {{"a", Value::Int(1)}}).ok());
  Response second = client.Call(Request::Query(q));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.cache_checked);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.result->rows[0][0].AsInt(), 1);

  // Ordinary queries on the same server still use the cache.
  ASSERT_TRUE(client.Call(Request::Query("select p from Part p")).ok());
  Response hit = client.Call(Request::Query("select p from Part p"));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cache_checked);
  EXPECT_TRUE(hit.cache_hit);
}

TEST(CatalogCacheTest, SysCacheMatchesCacheControlFieldForField) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  // Warm both tiers so the counters are non-trivial.
  ASSERT_TRUE(client.Query("select p from Part p").ok());
  ASSERT_TRUE(client.Query("select p from Part p").ok());

  Response control = client.Call(Request::CacheControl(CacheOp::kStats));
  ASSERT_TRUE(control.ok());
  auto rows = client.Query("select c.field, c.value from sys.cache c");
  ASSERT_TRUE(rows.ok());

  // Identical row sets: both surfaces render QueryCacheStats::Fields().
  ASSERT_EQ(control.result->rows.size(), rows.value().rows.size());
  for (std::size_t i = 0; i < rows.value().rows.size(); ++i) {
    EXPECT_EQ(control.result->rows[i][0].AsString(),
              rows.value().rows[i][0].AsString());
    const std::string field = rows.value().rows[i][0].AsString();
    // Counters may move between the two requests (the sys.cache query
    // itself is planned, bumping plan_entries); the stable fields match
    // exactly.
    if (field == "enabled" || field == "result_entries" ||
        field == "schema_generation") {
      EXPECT_EQ(control.result->rows[i][1].AsString(),
                rows.value().rows[i][1].AsString())
          << field;
    }
  }
}

// ----------------------------------------------------------- extent heat

TEST(CatalogHeatTest, StorageDistinguishesHotFromColdClasses) {
  // ExtentHeat is process-global and cumulative, so this test owns two
  // class names no other test uses.
  auto db = std::make_unique<Database>();
  ASSERT_TRUE(
      db->DefineClass("CatHot", {}, {Attr("name", ValueType::kString)}).ok());
  ASSERT_TRUE(
      db->DefineClass("CatCold", {}, {Attr("name", ValueType::kString)})
          .ok());
  {
    Database::WriteGuard guard(*db);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          db->CreateObject("CatHot", {{"name", Value::String("h")}}).ok());
      ASSERT_TRUE(
          db->CreateObject("CatCold", {{"name", Value::String("c")}}).ok());
    }
  }
  IndexManager indexes(db.get());
  ASSERT_TRUE(indexes.CreateIndex("CatHot", "name").ok());
  Server::Options options;
  options.indexes = &indexes;
  // Result caching off: every repeat must actually execute, so the scan
  // counters see the full skew rather than one warming scan.
  options.cache.enabled = false;
  Server server(db.get(), options);
  Client client(&server);

  // Skewed workload: scan the hot class repeatedly, touch the cold one
  // once; the indexed predicate also lands index hits on the hot class.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Query("select h from CatHot h").ok());
  }
  ASSERT_TRUE(
      client.Query("select h from CatHot h where h.name = 'h'").ok());
  ASSERT_TRUE(client.Query("select c from CatCold c").ok());

  auto r = client.Query(
      "select s.class, s.rows, s.indexes, s.scans, s.index_hits, "
      "s.rows_scanned from sys.storage s order by s.class");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  const auto& cold = r.value().rows[0];
  const auto& hot = r.value().rows[1];
  ASSERT_EQ(cold[0].AsString(), "CatCold");
  ASSERT_EQ(hot[0].AsString(), "CatHot");

  EXPECT_EQ(hot[1].AsInt(), 4);
  EXPECT_EQ(cold[1].AsInt(), 4);
  // Index coverage is reported per class.
  ASSERT_EQ(hot[2].AsList().size(), 1u);
  EXPECT_EQ(hot[2].AsList()[0].AsString(), "name");
  EXPECT_TRUE(cold[2].AsList().empty());
  // The skew is visible: 20 hot scans vs 1 cold, 80 vs 4 rows, and the
  // indexed predicate never scanned.
  EXPECT_GE(hot[3].AsInt(), 20);
  EXPECT_EQ(cold[3].AsInt(), 1);
  EXPECT_GE(hot[4].AsInt(), 1);
  EXPECT_EQ(cold[4].AsInt(), 0);
  EXPECT_GT(hot[5].AsInt(), cold[5].AsInt());

  // approx_bytes accounts for the attribute payloads.
  auto bytes = client.Query(
      "select s.approx_bytes from sys.storage s where s.class = 'CatHot'");
  ASSERT_TRUE(bytes.ok());
  EXPECT_GT(bytes.value().rows[0][0].AsInt(), 0);
}

// --------------------------------------------------------------- stress

// Catalog reads race a churning writer and live DDL. The materialized
// rows must be internally consistent — every struct carries its full
// field list, strings are intact, per-query row sets are stable — and
// nothing may crash or (under TSan) race.
TEST(CatalogStressTest, ReadersRaceWriterAndDdlWithoutTearing) {
  auto db = MakePartsDb();
  Server::Options options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  Server server(db.get(), options);

  std::atomic<bool> done{false};
  std::atomic<int> catalog_reads{0};

  std::thread writer([&] {
    Client client(&server);
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          client
              .CreateObject("Part", {{"name", Value::String(
                                                  "p" + std::to_string(i))},
                                     {"a", Value::Int(i)}})
              .ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::thread ddl([&] {
    Client client(&server);
    int n = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::string name = "CatChurn" + std::to_string(n++);
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
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Client client(&server);
      const char* queries[] = {
          "select m.name, m.kind from sys.metrics m",
          "select q.request_id, q.type, q.detail from sys.requests q",
          "select s.class, s.rows, s.scans from sys.storage s",
      };
      while (!done.load(std::memory_order_acquire)) {
        auto r = client.Query(queries[t % 3]);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        for (const auto& row : r.value().rows) {
          // Never torn: the projected fields exist and the leading
          // string cell is non-empty for every one of these classes.
          ASSERT_GE(row.size(), 2u);
          if (row[0].type() == ValueType::kString) {
            ASSERT_FALSE(row[0].AsString().empty());
          }
        }
        // Joining the schema listing against storage rows mid-DDL: every
        // class surfaced by one range has a partner in the other (both
        // sides come from the same materialization cut).
        auto join = client.Query(
            "select c.name from sys.classes c, sys.storage s "
            "where s.class = c.name");
        ASSERT_TRUE(join.ok()) << join.status().ToString();
        auto classes = client.Query("select c.name from sys.classes c");
        ASSERT_TRUE(classes.ok());
        // The join ran first; DDL can only have added classes since.
        ASSERT_LE(join.value().rows.size(), classes.value().rows.size());
        catalog_reads.fetch_add(1);
      }
    });
  }

  writer.join();
  ddl.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(catalog_reads.load(), 0);

  // Quiescent cross-check: sys.storage agrees with the database.
  Client client(&server);
  auto r = client.Query(
      "select s.rows from sys.storage s where s.class = 'Part'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 300);
}

}  // namespace
