// The observability subsystem (src/obs/): registry get-or-create
// semantics, histogram bucket arithmetic, concurrent snapshotting (the
// TSan target), rendering, span traces, the PROFILE / kStats server
// surfaces, the slow-query log and the metrics kill switch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "prometheus_text_parser.h"
#include "query/query_engine.h"
#include "query/render.h"
#include "server/client.h"
#include "server/server.h"
#include "server/telemetry.h"
#include "storage/recovery.h"

namespace {

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::obs::Counter;
using prometheus::obs::Gauge;
using prometheus::obs::Histogram;
using prometheus::obs::MetricsRegistry;
using prometheus::obs::MetricsSnapshot;
using prometheus::obs::Registry;
using prometheus::obs::SlowQueryLog;
using prometheus::obs::TraceNode;
using prometheus::server::Client;
using prometheus::server::Request;
using prometheus::server::Response;
using prometheus::server::Server;
using prometheus::server::StatsFormat;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef def;
  def.name = std::move(name);
  def.type = type;
  return def;
}

/// Fresh database with a tiny schema plus a few rows.
std::unique_ptr<Database> MakePartsDb(int rows = 8) {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->DefineClass("Part", {},
                              {Attr("name", ValueType::kString),
                               Attr("a", ValueType::kInt)})
                  .ok());
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(db->CreateObject("Part",
                                 {{"name", Value::String("p" +
                                                         std::to_string(i))},
                                  {"a", Value::Int(i)}})
                    .ok());
  }
  return db;
}

// ------------------------------------------------------------- registry

TEST(MetricsRegistryTest, GetOrCreateReturnsSameObjectForSameName) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x_total", "first registration wins");
  Counter* b = reg.GetCounter("x_total", "ignored");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);

  Gauge* g = reg.GetGauge("depth");
  EXPECT_EQ(g, reg.GetGauge("depth"));
  Histogram* h = reg.GetHistogram("lat_micros");
  EXPECT_EQ(h, reg.GetHistogram("lat_micros"));
  EXPECT_EQ(reg.metric_count(), 3u);
}

TEST(MetricsRegistryTest, SnapshotCarriesEveryKind) {
  MetricsRegistry reg;
  reg.GetCounter("c_total")->Increment(7);
  reg.GetGauge("g")->Set(-4);
  reg.GetHistogram("h", "", {10, 100})->Observe(50);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterOr0("c_total"), 7u);
  EXPECT_EQ(snap.CounterOr0("absent"), 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -4);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].hist.sum, 50);
}

TEST(MetricsRegistryTest, ResetForTestZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c_total");
  c->Increment(9);
  reg.ResetForTest();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.metric_count(), 1u);
  EXPECT_EQ(reg.GetCounter("c_total"), c);
}

// ------------------------------------------------------------ histogram

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({1, 10, 100});
  // A value equal to a bound lands in that bound's bucket.
  h.Observe(1);            // bucket 0 (<=1)
  h.Observe(1.5);          // bucket 1 (<=10)
  h.Observe(10);           // bucket 1
  h.Observe(99.9);         // bucket 2 (<=100)
  h.Observe(100);          // bucket 2
  h.Observe(100.01);       // overflow
  h.Observe(1e9);          // overflow

  Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 2u);
  EXPECT_EQ(snap.counts[3], 2u);
  EXPECT_EQ(snap.count, 7u);
}

TEST(HistogramTest, PercentileInterpolatesAndOverflowSaturates) {
  Histogram h({10, 20});
  for (int i = 0; i < 10; ++i) h.Observe(5);  // all in the first bucket
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_GT(snap.Percentile(50), 0.0);
  EXPECT_LE(snap.Percentile(50), 10.0);
  EXPECT_LE(snap.Percentile(99), 10.0);

  Histogram over({10});
  over.Observe(1000);  // only the overflow bucket
  // The overflow bucket has no upper bound; the estimate reports its
  // lower bound rather than inventing a value.
  EXPECT_DOUBLE_EQ(over.snapshot().Percentile(99), 10.0);
}

TEST(HistogramTest, LogSpacedBoundsAreGeometricAndHitEndpoints) {
  const std::vector<double> bounds = Histogram::LogSpacedBounds(1.0, 1e7, 5);
  // 7 decades * 5 per decade = 35 steps, 36 bounds including both ends.
  ASSERT_EQ(bounds.size(), 36u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 1e7);
  const double ratio = std::pow(10.0, 0.2);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    ASSERT_LT(bounds[i - 1], bounds[i]) << "bounds must strictly increase";
    EXPECT_NEAR(bounds[i] / bounds[i - 1], ratio, 1e-9);
  }
  // Degenerate inputs yield no bounds rather than garbage.
  EXPECT_TRUE(Histogram::LogSpacedBounds(0.0, 10.0, 5).empty());
  EXPECT_TRUE(Histogram::LogSpacedBounds(10.0, 10.0, 5).empty());
  EXPECT_TRUE(Histogram::LogSpacedBounds(1.0, 10.0, 0).empty());
  // The registry default is exactly this shape.
  EXPECT_EQ(Histogram::DefaultLatencyBoundsMicros(), bounds);
}

TEST(HistogramTest, LogSpacedDefaultsBoundPercentileInterpolationError) {
  // With geometric buckets of ratio r, linear interpolation inside the
  // containing bucket can miss the true percentile by at most (r - 1) of
  // the bucket's lower bound — the same *relative* error everywhere in
  // the range. Check it empirically at several magnitudes.
  const double ratio = std::pow(10.0, 0.2);  // ~1.585
  for (double true_value : {3.0, 47.0, 512.0, 8200.0, 123456.0, 2.5e6}) {
    Histogram h(Histogram::DefaultLatencyBoundsMicros());
    for (int i = 0; i < 1000; ++i) h.Observe(true_value);
    const double est = h.snapshot().Percentile(50);
    EXPECT_GT(est, true_value / ratio)
        << "p50 of a point mass at " << true_value;
    EXPECT_LT(est, true_value * ratio)
        << "p50 of a point mass at " << true_value;
    // Relative error never exceeds ratio - 1 (~58.5%), and in practice is
    // about half that since interpolation lands mid-bucket.
    EXPECT_LT(std::abs(est - true_value) / true_value, ratio - 1.0);
  }
}

TEST(HistogramTest, SnapshotWhileMutatingIsSafe) {
  // The TSan target: writers hammer a counter and a histogram while a
  // reader loops snapshots and renders. No synchronisation beyond the
  // metrics' own atomics.
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("spin_total");
  Histogram* h = reg.GetHistogram("spin_micros", "", {1, 10, 100, 1000});
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 20000; ++i) {
        c->Increment();
        h->Observe(static_cast<double>((i * (t + 1)) % 1500));
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      MetricsSnapshot snap = reg.Snapshot();
      std::string json = RenderJson(snap);
      EXPECT_FALSE(json.empty());
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(c->value(), 80000u);
  Histogram::Snapshot snap = h->snapshot();
  EXPECT_EQ(snap.count, 80000u);
}

// ------------------------------------------------------------- rendering

TEST(RenderingTest, PrometheusTextCarriesLabelsAndBuckets) {
  MetricsRegistry reg;
  reg.GetCounter("req_total{worker=\"3\"}", "per-worker")->Increment(2);
  reg.GetHistogram("lat_micros{type=\"query\"}", "latency", {5, 50})
      ->Observe(7);
  std::string text = reg.RenderPrometheusText();

  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total{worker=\"3\"} 2"), std::string::npos);
  // Existing labels merge with le= on bucket lines.
  EXPECT_NE(text.find("lat_micros_bucket{type=\"query\",le=\"50\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lat_micros_bucket{type=\"query\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lat_micros_count{type=\"query\"} 1"),
            std::string::npos);
}

TEST(RenderingTest, JsonSnapshotIsWellFormedEnough) {
  MetricsRegistry reg;
  reg.GetCounter("a_total")->Increment();
  reg.GetGauge("b")->Set(5);
  reg.GetHistogram("c_micros")->Observe(3);
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a_total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(RenderingTest, JsonExtraLeadingMembersStayValidOnEmptySnapshot) {
  // The server composes `server_epoch` through this parameter; with an
  // empty registry the old string-splice produced `{"server_epoch":N,}`.
  prometheus::obs::MetricsSnapshot empty;
  const std::string json =
      prometheus::obs::RenderJson(empty, {{"server_epoch", 42}});
  EXPECT_EQ(json,
            "{\"server_epoch\":42,\"counters\":{},\"gauges\":{},"
            "\"histograms\":{}}");
}

// ----------------------------------------------------------- kill switch

TEST(KillSwitchTest, DisabledMetricsRecordNothing) {
#ifndef PROMETHEUS_OBS_DISABLED
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("guarded_total");
  Histogram* h = reg.GetHistogram("guarded_micros");
  prometheus::obs::SetMetricsEnabled(false);
  c->Increment(100);
  h->Observe(42);
  {
    prometheus::obs::ScopedTimer timer(h);  // must not read the clock
  }
  prometheus::obs::SetMetricsEnabled(true);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->snapshot().count, 0u);
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
#else
  GTEST_SKIP() << "metrics compiled out";
#endif
}

// ----------------------------------------------------------------- trace

TEST(TraceTest, RenderTreeShowsStagesAndCardinalities) {
  TraceNode root("query");
  root.micros = 120.5;
  root.rows = 3;
  TraceNode parse("parse");
  parse.micros = 10;
  root.children.push_back(parse);
  TraceNode plan("plan");
  TraceNode range("range t");
  range.detail = "extent scan of class Part";
  range.rows = 8;
  plan.children.push_back(range);
  root.children.push_back(plan);

  std::string tree = RenderTree(root);
  EXPECT_NE(tree.find("query"), std::string::npos);
  EXPECT_NE(tree.find("  parse"), std::string::npos);
  EXPECT_NE(tree.find("    range t"), std::string::npos);
  EXPECT_NE(tree.find("extent scan of class Part"), std::string::npos);
  EXPECT_NE(tree.find("rows=8"), std::string::npos);
  EXPECT_EQ(root.Child("plan")->children.size(), 1u);
}

TEST(TraceTest, ExecuteProfiledReturnsPerStageTree) {
  std::unique_ptr<Database> db = MakePartsDb(10);
  prometheus::pool::QueryEngine engine;

  auto profiled = engine.ExecuteProfiled(
      "profile select p.name from Part p where p.a < 5 order by p.name",
      db->live_store());
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  const prometheus::pool::QueryProfile& profile = profiled.value();
  EXPECT_EQ(profile.rows.rows.size(), 5u);

  const TraceNode& trace = profile.trace;
  EXPECT_EQ(trace.name, "query");
  EXPECT_EQ(trace.rows, 5);
  ASSERT_NE(trace.Child("parse"), nullptr);
  const TraceNode* plan = trace.Child("plan");
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->children.size(), 1u);
  EXPECT_EQ(plan->children[0].name, "range p");
  EXPECT_NE(plan->children[0].detail.find("extent scan"), std::string::npos);
  EXPECT_EQ(plan->children[0].rows, 10);
  const TraceNode* exec = trace.Child("execute");
  ASSERT_NE(exec, nullptr);
  EXPECT_NE(exec->detail.find("10 bindings"), std::string::npos);
  EXPECT_NE(trace.Child("sort"), nullptr);
  ASSERT_NE(trace.Child("project"), nullptr);
  EXPECT_EQ(trace.Child("project")->rows, 5);
}

TEST(TraceTest, ProfileKeywordDetectionAndStripping) {
  using prometheus::pool::IsProfileQuery;
  using prometheus::pool::StripProfileKeyword;
  EXPECT_TRUE(IsProfileQuery("profile select 1"));
  EXPECT_TRUE(IsProfileQuery("  PROFILE select 1"));
  EXPECT_FALSE(IsProfileQuery("profiler select 1"));
  EXPECT_FALSE(IsProfileQuery("select 1"));
  EXPECT_EQ(StripProfileKeyword("profile select 1"), "select 1");
  EXPECT_EQ(StripProfileKeyword("select 1"), "select 1");
}

// ---------------------------------------------------------------- server

TEST(ServerObsTest, StatsRoundTripAfterMixedWorkload) {
  Registry().ResetForTest();
  std::unique_ptr<Database> db = MakePartsDb(4);
  Server server(db.get(), Server::Options{});
  Client client(&server);

  ASSERT_TRUE(client.Query("select p.name from Part p").ok());
  ASSERT_TRUE(client.CreateObject("Part", {{"name", Value::String("new")},
                                           {"a", Value::Int(99)}})
                  .ok());

  auto json = client.Stats();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  // Query, event, and server families all appear after a mixed workload.
  EXPECT_NE(json.value().find("pool_queries_total"), std::string::npos);
  EXPECT_NE(json.value().find("events_published_total"), std::string::npos);
  EXPECT_NE(json.value().find("server_requests_total"), std::string::npos);
  EXPECT_NE(json.value().find("server_worker_requests_total"),
            std::string::npos);

  auto text = client.Stats(StatsFormat::kPrometheusText);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("# TYPE pool_queries_total counter"),
            std::string::npos);

  server.Shutdown();
}

TEST(ServerObsTest, ProfileQueryThroughServerReturnsStageTable) {
  std::unique_ptr<Database> db = MakePartsDb(6);
  Server server(db.get(), Server::Options{});
  Client client(&server);

  auto profiled = client.Profile("select p.name from Part p where p.a > 1");
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  ASSERT_EQ(profiled.value().stages.columns.size(), 4u);
  EXPECT_EQ(profiled.value().stages.columns[0], "stage");
  // Root plus at least parse/plan/execute/project.
  EXPECT_GE(profiled.value().stages.rows.size(), 5u);
  EXPECT_NE(profiled.value().tree.find("query"), std::string::npos);
  EXPECT_NE(profiled.value().tree.find("execute"), std::string::npos);

  // The raw envelope also carries both renderings.
  Response resp =
      client.Call(Request::Query("profile select p from Part p"));
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.text.empty());
  EXPECT_EQ(resp.result->columns[0], "stage");

  server.Shutdown();
}

TEST(ServerObsTest, SlowQueryLogRecordsOverThreshold) {
  std::unique_ptr<Database> db = MakePartsDb(64);
  Server::Options options;
  options.slow_query_micros = 0;  // everything is "slow"
  Server server(db.get(), options);
  Client client(&server);

  ASSERT_TRUE(client.Query("select p.name from Part p where p.a >= 0").ok());
  ASSERT_TRUE(client.Profile("select p from Part p").ok());
  server.Shutdown();

  const SlowQueryLog& log = server.slow_query_log();
  EXPECT_TRUE(log.enabled());
  ASSERT_EQ(log.recorded_total(), 2u);
  std::vector<SlowQueryLog::Entry> entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NE(entries[0].query.find("select p.name"), std::string::npos);
  // The unprofiled entry carries the plan; the profiled one the full tree.
  EXPECT_NE(entries[0].profile.find("extent scan"), std::string::npos);
  EXPECT_NE(entries[1].profile.find("execute"), std::string::npos);
  EXPECT_GE(entries[1].micros, 0.0);
}

TEST(ServerObsTest, SlowQueryLogDisabledByDefault) {
  std::unique_ptr<Database> db = MakePartsDb(4);
  Server server(db.get(), Server::Options{});
  Client client(&server);
  ASSERT_TRUE(client.Query("select p from Part p").ok());
  server.Shutdown();
  EXPECT_FALSE(server.slow_query_log().enabled());
  EXPECT_EQ(server.slow_query_log().recorded_total(), 0u);
}

// ------------------------------------------------------------ durability

TEST(DurableStoreObsTest, StatsExposeJournalBytesSyncsAndCheckpoints) {
  using prometheus::storage::DurableStore;
  std::string dir =
      ::testing::TempDir() + "/prometheus_obs_store";
  std::filesystem::remove_all(dir);

  DurableStore::Options options;
  options.bootstrap = [](Database* db) -> Status {
    return db->DefineClass("Part", {}, {Attr("a", ValueType::kInt)})
        .status();
  };
  auto opened = DurableStore::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DurableStore& store = *opened.value();

  DurableStore::Stats before = store.stats();
  EXPECT_EQ(before.journal_records, 0u);
  EXPECT_EQ(before.journal_syncs, 0u);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        store.db().CreateObject("Part", {{"a", Value::Int(i)}}).ok());
  }
  ASSERT_TRUE(store.Sync().ok());

  DurableStore::Stats after = store.stats();
  EXPECT_EQ(after.journal_records, 3u);
  EXPECT_GT(after.journal_bytes, 0u);
  EXPECT_EQ(after.journal_syncs, 1u);
  EXPECT_EQ(after.checkpoints, 0u);

  ASSERT_TRUE(store.Checkpoint().ok());
  DurableStore::Stats rotated = store.stats();
  EXPECT_EQ(rotated.checkpoints, 1u);
  EXPECT_GT(rotated.generation, 0u);
  // The rotation swapped in a fresh continuation journal.
  EXPECT_EQ(rotated.journal_records, 0u);
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorderTest, RingKeepsLastNOldestFirst) {
  prometheus::obs::FlightRecorder recorder(/*capacity=*/3);
  EXPECT_TRUE(recorder.enabled());
  for (std::uint64_t i = 1; i <= 5; ++i) {
    prometheus::obs::FlightRecorder::Entry e;
    e.request_id = i;
    e.type = "query";
    recorder.Record(std::move(e));
  }
  EXPECT_EQ(recorder.recorded_total(), 5u);
  auto entries = recorder.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].request_id, 3u);
  EXPECT_EQ(entries[2].request_id, 5u);
}

TEST(FlightRecorderTest, ZeroCapacityDisablesRecording) {
  prometheus::obs::FlightRecorder recorder(/*capacity=*/0);
  EXPECT_FALSE(recorder.enabled());
  recorder.Record({});
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.recorded_total(), 0u);
}

TEST(FlightRecorderTest, ConcurrentWritersAndSnapshotsStayConsistent) {
  // The TSan target: writers claim slots with an atomic counter while a
  // reader snapshots concurrently; every observed entry must be intact
  // (id and type agree — a torn entry would mix them).
  prometheus::obs::FlightRecorder recorder(/*capacity=*/16);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      for (const auto& e : recorder.Snapshot()) {
        EXPECT_EQ(e.type, "w" + std::to_string(e.request_id % kWriters));
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        prometheus::obs::FlightRecorder::Entry e;
        e.request_id = static_cast<std::uint64_t>(i * kWriters + w);
        e.type = "w" + std::to_string(w);
        recorder.Record(std::move(e));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(recorder.recorded_total(),
            static_cast<std::uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(recorder.Snapshot().size(), 16u);
}

TEST(FlightRecorderTest, WrapKeepsNewerEntryWhenOlderWriterLandsLast) {
  // The wrap race: seq 1 and seq 3 share a slot (capacity 2); the older
  // claimant can reach the slot lock after the newer writer already
  // installed. The stale write must be dropped, not surface in the window.
  prometheus::obs::FlightRecorder recorder(/*capacity=*/2);
  prometheus::obs::FlightRecorder::Entry e;
  e.request_id = 102;
  recorder.InstallForTest(2, e);  // slot 0
  e.request_id = 103;
  recorder.InstallForTest(3, e);  // slot 1, the newer write lands first
  e.request_id = 101;
  recorder.InstallForTest(1, e);  // slot 1 again, but with an older seq
  auto entries = recorder.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].request_id, 102u);
  EXPECT_EQ(entries[1].request_id, 103u);  // 101 was dropped as stale
}

TEST(ServerObsTest, FlightRecorderTracesServedRequests) {
  std::unique_ptr<Database> db = MakePartsDb(4);
  Server server(db.get(), Server::Options{});
  Client client(&server);

  ASSERT_TRUE(client.Query("select p.name from Part p").ok());
  ASSERT_TRUE(client.Profile("select p from Part p").ok());
  ASSERT_TRUE(client.CreateObject("Part", {{"name", Value::String("x")},
                                           {"a", Value::Int(1)}})
                  .ok());
  server.Shutdown();

  auto entries = server.flight_recorder().Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].type, "query");
  EXPECT_EQ(entries[0].code, "ok");
  EXPECT_TRUE(entries[0].executed);
  EXPECT_NE(entries[0].detail.find("select p.name"), std::string::npos);
  EXPECT_GE(entries[0].total_micros, 0.0);
  EXPECT_GE(entries[0].queue_wait_micros, 0.0);
  // The profiled query keeps its rendered span tree.
  EXPECT_NE(entries[1].stages.find("execute"), std::string::npos);
  EXPECT_EQ(entries[2].type, "mutation");
  EXPECT_NE(entries[2].detail.find("create Part"), std::string::npos);

  // The same entries as `sys.requests` rows, through the one renderer:
  // only the profiled request carries stages, the others a null.
  auto rows = server.QueryCatalog(prometheus::server::telemetry::kRequests);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().rows.size(), 3u);
  const std::string json = prometheus::pool::RenderJson(rows.value());
  EXPECT_NE(json.find("\"type\":\"query\""), std::string::npos);
  EXPECT_TRUE(rows.value().rows[0][0].Field("stages")->is_null());
  const Value* stages = rows.value().rows[1][0].Field("stages");
  ASSERT_EQ(stages->type(), ValueType::kString);
  EXPECT_NE(stages->AsString().find("execute"), std::string::npos);
  EXPECT_TRUE(rows.value().rows[2][0].Field("stages")->is_null());
}

// ----------------------------------------------- exposition conformance

TEST(ServerObsTest, PrometheusStatsAreConformantAndCarryServerEpoch) {
  Registry().ResetForTest();
  std::unique_ptr<Database> db = MakePartsDb(4);
  Server server(db.get(), Server::Options{});
  Client client(&server);
  ASSERT_TRUE(client.Query("select p from Part p").ok());

  auto text = client.Stats(StatsFormat::kPrometheusText);
  ASSERT_TRUE(text.ok());
  prometheus::testing::PromExposition exposition;
  const std::string error =
      prometheus::testing::ParsePrometheusText(text.value(), &exposition);
  EXPECT_TRUE(error.empty()) << error << "\n--- payload ---\n"
                             << text.value();
  const auto* epoch = exposition.FindSample("server_epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->value, static_cast<double>(server.server_epoch()));
  EXPECT_NE(exposition.Find("prometheus_build_info"), nullptr);
  EXPECT_NE(exposition.Find("process_uptime_seconds"), nullptr);
  server.Shutdown();
}

TEST(ServerObsTest, StatsResolveWhileWriterHoldsExclusiveGuard) {
  // kStats reads only the registry and the lock-free epoch counter; it
  // must resolve while another thread holds the exclusive guard.
  std::unique_ptr<Database> db = MakePartsDb(4);
  Server server(db.get(), Server::Options{});
  Client client(&server);

  std::atomic<bool> release{false};
  std::thread writer([&] {
    Database::WriteGuard guard(*db);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto text = client.Stats(StatsFormat::kPrometheusText);
  EXPECT_TRUE(text.ok());
  Response health = client.Call(Request::Health());
  EXPECT_TRUE(health.ok());

  release.store(true);
  writer.join();
  server.Shutdown();
}

TEST(SlowQueryLogTest, RingEvictsOldestAndCountsTotal) {
  SlowQueryLog log(/*threshold_micros=*/10, /*capacity=*/2);
  EXPECT_FALSE(log.ShouldRecord(5));
  EXPECT_TRUE(log.ShouldRecord(10));
  log.Record({1, "t-1", "q1", 20, ""});
  log.Record({2, "t-2", "q2", 30, ""});
  log.Record({3, "t-3", "q3", 40, ""});
  EXPECT_EQ(log.recorded_total(), 3u);
  std::vector<SlowQueryLog::Entry> entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].query, "q2");
  EXPECT_EQ(entries[1].query, "q3");
}

}  // namespace
