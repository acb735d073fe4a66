// The contention-observability layer (src/obs/wait_profiler.*): epoch-guard
// wait/hold instrumentation, the per-request wait breakdown, per-request
// journal attribution, windowed contention reports, and trace-context
// propagation through the server core.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/wait_profiler.h"
#include "query/render.h"
#include "server/client.h"
#include "server/server.h"
#include "server/telemetry.h"
#include "storage/recovery.h"

namespace {

namespace fs = std::filesystem;

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::obs::GuardInstruments;
using prometheus::obs::Histogram;
using prometheus::obs::Registry;
using prometheus::obs::SnapshotDelta;
using prometheus::obs::ThreadWait;
using prometheus::obs::WaitInstruments;
using prometheus::obs::WaitState;
using prometheus::obs::WaitStateName;
using prometheus::pool::RenderJson;
using prometheus::pool::RenderText;
using prometheus::server::Client;
using prometheus::server::Request;
using prometheus::server::Response;
using prometheus::server::ResponseCode;
using prometheus::server::RetryPolicy;
using prometheus::server::Server;
using prometheus::server::telemetry::ContentionSections;
using prometheus::server::telemetry::Section;
using prometheus::storage::DurableStore;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef def;
  def.name = std::move(name);
  def.type = type;
  return def;
}

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

// --------------------------------------------------- guard instrumentation

TEST(GuardInstrumentationTest, BlockedReaderObservesSharedWait) {
  Registry().ResetForTest();
  Database db;
  const GuardInstruments& g = GuardInstruments::Get();

  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread writer([&] {
    Database::WriteGuard guard(db);
    held.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!held.load()) std::this_thread::yield();

  // While the writer holds the guard, a reader must show up blocked.
  std::thread reader([&] { Database::ReadGuard guard(db); });
  // Wait until the blocked-readers gauge registers it (bounded).
  bool saw_blocked = false;
  for (int i = 0; i < 2000 && !saw_blocked; ++i) {
    saw_blocked = g.blocked_readers->value() > 0;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(saw_blocked);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.store(true);
  writer.join();
  reader.join();

  // The reader's wait and both holds were observed; the gauges returned
  // to idle.
  EXPECT_GE(g.shared_wait->snapshot().count, 1u);
  EXPECT_GT(g.shared_wait->snapshot().sum, 0.0);
  EXPECT_GE(g.shared_hold->snapshot().count, 1u);
  EXPECT_GE(g.exclusive_hold->snapshot().count, 1u);
  EXPECT_GT(g.writer_last_hold_micros->value(), 0);
  EXPECT_EQ(g.blocked_readers->value(), 0);
  EXPECT_EQ(g.blocked_writers->value(), 0);
  EXPECT_EQ(g.writer_held->value(), 0);
}

TEST(GuardInstrumentationTest, BlockedWriterObservesExclusiveWait) {
  Registry().ResetForTest();
  Database db;
  const GuardInstruments& g = GuardInstruments::Get();

  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    Database::ReadGuard guard(db);
    held.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!held.load()) std::this_thread::yield();

  std::thread writer([&] { Database::WriteGuard guard(db); });
  bool saw_blocked = false;
  for (int i = 0; i < 2000 && !saw_blocked; ++i) {
    saw_blocked = g.blocked_writers->value() > 0;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(saw_blocked);
  release.store(true);
  reader.join();
  writer.join();

  EXPECT_GE(g.exclusive_wait->snapshot().count, 1u);
  EXPECT_GT(g.exclusive_wait->snapshot().sum, 0.0);
  EXPECT_EQ(g.blocked_writers->value(), 0);
}

TEST(GuardInstrumentationTest, UncontendedGuardsSkipBlockedGauges) {
  Registry().ResetForTest();
  Database db;
  const GuardInstruments& g = GuardInstruments::Get();
  {
    Database::ReadGuard guard(db);
    EXPECT_EQ(g.blocked_readers->value(), 0);
  }
  {
    Database::WriteGuard guard(db);
    EXPECT_EQ(g.blocked_writers->value(), 0);
    EXPECT_EQ(g.writer_held->value(), 1);
  }
  EXPECT_EQ(g.writer_held->value(), 0);
  // Uncontended acquisitions still observe (zero-ish) waits and holds.
  EXPECT_GE(g.shared_wait->snapshot().count, 1u);
  EXPECT_GE(g.exclusive_wait->snapshot().count, 1u);
}

// ------------------------------------------------------- snapshot algebra

TEST(SnapshotDeltaTest, SubtractsBucketwise) {
  Registry().ResetForTest();
  Histogram* h = Registry().GetHistogram("delta_test_micros", "test");
  h->Observe(5);
  h->Observe(50);
  Histogram::Snapshot then = h->snapshot();
  h->Observe(500);
  h->Observe(5000);
  Histogram::Snapshot now = h->snapshot();

  Histogram::Snapshot delta = SnapshotDelta(now, then);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_DOUBLE_EQ(delta.sum, 5500.0);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : delta.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, 2u);

  // Delta of a snapshot with itself is empty.
  Histogram::Snapshot zero = SnapshotDelta(now, now);
  EXPECT_EQ(zero.count, 0u);
  EXPECT_DOUBLE_EQ(zero.sum, 0.0);
}

TEST(ThreadWaitAccumulatorTest, ResetsAndAccumulatesPerThread) {
  ThreadWait().Reset();
  ThreadWait().journal_append_micros += 10;
  ThreadWait().journal_sync_micros += 20;
  EXPECT_DOUBLE_EQ(ThreadWait().journal_append_micros, 10.0);

  std::thread other([] {
    // A fresh thread sees its own zeroed accumulator.
    EXPECT_DOUBLE_EQ(ThreadWait().journal_append_micros, 0.0);
    ThreadWait().journal_append_micros += 99;
  });
  other.join();
  EXPECT_DOUBLE_EQ(ThreadWait().journal_append_micros, 10.0);
  ThreadWait().Reset();
  EXPECT_DOUBLE_EQ(ThreadWait().journal_sync_micros, 0.0);
}

// ----------------------------------------------------- contention report

/// Every section of the contention report (`/debug/contention`,
/// `.contention`) run through the server's catalog path and rendered.
std::string ContentionReport(Server& server, bool windowed, bool text) {
  std::string out;
  for (const Section& section : ContentionSections(windowed)) {
    auto rows = server.QueryCatalog(section.query);
    EXPECT_TRUE(rows.ok()) << section.name << ": "
                           << rows.status().ToString();
    if (!rows.ok()) continue;
    out += text ? RenderText(rows.value()) : RenderJson(rows.value());
  }
  return out;
}

TEST(ContentionReportTest, CatalogListsEveryWaitStateAndGuardGauge) {
  Registry().ResetForTest();
  auto db = MakePartsDb();
  Server server(db.get());
  const std::string json = ContentionReport(server, false, false);
  for (WaitState s :
       {WaitState::kAdmission, WaitState::kQueue, WaitState::kGuardShared,
        WaitState::kGuardExclusive, WaitState::kExecute,
        WaitState::kJournalAppend, WaitState::kJournalSync,
        WaitState::kSerialize}) {
    EXPECT_NE(
        json.find("\"state\":\"" + std::string(WaitStateName(s)) + "\""),
        std::string::npos)
        << json;
  }
  EXPECT_NE(json.find("\"guard_blocked_readers\""), std::string::npos);
  EXPECT_NE(json.find("\"guard_writer_last_hold_micros\""),
            std::string::npos);
  EXPECT_NE(json.find("\"retained_versions\""), std::string::npos);
}

TEST(ContentionReportTest, WindowedClassCoversOnlyTheInterval) {
  Registry().ResetForTest();
  auto db = MakePartsDb();
  Server server(db.get());
  auto execute_count = [&server](const char* cls) -> std::int64_t {
    auto rows = server.QueryCatalog(std::string("select c.count from ") +
                                    cls + " c where c.state = 'execute'");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok() || rows.value().rows.size() != 1) return -1;
    return rows.value().rows[0][0].AsInt();
  };
  const WaitInstruments& w = WaitInstruments::Get();
  w.execute->Observe(100);
  (void)execute_count("sys.contention_window");  // consume the window
  // Nothing happened between the two windowed reads: execute reports 0.
  EXPECT_EQ(execute_count("sys.contention_window"), 0);

  w.execute->Observe(250);
  // The cumulative class counts both and leaves the window alone.
  EXPECT_EQ(execute_count("sys.contention"), 2);
  EXPECT_EQ(execute_count("sys.contention_window"), 1);
}

TEST(ContentionReportTest, TextTableRendersAllStatesAndGuardGauges) {
  Registry().ResetForTest();
  auto db = MakePartsDb();
  Server server(db.get());
  const std::string text = ContentionReport(server, false, true);
  EXPECT_NE(text.find("guard_shared"), std::string::npos);
  EXPECT_NE(text.find("journal_sync"), std::string::npos);
  EXPECT_NE(text.find("guard_blocked_readers"), std::string::npos);
}

// -------------------------------------------- server-side wait breakdown

TEST(WaitBreakdownTest, QueryResponseCarriesWaitAttribution) {
  Registry().ResetForTest();
  std::unique_ptr<Database> db = MakePartsDb(16);
  Server server(db.get(), Server::Options{});
  Client client(&server);

  Response resp = client.Call(Request::Query("select p from Part p"));
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.trace_id.empty());
  EXPECT_GE(resp.waits.queue_micros, 0.0);
  EXPECT_GE(resp.waits.guard_wait_micros, 0.0);
  EXPECT_GT(resp.waits.execute_micros, 0.0);

  // The server-side wait histograms saw the request.
  const WaitInstruments& w = WaitInstruments::Get();
  EXPECT_GE(w.admission->snapshot().count, 1u);
  EXPECT_GE(w.queue->snapshot().count, 1u);
  EXPECT_GE(w.execute->snapshot().count, 1u);
  server.Shutdown();
}

TEST(WaitBreakdownTest, MutationJournalTimeIsAttributedPerRequest) {
  Registry().ResetForTest();
  const std::string dir = ::testing::TempDir() + "/prometheus_contention";
  fs::remove_all(dir);
  DurableStore::Options store_options;
  store_options.bootstrap = [](Database* db) {
    return db->DefineClass("Doc", {}, {Attr("title", ValueType::kString)})
        .status();
  };
  auto store = DurableStore::Open(dir, store_options);
  ASSERT_TRUE(store.ok());
  {
    Server::Options options;
    options.store = store.value().get();
    Server server(&store.value()->db(), options);
    Client client(&server);

    Response resp = client.Call(
        Request::CreateObject("Doc", {{"title", Value::String("x")}}));
    ASSERT_TRUE(resp.ok());
    // The journal appended under this request; its time is attributed.
    EXPECT_GT(resp.waits.journal_append_micros, 0.0);
    EXPECT_GT(resp.waits.guard_wait_micros + resp.waits.execute_micros, 0.0);

    // The same attribution reached the flight recorder entry.
    server.Shutdown();
    auto entries = server.flight_recorder().Snapshot();
    ASSERT_FALSE(entries.empty());
    const auto& last = entries.back();
    EXPECT_EQ(last.type, "mutation");
    EXPECT_GT(last.journal_micros, 0.0);
    EXPECT_EQ(last.trace_id, resp.trace_id);

    // The process-wide journal histograms grew too.
    Histogram* append = Registry().GetHistogram(
        "journal_append_micros", "Latency of framed journal file appends");
    EXPECT_GE(append->snapshot().count, 1u);
  }
  fs::remove_all(dir);
}

TEST(WaitBreakdownTest, SlowQueryLogCarriesTraceAndBreakdown) {
  std::unique_ptr<Database> db = MakePartsDb(32);
  Server::Options options;
  options.slow_query_micros = 0;  // record everything
  Server server(db.get(), options);
  Client client(&server);

  Response resp = client.Call(
      Request::Query("select p.name from Part p where p.a >= 0")
          .WithTraceId("slow-trace-1"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.trace_id, "slow-trace-1");
  server.Shutdown();

  auto entries = server.slow_query_log().entries();
  ASSERT_FALSE(entries.empty());
  const auto& e = entries.back();
  EXPECT_EQ(e.trace_id, "slow-trace-1");
  EXPECT_GE(e.queue_micros, 0.0);
  EXPECT_GE(e.guard_wait_micros, 0.0);
  EXPECT_GT(e.execute_micros, 0.0);
}

// ------------------------------------------------------ trace propagation

TEST(TraceContextTest, ServerAssignsEpochPrefixedIdWhenAbsent) {
  std::unique_ptr<Database> db = MakePartsDb(4);
  Server server(db.get(), Server::Options{});
  Client client(&server);

  Response resp = client.Call(Request::Query("select p from Part p"));
  ASSERT_TRUE(resp.ok());
  const std::string prefix = std::to_string(server.server_epoch()) + "-";
  EXPECT_EQ(resp.trace_id.rfind(prefix, 0), 0u)
      << "trace id " << resp.trace_id << " lacks epoch prefix " << prefix;

  // Distinct requests get distinct ids.
  Response again = client.Call(Request::Query("select p from Part p"));
  EXPECT_NE(resp.trace_id, again.trace_id);
  server.Shutdown();
}

TEST(TraceContextTest, CallerProvidedIdIsPreservedEverywhere) {
  std::unique_ptr<Database> db = MakePartsDb(4);
  Server server(db.get(), Server::Options{});
  Client client(&server);

  Response miss = client.Call(
      Request::Query("select p from Part p").WithTraceId("t-123"));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.trace_id, "t-123");

  // A result-cache hit (Enqueue fast path) keeps the caller's id too.
  Response hit = client.Call(
      Request::Query("select p from Part p").WithTraceId("t-456"));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.trace_id, "t-456");
  server.Shutdown();

  // Both executions are retrievable from the flight recorder by id.
  int found = 0;
  for (const auto& e : server.flight_recorder().Snapshot()) {
    if (e.trace_id == "t-123" || e.trace_id == "t-456") ++found;
  }
  EXPECT_EQ(found, 2);
}

TEST(TraceContextTest, RefusedRequestsEchoTheTraceId) {
  std::unique_ptr<Database> db = MakePartsDb(4);
  Server::Options options;
  options.read_only = true;
  Server server(db.get(), options);
  Client client(&server);

  Response refused = client.Call(
      Request::CreateObject("Part", {{"name", Value::String("x")}})
          .WithTraceId("t-refused"));
  EXPECT_EQ(refused.code, ResponseCode::kUnavailable);
  EXPECT_EQ(refused.trace_id, "t-refused");
  server.Shutdown();
}

TEST(TraceContextTest, CallWithRetryPinsOneIdAcrossAttempts) {
  std::unique_ptr<Database> db = MakePartsDb(4);
  Server server(db.get(), Server::Options{});
  Client client(&server);

  RetryPolicy policy;
  Response resp =
      client.CallWithRetry(Request::Query("select p from Part p"), policy);
  ASSERT_TRUE(resp.ok());
  // The client assigned the id before submitting, so the response carries
  // the client-side retry id, not a server-stamped one.
  EXPECT_EQ(resp.trace_id.rfind("retry-", 0), 0u) << resp.trace_id;

  // An explicit id survives the retry wrapper untouched.
  Response tagged = client.CallWithRetry(
      Request::Query("select p from Part p").WithTraceId("t-retry"), policy);
  EXPECT_EQ(tagged.trace_id, "t-retry");
  server.Shutdown();
}

}  // namespace
