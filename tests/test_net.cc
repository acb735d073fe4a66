// The remote telemetry plane (src/net/): the HTTP/1.1 message parser's
// conformance and limits, the strict Prometheus exposition parser the CI
// smoke job reuses, and end-to-end socket tests of every route the
// front-end mounts — including the load-bearing guarantee that a /metrics
// scrape completes while a writer holds the database's exclusive guard.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "json_check.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/metrics.h"
#include "prometheus_text_parser.h"
#include "server/server.h"

namespace {

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::Result;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::net::HttpConnection;
using prometheus::net::HttpFetch;
using prometheus::net::HttpFrontEnd;
using prometheus::net::HttpLimits;
using prometheus::net::HttpRequest;
using prometheus::net::HttpResponse;
using prometheus::net::ParseHttpRequest;
using prometheus::net::ParseHttpResponse;
using prometheus::net::ParseResult;
using prometheus::net::SerializeHttpResponse;
using prometheus::server::Server;
using prometheus::testing::JsonChecker;
using prometheus::testing::ParsePrometheusText;
using prometheus::testing::PromExposition;
using prometheus::testing::PromFamily;

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

// --------------------------------------------------------- HTTP parsing

TEST(HttpParserTest, ParsesSimpleGet) {
  const std::string wire =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
  HttpRequest req;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseHttpRequest(wire, &consumed, &req, &error),
            ParseResult::kComplete)
      << error;
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/metrics");
  EXPECT_EQ(req.version, "HTTP/1.1");
  ASSERT_NE(req.Header("host"), nullptr);
  EXPECT_EQ(*req.Header("host"), "localhost");
  EXPECT_TRUE(req.KeepAlive());
}

TEST(HttpParserTest, ParsesBodyByContentLength) {
  const std::string wire =
      "POST /query HTTP/1.1\r\nContent-Length: 8\r\n\r\nselect 1extra";
  HttpRequest req;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseHttpRequest(wire, &consumed, &req, &error),
            ParseResult::kComplete);
  EXPECT_EQ(req.body, "select 1");
  // The trailing bytes belong to the next pipelined message.
  EXPECT_EQ(consumed, wire.size() - 5);
}

TEST(HttpParserTest, IncompleteUntilSeparatorAndBodyArrive) {
  HttpRequest req;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseHttpRequest("GET /x HTTP/1.1\r\nHost:", &consumed, &req,
                             &error),
            ParseResult::kIncomplete);
  EXPECT_EQ(ParseHttpRequest("POST /q HTTP/1.1\r\nContent-Length: 9\r\n\r\n"
                             "short",
                             &consumed, &req, &error),
            ParseResult::kIncomplete);
}

TEST(HttpParserTest, RejectsMalformedInput) {
  HttpRequest req;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseHttpRequest("NOT A REQUEST\r\n\r\n", &consumed, &req,
                             &error),
            ParseResult::kBad);
  EXPECT_EQ(ParseHttpRequest("GET metrics HTTP/1.1\r\n\r\n", &consumed, &req,
                             &error),
            ParseResult::kBad);
  EXPECT_EQ(ParseHttpRequest("GET / HTTP/9.9\r\n\r\n", &consumed, &req,
                             &error),
            ParseResult::kBad);
  EXPECT_EQ(ParseHttpRequest("GET / HTTP/1.1\r\nbad header line\r\n\r\n",
                             &consumed, &req, &error),
            ParseResult::kBad);
  EXPECT_EQ(ParseHttpRequest(
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                &consumed, &req, &error),
            ParseResult::kBad);
}

TEST(HttpParserTest, RejectsConflictingContentLengths) {
  HttpRequest req;
  std::size_t consumed = 0;
  std::string error;
  // Conflicting duplicates invite request smuggling behind a proxy that
  // honoured the other one (RFC 9112 §6.3) — reject, never last-wins.
  EXPECT_EQ(ParseHttpRequest("POST / HTTP/1.1\r\nContent-Length: 4\r\n"
                             "Content-Length: 8\r\n\r\nbodybody",
                             &consumed, &req, &error),
            ParseResult::kBad);
  // Duplicates that agree are collapsed to the one value.
  EXPECT_EQ(ParseHttpRequest("POST / HTTP/1.1\r\nContent-Length: 4\r\n"
                             "Content-Length: 4\r\n\r\nbody",
                             &consumed, &req, &error),
            ParseResult::kComplete);
  EXPECT_EQ(req.body, "body");
}

TEST(HttpParserTest, EnforcesLimits) {
  HttpRequest req;
  std::size_t consumed = 0;
  std::string error;
  HttpLimits tight;
  tight.max_body_bytes = 4;
  EXPECT_EQ(ParseHttpRequest("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n",
                             &consumed, &req, &error, tight),
            ParseResult::kTooLarge);
  // A head that can never fit is rejected even before the separator shows.
  HttpLimits small;
  small.max_request_line = 8;
  small.max_header_bytes = 8;
  const std::string runaway(64, 'a');
  EXPECT_EQ(ParseHttpRequest(runaway, &consumed, &req, &error, small),
            ParseResult::kTooLarge);
}

TEST(HttpParserTest, ResponseRoundTripsThroughSerializer) {
  const std::string wire = SerializeHttpResponse(
      200, "application/json", "{\"ok\":true}", /*keep_alive=*/true,
      {{"X-Extra", "1"}});
  HttpResponse resp;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseHttpResponse(wire, &consumed, &resp, &error),
            ParseResult::kComplete)
      << error;
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_EQ(resp.body, "{\"ok\":true}");
  ASSERT_NE(resp.Header("x-extra"), nullptr);
  ASSERT_NE(resp.Header("content-length"), nullptr);
  EXPECT_EQ(*resp.Header("content-length"),
            std::to_string(resp.body.size()));
}

// ------------------------------------- Prometheus conformance parser

TEST(PromParserTest, AcceptsWellFormedExposition) {
  const std::string text =
      "# HELP requests_total Requests served.\n"
      "# TYPE requests_total counter\n"
      "requests_total{kind=\"query\"} 10\n"
      "requests_total{kind=\"mutation\"} 3\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 2\n"
      "# TYPE lat histogram\n"
      "lat_bucket{le=\"1\"} 1\n"
      "lat_bucket{le=\"+Inf\"} 4\n"
      "lat_sum 12.5\n"
      "lat_count 4\n";
  PromExposition exposition;
  const std::string error = ParsePrometheusText(text, &exposition);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(exposition.families.size(), 3u);
  const auto* counter = exposition.Find("requests_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->type, "counter");
  EXPECT_EQ(counter->help, "Requests served.");
  ASSERT_EQ(counter->samples.size(), 2u);
  EXPECT_EQ(counter->samples[0].Label("kind"), "query");
  EXPECT_EQ(counter->samples[0].value, 10);
}

TEST(PromParserTest, UnescapesLabelValues) {
  const std::string text =
      "# TYPE build_info gauge\n"
      "build_info{v=\"a\\\\b\\\"c\\nd\"} 1\n";
  PromExposition exposition;
  ASSERT_TRUE(ParsePrometheusText(text, &exposition).empty());
  EXPECT_EQ(exposition.families[0].samples[0].Label("v"), "a\\b\"c\nd");
}

TEST(PromParserTest, RejectsMalformedExpositions) {
  PromExposition e;
  // Each payload violates exactly one rule the renderer must uphold.
  EXPECT_FALSE(ParsePrometheusText("", &e).empty());
  EXPECT_FALSE(ParsePrometheusText("# TYPE x counter\nx 1", &e).empty())
      << "missing trailing newline must be rejected";
  EXPECT_FALSE(ParsePrometheusText("x 1\n", &e).empty())
      << "sample without # TYPE must be rejected";
  EXPECT_FALSE(ParsePrometheusText("# EOF\n", &e).empty())
      << "unknown comment form must be rejected";
  EXPECT_FALSE(
      ParsePrometheusText("# TYPE x counter\n# TYPE x counter\nx 1\n", &e)
          .empty())
      << "duplicate TYPE must be rejected";
  EXPECT_FALSE(ParsePrometheusText("# TYPE x frobnicator\nx 1\n", &e).empty())
      << "unknown type must be rejected";
  EXPECT_FALSE(ParsePrometheusText("# TYPE x counter\nx notanumber\n", &e)
                   .empty())
      << "non-numeric value must be rejected";
  EXPECT_FALSE(
      ParsePrometheusText("# TYPE x counter\nx{l=\"v\\t\"} 1\n", &e).empty())
      << "illegal label escape must be rejected";
  EXPECT_FALSE(
      ParsePrometheusText("# TYPE x counter\nx{1bad=\"v\"} 1\n", &e).empty())
      << "malformed label name must be rejected";
  EXPECT_FALSE(ParsePrometheusText("# TYPE 0bad counter\n0bad 1\n", &e)
                   .empty())
      << "malformed metric name must be rejected";
  EXPECT_FALSE(ParsePrometheusText("# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 5\n"
                                   "h_bucket{le=\"+Inf\"} 3\n"
                                   "h_sum 1\nh_count 3\n",
                                   &e)
                   .empty())
      << "non-cumulative buckets must be rejected";
  EXPECT_FALSE(ParsePrometheusText("# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 1\n"
                                   "h_sum 1\nh_count 1\n",
                                   &e)
                   .empty())
      << "histogram without +Inf bucket must be rejected";
  EXPECT_FALSE(ParsePrometheusText("# TYPE h histogram\n"
                                   "h_bucket{le=\"+Inf\"} 3\n"
                                   "h_sum 1\nh_count 2\n",
                                   &e)
                   .empty())
      << "_count disagreeing with +Inf bucket must be rejected";
}

TEST(PromParserTest, RegistryRenderIsConformant) {
  prometheus::obs::MetricsRegistry reg;
  reg.GetCounter("a_total", "things that happened")->Increment(5);
  reg.GetGauge("b_depth", "current depth")->Set(3);
  reg.GetHistogram("c_micros", "latencies", {10, 100, 1000})->Observe(42);
  // A label value carrying every character the escaper must handle.
  reg.GetGauge("build_info{v=\"" +
                   prometheus::obs::EscapeLabelValue("a\\b\"c\nd") + "\"}",
               "escaping round-trip")
      ->Set(1);

  PromExposition exposition;
  const std::string text = reg.RenderPrometheusText();
  const std::string error = ParsePrometheusText(text, &exposition);
  EXPECT_TRUE(error.empty()) << error << "\n--- payload ---\n" << text;
  const auto* info = exposition.Find("build_info");
  ASSERT_NE(info, nullptr);
  ASSERT_EQ(info->samples.size(), 1u);
  // The parser unescapes back to the original runtime value.
  EXPECT_EQ(info->samples[0].Label("v"), "a\\b\"c\nd");
}

// --------------------------------------------------------- end-to-end

class NetTest : public ::testing::Test {
 protected:
  /// Fixture variants adjust the server before it starts.
  virtual void Configure(Server::Options*) {}

  void SetUp() override {
    db_ = MakePartsDb();
    Server::Options options;
    options.worker_threads = 2;
    options.queue_capacity = 64;
    Configure(&options);
    server_ = std::make_unique<Server>(db_.get(), options);
    HttpFrontEnd::Options net_options;
    net_options.port = 0;  // ephemeral
    net_options.handler_threads = 2;
    front_ = std::make_unique<HttpFrontEnd>(server_.get(), net_options);
    ASSERT_TRUE(front_->Start().ok());
    ASSERT_GT(front_->port(), 0);
  }

  void TearDown() override {
    front_->Stop();
    server_->Shutdown();
  }

  HttpResponse Fetch(const std::string& method, const std::string& target,
                     std::string_view body = {},
                     const std::vector<std::pair<std::string, std::string>>&
                         headers = {}) {
    auto result = HttpFetch("127.0.0.1", front_->port(), method, target,
                            body, headers);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : HttpResponse{};
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<HttpFrontEnd> front_;
};

TEST_F(NetTest, MetricsScrapeIsConformant) {
  const HttpResponse resp = Fetch("GET", "/metrics");
  EXPECT_EQ(resp.status_code, 200);
  ASSERT_NE(resp.Header("content-type"), nullptr);
  EXPECT_NE(resp.Header("content-type")->find("version=0.0.4"),
            std::string::npos);
  PromExposition exposition;
  const std::string error = ParsePrometheusText(resp.body, &exposition);
  EXPECT_TRUE(error.empty()) << error << "\n--- payload ---\n" << resp.body;
  // Restart detection and build identity ride along on every scrape.
  ASSERT_NE(exposition.FindSample("server_epoch"), nullptr);
  EXPECT_EQ(exposition.FindSample("server_epoch")->value,
            static_cast<double>(server_->server_epoch()));
  EXPECT_NE(exposition.Find("prometheus_build_info"), nullptr);
  EXPECT_NE(exposition.Find("process_uptime_seconds"), nullptr);
}

TEST_F(NetTest, MetricsScrapeCompletesWhileWriterHoldsExclusiveGuard) {
  // The load-bearing guarantee: telemetry routes never touch the database
  // guard, so a scrape succeeds while a writer is mid-mutation.
  std::atomic<bool> release{false};
  std::thread writer([&] {
    Database::WriteGuard guard(*db_);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Give the writer time to actually acquire the guard.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const HttpResponse metrics = Fetch("GET", "/metrics");
  EXPECT_EQ(metrics.status_code, 200);
  const HttpResponse health = Fetch("GET", "/health");
  EXPECT_EQ(health.status_code, 200);
  const HttpResponse recents = Fetch("GET", "/debug/requests");
  EXPECT_EQ(recents.status_code, 200);

  release.store(true);
  writer.join();
}

TEST_F(NetTest, HealthAndStatsCarryServerEpoch) {
  const HttpResponse health = Fetch("GET", "/health");
  EXPECT_EQ(health.status_code, 200);
  EXPECT_NE(health.body.find("\"server_epoch\":" +
                             std::to_string(server_->server_epoch())),
            std::string::npos);
  const HttpResponse stats = Fetch("GET", "/stats");
  EXPECT_EQ(stats.status_code, 200);
  EXPECT_NE(stats.body.find("\"server_epoch\":" +
                            std::to_string(server_->server_epoch())),
            std::string::npos);
}

TEST_F(NetTest, PostQueryReturnsRows) {
  const HttpResponse resp =
      Fetch("POST", "/query", "select p.name from Part p where p.a < 3");
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_NE(resp.body.find("\"code\":\"ok\""), std::string::npos);
  EXPECT_NE(resp.body.find("p0"), std::string::npos);
  EXPECT_NE(resp.body.find("p2"), std::string::npos);
}

TEST_F(NetTest, PostProfileCarriesSpanTree) {
  const HttpResponse resp =
      Fetch("POST", "/profile", "select p.name from Part p");
  EXPECT_EQ(resp.status_code, 200);
  // The span tree rides in "text"; stage names prove it is the real trace.
  EXPECT_NE(resp.body.find("\"text\""), std::string::npos);
  EXPECT_NE(resp.body.find("execute"), std::string::npos);
}

TEST_F(NetTest, QueryErrorsMapToHttpStatuses) {
  // Parse error → 400 with the database status in the body.
  const HttpResponse bad = Fetch("POST", "/query", "selec nonsense");
  EXPECT_EQ(bad.status_code, 400);
  // An already-expired deadline → 504 deterministically.
  const HttpResponse expired =
      Fetch("POST", "/query", "select p from Part p",
            {{"X-Deadline-Micros", "0"}});
  EXPECT_EQ(expired.status_code, 504);
  EXPECT_NE(expired.body.find("timed_out"), std::string::npos);
  // A malformed deadline is a client error, not a silently ignored header.
  const HttpResponse malformed =
      Fetch("POST", "/query", "select p from Part p",
            {{"X-Deadline-Micros", "soon"}});
  EXPECT_EQ(malformed.status_code, 400);
  // A 20-digit deadline overflows int64 — it must answer 400, not throw
  // out_of_range on the handler thread and terminate the server.
  const HttpResponse overflow =
      Fetch("POST", "/query", "select p from Part p",
            {{"X-Deadline-Micros", "99999999999999999999"}});
  EXPECT_EQ(overflow.status_code, 400);
  EXPECT_NE(overflow.body.find("out of range"), std::string::npos);
  // The server survived to serve the next request.
  EXPECT_EQ(Fetch("GET", "/health").status_code, 200);
  const HttpResponse bad_priority =
      Fetch("POST", "/query", "select p from Part p",
            {{"X-Priority", "urgent"}});
  EXPECT_EQ(bad_priority.status_code, 400);
  // Valid priorities are accepted.
  const HttpResponse low = Fetch("POST", "/query", "select p from Part p",
                                 {{"X-Priority", "low"}});
  EXPECT_EQ(low.status_code, 200);
}

TEST_F(NetTest, RoutingErrors) {
  EXPECT_EQ(Fetch("GET", "/nope").status_code, 404);
  EXPECT_EQ(Fetch("GET", "/query").status_code, 405);
  EXPECT_EQ(Fetch("POST", "/metrics", "x").status_code, 405);
  EXPECT_EQ(Fetch("POST", "/query", "").status_code, 400);
}

TEST_F(NetTest, KeepAliveServesMultipleRequestsPerConnection) {
  // Snapshot before connecting: the acceptor counts the connection
  // asynchronously, so sampling after Connect() would race with it.
  const auto before = front_->stats();
  auto conn = HttpConnection::Connect("127.0.0.1", front_->port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto first = conn.value()->RoundTrip("GET", "/health");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().status_code, 200);
  auto second = conn.value()->RoundTrip("POST", "/query",
                                        "select p.name from Part p");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().status_code, 200);
  const auto after = front_->stats();
  EXPECT_EQ(after.requests_served, before.requests_served + 2);
  // Both requests rode one accepted connection.
  EXPECT_EQ(after.connections_accepted, before.connections_accepted + 1);
}

TEST_F(NetTest, FlightRecorderSurfacesServedRequests) {
  ASSERT_EQ(Fetch("POST", "/query", "select p.name from Part p").status_code,
            200);
  ASSERT_EQ(
      Fetch("POST", "/profile", "select p.name from Part p").status_code,
      200);
  const HttpResponse recents = Fetch("GET", "/debug/requests");
  EXPECT_EQ(recents.status_code, 200);
  EXPECT_NE(recents.body.find("\"type\":\"query\""), std::string::npos);
  EXPECT_NE(recents.body.find("select p.name"), std::string::npos);
  // The profiled request kept its per-stage span tree (rooted at "query",
  // with an execute span); the plain one has none.
  const std::size_t stages = recents.body.find("\"stages\":\"query");
  ASSERT_NE(stages, std::string::npos) << recents.body;
  EXPECT_NE(recents.body.find("execute", stages), std::string::npos);
  EXPECT_NE(recents.body.find("\"stages\":null"), std::string::npos);
}

TEST_F(NetTest, TraceIdRoundTripsAndFiltersDebugRequests) {
  // Caller-supplied id: echoed in the response header and retrievable by
  // exact match from /debug/requests?id=.
  const HttpResponse traced =
      Fetch("POST", "/query", "select p.name from Part p",
            {{"X-Trace-Id", "t-123"}});
  EXPECT_EQ(traced.status_code, 200);
  ASSERT_NE(traced.Header("x-trace-id"), nullptr);
  EXPECT_EQ(*traced.Header("x-trace-id"), "t-123");

  // A second, untraced request lands in the recorder too — the filter must
  // exclude it.
  EXPECT_EQ(Fetch("POST", "/query", "select p from Part p").status_code, 200);

  const HttpResponse filtered = Fetch("GET", "/debug/requests?id=t-123");
  EXPECT_EQ(filtered.status_code, 200);
  EXPECT_NE(filtered.body.find("\"trace_id\":\"t-123\""), std::string::npos);
  EXPECT_EQ(filtered.body.find("select p from Part p"), std::string::npos)
      << filtered.body;
  // An id nothing matches yields an empty array, not a 404.
  const HttpResponse none = Fetch("GET", "/debug/requests?id=absent");
  EXPECT_EQ(none.status_code, 200);
  EXPECT_EQ(none.body, "[]");
  // The id is spliced into a POOL text, so anything outside the X-Trace-Id
  // alphabet — a quote above all — is refused before it gets there.
  for (const char* bad : {"id=a'b", "id=", "id=a%27b", "id=a%20b"}) {
    const HttpResponse resp =
        Fetch("GET", std::string("/debug/requests?") + bad);
    EXPECT_EQ(resp.status_code, 400) << bad << ": " << resp.body;
  }
}

TEST_F(NetTest, TraceIdAssignedWhenAbsent) {
  const HttpResponse resp =
      Fetch("POST", "/query", "select p.name from Part p");
  EXPECT_EQ(resp.status_code, 200);
  // The server stamped an epoch-prefixed id and echoed it.
  ASSERT_NE(resp.Header("x-trace-id"), nullptr);
  const std::string prefix = std::to_string(server_->server_epoch()) + "-";
  EXPECT_EQ(resp.Header("x-trace-id")->rfind(prefix, 0), 0u)
      << *resp.Header("x-trace-id");
}

TEST_F(NetTest, MalformedTraceIdIsA400) {
  const HttpResponse bad_post =
      Fetch("POST", "/query", "select p from Part p",
            {{"X-Trace-Id", "has spaces"}});
  EXPECT_EQ(bad_post.status_code, 400);
  EXPECT_NE(bad_post.body.find("X-Trace-Id"), std::string::npos);
  const HttpResponse bad_get =
      Fetch("GET", "/health", {}, {{"X-Trace-Id", std::string(200, 'a')}});
  EXPECT_EQ(bad_get.status_code, 400);
  // The server survived both.
  EXPECT_EQ(Fetch("GET", "/health").status_code, 200);
}

TEST_F(NetTest, TracedTelemetryGetsAreRecordedAndEchoed) {
  const HttpResponse resp =
      Fetch("GET", "/health", {}, {{"X-Trace-Id", "probe-7"}});
  EXPECT_EQ(resp.status_code, 200);
  ASSERT_NE(resp.Header("x-trace-id"), nullptr);
  EXPECT_EQ(*resp.Header("x-trace-id"), "probe-7");
  const HttpResponse filtered = Fetch("GET", "/debug/requests?id=probe-7");
  EXPECT_NE(filtered.body.find("\"trace_id\":\"probe-7\""),
            std::string::npos);
  EXPECT_NE(filtered.body.find("GET /health"), std::string::npos);
}

TEST_F(NetTest, DebugContentionServesCumulativeAndWindowedReports) {
  ASSERT_EQ(Fetch("POST", "/query", "select p.name from Part p").status_code,
            200);
  const HttpResponse report = Fetch("GET", "/debug/contention");
  EXPECT_EQ(report.status_code, 200);
  EXPECT_NE(report.body.find("\"windowed\":false"), std::string::npos);
  for (const char* state :
       {"admission", "queue", "guard_shared", "guard_exclusive", "execute",
        "journal_append", "journal_sync", "serialize"}) {
    EXPECT_NE(report.body.find("\"" + std::string(state) + "\""),
              std::string::npos)
        << state << " missing from " << report.body;
  }
  EXPECT_NE(report.body.find("\"guard_blocked_readers\""),
            std::string::npos);
  EXPECT_NE(report.body.find("\"mvcc\":[{\"retained_versions\""),
            std::string::npos);

  const HttpResponse windowed = Fetch("GET", "/debug/contention?window=1");
  EXPECT_EQ(windowed.status_code, 200);
  EXPECT_NE(windowed.body.find("\"windowed\":true"), std::string::npos);
  // Wrong verb on the new route answers 405 like its siblings.
  EXPECT_EQ(Fetch("POST", "/debug/contention", "x").status_code, 405);
}

TEST_F(NetTest, DebugRequestsValidatesTheLimitParameter) {
  ASSERT_EQ(Fetch("POST", "/query", "select p.name from Part p").status_code,
            200);
  ASSERT_EQ(Fetch("POST", "/query", "select p.a from Part p").status_code,
            200);
  // A valid limit trims to the N most recent entries: exactly one
  // "request_id" key survives however many requests ran before.
  const HttpResponse limited = Fetch("GET", "/debug/requests?limit=1");
  EXPECT_EQ(limited.status_code, 200);
  EXPECT_NE(limited.body.find("select p.a from Part p"), std::string::npos)
      << limited.body;
  const std::string id_key = "\"request_id\":";
  std::size_t ids = 0;
  for (std::size_t at = limited.body.find(id_key); at != std::string::npos;
       at = limited.body.find(id_key, at + id_key.size())) {
    ++ids;
  }
  EXPECT_EQ(ids, 1u) << limited.body;
  // The newest N are still returned oldest first.
  const HttpResponse two = Fetch("GET", "/debug/requests?limit=2");
  const std::size_t older = two.body.find("select p.name from Part p");
  const std::size_t newer = two.body.find("select p.a from Part p");
  ASSERT_NE(older, std::string::npos) << two.body;
  ASSERT_NE(newer, std::string::npos) << two.body;
  EXPECT_LT(older, newer);
  // Malformed or out-of-range values answer 400, not a silent default.
  for (const char* bad :
       {"limit=0", "limit=-1", "limit=abc", "limit=", "limit=1e3",
        "limit=2000000", "limit=99999999"}) {
    const HttpResponse resp =
        Fetch("GET", std::string("/debug/requests?") + bad);
    EXPECT_EQ(resp.status_code, 400) << bad << ": " << resp.body;
    EXPECT_NE(resp.body.find("limit must be an integer"), std::string::npos)
        << bad;
  }
}

TEST_F(NetTest, DebugContentionValidatesTheWindowParameter) {
  for (const char* good : {"window=1", "window=0", "window=true",
                           "window=false", "window="}) {
    EXPECT_EQ(
        Fetch("GET", std::string("/debug/contention?") + good).status_code,
        200)
        << good;
  }
  for (const char* bad : {"window=2", "window=yes", "window=TRUE",
                          "window=01", "window=x"}) {
    const HttpResponse resp =
        Fetch("GET", std::string("/debug/contention?") + bad);
    EXPECT_EQ(resp.status_code, 400) << bad << ": " << resp.body;
    EXPECT_NE(resp.body.find("window must be one of"), std::string::npos)
        << bad;
  }
}

TEST_F(NetTest, PostQueryServesTheSystemCatalog) {
  // The catalog's struct rows ride the same JSON envelope as any query.
  const HttpResponse resp = Fetch(
      "POST", "/query",
      "select s.class, s.rows from sys.storage s where s.class = 'Part'");
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_NE(resp.body.find("\"code\":\"ok\""), std::string::npos);
  // String cells render POOL-style (quoted) and then JSON-escape.
  EXPECT_NE(resp.body.find("\\\"Part\\\""), std::string::npos) << resp.body;
  // Whole structs serialize through their rendered form, escaped.
  const HttpResponse whole =
      Fetch("POST", "/query", "select m from sys.metrics m limit 1");
  EXPECT_EQ(whole.status_code, 200);
  EXPECT_NE(whole.body.find("name:"), std::string::npos) << whole.body;
}

TEST_F(NetTest, MetricsConformanceCoversWaitStateFamilies) {
  // Force every contention family to register, then drive traffic through
  // them, then hold the whole exposition to the strict parser.
  ASSERT_EQ(Fetch("GET", "/debug/contention").status_code, 200);
  ASSERT_EQ(Fetch("POST", "/query", "select p.name from Part p").status_code,
            200);
  const HttpResponse scrape = Fetch("GET", "/metrics");
  ASSERT_EQ(scrape.status_code, 200);
  PromExposition exposition;
  const std::string error = ParsePrometheusText(scrape.body, &exposition);
  EXPECT_TRUE(error.empty()) << error << "\n--- payload ---\n" << scrape.body;
  for (const char* family :
       {"guard_wait_micros", "guard_hold_micros", "guard_blocked_readers",
        "guard_blocked_writers", "guard_writer_held",
        "guard_writer_last_hold_micros", "request_wait_micros",
        "journal_append_micros", "journal_sync_micros"}) {
    EXPECT_NE(exposition.Find(family), nullptr) << family << " not exposed";
  }
  // The labelled families carry their mode/state labels.
  const PromFamily* guard_wait = exposition.Find("guard_wait_micros");
  ASSERT_NE(guard_wait, nullptr);
  bool saw_shared = false;
  for (const auto& s : guard_wait->samples) {
    if (s.Label("mode") == "shared") saw_shared = true;
  }
  EXPECT_TRUE(saw_shared);
  const PromFamily* request_wait = exposition.Find("request_wait_micros");
  ASSERT_NE(request_wait, nullptr);
  bool saw_queue = false;
  for (const auto& s : request_wait->samples) {
    if (s.Label("state") == "queue") saw_queue = true;
  }
  EXPECT_TRUE(saw_queue);
}

TEST_F(NetTest, MalformedWireBytesGetA400) {
  auto conn = HttpConnection::Connect("127.0.0.1", front_->port());
  ASSERT_TRUE(conn.ok());
  // RoundTrip can't send garbage; use the serializer-free path by driving
  // a raw request through the parser contract instead: an invalid method
  // line must close with 400.
  const auto before_bad = front_->stats().bad_requests;
  auto resp = conn.value()->RoundTrip("BAD METHOD", "/x");
  // "BAD METHOD" contains a space, so the serialized request line has four
  // tokens — the server must reject it and close.
  if (resp.ok()) {
    EXPECT_EQ(resp.value().status_code, 400);
  }
  EXPECT_GE(front_->stats().bad_requests, before_bad);
}

TEST_F(NetTest, StopIsIdempotentAndRejectsRestart) {
  front_->Stop();
  front_->Stop();
  EXPECT_FALSE(front_->running());
}

// ------------------------------------------------- telemetry golden shapes

TEST(JsonCheckTest, AcceptsRfc8259AndRejectsWhatScrapersReject) {
  std::vector<std::string> keys;
  EXPECT_EQ(JsonChecker::Validate(
                " {\"a\":[1,-0.5e3,true,null,\"\\u00e9\\ud83d\\ude00\"],"
                "\"b\":{}} ",
                &keys),
            "");
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
  keys.clear();
  EXPECT_EQ(JsonChecker::Validate("[{\"x\":1},{\"y\":2}]", &keys), "");
  EXPECT_EQ(keys, (std::vector<std::string>{"x"}));
  EXPECT_EQ(JsonChecker::Validate("\"caf\xC3\xA9\""), "");
  for (const std::string& bad :
       {std::string("{\"q\":\"a\x01" "b\"}"), std::string("\"\xC3\""),
        std::string("\"\xC3\xA9\xA9\""), std::string("\"\xED\xA0\x80\""),
        std::string("\"\xC0\xAF\""), std::string("[nan]"),
        std::string("[1,]"), std::string("{\"a\":1,\"a\":2}"),
        std::string("[01]"), std::string("{} x"), std::string("\"\\ud800\""),
        std::string("'a'"), std::string("")}) {
    EXPECT_NE(JsonChecker::Validate(bad), "") << bad;
  }
}

// Every query lands in the slow-query log, so /slowlog has rows to shape.
class TelemetryGoldenTest : public NetTest {
 protected:
  void Configure(Server::Options* options) override {
    options->slow_query_micros = 0;
  }
};

TEST_F(TelemetryGoldenTest, EveryTelemetryGetAnswersValidJsonWithItsKeys) {
  // Hostile query text: a raw control byte, and 199 bytes followed by a
  // two-byte character that the flight recorder's 200-byte cut would
  // split in half.
  const std::string control =
      "select p.name from Part p where p.name = 'a\x01" "b'";
  std::string split = "select p.name from Part p where p.name = '";
  split.append(199 - split.size(), 'x');
  split += "\xC3\xA9'";
  for (const std::string& q : {control, split}) {
    const HttpResponse resp =
        Fetch("POST", "/query", q, {{"X-Trace-Id", "golden-1"}});
    EXPECT_EQ(resp.status_code, 200) << resp.body;
    EXPECT_EQ(JsonChecker::Validate(resp.body), "") << resp.body;
  }
  ASSERT_EQ(Fetch("POST", "/profile", "select p from Part p").status_code,
            200);

  const std::vector<std::string> request_keys = {
      "seq", "request_id", "trace_id", "type", "priority", "code", "ok",
      "executed", "epoch", "queue_wait_micros", "total_micros",
      "guard_wait_micros", "execute_micros", "journal_micros", "detail",
      "stages"};
  const std::vector<std::string> slowlog_keys = {
      "request_id", "trace_id", "query", "micros", "queue_micros",
      "guard_wait_micros", "execute_micros", "profile"};
  const std::vector<std::string> health_keys = {
      "server_epoch", "degraded", "read_only", "replication",
      "store_status", "queue_depth", "queue_capacity", "workers",
      "estimated_wait_micros", "accepted", "rejected", "timed_out",
      "shed", "unavailable", "errors", "sessions_active"};
  const std::vector<std::string> contention_keys = {"windowed", "states",
                                                    "guard", "mvcc"};
  const std::vector<std::pair<std::string, std::vector<std::string>>> routes =
      {{"/health", health_keys},
       {"/stats", {"server_epoch", "counters", "gauges", "histograms"}},
       {"/slowlog", slowlog_keys},
       {"/debug/requests", request_keys},
       {"/debug/requests?limit=2", request_keys},
       {"/debug/requests?id=golden-1", request_keys},
       {"/debug/contention", contention_keys},
       {"/debug/contention?window=1", contention_keys}};
  std::string requests_body;
  std::string slowlog_body;
  for (const auto& [target, want] : routes) {
    const HttpResponse resp = Fetch("GET", target);
    EXPECT_EQ(resp.status_code, 200) << target;
    std::vector<std::string> keys;
    EXPECT_EQ(JsonChecker::Validate(resp.body, &keys), "")
        << target << ": " << resp.body;
    EXPECT_EQ(keys, want) << target << ": " << resp.body;
    if (target == "/debug/requests") requests_body = resp.body;
    if (target == "/slowlog") slowlog_body = resp.body;
  }
  // The control byte travels escaped; the long text is cut before the
  // two-byte character, not through it.
  EXPECT_NE(requests_body.find("a\\u0001b"), std::string::npos);
  EXPECT_NE(slowlog_body.find("a\\u0001b"), std::string::npos);
  EXPECT_NE(requests_body.find("xxx\xE2\x80\xA6"), std::string::npos)
      << requests_body;
}

// ------------------------------------------------- /query body golden bytes

// One object per `Value` kind, plus strings that need every escape: the
// cells of a `/query` body are each cell's POOL text (`ToString()`), then
// JSON-escaped. Clients parse these bodies, so they are pinned byte for
// byte: a renderer change that alters any byte fails here.
class QueryBodyGoldenTest : public NetTest {
 protected:
  void SetUp() override {
    NetTest::SetUp();
    ASSERT_TRUE(db_->DefineClass("Cell", {},
                                 {Attr("k", ValueType::kInt),
                                  Attr("v", ValueType::kNull)})
                    .ok());
    const std::vector<Value> values = {
        Value::Null(),
        Value::Bool(true),
        Value::Int(-42),
        Value::Double(2.5),
        Value::Double(1234567.0),
        Value::Double(1e-7),
        Value::Double(-std::numeric_limits<double>::infinity()),
        Value::Ref(1),
        Value::MakeList({Value::Int(1), Value::String("a\"b")}),
        Value::MakeStruct({{"n", Value::Int(1)},
                           {"s", Value::String("q\\x")}}),
        Value::String("say \"hi\""),
        Value::String("back\\slash"),
        Value::String("line\nbreak\ttab"),
        Value::String(std::string("ctl\x01" "byte")),
        Value::String("caf\xC3\xA9 \xE2\x9C\x93"),
    };
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_TRUE(db_->CreateObject(
                         "Cell", {{"k", Value::Int(static_cast<int>(i))},
                                  {"v", values[i]}})
                      .ok());
    }
  }
};

/// The profile's timings differ run to run: masks the `micros` cell of
/// every stage row and each `<n>us` figure of the span-tree text.
std::string MaskTimings(const std::string& body) {
  static const std::regex kCell(R"re(\[("(?:[^"\\]|\\.)*"),"[-+.e0-9]+",)re");
  static const std::regex kText(R"re(  [0-9]+\.[0-9]us)re");
  return std::regex_replace(std::regex_replace(body, kCell, "[$1,\"<us>\","),
                            kText, "  <us>us");
}

TEST_F(QueryBodyGoldenTest, QueryAndProfileBodiesAreByteExact) {
  const std::string q = "select c.k, c.v from Cell c order by c.k";
  const HttpResponse miss = Fetch("POST", "/query", q);
  const HttpResponse hit = Fetch("POST", "/query", q);
  const HttpResponse profiled_hit = Fetch("POST", "/profile", q);
  const HttpResponse profiled_miss =
      Fetch("POST", "/profile", "select c.k from Cell c where c.k < 2");
  const HttpResponse failed = Fetch("POST", "/query", "select c.nope from");
  for (const HttpResponse* r : {&miss, &hit, &profiled_hit, &profiled_miss}) {
    EXPECT_EQ(r->status_code, 200) << r->body;
  }
  EXPECT_EQ(failed.status_code, 400);
  for (const HttpResponse* r :
       {&miss, &hit, &profiled_hit, &profiled_miss, &failed}) {
    EXPECT_EQ(JsonChecker::Validate(r->body), "") << r->body;
  }
  // Everything after the envelope is shared by the miss and the hit.
  const std::string rows =
      "\"columns\":[\"col1\",\"col2\"],\"rows\":[[\"0\",\"null\"],[\"1\","
      "\"true\"],[\"2\",\"-42\"],[\"3\",\"2.5\"],[\"4\",\"1.23457e+06\"],"
      "[\"5\",\"1e-07\"],[\"6\",\"-inf\"],[\"7\",\"@1\"],[\"8\",\"[1, \\"
      "\"a\\\"b\\\"]\"],[\"9\",\"{n: 1, s: \\\"q\\\\x\\\"}\"],[\"10\",\""
      "\\\"say \\\"hi\\\"\\\"\"],[\"11\",\"\\\"back\\\\slash\\\"\"],[\"12"
      "\",\"\\\"line\\nbreak\\ttab\\\"\"],[\"13\",\"\\\"ctl\\u0001byte\\"
      "\"\"],[\"14\",\"\\\"caf\xC3\xA9 \xE2\x9C\x93\\\"\"]]}";
  EXPECT_EQ(miss.body,
            "{\"id\":1,\"code\":\"ok\",\"ok\":true,\"status\":\"OK\",\"epoch\":"
            "0,\"cache\":\"miss\"," +
                rows);
  EXPECT_EQ(hit.body,
            "{\"id\":2,\"code\":\"ok\",\"ok\":true,\"status\":\"OK\",\"epoch\":"
            "0,\"cache\":\"hit\"," +
                rows);
  EXPECT_EQ(MaskTimings(profiled_hit.body),
            "{\"id\":3,\"code\":\"ok\",\"ok\":true,\"status\":\"OK\",\"epoch\":"
            "0,\"cache\":\"hit\",\"columns\":[\"stage\",\"micros\",\"rows\",\"d"
            "etail\"],\"rows\":[[\"\\\"query\\\"\",\"<us>\",\"15\",\"\\\"select"
            " c.k, c.v from Cell c order by c.k\\\"\"],[\"\\\"  cache\\\"\",\"<"
            "us>\",\"15\",\"\\\"result hit (epoch 0; parse, plan and execute sk"
            "ipped)\\\"\"]],\"text\":\"query: select c.k, c.v from Cell c order"
            " by c.k  <us>us  rows=15\\n  cache: result hit (epoch 0; parse, pl"
            "an and execute skipped)  <us>us  rows=15\\n\"}");
  EXPECT_EQ(MaskTimings(profiled_miss.body),
            "{\"id\":4,\"code\":\"ok\",\"ok\":true,\"status\":\"OK\",\"epoch\":"
            "0,\"cache\":\"miss\",\"columns\":[\"stage\",\"micros\",\"rows\",\""
            "detail\"],\"rows\":[[\"\\\"query\\\"\",\"<us>\",\"2\",\"\\\"select"
            " c.k from Cell c where c.k < 2\\\"\"],[\"\\\"  cache\\\"\",\"<us>"
            "\",\"null\",\"\\\"plan miss\\\"\"],[\"\\\"  parse\\\"\",\"<us>\","
            "\"null\",\"\\\"\\\"\"],[\"\\\"  plan\\\"\",\"<us>\",\"null\",\"\\"
            "\"\\\"\"],[\"\\\"    range c\\\"\",\"<us>\",\"15\",\"\\\"extent sc"
            "an of class Cell\\\"\"],[\"\\\"  execute\\\"\",\"<us>\",\"2\",\"\\"
            "\"15 bindings scanned\\\"\"],[\"\\\"  project\\\"\",\"<us>\",\"2\""
            ",\"\\\"\\\"\"]],\"text\":\"query: select c.k from Cell c where c.k"
            " < 2  <us>us  rows=2\\n  cache: plan miss  <us>us\\n  parse  <us>u"
            "s\\n  plan  <us>us\\n    range c: extent scan of class Cell  <us>u"
            "s  rows=15\\n  execute: 15 bindings scanned  <us>us  rows=2\\n  pr"
            "oject  <us>us  rows=2\\n\"}");
  // A failed query carries no rows: empty columns and rows.
  EXPECT_EQ(failed.body,
            "{\"id\":5,\"code\":\"ok\",\"ok\":false,\"status\":\"ParseError: "
            "unexpected token at offset 18\",\"epoch\":0,\"cache\":\"miss\","
            "\"columns\":[],\"rows\":[]}");
}

// One worker, one queue slot: a blocked mutation plus one queued request
// saturate the server, and a query over HTTP is refused — yet every
// telemetry GET still answers, because it never enters the queue.
class SaturatedNetTest : public NetTest {
 protected:
  void Configure(Server::Options* options) override {
    options->worker_threads = 1;
    options->queue_capacity = 1;
  }
};

TEST_F(SaturatedNetTest, TelemetryGetsAnswerWhileTheWorkQueueIsFull) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto session = server_->Connect();
  auto block = [&](Database&) {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Ok();
  };
  auto running = session->Submit(prometheus::server::Request::Custom(block));
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto queued = session->Submit(prometheus::server::Request::Custom(block));
  ASSERT_EQ(Fetch("POST", "/query", "select p from Part p").status_code, 429);

  for (const char* target :
       {"/health", "/stats", "/metrics", "/slowlog", "/debug/requests",
        "/debug/requests?limit=1", "/debug/contention",
        "/debug/contention?window=1"}) {
    const HttpResponse resp = Fetch("GET", target);
    EXPECT_EQ(resp.status_code, 200) << target << ": " << resp.body;
  }
  EXPECT_NE(Fetch("GET", "/health").body.find("\"queue_depth\":1"),
            std::string::npos);

  release.store(true);
  EXPECT_TRUE(running.get().ok());
  EXPECT_TRUE(queued.get().ok());
}

}  // namespace
