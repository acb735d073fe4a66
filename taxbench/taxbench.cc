// taxbench — serving benchmark for the taxonomic database.
//
// Serves a seeded synthetic flora (the E8 fixture of EXPERIMENTS.md: 3
// families x 8 genera x 12 species x 4 specimens plus an overlapping
// revision, with the ICBN rules installed and an operation journal) through
// a `server::Server` fronted by the HTTP plane, and drives it with the E19
// read mix: closed-loop HTTP readers draw from a fixed hot set of 64 range
// scans with weight 1/rank. Every answer is checked against rows computed
// from the generated data before the server started.
//
// Workloads, one per E19 phase (two HTTP readers, two server workers):
//   hot       result cache on, so after its first run every query is a hit.
//   uncached  both cache tiers off: every read is parsed, planned and run.
//   churn     cache on, plus one in-process writer that sets an attribute
//             of a random published name in a closed loop (ICBN rules,
//             journal append, MVCC publish); each commit invalidates the
//             result tier without changing any answer.
//
// End-to-end figures (--trace 0), over the whole measured window: p50 and
// p99 read latency, and the program's CPU time per operation (process CPU
// minus the CPU of the load-generating threads); plus the CPU time of one
// set-up, the median of fifteen. Per-layer figures (--trace 1) come from
// the engine's metrics registry and cache counters taken around the window.
//
// Usage: taxbench --workload <hot|uncached|churn> --seed <n>
//                 --seconds <s> --trace <0|1> --workdir <dir>
// Prints progress on stderr and one JSON object as the last stdout line.

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "index/index_manager.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/journal.h"
#include "taxonomy/synthetic.h"
#include "taxonomy/taxonomy_db.h"

namespace {

using prometheus::Database;
using prometheus::IndexManager;
using prometheus::Oid;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::taxonomy::Flora;
using prometheus::taxonomy::FloraConfig;
using prometheus::taxonomy::TaxonomyDatabase;
namespace net = prometheus::net;
namespace obs = prometheus::obs;
namespace server = prometheus::server;
namespace storage = prometheus::storage;
namespace taxonomy = prometheus::taxonomy;

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<std::string>>;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double MillisSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "taxbench: %s\n", msg.c_str());
  std::exit(2);
}

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (a.workload != "hot" && a.workload != "uncached" &&
      a.workload != "churn") {
    Die("--workload must be hot, uncached or churn");
  }
  if (a.seconds <= 0 || a.workdir.empty()) Die("need --seconds and --workdir");
  return a;
}

// --------------------------------------------------------------- fixture

/// HTTP reader clients (and front-end handler threads) in every workload.
/// E19 runs 8 clients on 4 workers; this keeps its 2:1 ratio at a size
/// that does not oversubscribe a small shared host.
constexpr int kReaders = 2;
constexpr int kWorkers = 2;

/// One served database. Members are declared in dependency order so the
/// destructor tears down front end -> server -> indexes -> journal -> data.
struct Fixture {
  std::unique_ptr<TaxonomyDatabase> tdb;
  std::unique_ptr<storage::Journal> journal;
  std::unique_ptr<IndexManager> indexes;
  std::unique_ptr<server::Server> server;
  std::unique_ptr<net::HttpFrontEnd> http;
  Flora flora;
  /// (collection year, field number) of every specimen, read from the
  /// database before serving starts: the oracle for the hot set.
  std::vector<std::pair<std::int64_t, std::string>> specimens;

  ~Fixture() {
    if (http) http->Stop();
    if (server) server->Shutdown();
  }
};

void Check(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

/// Builds the served database from scratch: schema, journal, flora,
/// revision, rules, index, server and HTTP front end. Everything a workload
/// needs before its first request is in here, so the time this takes is
/// the benchmark's set-up time.
std::unique_ptr<Fixture> BuildFixture(const Args& args) {
  auto fx = std::make_unique<Fixture>();
  fx->tdb = std::make_unique<TaxonomyDatabase>();
  auto journal = storage::Journal::Open(
      &fx->tdb->db(), args.workdir + "/journal.log",
      storage::Journal::OpenMode::kTruncate);
  Check(journal.status(), "journal open");
  fx->journal = std::move(journal).value();

  FloraConfig config;  // bench_taxonomy's MediumFlora (E8)
  config.families = 3;
  config.genera_per_family = 8;
  config.species_per_genus = 12;
  config.specimens_per_species = 4;
  config.seed = static_cast<unsigned>(args.seed);
  auto flora = taxonomy::GenerateFlora(fx->tdb.get(), config);
  Check(flora.status(), "flora");
  fx->flora = std::move(flora).value();
  Check(taxonomy::GenerateRevision(fx->tdb.get(), fx->flora, 6,
                                   static_cast<unsigned>(args.seed) + 1)
            .status(),
        "revision");
  Check(fx->tdb->InstallIcbnRules(), "rules");

  Database& db = fx->tdb->db();
  fx->indexes = std::make_unique<IndexManager>(&db);
  // The hot set filters on collection years. An ordered index there is
  // what a range-aware planner would use; today's planner scans the extent.
  Check(fx->indexes->CreateIndex(taxonomy::kSpecimenClass, "collection_year",
                                 /*ordered=*/true),
        "index");
  for (Oid specimen : fx->flora.specimens) {
    auto year = db.GetAttribute(specimen, "collection_year");
    auto field = db.GetAttribute(specimen, "field_number");
    if (!year.ok() || year.value().type() != ValueType::kInt ||
        !field.ok() || field.value().type() != ValueType::kString) {
      Die("setup: specimen without collection year or field number");
    }
    fx->specimens.emplace_back(year.value().AsInt(), field.value().AsString());
  }

  server::Server::Options options;
  options.worker_threads = kWorkers;
  options.indexes = fx->indexes.get();
  options.cache.enabled = args.workload != "uncached";
  fx->server = std::make_unique<server::Server>(&db, options);
  net::HttpFrontEnd::Options http_options;
  http_options.handler_threads = kReaders;
  fx->http = std::make_unique<net::HttpFrontEnd>(fx->server.get(),
                                                 http_options);
  Check(fx->http->Start(), "http start");
  return fx;
}

// ---------------------------------------------------------------- queries

/// A query text and the rows it must return (cells as the server renders
/// them; sorted, since no query asks for an order).
struct Page {
  std::string text;
  Rows expected;
};

/// E19's hot set (bench_server's HotQuerySet) on the flora: 64 Q2-style
/// range scans whose windows start 37 steps apart and cover a tenth of the
/// collection years (1900-1999), most popular first.
std::vector<Page> HotSet(const Fixture& fx) {
  std::vector<Page> pages;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t lo = 1900 + (i * 37) % 90;
    const std::int64_t hi = lo + 10;
    Page p;
    p.text = "select s.field_number from Specimen s where "
             "s.collection_year >= " + std::to_string(lo) +
             " and s.collection_year <= " + std::to_string(hi);
    for (const auto& [year, field] : fx.specimens) {
      if (year >= lo && year <= hi) p.expected.push_back({"\"" + field + "\""});
    }
    std::sort(p.expected.begin(), p.expected.end());
    pages.push_back(std::move(p));
  }
  return pages;
}

// ------------------------------------------------------------ HTTP client

/// Parses one JSON string starting at `body[*pos]` (the opening quote).
bool ParseJsonString(const std::string& body, std::size_t* pos,
                     std::string* out) {
  std::size_t i = *pos;
  if (i >= body.size() || body[i] != '"') return false;
  out->clear();
  for (++i; i < body.size(); ++i) {
    const char c = body[i];
    if (c == '"') {
      *pos = i + 1;
      return true;
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= body.size()) return false;
    switch (body[i]) {
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (i + 4 >= body.size()) return false;
        out->push_back(static_cast<char>(
            std::strtol(body.substr(i + 1, 4).c_str(), nullptr, 16)));
        i += 4;
        break;
      }
      default: out->push_back(body[i]); break;
    }
  }
  return false;
}

/// Extracts `"rows":[[...],...]` from a /query response body; false when
/// the body is not a successful result.
bool ParseRows(const std::string& body, Rows* rows) {
  if (body.find("\"ok\":true") == std::string::npos) return false;
  std::size_t i = body.find("\"rows\":[");
  if (i == std::string::npos) return false;
  i += 8;
  rows->clear();
  while (i < body.size()) {
    if (body[i] == ']') return true;
    if (body[i] == ',') {
      ++i;
      continue;
    }
    if (body[i] != '[') return false;
    ++i;
    std::vector<std::string> row;
    while (i < body.size() && body[i] != ']') {
      if (body[i] == ',') {
        ++i;
        continue;
      }
      std::string cell;
      if (!ParseJsonString(body, &i, &cell)) return false;
      row.push_back(std::move(cell));
    }
    ++i;
    rows->push_back(std::move(row));
  }
  return false;
}

enum class Outcome { kOk, kFailed, kWrong };

/// What one operation did and how long the system took to serve it. The
/// time covers the call into the server only; checking the answer is not
/// part of it.
struct OpResult {
  Outcome outcome;
  double ms;
};

/// One keep-alive connection to the front end.
class HttpQuerier {
 public:
  explicit HttpQuerier(int port) : port_(port) { Reconnect(); }

  /// Runs `page` and compares the answer with its expected rows.
  OpResult Run(const Page& page) {
    if (!conn_) Reconnect();
    if (!conn_) return {Outcome::kFailed, 0};
    const Clock::time_point t0 = Clock::now();
    auto resp = conn_->RoundTrip("POST", "/query", page.text,
                                 {{"Content-Type", "text/plain"}});
    const double ms = MillisSince(t0);
    if (!resp.ok()) {
      conn_.reset();
      return {Outcome::kFailed, ms};
    }
    Rows rows;
    if (resp.value().status_code != 200 ||
        !ParseRows(resp.value().body, &rows)) {
      return {Outcome::kFailed, ms};
    }
    std::sort(rows.begin(), rows.end());
    return {rows == page.expected ? Outcome::kOk : Outcome::kWrong, ms};
  }

 private:
  void Reconnect() {
    auto c = net::HttpConnection::Connect("127.0.0.1", port_);
    if (c.ok()) conn_ = std::move(c).value();
  }

  int port_;
  std::unique_ptr<net::HttpConnection> conn_;
};

// --------------------------------------------------------------- driving

/// Phase flag shared by the clients: warm-up, measured window, stop.
enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// A load-generating client: its operation, and whether the operation is a
/// read (reads alone make the latency percentiles, as in E19).
struct LoadClient {
  std::function<OpResult()> op;
  bool read;
};

struct ClientStats {
  std::vector<double> ms;  ///< service time of each successful op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
};

/// Runs `client.op` in a closed loop until the phase flips to kStop and
/// records the ops that started inside the measured window.
void ClientLoop(const std::atomic<int>& phase, const LoadClient& client,
                ClientStats* stats) {
  while (true) {
    const int at_start = phase.load(std::memory_order_acquire);
    if (at_start == kStop) return;
    const OpResult result = client.op();
    if (at_start != kMeasure) continue;
    ++stats->attempted;
    if (result.outcome != Outcome::kOk) {
      ++stats->failed;
      if (result.outcome == Outcome::kWrong) ++stats->wrong;
      continue;
    }
    stats->ms.push_back(result.ms);
  }
}

/// Registry and cache counters around the measured window.
struct Counters {
  obs::MetricsSnapshot metrics;
  prometheus::cache::QueryCacheStats cache;

  static Counters Take(server::Server& srv) {
    return {obs::Registry().Snapshot(), srv.query_cache().Stats()};
  }
  double Counter(const std::string& name) const {
    return static_cast<double>(metrics.CounterOr0(name));
  }
  double HistSum(const std::string& name) const {
    for (const auto& h : metrics.histograms) {
      if (h.name == name) return h.hist.sum;
    }
    return 0;
  }
  double Gauge(const std::string& name) const {
    for (const auto& g : metrics.gauges) {
      if (g.name == name) return static_cast<double>(g.value);
    }
    return 0;
  }
};

struct RunResult {
  std::vector<double> read_ms;  ///< every successful read of the window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t ops = 0;  ///< successful reads and writes
  double ms_sum = 0;      ///< their summed latency
  double window_s = 0;
  double program_cpu_s = 0;  ///< the program's CPU time in the window
  Counters before;
  Counters after;
};

/// CPU time spent so far by the process, less that of the threads that
/// generate load and check answers (the clients and the calling thread):
/// what is left is the program's own work.
double ProgramCpuSeconds(std::vector<std::thread>& harness) {
  double cpu = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
               CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  for (std::thread& t : harness) {
    clockid_t clock;
    if (pthread_getcpuclockid(t.native_handle(), &clock) != 0) {
      Die("no CPU clock for a client thread");
    }
    cpu -= CpuSeconds(clock);
  }
  return cpu;
}

/// Drives the clients through a warm-up and the measured window. Every
/// figure is taken over the whole window: the host this runs on switches
/// between faster and slower spells within seconds, and a pooled figure
/// moves with the share of each spell in the window, where a median over
/// sub-windows would jump from one spell's value to the other's.
RunResult Drive(Fixture& fx, const Args& args,
                const std::vector<LoadClient>& clients) {
  std::atomic<int> phase{kWarmup};
  std::vector<ClientStats> stats(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] { ClientLoop(phase, clients[i], &stats[i]); });
  }
  const double warmup_s = std::min(1.0, 0.2 * args.seconds);
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));

  RunResult r;
  r.before = Counters::Take(*fx.server);
  const double cpu0 = ProgramCpuSeconds(threads);
  const Clock::time_point start = Clock::now();
  phase.store(kMeasure, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(args.seconds));
  r.program_cpu_s = ProgramCpuSeconds(threads) - cpu0;
  phase.store(kStop, std::memory_order_release);
  r.window_s = SecondsSince(start);
  for (std::thread& t : threads) t.join();
  r.after = Counters::Take(*fx.server);

  for (std::size_t i = 0; i < clients.size(); ++i) {
    const ClientStats& s = stats[i];
    if (clients[i].read) {
      r.read_ms.insert(r.read_ms.end(), s.ms.begin(), s.ms.end());
    }
    for (double ms : s.ms) r.ms_sum += ms;
    r.ops += s.ms.size();
    r.attempted += s.attempted;
    r.failed += s.failed;
    r.wrong += s.wrong;
  }
  return r;
}

/// One HTTP reader per `kReaders`, each drawing from the hot set with
/// weight 1/rank, as E19's fleet does.
void AddReaders(const Fixture& fx, const Args& args,
                const std::vector<Page>& hot, std::vector<LoadClient>* out) {
  std::vector<double> weights;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    weights.push_back(1.0 / static_cast<double>(i + 1));
  }
  for (int c = 0; c < kReaders; ++c) {
    auto querier = std::make_shared<HttpQuerier>(fx.http->port());
    auto rng = std::make_shared<std::mt19937_64>(args.seed * 1000003 +
                                                 static_cast<unsigned>(c));
    auto pick = std::make_shared<std::discrete_distribution<std::size_t>>(
        weights.begin(), weights.end());
    out->push_back({[&hot, querier, rng, pick] {
                      return querier->Run(hot[(*pick)(*rng)]);
                    },
                    true});
  }
}

/// The E19 churn writer: sets an attribute that no hot query reads on a
/// random object, so each commit invalidates the result tier without
/// changing any answer. Here the objects are the flora's published names
/// and the attribute their publication, so each write also evaluates the
/// ICBN name rules (E10). `last` records the value each name must end with.
LoadClient Writer(Fixture& fx, const Args& args,
                  std::map<Oid, std::string>* last) {
  struct State {
    State(server::Server* srv, std::uint64_t seed) : client(srv), rng(seed) {}
    server::Client client;
    std::mt19937_64 rng;
    std::uint64_t n = 0;
  };
  auto st = std::make_shared<State>(fx.server.get(), args.seed * 1000003 + 500);
  const std::vector<Oid>* names = &fx.flora.names;
  return {[st, names, last] {
            const Oid name = (*names)[st->rng() % names->size()];
            std::string value = "revision " + std::to_string(st->n++);
            const Clock::time_point t0 = Clock::now();
            const Status s =
                st->client.SetAttribute(name, "publication",
                                        Value::String(value));
            const double ms = MillisSince(t0);
            if (!s.ok()) {
              std::fprintf(stderr, "churn: write failed: %s\n",
                           s.ToString().c_str());
              return OpResult{Outcome::kFailed, ms};
            }
            (*last)[name] = std::move(value);
            return OpResult{Outcome::kOk, ms};
          },
          false};
}

/// True when every name the writer touched holds the value it wrote last.
bool WritesLanded(const Fixture& fx, const std::map<Oid, std::string>& last) {
  for (const auto& [name, value] : last) {
    auto v = fx.tdb->db().GetAttribute(name, "publication");
    if (!v.ok() || v.value().type() != ValueType::kString ||
        v.value().AsString() != value) {
      return false;
    }
  }
  return true;
}

// --------------------------------------------------------------- report

/// Quantile `q` of sorted `v`, interpolating between neighbours.
double Quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double idx = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.5);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const RunResult& r, double setup_s) {
  std::vector<double> reads = r.read_ms;
  std::sort(reads.begin(), reads.end());
  return {
      {"p50_ms", Quantile(reads, 0.5), "ms"},
      {"p99_ms", Quantile(reads, 0.99), "ms"},
      {"cpu_us_per_op",
       r.program_cpu_s * 1e6 / std::max<double>(1, static_cast<double>(r.ops)),
       "us"},
      {"setup_s", setup_s, "s"},
  };
}

/// Peak resident set of the process (set-ups included).
double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Per-layer split of one operation, from the engine's own counters taken
/// around the measured window. The four server-side times (admission,
/// queue, execution, response rendering) plus `other_us` add up to the mean
/// operation latency; `other_us` is what the server does not attribute:
/// HTTP transport and parsing, result-cache hits served at admission, and
/// for writes the in-process call and journal appends.
std::vector<Metric> PerLayer(const RunResult& r) {
  const Counters& a = r.before;
  const Counters& b = r.after;
  const double ops = std::max<double>(1, static_cast<double>(r.ops));
  auto per_op = [&](double delta) { return delta / ops; };
  auto hist = [&](const char* name) {
    return per_op(b.HistSum(name) - a.HistSum(name));
  };
  auto counter = [&](const char* name) {
    return per_op(b.Counter(name) - a.Counter(name));
  };
  const double admission = hist("request_wait_micros{state=\"admission\"}");
  const double queue = hist("request_wait_micros{state=\"queue\"}");
  const double execute = hist("request_wait_micros{state=\"execute\"}");
  const double serialize = hist("request_wait_micros{state=\"serialize\"}");
  const double mean_us = r.ms_sum * 1000.0 / ops;
  auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  const double result_hits =
      static_cast<double>(b.cache.result.hits - a.cache.result.hits);
  const double result_misses =
      static_cast<double>(b.cache.result.misses - a.cache.result.misses);
  const double plan_hits =
      static_cast<double>(b.cache.plan.hits - a.cache.plan.hits);
  const double plan_misses =
      static_cast<double>(b.cache.plan.misses - a.cache.plan.misses);
  return {
      {"op_mean_us", mean_us, "us"},
      {"admission_us", admission, "us"},
      {"queue_us", queue, "us"},
      {"execute_us", execute, "us"},
      {"serialize_us", serialize, "us"},
      {"other_us", mean_us - admission - queue - execute - serialize, "us"},
      {"result_cache_hit_ratio", ratio(result_hits, result_misses), "ratio"},
      {"plan_cache_hit_ratio", ratio(plan_hits, plan_misses), "ratio"},
      {"rows_scanned_per_op", counter("pool_rows_scanned_total"), "rows"},
      {"index_lookups_per_op", counter("pool_index_lookups_total"), "count"},
      {"index_fallbacks_per_op", counter("pool_index_fallbacks_total"),
       "count"},
      {"extent_scans_per_op", counter("pool_extent_scans_total"), "count"},
      {"rules_evaluated_per_op", counter("rules_evaluated_total"), "count"},
      {"journal_bytes_per_op", counter("journal_bytes_total"), "B"},
      {"mvcc_retained_versions", b.Gauge("mvcc_retained_versions"), "count"},
      {"peak_rss_mib", PeakRssMiB(), "MiB"},
  };
}

void PrintResult(bool correct, const RunResult& r,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  // Set-up is timed in CPU seconds, which a busy host's scheduling delays
  // do not inflate, and repeated: one set-up takes tens of milliseconds,
  // less than one of the host's faster or slower spells, so the reported
  // median is taken over eight set-ups before the measured window (the last
  // one serves it) and seven after.
  std::vector<double> setup_times;
  auto set_up = [&] {
    const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    std::unique_ptr<Fixture> fixture = BuildFixture(args);
    setup_times.push_back(CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0);
    return fixture;
  };
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < 8; ++i) {
    fx.reset();
    fx = set_up();
  }
  std::fprintf(stderr, "taxbench: %zu objects served\n",
               fx->tdb->db().object_count());

  const std::vector<Page> hot = HotSet(*fx);
  std::vector<LoadClient> clients;
  AddReaders(*fx, args, hot, &clients);
  std::map<Oid, std::string> last_written;
  if (args.workload == "churn") {
    clients.push_back(Writer(*fx, args, &last_written));
  }
  RunResult r = Drive(*fx, args, clients);
  const bool landed = WritesLanded(*fx, last_written);
  clients.clear();
  fx.reset();
  for (int i = 0; i < 7; ++i) set_up();
  const double setup_s = Median(setup_times);

  const bool correct = landed && r.wrong == 0 && r.failed == 0 && r.ops > 0;
  std::fprintf(stderr,
               "taxbench: %s: %llu ops (%zu reads) in %.2f s, %llu failed, "
               "%llu wrong, writes %s; setup %.4f CPU s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(r.attempted), r.read_ms.size(),
               r.window_s, static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(r.wrong),
               landed ? "landed" : "LOST", setup_s);
  std::fprintf(stderr, "taxbench: set-up CPU s:");
  for (double t : setup_times) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
  PrintResult(correct, r, args.trace ? PerLayer(r) : EndToEnd(r, setup_s));
  return 0;
}
