// E6 — OO7 query tests (thesis 7.2.1.2.2): exact-match lookup (Q1), range
// scan (Q2), reverse traversal (Q4), comparing the baseline's hand-coded
// access, the Prometheus API, POOL with an extent scan, and POOL with the
// index layer (6.1.5.2). Expected shape: the declarative path costs more
// than hand-coded access, and the index recovers most of the gap for
// selective predicates.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "index/index_manager.h"
#include "oo7/oo7.h"
#include "query/query_engine.h"

namespace {

using prometheus::IndexManager;
using prometheus::oo7::BaselineOo7;
using prometheus::oo7::Config;
using prometheus::oo7::PrometheusOo7;

Config MakeConfig() {
  Config config;
  config.composite_parts = 40;
  config.assembly_levels = 4;
  return config;
}

void PrintSeries() {
  Config config = MakeConfig();
  PrometheusOo7 prom(config);
  BaselineOo7 base(config);
  IndexManager indexes(&prom.db());
  (void)indexes.CreateIndex("AtomicPart", "id");
  IndexManager dates(&prom.db());
  (void)dates.CreateIndex("AtomicPart", "build_date", /*ordered=*/true);
  prometheus::pool::QueryEngine scan_engine;
  prometheus::pool::QueryEngine indexed_engine(&indexes);
  prometheus::pool::QueryEngine range_engine(&dates);
  const prometheus::DbSnapshot& store = prom.db().live_store();

  prometheus::bench::PrintTableHeader(
      "E6: OO7 query tests (40 composites, 800 atomic parts)",
      "  test                         ms        result");
  std::uint32_t checksum = 0;
  double q1_base = prometheus::bench::MedianMillis(
      [&] { benchmark::DoNotOptimize(base.LookupQ1(200, &checksum)); }, 5);
  std::printf("  %-26s %8.4f   200 probes (hand-coded map)\n",
              "Q1 baseline", q1_base);
  double q1_prom = prometheus::bench::MedianMillis(
      [&] { benchmark::DoNotOptimize(prom.LookupQ1(200, &checksum)); }, 5);
  std::printf("  %-26s %8.4f   200 probes (API, builds dictionary)\n",
              "Q1 prometheus api", q1_prom);
  const std::string kPoolQ1 =
      "select a.x from AtomicPart a where a.id = 137";
  double q1_pool_scan = prometheus::bench::MedianMillis(
      [&] {
        benchmark::DoNotOptimize(scan_engine.Execute(kPoolQ1, store).ok());
      },
      5);
  std::printf("  %-26s %8.4f   1 probe (POOL extent scan)\n",
              "Q1 pool scan", q1_pool_scan);
  double q1_pool_index = prometheus::bench::MedianMillis(
      [&] {
        benchmark::DoNotOptimize(indexed_engine.Execute(kPoolQ1, store).ok());
      },
      5);
  std::printf("  %-26s %8.4f   1 probe (POOL + hash index)\n",
              "Q1 pool indexed", q1_pool_index);

  double q2_base = prometheus::bench::MedianMillis(
      [&] { benchmark::DoNotOptimize(base.RangeQ2(1500, 1700)); }, 5);
  std::printf("  %-26s %8.4f   range scan (hand-coded)\n", "Q2 baseline",
              q2_base);
  double q2_prom = prometheus::bench::MedianMillis(
      [&] { benchmark::DoNotOptimize(prom.RangeQ2(1500, 1700)); }, 5);
  std::printf("  %-26s %8.4f   range scan (API extent)\n",
              "Q2 prometheus api", q2_prom);
  auto q2_pool = [&](const prometheus::pool::QueryEngine& engine, int lo,
                     int hi) {
    const std::string q = "select a from AtomicPart a where a.build_date >= " +
                          std::to_string(lo) + " and a.build_date <= " +
                          std::to_string(hi);
    return prometheus::bench::MedianMillis(
        [&] { benchmark::DoNotOptimize(engine.Execute(q, store).ok()); }, 5);
  };
  std::printf("  %-26s %8.4f   range scan (POOL)\n", "Q2 pool",
              q2_pool(scan_engine, 1500, 1700));
  std::printf("  %-26s %8.4f   range probe (POOL + ordered index)\n",
              "Q2 pool + ordered index", q2_pool(range_engine, 1500, 1700));
  // Dates lie in [1000, 3000): the probe returns the whole extent.
  std::printf("  %-26s %8.4f   every date (POOL + ordered index)\n",
              "Q2 pool + ordered, unsel.", q2_pool(range_engine, 0, 9999));

  double q4_base = prometheus::bench::MedianMillis(
      [&] { benchmark::DoNotOptimize(base.ReverseQ4(200)); }, 5);
  std::printf("  %-26s %8.4f   200 reverse walks (hand-coded)\n",
              "Q4 baseline", q4_base);
  double q4_prom = prometheus::bench::MedianMillis(
      [&] { benchmark::DoNotOptimize(prom.ReverseQ4(200)); }, 5);
  std::printf("  %-26s %8.4f   200 reverse walks (API)\n",
              "Q4 prometheus api", q4_prom);
}

void BM_Q1PoolScan(benchmark::State& state) {
  Config config = MakeConfig();
  PrometheusOo7 prom(config);
  prometheus::pool::QueryEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine
            .Execute("select a.x from AtomicPart a where a.id = 137",
                     prom.db().live_store())
            .ok());
  }
}
BENCHMARK(BM_Q1PoolScan)->Unit(benchmark::kMicrosecond);

void BM_Q1PoolIndexed(benchmark::State& state) {
  Config config = MakeConfig();
  PrometheusOo7 prom(config);
  IndexManager indexes(&prom.db());
  (void)indexes.CreateIndex("AtomicPart", "id");
  prometheus::pool::QueryEngine engine(&indexes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine
            .Execute("select a.x from AtomicPart a where a.id = 137",
                     prom.db().live_store())
            .ok());
  }
}
BENCHMARK(BM_Q1PoolIndexed)->Unit(benchmark::kMicrosecond);

void BM_Q2RangePrometheus(benchmark::State& state) {
  Config config = MakeConfig();
  PrometheusOo7 prom(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prom.RangeQ2(1500, 1700));
  }
}
BENCHMARK(BM_Q2RangePrometheus)->Unit(benchmark::kMicrosecond);

void BM_Q2RangeBaseline(benchmark::State& state) {
  Config config = MakeConfig();
  BaselineOo7 base(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.RangeQ2(1500, 1700));
  }
}
BENCHMARK(BM_Q2RangeBaseline)->Unit(benchmark::kMicrosecond);

void BM_Q4ReversePrometheus(benchmark::State& state) {
  Config config = MakeConfig();
  PrometheusOo7 prom(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prom.ReverseQ4(100));
  }
}
BENCHMARK(BM_Q4ReversePrometheus)->Unit(benchmark::kMicrosecond);

void BM_Q4ReverseBaseline(benchmark::State& state) {
  Config config = MakeConfig();
  BaselineOo7 base(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.ReverseQ4(100));
  }
}
BENCHMARK(BM_Q4ReverseBaseline)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
