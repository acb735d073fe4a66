// Views (thesis 3.2.2 resolves the read-time/write-time trade-off in
// favour of virtual views for volatile revision data): a view is
// evaluated on demand against the store the caller names, so reads scan
// the candidate extent and writes pay nothing. The table reads a view
// against the live store and against a pinned snapshot — the same
// evaluation, and the snapshot read is what any non-writer thread does.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/database.h"
#include "views/view_manager.h"

namespace {

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::Oid;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::ViewDef;
using prometheus::ViewManager;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

void Populate(Database* db, int objects) {
  (void)db->DefineClass("Taxon", {},
                        {Attr("rank", ValueType::kString),
                         Attr("year", ValueType::kInt)});
  for (int i = 0; i < objects; ++i) {
    (void)db->CreateObject(
        "Taxon", {{"rank", Value::String(i % 10 == 0 ? "Genus" : "Species")},
                  {"year", Value::Int(1700 + i % 300)}});
  }
}

ViewDef GenusView() {
  ViewDef def;
  def.name = "genera";
  def.class_name = "Taxon";
  def.predicate = "self.rank = 'Genus'";
  return def;
}

void PrintSeries() {
  prometheus::bench::PrintTableHeader(
      "Views: virtual evaluation (10% selectivity)",
      "  objects   live_store_ms  pinned_snapshot_ms  update_ms");
  for (int objects : {1000, 4000}) {
    Database db;
    Populate(&db, objects);
    ViewManager views(&db);
    (void)views.Define(GenusView());

    const double live_read = prometheus::bench::MedianMillis(
        [&] {
          benchmark::DoNotOptimize(
              views.Evaluate("genera", db.live_store()).ok());
        },
        5);
    double pinned_read = 0;
    {
      const prometheus::SnapshotHandle snap = db.AcquireSnapshot();
      pinned_read = prometheus::bench::MedianMillis(
          [&] {
            benchmark::DoNotOptimize(views.Evaluate("genera", *snap).ok());
          },
          5);
    }

    // Write side: a defined view adds no per-mutation work.
    std::vector<Oid> taxa = db.Extent("Taxon");
    const double update = prometheus::bench::MedianMillis(
        [&] {
          for (int i = 0; i < 1000; ++i) {
            (void)db.SetAttribute(taxa[static_cast<std::size_t>(i) %
                                       taxa.size()],
                                  "year", Value::Int(1800 + i));
          }
        },
        3);
    std::printf("  %7d   %13.3f  %18.3f  %9.3f\n", objects, live_read,
                pinned_read, update);
  }
}

void BM_VirtualRead(benchmark::State& state) {
  Database db;
  Populate(&db, static_cast<int>(state.range(0)));
  ViewManager views(&db);
  (void)views.Define(GenusView());
  for (auto _ : state) {
    benchmark::DoNotOptimize(views.Evaluate("genera", db.live_store()).ok());
  }
}
BENCHMARK(BM_VirtualRead)->Arg(1000)->Arg(4000)->Unit(benchmark::kMicrosecond);

void BM_VirtualReadPinned(benchmark::State& state) {
  Database db;
  Populate(&db, static_cast<int>(state.range(0)));
  ViewManager views(&db);
  (void)views.Define(GenusView());
  const prometheus::SnapshotHandle snap = db.AcquireSnapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(views.Evaluate("genera", *snap).ok());
  }
}
BENCHMARK(BM_VirtualReadPinned)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
