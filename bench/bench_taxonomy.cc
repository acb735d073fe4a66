// E8/E9/E11 — the taxonomic evaluation (thesis 7.1): typical taxonomic
// queries, multiple/historical classification handling, and what-if
// scenarios, measured on a synthetic flora (see DESIGN.md substitutions).
// Expected shape: every interaction the thesis walks through completes in
// interactive time on a flora of thousands of specimens; synonym discovery
// scales with the product of compared group sizes.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "taxonomy/synthetic.h"
#include "taxonomy/taxonomy_db.h"

namespace {

using prometheus::Oid;
using prometheus::Value;
using prometheus::taxonomy::Flora;
using prometheus::taxonomy::FloraConfig;
using prometheus::taxonomy::GenerateFlora;
using prometheus::taxonomy::GenerateRevision;
using prometheus::taxonomy::TaxonomyDatabase;

FloraConfig MediumFlora() {
  FloraConfig config;
  config.families = 3;
  config.genera_per_family = 8;
  config.species_per_genus = 12;
  config.specimens_per_species = 4;
  return config;
}

void PrintSeries() {
  FloraConfig config = MediumFlora();
  TaxonomyDatabase tdb;
  auto flora_or = GenerateFlora(&tdb, config);
  if (!flora_or.ok()) {
    std::printf("flora generation failed: %s\n",
                flora_or.status().ToString().c_str());
    return;
  }
  Flora flora = std::move(flora_or).value();
  auto revision_or = GenerateRevision(&tdb, flora, 6, 99);
  if (!revision_or.ok()) {
    std::printf("revision generation failed: %s\n",
                revision_or.status().ToString().c_str());
    return;
  }
  Oid revision = revision_or.value();

  prometheus::bench::PrintTableHeader(
      "E8/E9/E11: taxonomic evaluation (3 families, 24 genera, 288 "
      "species, 1152 specimens, 2 overlapping classifications)",
      "  interaction                         ms        notes");

  // E8: typical taxonomic queries (7.1.3.1).
  double q_name = prometheus::bench::MedianMillis(
      [&] {
        benchmark::DoNotOptimize(
            tdb.query()
                .Execute("select n from NomenclaturalTaxon n where "
                         "n.name_element like 'g%' and n.rank = 'Genus'",
                         tdb.db().live_store())
                .ok());
      },
      5);
  std::printf("  %-34s %8.3f   POOL: genera by name pattern\n",
              "Q: names by pattern", q_name);

  Oid family = flora.family_taxa[0];
  double q_recursive = prometheus::bench::MedianMillis(
      [&] {
        benchmark::DoNotOptimize(
            tdb.SpecimensUnder(flora.classification, family).ok());
      },
      5);
  std::printf("  %-34s %8.3f   recursive circumscription of a family\n",
              "Q: specimens under taxon", q_recursive);

  double q_types = prometheus::bench::MedianMillis(
      [&] {
        benchmark::DoNotOptimize(
            tdb.TypeSpecimensUnder(flora.classification, family).ok());
      },
      5);
  std::printf("  %-34s %8.3f   type extraction (derivation step 1)\n",
              "Q: type specimens under taxon", q_types);

  prometheus::pool::Environment env{
      {"c", Value::Ref(flora.classification)},
      {"g", Value::Ref(flora.genus_taxa[0])}};
  double q_context = prometheus::bench::MedianMillis(
      [&] {
        benchmark::DoNotOptimize(
            tdb.query()
                .Eval("count(traverse(g, 'contains', 1, 0, 'out', c))",
                      tdb.db().live_store(), env)
                .ok());
      },
      5);
  std::printf("  %-34s %8.3f   POOL graph traversal in context\n",
              "Q: query by context", q_context);

  // E8: synonym discovery across the two classifications.
  double synonym_scan = prometheus::bench::MedianMillis(
      [&] {
        int found = 0;
        for (Oid revised :
             tdb.classifications().Roots(revision)) {
          for (Oid genus : flora.genus_taxa) {
            auto overlap = tdb.CompareTaxa(flora.classification, genus,
                                           revision, revised);
            if (overlap.kind != prometheus::SynonymyKind::kNone) ++found;
          }
        }
        benchmark::DoNotOptimize(found);
      },
      3);
  std::printf("  %-34s %8.3f   all genus pairs across classifications\n",
              "synonym discovery", synonym_scan);

  // E9: inferring the HICLAS-style operation history from overlap.
  double infer_ms = prometheus::bench::MedianMillis(
      [&] {
        benchmark::DoNotOptimize(
            tdb.InferRevisionOperations(flora.classification, revision)
                .size());
      },
      3);
  std::printf("  %-34s %8.3f   move/merge/partition inference\n",
              "infer revision operations", infer_ms);

  // E9: revision support — clone a whole classification.
  double clone_ms = prometheus::bench::MedianMillis(
      [&] {
        (void)tdb.db().Begin();
        benchmark::DoNotOptimize(
            tdb.classifications()
                .Clone(flora.classification, "copy", "t", 2001)
                .ok());
        (void)tdb.db().Abort();  // keep the database size stable
      },
      3);
  std::printf("  %-34s %8.3f   copy classification for a revision\n",
              "clone classification", clone_ms);

  // E11: what-if — derive all names of the revision speculatively.
  double whatif_ms = prometheus::bench::MedianMillis(
      [&] {
        (void)tdb.db().Begin();
        benchmark::DoNotOptimize(
            tdb.DeriveAllNames(revision, "Reviser", 2001).ok());
        (void)tdb.db().Abort();
      },
      3);
  std::printf("  %-34s %8.3f   derive names in txn, inspect, abort\n",
              "what-if name derivation", whatif_ms);

  // Committed derivation for comparison.
  double derive_ms = prometheus::bench::MedianMillis(
      [&] {
        (void)tdb.db().Begin();
        benchmark::DoNotOptimize(
            tdb.DeriveAllNames(flora.classification, "Author", 2001).ok());
        (void)tdb.db().Commit();
      },
      1);
  std::printf("  %-34s %8.3f   committed derivation (original)\n",
              "derive all names", derive_ms);
}

void BM_GenerateFlora(benchmark::State& state) {
  FloraConfig config;
  config.families = 1;
  config.genera_per_family = static_cast<int>(state.range(0));
  config.species_per_genus = 10;
  config.specimens_per_species = 3;
  for (auto _ : state) {
    TaxonomyDatabase tdb;
    benchmark::DoNotOptimize(GenerateFlora(&tdb, config).ok());
  }
}
BENCHMARK(BM_GenerateFlora)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_CompareTaxa(benchmark::State& state) {
  FloraConfig config = MediumFlora();
  TaxonomyDatabase tdb;
  auto flora = GenerateFlora(&tdb, config);
  if (!flora.ok()) return;
  auto revision = GenerateRevision(&tdb, flora.value(), 6, 99);
  if (!revision.ok()) return;
  std::vector<Oid> revised = tdb.classifications().Roots(revision.value());
  std::size_t i = 0;
  for (auto _ : state) {
    Oid a = flora.value().genus_taxa[i % flora.value().genus_taxa.size()];
    Oid b = revised[i % revised.size()];
    benchmark::DoNotOptimize(tdb.CompareTaxa(
        flora.value().classification, a, revision.value(), b));
    ++i;
  }
}
BENCHMARK(BM_CompareTaxa)->Unit(benchmark::kMicrosecond);

void BM_DeriveName(benchmark::State& state) {
  FloraConfig config;
  config.families = 1;
  config.genera_per_family = 4;
  config.species_per_genus = 8;
  config.specimens_per_species = 3;
  TaxonomyDatabase tdb;
  auto flora = GenerateFlora(&tdb, config);
  if (!flora.ok()) return;
  std::size_t i = 0;
  for (auto _ : state) {
    (void)tdb.db().Begin();
    Oid genus =
        flora.value().genus_taxa[i % flora.value().genus_taxa.size()];
    benchmark::DoNotOptimize(
        tdb.DeriveName(flora.value().classification, genus, "A", 2001).ok());
    (void)tdb.db().Abort();
    ++i;
  }
}
BENCHMARK(BM_DeriveName)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
