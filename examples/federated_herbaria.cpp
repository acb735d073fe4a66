// Federation of taxonomic databases — the thesis' chapter-1 motivation
// ("the integration of multiple sources makes the management of all
// classifications difficult") and chapter-8 future work ("distribution of
// the system over many localised taxonomic database systems").
//
// Two institutions maintain independent Prometheus databases over
// overlapping collections. One exports a snapshot; the other imports it
// (oids remapped, schema merged). The two floras then coexist as
// overlapping classifications, duplicates are unified through instance
// synonyms, and specimen-based comparison exposes which groups the
// institutions agree on.

#include <cstdio>
#include <sstream>

#include "storage/import.h"
#include "storage/snapshot.h"
#include "taxonomy/taxonomy_db.h"

using namespace prometheus;
using namespace prometheus::taxonomy;

namespace {

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::printf("FAILED %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

struct Institution {
  TaxonomyDatabase tdb;
  Oid flora = kNullOid;
  Oid genus = kNullOid;
  std::vector<Oid> sheets;  // specimen oids, sheets[i] collected on trip i
};

/// Both institutions hold duplicates of the same five collecting trips;
/// each classifies its sheets into its own genus concept.
void BuildInstitution(Institution* inst, const char* name,
                      const char* genus_name, int keep_from, int keep_to) {
  inst->flora =
      inst->tdb.NewClassification(std::string("Flora ") + name, name, 1995)
          .value();
  inst->genus =
      inst->tdb.NewTaxon(inst->flora, Rank::kGenus, genus_name).value();
  for (int trip = 0; trip < 5; ++trip) {
    Oid sheet = inst->tdb
                    .AddSpecimen("Shared Expedition", name,
                                 "trip-" + std::to_string(trip), 1990 + trip)
                    .value();
    inst->sheets.push_back(sheet);
    if (trip >= keep_from && trip <= keep_to) {
      Check(inst->tdb.Circumscribe(inst->flora, inst->genus, sheet,
                                   "determined on site"),
            "circumscribe");
    }
  }
}

}  // namespace

int main() {
  // Edinburgh circumscribes trips 0..3 into "Apium"; Kew circumscribes
  // trips 2..4 into "Heliosciadium".
  Institution edinburgh;
  BuildInstitution(&edinburgh, "Edinburgh", "Apium", 0, 3);
  Institution kew;
  BuildInstitution(&kew, "Kew", "Heliosciadium", 2, 4);

  std::printf("Edinburgh: %zu objects; Kew: %zu objects\n",
              edinburgh.tdb.db().object_count(), kew.tdb.db().object_count());

  // Kew publishes its database as a snapshot; Edinburgh imports it.
  std::stringstream wire;
  Check(storage::SaveSnapshot(kew.tdb.db(), wire), "export Kew");
  auto report = storage::ImportSnapshot(&edinburgh.tdb.db(), wire);
  Check(report.status(), "import into Edinburgh");
  std::printf("imported %zu objects, %zu links (schema merged: %zu new "
              "classes)\n",
              report.value().objects_imported,
              report.value().links_imported,
              report.value().classes_defined);

  // The curators recognise the shared expedition sheets as duplicates of
  // the same gatherings: instance synonyms unify them.
  for (int trip = 0; trip < 5; ++trip) {
    Oid kew_sheet = report.value().oid_map.at(kew.sheets[trip]);
    Check(edinburgh.tdb.db().DeclareSynonym(edinburgh.sheets[trip],
                                            kew_sheet),
          "declare duplicate");
  }

  // Cross-institution comparison, on objective specimen evidence.
  Oid kew_flora = report.value().oid_map.at(kew.flora);
  Oid kew_genus = report.value().oid_map.at(kew.genus);
  OverlapReport overlap = edinburgh.tdb.CompareTaxa(
      edinburgh.flora, edinburgh.genus, kew_flora, kew_genus);
  const char* verdict =
      overlap.kind == SynonymyKind::kFull
          ? "full synonyms"
          : overlap.kind == SynonymyKind::kProParte ? "pro parte synonyms"
                                                    : "not synonyms";
  std::printf(
      "\nEdinburgh's Apium vs Kew's Heliosciadium: %s\n"
      "  shared gatherings: %zu (trips 2, 3)\n"
      "  only Edinburgh:    %zu (trips 0, 1)\n"
      "  only Kew:          %zu (trip 4)\n",
      verdict, overlap.shared.size(), overlap.only_a.size(),
      overlap.only_b.size());

  // POOL sees the merged store as one database with two contexts.
  auto per_flora = edinburgh.tdb.query().Execute(
      "select l.context.name, count(l) from circumscribes l "
      "group by l.context.name order by l.context.name",
      edinburgh.tdb.db().live_store());
  if (per_flora.ok()) {
    std::printf("\ncircumscriptions per flora after the merge:\n");
    for (const auto& row : per_flora.value().rows) {
      std::printf("  %-18s %s\n", row[0].ToString().c_str(),
                  row[1].ToString().c_str());
    }
  }
  std::printf("federated_herbaria OK\n");
  return 0;
}
