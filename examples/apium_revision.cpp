// The thesis' worked example (figure 3): a revision whose automatic name
// derivation must publish the new combination
// "Heliosciadium repens (Jacq.)Raguenaud".
//
// The example walks exactly through the thesis' narrative: existing
// published names and their taxonomic types are recorded, a taxonomist
// circumscribes two type specimens into a new species group inside a new
// genus group, and the ICBN-driven derivation names both groups — reusing
// Heliosciadium for the genus and minting the new combination for the
// species, typified by the older (1821) repens type.

#include <cstdio>

#include "taxonomy/report.h"
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

template <typename T>
T Require(Result<T> r, const char* what) {
  Check(r.status(), what);
  return std::move(r).value();
}

}  // namespace

int main() {
  TaxonomyDatabase tdb;
  Check(tdb.InstallIcbnRules(), "install ICBN rules");

  std::printf("--- recording published nomenclature ---\n");
  Oid apium = Require(tdb.PublishName("Apium", Rank::kGenus, "L.", 1753,
                                      "Species Plantarum"),
                      "publish Apium");
  Oid graveolens = Require(
      tdb.PublishName("graveolens", Rank::kSpecies, "L.", 1753),
      "publish graveolens");
  Check(tdb.RecordPlacement(graveolens, apium), "place graveolens");
  Oid repens = Require(
      tdb.PublishName("repens", Rank::kSpecies, "(Jacq.)Lag.", 1821),
      "publish repens");
  Check(tdb.RecordPlacement(repens, apium), "place repens");
  Oid helio = Require(tdb.PublishName("Heliosciadium", Rank::kGenus,
                                      "W.D.J.Koch.", 1824,
                                      "Nova Acta Phys.-Med."),
                      "publish Heliosciadium");
  Oid nodiflorum = Require(tdb.PublishName("nodiflorum", Rank::kSpecies,
                                           "(L.)W.D.J.Koch.", 1824),
                           "publish nodiflorum");
  Check(tdb.RecordPlacement(nodiflorum, helio), "place nodiflorum");

  std::printf("--- typification (figure 2) ---\n");
  Oid spec_graveolens = Require(
      tdb.AddSpecimen("C. von Linnaeus", "BM", "Herb.Cliff.107"),
      "specimen graveolens");
  Oid spec_repens =
      Require(tdb.AddSpecimen("Jacquin", "W", "42"), "specimen repens");
  Oid spec_nodiflorum = Require(
      tdb.AddSpecimen("W.D.J.Koch", "B", "Nova Acta 12(1)"),
      "specimen nodiflorum");
  Check(tdb.Typify(graveolens, spec_graveolens, TypeKind::kLectotype),
        "typify graveolens");
  Check(tdb.Typify(repens, spec_repens, TypeKind::kHolotype),
        "typify repens");
  Check(tdb.Typify(nodiflorum, spec_nodiflorum, TypeKind::kHolotype),
        "typify nodiflorum");
  Check(tdb.Typify(apium, graveolens, TypeKind::kHolotype), "typify Apium");
  Check(tdb.Typify(helio, nodiflorum, TypeKind::kHolotype),
        "typify Heliosciadium");

  std::printf("--- the revision: classify, then derive names ---\n");
  Oid revision =
      Require(tdb.NewClassification("Revision of Apium s.l.", "Raguenaud",
                                    2000, "PhD thesis"),
              "new classification");
  Oid taxon1 = Require(tdb.NewTaxon(revision, Rank::kGenus, "Taxon 1"),
                       "taxon 1");
  Oid taxon2 = Require(tdb.NewTaxon(revision, Rank::kSpecies, "Taxon 2"),
                       "taxon 2");
  Check(tdb.PlaceTaxon(revision, taxon1, taxon2,
                       "umbel morphology groups these species"),
        "place taxon2");
  Check(tdb.Circumscribe(revision, taxon2, spec_repens,
                         "matches Jacquin's material"),
        "circumscribe repens type");
  Check(tdb.Circumscribe(revision, taxon2, spec_nodiflorum,
                         "matches Koch's material"),
        "circumscribe nodiflorum type");

  DerivationResult genus = Require(
      tdb.DeriveName(revision, taxon1, "Raguenaud", 2000), "derive genus");
  std::printf("Taxon 1 (Genus)  -> %s%s\n", genus.full_name.c_str(),
              genus.newly_published ? "  [newly published]" : "");

  DerivationResult species = Require(
      tdb.DeriveName(revision, taxon2, "Raguenaud", 2000), "derive species");
  std::printf("Taxon 2 (Species)-> %s%s\n", species.full_name.c_str(),
              species.newly_published ? "  [newly published]" : "");

  // The derivation preserved the epithet's priority: the new combination
  // is typified by the repens (1821) type, not the younger nodiflorum.
  std::vector<Oid> types = tdb.PrimaryTypeSpecimensOf(species.name);
  std::printf("new combination typified by specimen @%llu (Jacquin's "
              "repens type @%llu)\n",
              static_cast<unsigned long long>(types.empty() ? 0 : types[0]),
              static_cast<unsigned long long>(spec_repens));

  // Traceability: the classification records *why*.
  auto why = tdb.query().Execute(
      "select l.motivation from contains l "
      "where l.target.working_name = 'Taxon 2'",
      tdb.db().live_store());
  if (why.ok() && !why.value().rows.empty()) {
    std::printf("placement motivation: %s\n",
                why.value().rows[0][0].ToString().c_str());
  }
  // The finished revision, as a taxonomist would print it.
  auto tree = RenderClassificationTree(tdb, revision);
  if (tree.ok()) std::printf("\n%s", tree.value().c_str());
  auto dossier = RenderNameDossier(tdb, species.name);
  if (dossier.ok()) std::printf("\n%s", dossier.value().c_str());

  std::printf("apium_revision OK\n");
  return 0;
}
