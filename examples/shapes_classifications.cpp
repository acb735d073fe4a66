// The thesis' multiple-classification scenario (figure 4): four
// taxonomists classify an evolving pool of "shape" specimens in
// overlapping, conflicting ways. The example shows the feature the thesis
// is about — all classifications coexist over the *same* specimens, each
// is queryable in isolation through its context / a view, and synonymy
// between groups is discovered from specimen overlap rather than names.

#include <cstdio>

#include "taxonomy/taxonomy_db.h"
#include "views/view_manager.h"

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

const char* KindName(SynonymyKind kind) {
  switch (kind) {
    case SynonymyKind::kNone:
      return "not synonyms";
    case SynonymyKind::kProParte:
      return "pro parte synonyms";
    case SynonymyKind::kFull:
      return "full synonyms";
  }
  return "?";
}

}  // namespace

int main() {
  TaxonomyDatabase tdb;

  // The specimen pool.
  Oid square = Require(tdb.AddSpecimen("t1", "E", "white square"), "s");
  Oid rectangle =
      Require(tdb.AddSpecimen("t2", "E", "white rectangle"), "s");
  Oid oval = Require(tdb.AddSpecimen("t1", "E", "black oval"), "s");
  Oid circle = Require(tdb.AddSpecimen("t2", "E", "dark grey circle"), "s");
  Oid triangle =
      Require(tdb.AddSpecimen("t1", "E", "light grey triangle"), "s");

  // ---- Taxonomist 1 (1890): two-level classification by shape.
  Oid c1 = Require(tdb.NewClassification("Shapes, 1st ed.", "Taxonomist 1",
                                         1890),
                   "c1");
  Oid shapes1 = Require(tdb.NewTaxon(c1, Rank::kGenus, "Shapes"), "t");
  Oid squares1 = Require(tdb.NewTaxon(c1, Rank::kSpecies, "Squares"), "t");
  Oid ovals1 = Require(tdb.NewTaxon(c1, Rank::kSpecies, "Ovals"), "t");
  Oid triangles1 =
      Require(tdb.NewTaxon(c1, Rank::kSpecies, "Triangles"), "t");
  Check(tdb.PlaceTaxon(c1, shapes1, squares1, "four equal angles"), "p");
  Check(tdb.PlaceTaxon(c1, shapes1, ovals1, "no angles"), "p");
  Check(tdb.PlaceTaxon(c1, shapes1, triangles1, "three angles"), "p");
  Check(tdb.Circumscribe(c1, squares1, square), "c");
  Check(tdb.Circumscribe(c1, squares1, rectangle), "c");
  Check(tdb.Circumscribe(c1, ovals1, oval), "c");
  Check(tdb.Circumscribe(c1, ovals1, circle), "c");
  Check(tdb.Circumscribe(c1, triangles1, triangle), "c");

  // ---- Taxonomist 3 (1950): reclassifies by brightness.
  Oid c3 = Require(tdb.NewClassification("By brightness", "Taxonomist 3",
                                         1950),
                   "c3");
  Oid shapes3 = Require(tdb.NewTaxon(c3, Rank::kGenus, "Shapes"), "t");
  Oid light3 = Require(tdb.NewTaxon(c3, Rank::kSpecies, "Light"), "t");
  Oid dark3 = Require(tdb.NewTaxon(c3, Rank::kSpecies, "Dark"), "t");
  Check(tdb.PlaceTaxon(c3, shapes3, light3, "high albedo"), "p");
  Check(tdb.PlaceTaxon(c3, shapes3, dark3, "low albedo"), "p");
  Check(tdb.Circumscribe(c3, light3, square), "c");
  Check(tdb.Circumscribe(c3, light3, rectangle), "c");
  Check(tdb.Circumscribe(c3, light3, circle), "c");
  Check(tdb.Circumscribe(c3, dark3, oval), "c");
  Check(tdb.Circumscribe(c3, dark3, triangle), "c");

  // ---- Taxonomist 4 (1990): revision = clone of taxonomist 1 plus the
  //      newly discovered diamond.
  Oid c4 = Require(tdb.classifications().Clone(c1, "Shapes, revised",
                                               "Taxonomist 4", 1990),
                   "clone");
  Oid diamond = Require(tdb.AddSpecimen("t4", "E", "diamond"), "s");
  Check(tdb.Circumscribe(c4, squares1, diamond,
                         "diamonds are rotated squares"),
        "c");

  std::printf("three overlapping classifications over %zu specimens:\n",
              tdb.db().Extent(kSpecimenClass).size());
  for (Oid c : tdb.classifications().All()) {
    auto name = tdb.db().GetAttribute(c, "name");
    auto author = tdb.db().GetAttribute(c, "author");
    std::printf("  %-20s by %-14s  %zu edges\n",
                name.value().AsString().c_str(),
                author.value().AsString().c_str(),
                tdb.classifications().Edges(c).size());
  }

  // Same specimen, different parents per context.
  std::printf("\nthe white square is classified as:\n");
  for (auto [ctx, label] : {std::pair<Oid, const char*>{c1, "1890"},
                            {c3, "1950"},
                            {c4, "1990"}}) {
    for (Oid parent : tdb.classifications().Parents(ctx, square)) {
      auto wn = tdb.db().GetAttribute(parent, "working_name");
      std::printf("  %s: %s\n", label, wn.value().AsString().c_str());
    }
  }

  // Specimen-based synonym discovery across classifications.
  std::printf("\nsynonymy (specimen-based comparison):\n");
  struct Pair {
    const char* label;
    Oid ca, ta, cb, tb;
  };
  for (const Pair& p : {
           Pair{"Squares(1890) vs Light(1950)", c1, squares1, c3, light3},
           Pair{"Shapes(1890)  vs Shapes(1950)", c1, shapes1, c3, shapes3},
           Pair{"Squares(1890) vs Dark(1950)", c1, squares1, c3, dark3},
           Pair{"Squares(1890) vs Squares(1990)", c1, squares1, c4,
                squares1},
       }) {
    OverlapReport rep = tdb.CompareTaxa(p.ca, p.ta, p.cb, p.tb);
    std::printf("  %-32s %-20s (%zu shared specimens)\n", p.label,
                KindName(rep.kind), rep.shared.size());
  }

  // Views: extract one classification from the overlapping store.
  ViewManager views(&tdb.db());
  ViewDef def;
  def.name = "taxonomy_1890";
  def.context = c1;
  Check(views.Define(def), "define view");
  std::printf("\nview 'taxonomy_1890' sees %zu objects, %zu edges\n",
              views.Evaluate("taxonomy_1890", tdb.db().live_store())
                  .value()
                  .size(),
              views.EvaluateEdges("taxonomy_1890", tdb.db().live_store())
                  .value()
                  .size());

  std::printf("shapes_classifications OK\n");
  return 0;
}
