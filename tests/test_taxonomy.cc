#include <gtest/gtest.h>

#include <algorithm>

#include "taxonomy/taxonomy_db.h"

namespace prometheus::taxonomy {
namespace {

class TaxonomyFixture : public ::testing::Test {
 protected:
  TaxonomyDatabase tdb;
};

TEST_F(TaxonomyFixture, SchemaIsComplete) {
  Database& db = tdb.db();
  EXPECT_NE(db.FindClass(kSpecimenClass), nullptr);
  EXPECT_NE(db.FindClass(kNameClass), nullptr);
  EXPECT_NE(db.FindClass(kTaxonClass), nullptr);
  EXPECT_NE(db.FindRelationship(kTypifiedBySpecimenRel), nullptr);
  EXPECT_NE(db.FindRelationship(kPlacementRel), nullptr);
  EXPECT_NE(db.FindRelationship(kContainsRel), nullptr);
  EXPECT_NE(db.FindRelationship(kCircumscribesRel), nullptr);
  // Placement combinations are published records: constant.
  EXPECT_TRUE(
      db.FindRelationship(kPlacementRel)->semantics().constant);
}

TEST_F(TaxonomyFixture, PublishAndRenderNames) {
  Oid apium = tdb.PublishName("Apium", Rank::kGenus, "L.", 1753,
                              "Species Plantarum")
                  .value();
  Oid graveolens =
      tdb.PublishName("graveolens", Rank::kSpecies, "L.", 1753).value();
  ASSERT_TRUE(tdb.RecordPlacement(graveolens, apium).ok());
  EXPECT_EQ(tdb.FullName(apium).value(), "Apium L.");
  EXPECT_EQ(tdb.FullName(graveolens).value(), "Apium graveolens L.");
  EXPECT_EQ(tdb.PlacementOf(graveolens), apium);
  EXPECT_EQ(tdb.PlacementOf(apium), kNullOid);
  EXPECT_EQ(tdb.RankOf(apium).value(), Rank::kGenus);
}

TEST_F(TaxonomyFixture, FullNameWithoutPlacementFallsBackToEpithet) {
  Oid epithet =
      tdb.PublishName("graveolens", Rank::kSpecies, "L.", 1753).value();
  // A multinomial name without a recorded combination renders without the
  // genus part.
  EXPECT_EQ(tdb.FullName(epithet).value(), "graveolens L.");
  EXPECT_EQ(tdb.FullName(424242).status().code(), Status::Code::kNotFound);
}

TEST_F(TaxonomyFixture, PlacementIsConstantAndSingle) {
  Oid genus1 = tdb.PublishName("Apium", Rank::kGenus, "L.", 1753).value();
  Oid genus2 = tdb.PublishName("Helio", Rank::kGenus, "K.", 1824).value();
  Oid epithet =
      tdb.PublishName("repens", Rank::kSpecies, "J.", 1800).value();
  ASSERT_TRUE(tdb.RecordPlacement(epithet, genus1).ok());
  // A published combination is immutable: a second placement violates the
  // max_out=1 cardinality of the constant relationship.
  EXPECT_EQ(tdb.RecordPlacement(epithet, genus2).code(),
            Status::Code::kConstraintViolation);
}

TEST_F(TaxonomyFixture, TypificationRules) {
  Oid name = tdb.PublishName("graveolens", Rank::kSpecies, "L.", 1753)
                 .value();
  Oid s1 = tdb.AddSpecimen("Linnaeus", "BM", "Herb.Cliff.107").value();
  Oid s2 = tdb.AddSpecimen("Linnaeus", "BM", "Herb.Cliff.108").value();
  ASSERT_TRUE(tdb.Typify(name, s1, TypeKind::kHolotype).ok());
  // Only one holotype.
  EXPECT_EQ(tdb.Typify(name, s2, TypeKind::kHolotype).code(),
            Status::Code::kConstraintViolation);
  // Any number of isotypes.
  EXPECT_TRUE(tdb.Typify(name, s2, TypeKind::kIsotype).ok());
  EXPECT_EQ(tdb.TypesOf(name).size(), 2u);
  TypeKind holo = TypeKind::kHolotype;
  EXPECT_EQ(tdb.TypesOf(name, &holo), std::vector<Oid>{s1});
  EXPECT_EQ(tdb.PrimaryTypeSpecimensOf(name), std::vector<Oid>{s1});
  EXPECT_EQ(tdb.NamesTypifiedBy(s1), std::vector<Oid>{name});
  // Names can typify names (genus typified by species).
  Oid genus = tdb.PublishName("Apium", Rank::kGenus, "L.", 1753).value();
  ASSERT_TRUE(tdb.Typify(genus, name, TypeKind::kHolotype).ok());
  EXPECT_EQ(tdb.TypesOf(genus), std::vector<Oid>{name});
  // Types must be specimens or names.
  Oid cls = tdb.NewClassification("x", "y").value();
  EXPECT_EQ(tdb.Typify(name, cls, TypeKind::kIsotype).code(),
            Status::Code::kInvalidArgument);
}

TEST_F(TaxonomyFixture, IsotypesDoNotDriveDerivation) {
  // Thesis 2.1.2: "Isotypes are not used for naming if they are not
  // selected as lectotypes." A name reachable only through an isotype link
  // is not a derivation candidate; a new name gets published instead.
  Oid specimen = tdb.AddSpecimen("X", "E", "1").value();
  Oid iso_name =
      tdb.PublishName("isonymus", Rank::kGenus, "A.", 1800).value();
  ASSERT_TRUE(tdb.Typify(iso_name, specimen, TypeKind::kIsotype).ok());

  Oid c = tdb.NewClassification("C", "t").value();
  Oid taxon = tdb.NewTaxon(c, Rank::kGenus, "Novum").value();
  ASSERT_TRUE(tdb.Circumscribe(c, taxon, specimen).ok());
  auto r = tdb.DeriveName(c, taxon, "B.", 2000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().name, iso_name);
  EXPECT_TRUE(r.value().newly_published);
  EXPECT_EQ(r.value().full_name, "Novum B.");

  // Electing the specimen as lectotype of the name changes the outcome.
  ASSERT_TRUE(tdb.Typify(iso_name, specimen, TypeKind::kLectotype).ok());
  Oid taxon2 = tdb.NewTaxon(c, Rank::kGenus, "Novum2").value();
  Oid specimen2 = tdb.AddSpecimen("X", "E", "2").value();
  ASSERT_TRUE(tdb.db().DeclareSynonym(specimen, specimen2).ok());
  ASSERT_TRUE(tdb.Circumscribe(c, taxon2, specimen2).ok());
  auto r2 = tdb.DeriveName(c, taxon2, "B.", 2001);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2.value().name, iso_name);  // via the synonym duplicate, too
  EXPECT_FALSE(r2.value().newly_published);
}

TEST_F(TaxonomyFixture, RecursiveSpecimenCollection) {
  Oid c = tdb.NewClassification("C", "t1").value();
  Oid genus = tdb.NewTaxon(c, Rank::kGenus, "G").value();
  Oid sp1 = tdb.NewTaxon(c, Rank::kSpecies, "s1").value();
  Oid sp2 = tdb.NewTaxon(c, Rank::kSpecies, "s2").value();
  ASSERT_TRUE(tdb.PlaceTaxon(c, genus, sp1).ok());
  ASSERT_TRUE(tdb.PlaceTaxon(c, genus, sp2).ok());
  Oid a = tdb.AddSpecimen("x", "E", "1").value();
  Oid b = tdb.AddSpecimen("x", "E", "2").value();
  Oid d = tdb.AddSpecimen("x", "E", "3").value();
  ASSERT_TRUE(tdb.Circumscribe(c, sp1, a).ok());
  ASSERT_TRUE(tdb.Circumscribe(c, sp1, b).ok());
  ASSERT_TRUE(tdb.Circumscribe(c, sp2, d).ok());
  auto under_genus = tdb.SpecimensUnder(c, genus);
  ASSERT_TRUE(under_genus.ok());
  EXPECT_EQ(under_genus.value().size(), 3u);
  auto under_sp1 = tdb.SpecimensUnder(c, sp1);
  EXPECT_EQ(under_sp1.value().size(), 2u);
  // Type specimens: none yet.
  EXPECT_TRUE(tdb.TypeSpecimensUnder(c, genus).value().empty());
  Oid nt = tdb.PublishName("x", Rank::kSpecies, "L.", 1753).value();
  ASSERT_TRUE(tdb.Typify(nt, a, TypeKind::kHolotype).ok());
  EXPECT_EQ(tdb.TypeSpecimensUnder(c, genus).value(), std::vector<Oid>{a});
}

/// Reproduces thesis figure 3: the classification whose derivation creates
/// the new combination Heliosciadium repens (Jacq.)Raguenaud.
class Figure3Fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Published nomenclature.
    apium = tdb.PublishName("Apium", Rank::kGenus, "L.", 1753).value();
    graveolens =
        tdb.PublishName("graveolens", Rank::kSpecies, "L.", 1753).value();
    ASSERT_TRUE(tdb.RecordPlacement(graveolens, apium).ok());
    repens =
        tdb.PublishName("repens", Rank::kSpecies, "(Jacq.)Lag.", 1821)
            .value();
    ASSERT_TRUE(tdb.RecordPlacement(repens, apium).ok());
    helio = tdb.PublishName("Heliosciadium", Rank::kGenus, "W.D.J.Koch.",
                            1824)
                .value();
    nodiflorum = tdb.PublishName("nodiflorum", Rank::kSpecies,
                                 "(L.)W.D.J.Koch.", 1824)
                     .value();
    ASSERT_TRUE(tdb.RecordPlacement(nodiflorum, helio).ok());

    // Type hierarchy: specimens typify species; nodiflorum typifies
    // Heliosciadium; graveolens typifies Apium.
    spec_graveolens = tdb.AddSpecimen("Linnaeus", "BM", "Herb.Cliff.107")
                          .value();
    spec_repens = tdb.AddSpecimen("Jacquin", "W", "42").value();
    spec_nodiflorum = tdb.AddSpecimen("Koch", "B", "12").value();
    ASSERT_TRUE(
        tdb.Typify(graveolens, spec_graveolens, TypeKind::kLectotype).ok());
    ASSERT_TRUE(tdb.Typify(repens, spec_repens, TypeKind::kHolotype).ok());
    ASSERT_TRUE(
        tdb.Typify(nodiflorum, spec_nodiflorum, TypeKind::kHolotype).ok());
    ASSERT_TRUE(tdb.Typify(apium, graveolens, TypeKind::kHolotype).ok());
    ASSERT_TRUE(tdb.Typify(helio, nodiflorum, TypeKind::kHolotype).ok());

    // The new classification: Taxon 1 (Genus) contains Taxon 2 (Species);
    // Taxon 2 circumscribes the repens and nodiflorum type specimens.
    revision = tdb.NewClassification("Revision", "Raguenaud", 2000).value();
    taxon1 = tdb.NewTaxon(revision, Rank::kGenus, "Taxon 1").value();
    taxon2 = tdb.NewTaxon(revision, Rank::kSpecies, "Taxon 2").value();
    ASSERT_TRUE(tdb.PlaceTaxon(revision, taxon1, taxon2).ok());
    ASSERT_TRUE(tdb.Circumscribe(revision, taxon2, spec_repens).ok());
    ASSERT_TRUE(tdb.Circumscribe(revision, taxon2, spec_nodiflorum).ok());
  }

  TaxonomyDatabase tdb;
  Oid apium, graveolens, repens, helio, nodiflorum;
  Oid spec_graveolens, spec_repens, spec_nodiflorum;
  Oid revision, taxon1, taxon2;
};

TEST_F(Figure3Fixture, GenusDerivesToHeliosciadium) {
  // Among the type specimens under Taxon 1, only nodiflorum's climbs to a
  // Genus-rank name (Heliosciadium); Taxon 1 therefore becomes
  // Heliosciadium W.D.J.Koch.
  auto r = tdb.DeriveName(revision, taxon1, "Raguenaud", 2000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().name, helio);
  EXPECT_FALSE(r.value().newly_published);
  EXPECT_EQ(r.value().full_name, "Heliosciadium W.D.J.Koch.");
  EXPECT_EQ(tdb.CalculatedNameOf(taxon1), helio);
}

TEST_F(Figure3Fixture, SpeciesDerivesToNewCombination) {
  ASSERT_TRUE(tdb.DeriveName(revision, taxon1, "Raguenaud", 2000).ok());
  // Both repens (1821) and nodiflorum (1824) name candidates exist at
  // Species rank; repens is older and wins. But repens was placed in
  // Apium, and Taxon 2 now sits inside Heliosciadium: the combination has
  // never been published, so Heliosciadium repens (Jacq.)Raguenaud is
  // created.
  auto r = tdb.DeriveName(revision, taxon2, "Raguenaud", 2000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().newly_published);
  EXPECT_EQ(r.value().full_name, "Heliosciadium repens (Jacq.)Raguenaud");
  // The new combination is placed under Heliosciadium and typified by the
  // repens type specimen.
  Oid combo = r.value().name;
  EXPECT_EQ(tdb.PlacementOf(combo), helio);
  EXPECT_EQ(tdb.PrimaryTypeSpecimensOf(combo),
            std::vector<Oid>{spec_repens});
}

TEST_F(Figure3Fixture, DeriveAllNamesTopDown) {
  ASSERT_TRUE(tdb.DeriveAllNames(revision, "Raguenaud", 2000).ok());
  EXPECT_EQ(tdb.CalculatedNameOf(taxon1), helio);
  Oid sp_name = tdb.CalculatedNameOf(taxon2);
  ASSERT_NE(sp_name, kNullOid);
  EXPECT_EQ(tdb.FullName(sp_name).value(),
            "Heliosciadium repens (Jacq.)Raguenaud");
}

TEST_F(Figure3Fixture, ExistingCombinationIsReusedNotRepublished) {
  // If the combination already exists, derivation reuses it.
  Oid existing = tdb.PublishName("repens", Rank::kSpecies,
                                 "(Jacq.)Koch.", 1830)
                     .value();
  ASSERT_TRUE(tdb.RecordPlacement(existing, helio).ok());
  ASSERT_TRUE(tdb.DeriveName(revision, taxon1, "Raguenaud", 2000).ok());
  auto r = tdb.DeriveName(revision, taxon2, "Raguenaud", 2000);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().newly_published);
  EXPECT_EQ(r.value().name, existing);
}

TEST_F(Figure3Fixture, SameGenusKeepsPublishedBinomial) {
  // A classification where the species taxon contains only graveolens
  // material under an Apium-derived genus keeps Apium graveolens L.
  Oid c = tdb.NewClassification("C2", "t").value();
  Oid g = tdb.NewTaxon(c, Rank::kGenus, "G").value();
  Oid s = tdb.NewTaxon(c, Rank::kSpecies, "S").value();
  ASSERT_TRUE(tdb.PlaceTaxon(c, g, s).ok());
  ASSERT_TRUE(tdb.Circumscribe(c, s, spec_graveolens).ok());
  ASSERT_TRUE(tdb.DeriveName(c, g, "X", 2000).ok());
  EXPECT_EQ(tdb.CalculatedNameOf(g), apium);
  auto r = tdb.DeriveName(c, s, "X", 2000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().name, graveolens);
  EXPECT_FALSE(r.value().newly_published);
  EXPECT_EQ(r.value().full_name, "Apium graveolens L.");
}

TEST_F(Figure3Fixture, DerivationWithoutSpecimensFails) {
  Oid c = tdb.NewClassification("empty", "t").value();
  Oid g = tdb.NewTaxon(c, Rank::kGenus, "G").value();
  // No edges in c involve g yet -> SpecimensUnder can't even find the
  // taxon's subtree; circumscribe nothing and derivation must refuse.
  Oid s = tdb.NewTaxon(c, Rank::kSpecies, "S").value();
  ASSERT_TRUE(tdb.PlaceTaxon(c, g, s).ok());
  EXPECT_EQ(tdb.DeriveName(c, g, "X", 2000).status().code(),
            Status::Code::kFailedPrecondition);
}

TEST_F(Figure3Fixture, NewNamePublishedWhenNoCandidates) {
  Oid c = tdb.NewClassification("new", "t").value();
  Oid g = tdb.NewTaxon(c, Rank::kGenus, "Novogenus").value();
  Oid fresh_spec = tdb.AddSpecimen("Someone", "E", "99").value();
  ASSERT_TRUE(tdb.Circumscribe(c, g, fresh_spec).ok());
  auto r = tdb.DeriveName(c, g, "Raguenaud", 2001);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().newly_published);
  EXPECT_EQ(r.value().full_name, "Novogenus Raguenaud");
  // The elected specimen became the holotype.
  EXPECT_EQ(tdb.PrimaryTypeSpecimensOf(r.value().name),
            std::vector<Oid>{fresh_spec});
}

TEST_F(Figure3Fixture, WhatIfScenarioRollsBack) {
  // Thesis 7.1.4: experiment with a re-classification inside a
  // transaction, inspect the derived names, then abort.
  Database& db = tdb.db();
  std::size_t names_before = db.Extent(kNameClass).size();
  ASSERT_TRUE(db.Begin().ok());
  ASSERT_TRUE(tdb.DeriveAllNames(revision, "Raguenaud", 2000).ok());
  Oid speculative = tdb.CalculatedNameOf(taxon2);
  EXPECT_NE(speculative, kNullOid);
  EXPECT_EQ(tdb.FullName(speculative).value(),
            "Heliosciadium repens (Jacq.)Raguenaud");
  ASSERT_TRUE(db.Abort().ok());
  // The speculative combination is gone; nothing was published.
  EXPECT_EQ(db.Extent(kNameClass).size(), names_before);
  EXPECT_EQ(tdb.CalculatedNameOf(taxon2), kNullOid);
}

/// Reproduces thesis figure 4 (the "shapes" scenario): overlapping
/// classifications by shape and by brightness.
class Figure4Fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    square = tdb.AddSpecimen("t1", "E", "square").value();
    rectangle = tdb.AddSpecimen("t2", "E", "rectangle").value();
    oval = tdb.AddSpecimen("t1", "E", "oval").value();
    circle = tdb.AddSpecimen("t2", "E", "circle").value();
    triangle = tdb.AddSpecimen("t1", "E", "triangle").value();

    // Taxonomist 1: by shape.
    by_shape = tdb.NewClassification("by shape", "t1", 1890).value();
    shapes1 = tdb.NewTaxon(by_shape, Rank::kGenus, "Shapes").value();
    squares1 = tdb.NewTaxon(by_shape, Rank::kSpecies, "Squares").value();
    ovals1 = tdb.NewTaxon(by_shape, Rank::kSpecies, "Ovals").value();
    triangles1 =
        tdb.NewTaxon(by_shape, Rank::kSpecies, "Triangles").value();
    Ok(tdb.PlaceTaxon(by_shape, shapes1, squares1));
    Ok(tdb.PlaceTaxon(by_shape, shapes1, ovals1));
    Ok(tdb.PlaceTaxon(by_shape, shapes1, triangles1));
    Ok(tdb.Circumscribe(by_shape, squares1, square));
    Ok(tdb.Circumscribe(by_shape, squares1, rectangle));
    Ok(tdb.Circumscribe(by_shape, ovals1, oval));
    Ok(tdb.Circumscribe(by_shape, ovals1, circle));
    Ok(tdb.Circumscribe(by_shape, triangles1, triangle));

    // Taxonomist 3: by brightness (same specimens, different grouping).
    by_light = tdb.NewClassification("by brightness", "t3", 1950).value();
    shapes3 = tdb.NewTaxon(by_light, Rank::kGenus, "Shapes").value();
    light3 = tdb.NewTaxon(by_light, Rank::kSpecies, "Light").value();
    dark3 = tdb.NewTaxon(by_light, Rank::kSpecies, "Dark").value();
    Ok(tdb.PlaceTaxon(by_light, shapes3, light3));
    Ok(tdb.PlaceTaxon(by_light, shapes3, dark3));
    Ok(tdb.Circumscribe(by_light, light3, square));
    Ok(tdb.Circumscribe(by_light, light3, rectangle));
    Ok(tdb.Circumscribe(by_light, light3, circle));
    Ok(tdb.Circumscribe(by_light, dark3, oval));
    Ok(tdb.Circumscribe(by_light, dark3, triangle));
  }

  void Ok(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }

  TaxonomyDatabase tdb;
  Oid square, rectangle, oval, circle, triangle;
  Oid by_shape, shapes1, squares1, ovals1, triangles1;
  Oid by_light, shapes3, light3, dark3;
};

TEST_F(Figure4Fixture, ClassificationsOverlapButStayDistinct) {
  // The whole-set taxa are full synonyms across classifications.
  EXPECT_EQ(tdb.CompareTaxa(by_shape, shapes1, by_light, shapes3).kind,
            SynonymyKind::kFull);
  // Squares vs Light: {square, rectangle} vs {square, rectangle, circle}.
  OverlapReport rep = tdb.CompareTaxa(by_shape, squares1, by_light, light3);
  EXPECT_EQ(rep.kind, SynonymyKind::kProParte);
  EXPECT_EQ(rep.shared.size(), 2u);
  EXPECT_EQ(rep.only_b, std::vector<Oid>{circle});
  // Squares vs Dark: disjoint.
  EXPECT_EQ(tdb.CompareTaxa(by_shape, squares1, by_light, dark3).kind,
            SynonymyKind::kNone);
}

TEST_F(Figure4Fixture, HomotypicVersusHeterotypicSynonyms) {
  // Typify: squares1 and light3 derive names sharing the square holotype
  // -> homotypic. ovals1 and dark3 get different types -> heterotypic.
  Oid sq_name =
      tdb.PublishName("squarius", Rank::kSpecies, "A.", 1800).value();
  ASSERT_TRUE(tdb.Typify(sq_name, square, TypeKind::kHolotype).ok());
  Oid light_name =
      tdb.PublishName("lucidus", Rank::kSpecies, "B.", 1900).value();
  ASSERT_TRUE(tdb.Typify(light_name, square, TypeKind::kLectotype).ok());
  ASSERT_TRUE(tdb.AscribeName(squares1, sq_name).ok());
  ASSERT_TRUE(tdb.AscribeName(light3, light_name).ok());
  EXPECT_EQ(tdb.TypeSynonymyOf(by_shape, squares1, by_light, light3),
            TypeSynonymy::kHomotypic);

  Oid oval_name =
      tdb.PublishName("ovalis", Rank::kSpecies, "A.", 1800).value();
  ASSERT_TRUE(tdb.Typify(oval_name, oval, TypeKind::kHolotype).ok());
  Oid dark_name =
      tdb.PublishName("obscurus", Rank::kSpecies, "B.", 1900).value();
  ASSERT_TRUE(tdb.Typify(dark_name, triangle, TypeKind::kHolotype).ok());
  ASSERT_TRUE(tdb.AscribeName(ovals1, oval_name).ok());
  ASSERT_TRUE(tdb.AscribeName(dark3, dark_name).ok());
  EXPECT_EQ(tdb.TypeSynonymyOf(by_shape, ovals1, by_light, dark3),
            TypeSynonymy::kHeterotypic);
  // Disjoint groups are not synonyms at all.
  EXPECT_EQ(tdb.TypeSynonymyOf(by_shape, squares1, by_light, dark3),
            TypeSynonymy::kNotSynonyms);
}

TEST_F(Figure4Fixture, RevisionByCloneAndModify) {
  // Taxonomist 4 starts from taxonomist 1's classification.
  auto clone =
      tdb.classifications().Clone(by_shape, "revision", "t4", 1990);
  ASSERT_TRUE(clone.ok());
  Oid c4 = clone.value();
  // Add the newly discovered diamond specimen.
  Oid diamond = tdb.AddSpecimen("t4", "E", "diamond").value();
  ASSERT_TRUE(tdb.Circumscribe(c4, squares1, diamond).ok());
  // The original classification is untouched.
  EXPECT_EQ(tdb.SpecimensUnder(by_shape, squares1).value().size(), 2u);
  EXPECT_EQ(tdb.SpecimensUnder(c4, squares1).value().size(), 3u);
  EXPECT_EQ(tdb.CompareTaxa(by_shape, squares1, c4, squares1).kind,
            SynonymyKind::kProParte);
}

/// Inferring the HICLAS operation vocabulary (thesis 2.2) from specimen
/// overlap.
TEST_F(TaxonomyFixture, InferRevisionOperations) {
  // Original: G1{s1,s2}, G2{s3,s4}, G3{s5} (Genus), G4{s6} (Genus).
  Oid s1 = tdb.AddSpecimen("x", "E", "1").value();
  Oid s2 = tdb.AddSpecimen("x", "E", "2").value();
  Oid s3 = tdb.AddSpecimen("x", "E", "3").value();
  Oid s4 = tdb.AddSpecimen("x", "E", "4").value();
  Oid s5 = tdb.AddSpecimen("x", "E", "5").value();
  Oid s6 = tdb.AddSpecimen("x", "E", "6").value();
  Oid a = tdb.NewClassification("original", "t1").value();
  Oid g1 = tdb.NewTaxon(a, Rank::kGenus, "G1").value();
  Oid g2 = tdb.NewTaxon(a, Rank::kGenus, "G2").value();
  Oid g3 = tdb.NewTaxon(a, Rank::kGenus, "G3").value();
  Oid g4 = tdb.NewTaxon(a, Rank::kGenus, "G4").value();
  ASSERT_TRUE(tdb.Circumscribe(a, g1, s1).ok());
  ASSERT_TRUE(tdb.Circumscribe(a, g1, s2).ok());
  ASSERT_TRUE(tdb.Circumscribe(a, g2, s3).ok());
  ASSERT_TRUE(tdb.Circumscribe(a, g2, s4).ok());
  ASSERT_TRUE(tdb.Circumscribe(a, g3, s5).ok());
  ASSERT_TRUE(tdb.Circumscribe(a, g4, s6).ok());

  // Revision: G1 split into R1{s1}, R2{s2} (partition); G2 kept intact at
  // Subgenus rank (demotion); G3 merged with part of... G3's {s5} plus
  // G4's {s6} both land in R3 (merge); nothing keeps s-free taxa.
  Oid b = tdb.NewClassification("revision", "t2").value();
  Oid r1 = tdb.NewTaxon(b, Rank::kGenus, "R1").value();
  Oid r2 = tdb.NewTaxon(b, Rank::kGenus, "R2").value();
  Oid r3 = tdb.NewTaxon(b, Rank::kGenus, "R3").value();
  Oid r4 = tdb.NewTaxon(b, Rank::kSubgenus, "R4").value();
  ASSERT_TRUE(tdb.Circumscribe(b, r1, s1).ok());
  ASSERT_TRUE(tdb.Circumscribe(b, r2, s2).ok());
  ASSERT_TRUE(tdb.Circumscribe(b, r4, s3).ok());
  ASSERT_TRUE(tdb.Circumscribe(b, r4, s4).ok());
  ASSERT_TRUE(tdb.Circumscribe(b, r3, s5).ok());
  ASSERT_TRUE(tdb.Circumscribe(b, r3, s6).ok());

  auto ops = tdb.InferRevisionOperations(a, b);
  ASSERT_EQ(ops.size(), 4u);
  for (const auto& op : ops) {
    if (op.taxon_a == g1) {
      EXPECT_EQ(op.kind, TaxonomyDatabase::RevisionOpKind::kPartition);
      EXPECT_EQ(op.taxa_b.size(), 2u);
    } else if (op.taxon_a == g2) {
      // Same circumscription, lower rank: demotion.
      EXPECT_EQ(op.kind, TaxonomyDatabase::RevisionOpKind::kDemotion);
      EXPECT_EQ(op.taxa_b, std::vector<Oid>{r4});
    } else {
      // g3 and g4 both feed r3: merge.
      EXPECT_EQ(op.kind, TaxonomyDatabase::RevisionOpKind::kMerge);
      EXPECT_EQ(op.taxa_b, std::vector<Oid>{r3});
    }
  }
}

TEST_F(TaxonomyFixture, InferRecognitionMoveAndDissolution) {
  Oid s1 = tdb.AddSpecimen("x", "E", "1").value();
  Oid s2 = tdb.AddSpecimen("x", "E", "2").value();
  Oid s3 = tdb.AddSpecimen("x", "E", "3").value();
  Oid a = tdb.NewClassification("original", "t1").value();
  Oid g1 = tdb.NewTaxon(a, Rank::kGenus, "G1").value();
  Oid g2 = tdb.NewTaxon(a, Rank::kGenus, "G2").value();
  Oid g3 = tdb.NewTaxon(a, Rank::kGenus, "G3").value();
  ASSERT_TRUE(tdb.Circumscribe(a, g1, s1).ok());
  ASSERT_TRUE(tdb.Circumscribe(a, g2, s2).ok());
  ASSERT_TRUE(tdb.Circumscribe(a, g3, s3).ok());
  Oid b = tdb.NewClassification("revision", "t2").value();
  Oid r1 = tdb.NewTaxon(b, Rank::kGenus, "R1").value();  // = G1
  Oid r2 = tdb.NewTaxon(b, Rank::kGenus, "R2").value();  // G2 + extra
  Oid extra = tdb.AddSpecimen("x", "E", "9").value();
  ASSERT_TRUE(tdb.Circumscribe(b, r1, s1).ok());
  ASSERT_TRUE(tdb.Circumscribe(b, r2, s2).ok());
  ASSERT_TRUE(tdb.Circumscribe(b, r2, extra).ok());
  // s3 is dropped entirely.

  auto ops = tdb.InferRevisionOperations(a, b);
  ASSERT_EQ(ops.size(), 3u);
  for (const auto& op : ops) {
    if (op.taxon_a == g1) {
      EXPECT_EQ(op.kind, TaxonomyDatabase::RevisionOpKind::kRecognition);
    } else if (op.taxon_a == g2) {
      EXPECT_EQ(op.kind, TaxonomyDatabase::RevisionOpKind::kMove);
    } else {
      EXPECT_EQ(op.kind, TaxonomyDatabase::RevisionOpKind::kDissolution);
      EXPECT_TRUE(op.taxa_b.empty());
    }
  }
}

// ----------------------------------------------------------- ICBN rules

class IcbnFixture : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(tdb.InstallIcbnRules().ok()); }
  TaxonomyDatabase tdb;
};

TEST_F(IcbnFixture, FamilyNameEnding) {
  EXPECT_TRUE(tdb.PublishName("Apiaceae", Rank::kFamilia, "L.", 1753).ok());
  EXPECT_EQ(tdb.PublishName("Apium", Rank::kFamilia, "L.", 1753)
                .status()
                .code(),
            Status::Code::kConstraintViolation);
  // The eight sanctioned exceptions pass.
  EXPECT_TRUE(
      tdb.PublishName("Umbelliferae", Rank::kFamilia, "L.", 1753).ok());
  EXPECT_TRUE(tdb.PublishName("Palmae", Rank::kFamilia, "L.", 1753).ok());
}

TEST_F(IcbnFixture, GenusCapitalisation) {
  EXPECT_TRUE(tdb.PublishName("Apium", Rank::kGenus, "L.", 1753).ok());
  EXPECT_EQ(
      tdb.PublishName("apium", Rank::kGenus, "L.", 1753).status().code(),
      Status::Code::kConstraintViolation);
}

TEST_F(IcbnFixture, SpeciesEpithetLowercase) {
  EXPECT_TRUE(
      tdb.PublishName("graveolens", Rank::kSpecies, "L.", 1753).ok());
  EXPECT_EQ(tdb.PublishName("Graveolens", Rank::kSpecies, "L.", 1753)
                .status()
                .code(),
            Status::Code::kConstraintViolation);
}

TEST_F(IcbnFixture, TypeExistenceWarns) {
  tdb.rules().clear_warnings();
  ASSERT_TRUE(tdb.PublishName("Apium", Rank::kGenus, "L.", 1753).ok());
  // Publishing without a type warns but does not block.
  bool warned = false;
  for (const RuleViolation& v : tdb.rules().warnings()) {
    if (v.rule_name == "icbn_type_existence") warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST_F(IcbnFixture, SpeciesPlacementRule) {
  Oid c = tdb.NewClassification("C", "t").value();
  Oid genus = tdb.NewTaxon(c, Rank::kGenus, "G").value();
  Oid family = tdb.NewTaxon(c, Rank::kFamilia, "F").value();
  Oid species = tdb.NewTaxon(c, Rank::kSpecies, "s").value();
  // Species directly under Familia violates figure 38.
  EXPECT_EQ(tdb.PlaceTaxon(c, family, species).code(),
            Status::Code::kConstraintViolation);
  EXPECT_TRUE(tdb.PlaceTaxon(c, genus, species).ok());
}

TEST_F(IcbnFixture, SeriesPlacementRule) {
  Oid c = tdb.NewClassification("C", "t").value();
  Oid genus = tdb.NewTaxon(c, Rank::kGenus, "G").value();
  Oid sectio = tdb.NewTaxon(c, Rank::kSectio, "S").value();
  Oid series = tdb.NewTaxon(c, Rank::kSeries, "Ser").value();
  EXPECT_EQ(tdb.PlaceTaxon(c, genus, series).code(),
            Status::Code::kConstraintViolation);
  ASSERT_TRUE(tdb.PlaceTaxon(c, genus, sectio).ok());
  EXPECT_TRUE(tdb.PlaceTaxon(c, sectio, series).ok());
}

TEST_F(IcbnFixture, LaterHomonymWarns) {
  ASSERT_TRUE(tdb.PublishName("Apium", Rank::kGenus, "L.", 1753).ok());
  tdb.rules().clear_warnings();
  // Same element at a different rank: no homonym warning.
  ASSERT_TRUE(tdb.PublishName("Apium", Rank::kSubgenus, "X.", 1800).ok());
  bool warned = false;
  for (const RuleViolation& v : tdb.rules().warnings()) {
    if (v.rule_name == "icbn_later_homonym") warned = true;
  }
  EXPECT_FALSE(warned);
  // Same element at the same rank: the later homonym warns but succeeds.
  auto homonym = tdb.PublishName("Apium", Rank::kGenus, "Other.", 1820);
  ASSERT_TRUE(homonym.ok());
  for (const RuleViolation& v : tdb.rules().warnings()) {
    if (v.rule_name == "icbn_later_homonym") warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST_F(IcbnFixture, SubRankPlacementRules) {
  Oid c = tdb.NewClassification("C", "t").value();
  Oid genus = tdb.NewTaxon(c, Rank::kGenus, "G").value();
  Oid species = tdb.NewTaxon(c, Rank::kSpecies, "s").value();
  Oid subspecies = tdb.NewTaxon(c, Rank::kSubspecies, "ssp").value();
  ASSERT_TRUE(tdb.PlaceTaxon(c, genus, species).ok());
  // A subspecies cannot hang directly off a genus...
  EXPECT_EQ(tdb.PlaceTaxon(c, genus, subspecies).code(),
            Status::Code::kConstraintViolation);
  // ...only off a species.
  EXPECT_TRUE(tdb.PlaceTaxon(c, species, subspecies).ok());
  // Same for subgenus below genus.
  Oid subgenus = tdb.NewTaxon(c, Rank::kSubgenus, "sg").value();
  Oid family = tdb.NewTaxon(c, Rank::kFamilia, "Apiaceae").value();
  EXPECT_EQ(tdb.PlaceTaxon(c, family, subgenus).code(),
            Status::Code::kConstraintViolation);
  EXPECT_TRUE(tdb.PlaceTaxon(c, genus, subgenus).ok());
}

TEST_F(IcbnFixture, GeneralRankOrderRule) {
  Oid c = tdb.NewClassification("C", "t").value();
  Oid genus = tdb.NewTaxon(c, Rank::kGenus, "G").value();
  Oid family = tdb.NewTaxon(c, Rank::kFamilia, "Apiaceae").value();
  // A genus cannot contain a family.
  EXPECT_EQ(tdb.PlaceTaxon(c, genus, family).code(),
            Status::Code::kConstraintViolation);
  EXPECT_TRUE(tdb.PlaceTaxon(c, family, genus).ok());
}

// ----------------------------------------------------- extension features

TEST_F(TaxonomyFixture, DeterminationsCarryNoClassificationValue) {
  Oid specimen = tdb.AddSpecimen("Watson", "E", "w1").value();
  Oid name = tdb.PublishName("Apium", Rank::kGenus, "L.", 1753).value();
  auto det = tdb.AddDetermination(specimen, name, "Newman", 1998);
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  std::vector<Oid> dets = tdb.DeterminationsOf(specimen);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_TRUE(tdb.db()
                  .GetLinkAttribute(dets[0], "determiner")
                  .value()
                  .Equals(Value::String("Newman")));
  // Determinations are context-free: they never appear in classifications.
  EXPECT_EQ(tdb.db().GetLink(dets[0])->context, kNullOid);
}

TEST_F(TaxonomyFixture, NameStatusLifecycle) {
  Oid name = tdb.PublishName("Apium", Rank::kGenus, "L.", 1753).value();
  EXPECT_EQ(tdb.NameStatusOf(name).value(), NameStatus::kPublished);
  ASSERT_TRUE(tdb.SetNameStatus(name, NameStatus::kConserved).ok());
  EXPECT_EQ(tdb.NameStatusOf(name).value(), NameStatus::kConserved);
  ASSERT_TRUE(tdb.SetNameStatus(name, NameStatus::kRejected).ok());
  EXPECT_EQ(tdb.NameStatusOf(name).value(), NameStatus::kRejected);
  EXPECT_EQ(tdb.SetNameStatus(999999, NameStatus::kInvalid).code(),
            Status::Code::kNotFound);
}

TEST_F(TaxonomyFixture, FindHomonyms) {
  Oid a1 = tdb.PublishName("Apium", Rank::kGenus, "L.", 1753).value();
  Oid a2 = tdb.PublishName("Apium", Rank::kGenus, "Other.", 1800).value();
  tdb.PublishName("Apium", Rank::kSubgenus, "X.", 1810).value();
  tdb.PublishName("Helio", Rank::kGenus, "K.", 1824).value();
  auto homonyms = tdb.FindHomonyms();
  ASSERT_EQ(homonyms.size(), 1u);
  EXPECT_EQ(homonyms[0], (std::vector<Oid>{a1, a2}));
}

TEST_F(TaxonomyFixture, ValidateClassificationDetectsProblems) {
  Oid c = tdb.NewClassification("C", "t").value();
  Oid genus = tdb.NewTaxon(c, Rank::kGenus, "G").value();
  Oid species = tdb.NewTaxon(c, Rank::kSpecies, "s").value();
  ASSERT_TRUE(tdb.PlaceTaxon(c, genus, species).ok());
  EXPECT_TRUE(tdb.ValidateClassification(c).ok());
  // Rank inversion (no ICBN rules installed, so the edge is accepted but
  // validation catches it).
  Oid family = tdb.NewTaxon(c, Rank::kFamilia, "F").value();
  ASSERT_TRUE(tdb.PlaceTaxon(c, species, family).ok());
  EXPECT_EQ(tdb.ValidateClassification(c).code(),
            Status::Code::kConstraintViolation);
}

class ConservationFixture : public Figure3Fixture {};

TEST_F(ConservationFixture, RejectedNamesAreSkipped) {
  // Reject repens: derivation for Taxon 2 must fall back to nodiflorum,
  // which is already combined under Heliosciadium.
  ASSERT_TRUE(tdb.SetNameStatus(repens, NameStatus::kRejected).ok());
  ASSERT_TRUE(tdb.DeriveName(revision, taxon1, "Raguenaud", 2000).ok());
  auto r = tdb.DeriveName(revision, taxon2, "Raguenaud", 2000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().name, nodiflorum);
  EXPECT_EQ(r.value().full_name, "Heliosciadium nodiflorum (L.)W.D.J.Koch.");
}

TEST_F(ConservationFixture, ConservedNamesOverridePriority) {
  // nodiflorum (1824) is younger than repens (1821) but conserved: it wins.
  ASSERT_TRUE(tdb.SetNameStatus(nodiflorum, NameStatus::kConserved).ok());
  ASSERT_TRUE(tdb.DeriveName(revision, taxon1, "Raguenaud", 2000).ok());
  auto r = tdb.DeriveName(revision, taxon2, "Raguenaud", 2000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().name, nodiflorum);
  EXPECT_FALSE(r.value().newly_published);
}

// ------------------------------------------------------- POOL integration

TEST_F(TaxonomyFixture, TypicalTaxonomicQueries) {
  // Thesis 7.1.3.1: the query suite taxonomists actually run.
  Oid c = tdb.NewClassification("Flora", "t1", 1999).value();
  Oid genus = tdb.NewTaxon(c, Rank::kGenus, "Apium").value();
  Oid sp = tdb.NewTaxon(c, Rank::kSpecies, "graveolens").value();
  ASSERT_TRUE(tdb.PlaceTaxon(c, genus, sp, "leaf morphology").ok());
  Oid s1 = tdb.AddSpecimen("Watson", "E", "w1", 1995).value();
  Oid s2 = tdb.AddSpecimen("Pullan", "E", "p1", 1997).value();
  ASSERT_TRUE(tdb.Circumscribe(c, sp, s1).ok());
  ASSERT_TRUE(tdb.Circumscribe(c, sp, s2).ok());

  // Q: taxa at a given rank.
  auto q1 = tdb.query().Execute(
      "select t from CircumscriptionTaxon t where t.rank = 'Species'",
      tdb.db().live_store());
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1.value().rows.size(), 1u);

  // Q: specimens under a taxon, recursively, in context.
  pool::Environment env{{"g", Value::Ref(genus)}, {"c", Value::Ref(c)}};
  auto q2 = tdb.query().Eval(
      "count(traverse(g, 'contains', 1, 0, 'out', c))",
      tdb.db().live_store(), env);
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(q2.value().Equals(Value::Int(1)));

  // Q: collectors of specimens of a taxon (path through collection).
  auto q3 = tdb.query().Eval("children(sp, 'circumscribes', c).collector",
                             tdb.db().live_store(),
                             {{"sp", Value::Ref(sp)}, {"c", Value::Ref(c)}});
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ(q3.value().AsList().size(), 2u);

  // Q: traceability — why was the species placed there?
  auto q4 = tdb.query().Execute(
      "select l.motivation from contains l where l.target.working_name = "
      "'graveolens'", tdb.db().live_store());
  ASSERT_TRUE(q4.ok());
  ASSERT_EQ(q4.value().rows.size(), 1u);
  EXPECT_TRUE(
      q4.value().rows[0][0].Equals(Value::String("leaf morphology")));
}

}  // namespace
}  // namespace prometheus::taxonomy
