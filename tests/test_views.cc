#include <gtest/gtest.h>

#include <algorithm>

#include "classification/classification.h"
#include "views/view_manager.h"

namespace prometheus {
namespace {

bool Contains(const std::vector<Oid>& v, Oid x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

class ViewFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    mgr = std::make_unique<ClassificationManager>(&db);
    views = std::make_unique<ViewManager>(&db);
    ASSERT_TRUE(db.DefineClass("Taxon", {},
                               {Attr("name", ValueType::kString),
                                Attr("rank", ValueType::kString)})
                    .ok());
    ASSERT_TRUE(db.DefineClass("Specimen", {},
                               {Attr("collector", ValueType::kString)})
                    .ok());
    ASSERT_TRUE(
        db.DefineRelationship("classified_in", "Taxon", "Specimen").ok());
    ASSERT_TRUE(db.DefineRelationship("placed_in", "Taxon", "Taxon").ok());
  }

  Oid NewTaxon(const std::string& name, const std::string& rank) {
    return db.CreateObject("Taxon", {{"name", Value::String(name)},
                                     {"rank", Value::String(rank)}})
        .value();
  }

  Database db;
  std::unique_ptr<ClassificationManager> mgr;
  std::unique_ptr<ViewManager> views;
};

TEST_F(ViewFixture, ClassAndPredicateView) {
  Oid g = NewTaxon("Apium", "Genus");
  Oid s = NewTaxon("graveolens", "Species");
  ViewDef def;
  def.name = "genera";
  def.class_name = "Taxon";
  def.predicate = "self.rank = 'Genus'";
  ASSERT_TRUE(views->Define(def).ok());
  auto r = views->Evaluate("genera");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), std::vector<Oid>{g});
  (void)s;
}

TEST_F(ViewFixture, ClassificationContextView) {
  Oid c1 = mgr->Create("C1", "t1").value();
  Oid c2 = mgr->Create("C2", "t2").value();
  Oid g = NewTaxon("G", "Genus");
  Oid s1 = db.CreateObject("Specimen").value();
  Oid s2 = db.CreateObject("Specimen").value();
  ASSERT_TRUE(mgr->AddEdge(c1, "classified_in", g, s1).ok());
  ASSERT_TRUE(mgr->AddEdge(c2, "classified_in", g, s2).ok());
  ViewDef def;
  def.name = "c1_members";
  def.context = c1;
  ASSERT_TRUE(views->Define(def).ok());
  auto r = views->Evaluate("c1_members");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_TRUE(Contains(r.value(), g));
  EXPECT_TRUE(Contains(r.value(), s1));
  EXPECT_FALSE(Contains(r.value(), s2));
}

TEST_F(ViewFixture, ContextPlusClassPlusPredicate) {
  Oid c = mgr->Create("C", "t").value();
  Oid g = NewTaxon("Apium", "Genus");
  Oid sp = NewTaxon("graveolens", "Species");
  ASSERT_TRUE(mgr->AddEdge(c, "placed_in", g, sp).ok());
  ViewDef def;
  def.name = "c_species";
  def.context = c;
  def.class_name = "Taxon";
  def.predicate = "self.rank = 'Species'";
  ASSERT_TRUE(views->Define(def).ok());
  auto r = views->Evaluate("c_species");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), std::vector<Oid>{sp});
}

TEST_F(ViewFixture, EvaluateEdgesExtractsSubgraph) {
  Oid c = mgr->Create("C", "t").value();
  Oid g = NewTaxon("Apium", "Genus");
  Oid sp = NewTaxon("graveolens", "Species");
  Oid s1 = db.CreateObject("Specimen").value();
  Oid taxa_edge = mgr->AddEdge(c, "placed_in", g, sp).value();
  ASSERT_TRUE(mgr->AddEdge(c, "classified_in", sp, s1).ok());
  // A view of only taxa: the taxa→specimen edge drops out.
  ViewDef def;
  def.name = "taxa_only";
  def.context = c;
  def.class_name = "Taxon";
  ASSERT_TRUE(views->Define(def).ok());
  auto edges = views->EvaluateEdges("taxa_only");
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges.value(), std::vector<Oid>{taxa_edge});
}

TEST_F(ViewFixture, ViewsAreVirtualAndTrackData) {
  ViewDef def;
  def.name = "genera";
  def.class_name = "Taxon";
  def.predicate = "self.rank = 'Genus'";
  ASSERT_TRUE(views->Define(def).ok());
  EXPECT_TRUE(views->Evaluate("genera").value().empty());
  Oid g = NewTaxon("Apium", "Genus");
  EXPECT_EQ(views->Evaluate("genera").value(), std::vector<Oid>{g});
  ASSERT_TRUE(db.SetAttribute(g, "rank", Value::String("Species")).ok());
  EXPECT_TRUE(views->Evaluate("genera").value().empty());
}

TEST_F(ViewFixture, DefinitionValidation) {
  ViewDef empty_name;
  EXPECT_EQ(views->Define(empty_name).code(),
            Status::Code::kInvalidArgument);
  ViewDef no_scope;
  no_scope.name = "x";
  EXPECT_EQ(views->Define(no_scope).code(), Status::Code::kInvalidArgument);
  ViewDef bad_class;
  bad_class.name = "x";
  bad_class.class_name = "Missing";
  EXPECT_EQ(views->Define(bad_class).code(), Status::Code::kNotFound);
  ViewDef bad_pred;
  bad_pred.name = "x";
  bad_pred.class_name = "Taxon";
  bad_pred.predicate = "self.rank =";
  EXPECT_EQ(views->Define(bad_pred).code(), Status::Code::kParseError);
  ViewDef ok;
  ok.name = "x";
  ok.class_name = "Taxon";
  ASSERT_TRUE(views->Define(ok).ok());
  EXPECT_EQ(views->Define(ok).code(), Status::Code::kInvalidArgument);
  EXPECT_TRUE(views->Has("x"));
  EXPECT_EQ(views->names(), std::vector<std::string>{"x"});
  EXPECT_TRUE(views->Drop("x").ok());
  EXPECT_EQ(views->Drop("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(views->Evaluate("x").status().code(), Status::Code::kNotFound);
}

TEST_F(ViewFixture, MaterializedViewTracksAttributeChanges) {
  ViewDef def;
  def.name = "genera";
  def.class_name = "Taxon";
  def.predicate = "self.rank = 'Genus'";
  ASSERT_TRUE(views->DefineMaterialized(def).ok());
  EXPECT_TRUE(views->Evaluate("genera").value().empty());
  Oid g = NewTaxon("Apium", "Genus");
  Oid s = NewTaxon("graveolens", "Species");
  EXPECT_EQ(views->Evaluate("genera").value(), std::vector<Oid>{g});
  // Promotion and demotion flow through incrementally.
  ASSERT_TRUE(db.SetAttribute(s, "rank", Value::String("Genus")).ok());
  EXPECT_EQ(views->Evaluate("genera").value().size(), 2u);
  ASSERT_TRUE(db.SetAttribute(g, "rank", Value::String("Species")).ok());
  EXPECT_EQ(views->Evaluate("genera").value(), std::vector<Oid>{s});
  ASSERT_TRUE(db.DeleteObject(s).ok());
  EXPECT_TRUE(views->Evaluate("genera").value().empty());
  EXPECT_GT(views->maintenance_updates(), 0u);
}

TEST_F(ViewFixture, MaterializedViewBackfillsExistingData) {
  Oid g = NewTaxon("Apium", "Genus");
  NewTaxon("graveolens", "Species");
  ViewDef def;
  def.name = "genera";
  def.class_name = "Taxon";
  def.predicate = "self.rank = 'Genus'";
  ASSERT_TRUE(views->DefineMaterialized(def).ok());
  EXPECT_EQ(views->Evaluate("genera").value(), std::vector<Oid>{g});
}

TEST_F(ViewFixture, MaterializedContextViewTracksEdges) {
  Oid c = mgr->Create("C", "t").value();
  ViewDef def;
  def.name = "c_members";
  def.context = c;
  ASSERT_TRUE(views->DefineMaterialized(def).ok());
  Oid g = NewTaxon("G", "Genus");
  Oid s = db.CreateObject("Specimen").value();
  EXPECT_TRUE(views->Evaluate("c_members").value().empty());
  Oid edge = mgr->AddEdge(c, "classified_in", g, s).value();
  EXPECT_EQ(views->Evaluate("c_members").value().size(), 2u);
  ASSERT_TRUE(db.DeleteLink(edge).ok());
  EXPECT_TRUE(views->Evaluate("c_members").value().empty());
}

// A view predicate reads `self` from its Environment, also inside a
// subquery whose own range is bound to a frame slot.
TEST_F(ViewFixture, PredicateReadsSelfInsideASubquery) {
  Oid g = NewTaxon("Apium", "Genus");
  Oid placed = NewTaxon("graveolens", "Species");
  Oid loose = NewTaxon("repens", "Species");
  ASSERT_TRUE(db.CreateLink("placed_in", g, placed).ok());
  ViewDef def;
  def.name = "placed_species";
  def.class_name = "Taxon";
  def.predicate =
      "self.rank = 'Species' and "
      "exists((select l from placed_in l where l.target = self))";
  ASSERT_TRUE(views->Define(def).ok());
  auto r = views->Evaluate("placed_species");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), std::vector<Oid>{placed});
  (void)loose;
}

TEST_F(ViewFixture, MaterializedViewSurvivesAbort) {
  ViewDef def;
  def.name = "genera";
  def.class_name = "Taxon";
  def.predicate = "self.rank = 'Genus'";
  ASSERT_TRUE(views->DefineMaterialized(def).ok());
  Oid g = NewTaxon("Apium", "Genus");
  ASSERT_TRUE(db.Begin().ok());
  Oid temp = NewTaxon("Temp", "Genus");
  ASSERT_TRUE(db.SetAttribute(g, "rank", Value::String("Species")).ok());
  EXPECT_EQ(views->Evaluate("genera").value(), std::vector<Oid>{temp});
  ASSERT_TRUE(db.Abort().ok());
  // Compensating events restored the cached membership.
  EXPECT_EQ(views->Evaluate("genera").value(), std::vector<Oid>{g});
}

TEST_F(ViewFixture, EdgesRequireContext) {
  ViewDef def;
  def.name = "no_ctx";
  def.class_name = "Taxon";
  ASSERT_TRUE(views->Define(def).ok());
  EXPECT_EQ(views->EvaluateEdges("no_ctx").status().code(),
            Status::Code::kFailedPrecondition);
}

}  // namespace
}  // namespace prometheus
