#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

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

  /// The view's members on the live store (the test thread is the writer).
  std::vector<Oid> Eval(const std::string& name) {
    auto r = views->Evaluate(name, db.live_store());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value_or(std::vector<Oid>{});
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
  auto r = views->Evaluate("genera", db.live_store());
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
  auto r = views->Evaluate("c1_members", db.live_store());
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
  auto r = views->Evaluate("c_species", db.live_store());
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
  auto edges = views->EvaluateEdges("taxa_only", db.live_store());
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges.value(), std::vector<Oid>{taxa_edge});
}

TEST_F(ViewFixture, ViewsAreVirtualAndTrackData) {
  ViewDef def;
  def.name = "genera";
  def.class_name = "Taxon";
  def.predicate = "self.rank = 'Genus'";
  ASSERT_TRUE(views->Define(def).ok());
  EXPECT_TRUE(Eval("genera").empty());
  Oid g = NewTaxon("Apium", "Genus");
  EXPECT_EQ(Eval("genera"), std::vector<Oid>{g});
  ASSERT_TRUE(db.SetAttribute(g, "rank", Value::String("Species")).ok());
  EXPECT_TRUE(Eval("genera").empty());
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
  EXPECT_EQ(views->Evaluate("x", db.live_store()).status().code(),
            Status::Code::kNotFound);
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
  auto r = views->Evaluate("placed_species", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), std::vector<Oid>{placed});
  (void)loose;
}

TEST_F(ViewFixture, ViewFollowsAbort) {
  ViewDef def;
  def.name = "genera";
  def.class_name = "Taxon";
  def.predicate = "self.rank = 'Genus'";
  ASSERT_TRUE(views->Define(def).ok());
  Oid g = NewTaxon("Apium", "Genus");
  ASSERT_TRUE(db.Begin().ok());
  Oid temp = NewTaxon("Temp", "Genus");
  ASSERT_TRUE(db.SetAttribute(g, "rank", Value::String("Species")).ok());
  EXPECT_EQ(Eval("genera"), std::vector<Oid>{temp});
  ASSERT_TRUE(db.Abort().ok());
  EXPECT_EQ(Eval("genera"), std::vector<Oid>{g});
}

TEST_F(ViewFixture, EdgesRequireContext) {
  ViewDef def;
  def.name = "no_ctx";
  def.class_name = "Taxon";
  ASSERT_TRUE(views->Define(def).ok());
  EXPECT_EQ(
      views->EvaluateEdges("no_ctx", db.live_store()).status().code(),
      Status::Code::kFailedPrecondition);
}

// Views are evaluated off the writer thread against pinned snapshots. Each
// commit demotes one genus and promotes one species, and swaps one context
// edge for another, so every snapshot holds exactly `kGenera` genera and
// `kEdges` context edges: a reader that saw a half-applied commit, or read
// the live store, would count wrong.
TEST_F(ViewFixture, ReadersEvaluateOnPinnedSnapshotsWhileAWriterCommits) {
  constexpr int kTaxa = 16;
  constexpr std::size_t kGenera = 8;
  constexpr std::size_t kEdges = 4;
  Oid c = mgr->Create("C", "t").value();
  std::vector<Oid> taxa;
  for (int i = 0; i < kTaxa; ++i) {
    taxa.push_back(NewTaxon("t" + std::to_string(i),
                            i % 2 == 0 ? "Genus" : "Species"));
  }
  std::vector<Oid> edges;
  for (std::size_t i = 0; i < kEdges; ++i) {
    edges.push_back(mgr->AddEdge(c, "placed_in", taxa[i], taxa[i + 1]).value());
  }
  ViewDef genera;
  genera.name = "genera";
  genera.class_name = "Taxon";
  genera.predicate = "self.rank = 'Genus'";
  ASSERT_TRUE(views->Define(genera).ok());
  ViewDef members;
  members.name = "c_taxa";
  members.class_name = "Taxon";
  members.context = c;
  ASSERT_TRUE(views->Define(members).ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 150; ++i) {
      Database::WriteGuard guard(db);
      std::vector<Oid> g, s;
      for (Oid t : taxa) {
        (db.GetAttribute(t, "rank").value().AsString() == "Genus" ? g : s)
            .push_back(t);
      }
      if (!db.SetAttribute(g[i % g.size()], "rank", Value::String("Species"))
               .ok() ||
          !db.SetAttribute(s[i % s.size()], "rank", Value::String("Genus"))
               .ok() ||
          !db.DeleteLink(edges[i % kEdges]).ok()) {
        failures.fetch_add(1);
        continue;
      }
      auto edge = mgr->AddEdge(c, "placed_in", taxa[(i + 5) % kTaxa],
                               taxa[(i + 11) % kTaxa]);
      if (!edge.ok()) {
        failures.fetch_add(1);
        continue;
      }
      edges[i % kEdges] = edge.value();
    }
    done.store(true, std::memory_order_release);
  });
  auto reader = [&] {
    int rounds = 0;
    while (!done.load(std::memory_order_acquire) || rounds < 10) {
      ++rounds;
      SnapshotHandle snap = db.AcquireSnapshot();
      auto g = views->Evaluate("genera", *snap);
      auto e = views->EvaluateEdges("c_taxa", *snap);
      auto m = views->Evaluate("c_taxa", *snap);
      if (!g.ok() || !e.ok() || !m.ok() || g.value().size() != kGenera ||
          e.value().size() != kEdges || m.value().empty()) {
        failures.fetch_add(1);
      }
      // A pinned snapshot answers the same way every time.
      if (views->Evaluate("genera", *snap).value() != g.value()) {
        failures.fetch_add(1);
      }
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  writer.join();
  r1.join();
  r2.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Eval("genera").size(), kGenera);
}

}  // namespace
}  // namespace prometheus
