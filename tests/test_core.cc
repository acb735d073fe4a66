#include <gtest/gtest.h>

#include <algorithm>

#include "core/database.h"

namespace prometheus {
namespace {

AttributeDef StrAttr(std::string name) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = ValueType::kString;
  return a;
}

AttributeDef IntAttr(std::string name, std::int64_t def = 0) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = ValueType::kInt;
  a.default_value = Value::Int(def);
  return a;
}

bool Contains(const std::vector<Oid>& v, Oid x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// ------------------------------------------------------------------ schema

TEST(SchemaTest, DefineAndFindClass) {
  Database db;
  auto r = db.DefineClass("Person", {}, {StrAttr("name"), IntAttr("age")});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ClassDef* cls = db.FindClass("Person");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->name(), "Person");
  EXPECT_EQ(cls->attributes().size(), 2u);
  EXPECT_EQ(db.FindClass("Nobody"), nullptr);
}

TEST(SchemaTest, DuplicateClassNameRejected) {
  Database db;
  ASSERT_TRUE(db.DefineClass("A").ok());
  EXPECT_EQ(db.DefineClass("A").status().code(),
            Status::Code::kInvalidArgument);
}

TEST(SchemaTest, UnknownSuperRejected) {
  Database db;
  EXPECT_EQ(db.DefineClass("B", {"Missing"}).status().code(),
            Status::Code::kNotFound);
}

TEST(SchemaTest, InheritanceAndAttributeLookup) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Base", {}, {StrAttr("name")}).ok());
  ASSERT_TRUE(db.DefineClass("Derived", {"Base"}, {IntAttr("extra")}).ok());
  const ClassDef* base = db.FindClass("Base");
  const ClassDef* derived = db.FindClass("Derived");
  EXPECT_TRUE(derived->IsSubclassOf(base));
  EXPECT_FALSE(base->IsSubclassOf(derived));
  EXPECT_TRUE(derived->IsSubclassOf(derived));
  EXPECT_NE(derived->FindAttribute("name"), nullptr);
  EXPECT_NE(derived->FindAttribute("extra"), nullptr);
  EXPECT_EQ(base->FindAttribute("extra"), nullptr);
  ASSERT_EQ(db.live_store().SubclassesOf(base).size(), 1u);
  EXPECT_EQ(db.live_store().SubclassesOf(base)[0], derived);
}

TEST(SchemaTest, AttributeCollisionWithSuperRejected) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Base", {}, {StrAttr("name")}).ok());
  EXPECT_EQ(db.DefineClass("Derived", {"Base"}, {StrAttr("name")})
                .status()
                .code(),
            Status::Code::kInvalidArgument);
}

TEST(SchemaTest, MultipleInheritance) {
  Database db;
  ASSERT_TRUE(db.DefineClass("A", {}, {StrAttr("a")}).ok());
  ASSERT_TRUE(db.DefineClass("B", {}, {StrAttr("b")}).ok());
  ASSERT_TRUE(db.DefineClass("C", {"A", "B"}).ok());
  const ClassDef* c = db.FindClass("C");
  EXPECT_NE(c->FindAttribute("a"), nullptr);
  EXPECT_NE(c->FindAttribute("b"), nullptr);
  std::vector<const AttributeDef*> all;
  c->CollectAttributes(&all);
  EXPECT_EQ(all.size(), 2u);
}

TEST(SchemaTest, DefineRelationship) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Whole").ok());
  ASSERT_TRUE(db.DefineClass("Part").ok());
  RelationshipSemantics sem;
  sem.kind = RelationshipKind::kAggregation;
  auto r = db.DefineRelationship("has_part", "Whole", "Part", sem,
                                 {StrAttr("why")});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const RelationshipDef* def = db.FindRelationship("has_part");
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->source_class()->name(), "Whole");
  EXPECT_EQ(def->target_class()->name(), "Part");
  EXPECT_EQ(def->semantics().kind, RelationshipKind::kAggregation);
  EXPECT_NE(def->FindAttribute("why"), nullptr);
}

TEST(SchemaTest, RelationshipNameSharesNamespaceWithClasses) {
  Database db;
  ASSERT_TRUE(db.DefineClass("A").ok());
  ASSERT_TRUE(db.DefineClass("B").ok());
  ASSERT_TRUE(db.DefineRelationship("A_to_B", "A", "B").ok());
  EXPECT_FALSE(db.DefineClass("A_to_B").ok());
  EXPECT_FALSE(db.DefineRelationship("A", "A", "B").ok());
}

TEST(SchemaTest, ContradictorySemanticsRejected) {
  // Thesis table 3: only meaningful combinations of behaviours are
  // definable.
  Database db;
  ASSERT_TRUE(db.DefineClass("A").ok());
  ASSERT_TRUE(db.DefineClass("B").ok());
  RelationshipSemantics bad_card;
  bad_card.min_out = 3;
  bad_card.max_out = 2;
  EXPECT_EQ(db.DefineRelationship("r1", "A", "B", bad_card).status().code(),
            Status::Code::kInvalidArgument);
  RelationshipSemantics bad_in;
  bad_in.min_in = 2;
  bad_in.max_in = 1;
  EXPECT_EQ(db.DefineRelationship("r2", "A", "B", bad_in).status().code(),
            Status::Code::kInvalidArgument);
  RelationshipSemantics undirected_inherit;
  undirected_inherit.directed = false;
  undirected_inherit.inherit_attributes = true;
  EXPECT_EQ(db.DefineRelationship("r3", "A", "B", undirected_inherit)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  RelationshipSemantics undirected_lifetime;
  undirected_lifetime.directed = false;
  undirected_lifetime.lifetime_dependent = true;
  EXPECT_EQ(db.DefineRelationship("r4", "A", "B", undirected_lifetime)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  // Unbounded max with non-zero min is fine (min checked on demand).
  RelationshipSemantics ok;
  ok.min_out = 1;
  EXPECT_TRUE(db.DefineRelationship("r5", "A", "B", ok).ok());
}

TEST(SchemaTest, RelationshipInheritanceCovariance) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Node").ok());
  ASSERT_TRUE(db.DefineClass("Taxon", {"Node"}).ok());
  ASSERT_TRUE(db.DefineRelationship("linked", "Node", "Node").ok());
  // Covariant refinement is accepted.
  auto ok = db.DefineRelationship("placed_in", "Taxon", "Taxon", {}, {},
                                  {"linked"});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(db.FindRelationship("placed_in")
                  ->IsSubrelationshipOf(db.FindRelationship("linked")));
  // Contravariant refinement is rejected.
  ASSERT_TRUE(db.DefineClass("Other").ok());
  EXPECT_FALSE(
      db.DefineRelationship("bad", "Other", "Node", {}, {}, {"placed_in"})
          .ok());
}

TEST(SchemaTest, MethodSignatures) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Base").ok());
  ASSERT_TRUE(db.DefineClass("Derived", {"Base"}).ok());
  MethodDef method;
  method.name = "age";
  method.return_type = "int";
  method.parameters = {{"int", "reference_year"}};
  ASSERT_TRUE(db.DefineMethod("Base", method).ok());
  const MethodDef* found =
      db.live_store().FindMethod(db.FindClass("Derived"), "age");
  ASSERT_NE(found, nullptr);  // inherited
  EXPECT_EQ(found->return_type, "int");
  ASSERT_EQ(found->parameters.size(), 1u);
  EXPECT_EQ(found->parameters[0].second, "reference_year");
  // Duplicates and unknown classes are rejected.
  EXPECT_EQ(db.DefineMethod("Base", method).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(db.DefineMethod("Nope", method).code(),
            Status::Code::kNotFound);
  EXPECT_EQ(db.live_store().FindMethod(db.FindClass("Base"), "nothing"),
            nullptr);
}

TEST(SchemaTest, RelationshipTemplates) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Whole").ok());
  ASSERT_TRUE(db.DefineClass("Part").ok());
  ASSERT_TRUE(db.DefineClass("Other").ok());
  RelationshipSemantics sem;
  sem.kind = RelationshipKind::kAggregation;
  sem.lifetime_dependent = true;
  sem.exclusive = true;
  AttributeDef why;
  why.name = "why";
  why.type = ValueType::kString;
  ASSERT_TRUE(
      db.DefineRelationshipTemplate("owned_component", sem, {why}).ok());
  // Instantiate twice against different class pairs (figure 34's reuse).
  auto r1 =
      db.InstantiateRelationship("owned_component", "has_part", "Whole",
                                 "Part");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = db.InstantiateRelationship("owned_component", "has_other",
                                       "Whole", "Other");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r1.value()->semantics().lifetime_dependent);
  EXPECT_TRUE(r2.value()->semantics().exclusive);
  EXPECT_NE(r1.value()->FindAttribute("why"), nullptr);
  // Instantiations get their own default exclusivity groups.
  EXPECT_EQ(r1.value()->semantics().exclusivity_group, "has_part");
  EXPECT_EQ(db.relationship_templates(),
            std::vector<std::string>{"owned_component"});
  EXPECT_EQ(db.InstantiateRelationship("missing", "x", "Whole", "Part")
                .status()
                .code(),
            Status::Code::kNotFound);
  EXPECT_EQ(db.DefineRelationshipTemplate("owned_component", sem, {}).code(),
            Status::Code::kInvalidArgument);
}

// ----------------------------------------------------------------- objects

class CoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db.DefineClass("Person", {}, {StrAttr("name"), IntAttr("age", 30)})
            .ok());
    ASSERT_TRUE(db.DefineClass("Company", {}, {StrAttr("name")}).ok());
    ASSERT_TRUE(db.DefineRelationship("works_for", "Person", "Company").ok());
  }

  Oid NewPerson(const std::string& name) {
    auto r = db.CreateObject("Person", {{"name", Value::String(name)}});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value_or(kNullOid);
  }

  Oid NewCompany(const std::string& name) {
    auto r = db.CreateObject("Company", {{"name", Value::String(name)}});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value_or(kNullOid);
  }

  Database db;
};

TEST_F(CoreFixture, CreateObjectAppliesDefaultsAndInits) {
  Oid p = NewPerson("Ada");
  EXPECT_TRUE(db.GetAttribute(p, "name").value().Equals(Value::String("Ada")));
  EXPECT_TRUE(db.GetAttribute(p, "age").value().Equals(Value::Int(30)));
}

TEST_F(CoreFixture, CreateObjectRejectsUnknownClassAndAttribute) {
  EXPECT_EQ(db.CreateObject("Nope").status().code(), Status::Code::kNotFound);
  EXPECT_EQ(db.CreateObject("Person", {{"salary", Value::Int(1)}})
                .status()
                .code(),
            Status::Code::kNotFound);
}

TEST_F(CoreFixture, CreateObjectTypeChecksInits) {
  EXPECT_EQ(db.CreateObject("Person", {{"age", Value::String("old")}})
                .status()
                .code(),
            Status::Code::kTypeError);
}

TEST_F(CoreFixture, AbstractClassCannotBeInstantiated) {
  ASSERT_TRUE(db.DefineClass("Shape", {}, {}, /*is_abstract=*/true).ok());
  EXPECT_EQ(db.CreateObject("Shape").status().code(),
            Status::Code::kInvalidArgument);
}

TEST_F(CoreFixture, SetAndGetAttribute) {
  Oid p = NewPerson("Ada");
  ASSERT_TRUE(db.SetAttribute(p, "age", Value::Int(36)).ok());
  EXPECT_TRUE(db.GetAttribute(p, "age").value().Equals(Value::Int(36)));
  EXPECT_EQ(db.SetAttribute(p, "age", Value::String("x")).code(),
            Status::Code::kTypeError);
  EXPECT_EQ(db.SetAttribute(p, "height", Value::Int(1)).code(),
            Status::Code::kNotFound);
}

TEST_F(CoreFixture, ExtentTracksCreationAndDeletion) {
  Oid a = NewPerson("a");
  Oid b = NewPerson("b");
  Oid c = NewPerson("c");
  EXPECT_EQ(db.Extent("Person").size(), 3u);
  ASSERT_TRUE(db.DeleteObject(b).ok());
  std::vector<Oid> extent = db.Extent("Person");
  EXPECT_EQ(extent.size(), 2u);
  EXPECT_TRUE(Contains(extent, a));
  EXPECT_TRUE(Contains(extent, c));
  EXPECT_FALSE(Contains(extent, b));
  EXPECT_EQ(db.GetObject(b), nullptr);
  EXPECT_EQ(db.object_count(), 2u);
}

TEST_F(CoreFixture, DeepExtentIncludesSubclasses) {
  ASSERT_TRUE(db.DefineClass("Employee", {"Person"}).ok());
  NewPerson("p");
  ASSERT_TRUE(db.CreateObject("Employee", {{"name", Value::String("e")}})
                  .ok());
  EXPECT_EQ(db.Extent("Person", /*include_subclasses=*/true).size(), 2u);
  EXPECT_EQ(db.Extent("Person", /*include_subclasses=*/false).size(), 1u);
}

TEST_F(CoreFixture, IsInstanceOfRespectsInheritance) {
  ASSERT_TRUE(db.DefineClass("Employee", {"Person"}).ok());
  auto e = db.CreateObject("Employee", {{"name", Value::String("e")}});
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(db.IsInstanceOf(e.value(), "Person"));
  EXPECT_TRUE(db.IsInstanceOf(e.value(), "Employee"));
  Oid p = NewPerson("p");
  EXPECT_FALSE(db.IsInstanceOf(p, "Employee"));
}

// ------------------------------------------------------------------- links

TEST_F(CoreFixture, CreateAndTraverseLink) {
  Oid p = NewPerson("Ada");
  Oid c = NewCompany("Napier");
  auto l = db.CreateLink("works_for", p, c);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  const Link* link = db.GetLink(l.value());
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->source, p);
  EXPECT_EQ(link->target, c);
  EXPECT_EQ(db.Neighbors(p, "works_for"), std::vector<Oid>{c});
  EXPECT_EQ(db.Neighbors(c, "works_for", Direction::kIn),
            std::vector<Oid>{p});
  EXPECT_EQ(db.link_count(), 1u);
  EXPECT_EQ(db.LinkExtent("works_for").size(), 1u);
}

TEST_F(CoreFixture, LinkTypeChecking) {
  Oid p = NewPerson("Ada");
  Oid c = NewCompany("Napier");
  EXPECT_EQ(db.CreateLink("works_for", c, p).status().code(),
            Status::Code::kTypeError);
  EXPECT_EQ(db.CreateLink("nothing", p, c).status().code(),
            Status::Code::kNotFound);
}

TEST_F(CoreFixture, LinkAttributes) {
  ASSERT_TRUE(db.DefineRelationship("friend_of", "Person", "Person", {},
                                    {IntAttr("since", 2000)})
                  .ok());
  Oid a = NewPerson("a");
  Oid b = NewPerson("b");
  auto l = db.CreateLink("friend_of", a, b, kNullOid,
                         {{"since", Value::Int(1999)}});
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(db.GetLinkAttribute(l.value(), "since")
                  .value()
                  .Equals(Value::Int(1999)));
  ASSERT_TRUE(db.SetLinkAttribute(l.value(), "since", Value::Int(2001)).ok());
  EXPECT_TRUE(db.GetLinkAttribute(l.value(), "since")
                  .value()
                  .Equals(Value::Int(2001)));
  EXPECT_EQ(
      db.SetLinkAttribute(l.value(), "since", Value::String("x")).code(),
      Status::Code::kTypeError);
}

TEST_F(CoreFixture, DeleteLinkDetachesEndpoints) {
  Oid p = NewPerson("Ada");
  Oid c = NewCompany("Napier");
  Oid l = db.CreateLink("works_for", p, c).value();
  ASSERT_TRUE(db.DeleteLink(l).ok());
  EXPECT_TRUE(db.Neighbors(p, "works_for").empty());
  EXPECT_EQ(db.GetObject(p)->out_links.size(), 0u);
  EXPECT_EQ(db.GetObject(c)->in_links.size(), 0u);
  EXPECT_EQ(db.link_count(), 0u);
}

TEST_F(CoreFixture, DeleteObjectRemovesIncidentLinks) {
  Oid p = NewPerson("Ada");
  Oid c = NewCompany("Napier");
  Oid l = db.CreateLink("works_for", p, c).value();
  ASSERT_TRUE(db.DeleteObject(c).ok());
  EXPECT_EQ(db.GetLink(l), nullptr);
  EXPECT_TRUE(db.GetObject(p)->out_links.empty());
}

// ---------------------------------------------------- relationship semantics

TEST(SemanticsTest, ExclusivityWithinGroup) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Folder").ok());
  ASSERT_TRUE(db.DefineClass("File").ok());
  RelationshipSemantics sem;
  sem.exclusive = true;
  sem.exclusivity_group = "containment";
  ASSERT_TRUE(db.DefineRelationship("contains", "Folder", "File", sem).ok());
  ASSERT_TRUE(db.DefineRelationship("archives", "Folder", "File", sem).ok());
  Oid f1 = db.CreateObject("Folder").value();
  Oid f2 = db.CreateObject("Folder").value();
  Oid file = db.CreateObject("File").value();
  ASSERT_TRUE(db.CreateLink("contains", f1, file).ok());
  // Same target may not be claimed again by any relationship in the group.
  EXPECT_EQ(db.CreateLink("contains", f2, file).status().code(),
            Status::Code::kConstraintViolation);
  EXPECT_EQ(db.CreateLink("archives", f2, file).status().code(),
            Status::Code::kConstraintViolation);
}

TEST(SemanticsTest, ExclusivityDefaultGroupIsOwnName) {
  Database db;
  ASSERT_TRUE(db.DefineClass("A").ok());
  ASSERT_TRUE(db.DefineClass("B").ok());
  RelationshipSemantics sem;
  sem.exclusive = true;
  ASSERT_TRUE(db.DefineRelationship("r1", "A", "B", sem).ok());
  ASSERT_TRUE(db.DefineRelationship("r2", "A", "B", sem).ok());
  Oid a1 = db.CreateObject("A").value();
  Oid a2 = db.CreateObject("A").value();
  Oid b = db.CreateObject("B").value();
  ASSERT_TRUE(db.CreateLink("r1", a1, b).ok());
  // Different default groups do not interfere.
  EXPECT_TRUE(db.CreateLink("r2", a2, b).ok());
  // But r1 itself is exclusive.
  EXPECT_FALSE(db.CreateLink("r1", a2, b).ok());
}

TEST(SemanticsTest, NonShareableComponent) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Whole").ok());
  ASSERT_TRUE(db.DefineClass("Part").ok());
  RelationshipSemantics sem;
  sem.kind = RelationshipKind::kAggregation;
  sem.shareable = false;
  ASSERT_TRUE(db.DefineRelationship("has_part", "Whole", "Part", sem).ok());
  Oid w1 = db.CreateObject("Whole").value();
  Oid w2 = db.CreateObject("Whole").value();
  Oid p = db.CreateObject("Part").value();
  ASSERT_TRUE(db.CreateLink("has_part", w1, p).ok());
  EXPECT_EQ(db.CreateLink("has_part", w2, p).status().code(),
            Status::Code::kConstraintViolation);
}

TEST(SemanticsTest, LifetimeDependencyCascades) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Whole").ok());
  ASSERT_TRUE(db.DefineClass("Part").ok());
  RelationshipSemantics sem;
  sem.kind = RelationshipKind::kAggregation;
  sem.lifetime_dependent = true;
  ASSERT_TRUE(db.DefineRelationship("has_part", "Whole", "Part", sem).ok());
  ASSERT_TRUE(db.DefineRelationship("sub_part", "Part", "Part", sem).ok());
  Oid w = db.CreateObject("Whole").value();
  Oid p1 = db.CreateObject("Part").value();
  Oid p2 = db.CreateObject("Part").value();
  ASSERT_TRUE(db.CreateLink("has_part", w, p1).ok());
  ASSERT_TRUE(db.CreateLink("sub_part", p1, p2).ok());
  ASSERT_TRUE(db.DeleteObject(w).ok());
  EXPECT_EQ(db.GetObject(p1), nullptr);
  EXPECT_EQ(db.GetObject(p2), nullptr);
  EXPECT_EQ(db.object_count(), 0u);
  EXPECT_EQ(db.link_count(), 0u);
}

TEST(SemanticsTest, LifetimeDependencyCycleTerminates) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Node").ok());
  RelationshipSemantics sem;
  sem.lifetime_dependent = true;
  ASSERT_TRUE(db.DefineRelationship("owns", "Node", "Node", sem).ok());
  Oid a = db.CreateObject("Node").value();
  Oid b = db.CreateObject("Node").value();
  ASSERT_TRUE(db.CreateLink("owns", a, b).ok());
  ASSERT_TRUE(db.CreateLink("owns", b, a).ok());
  ASSERT_TRUE(db.DeleteObject(a).ok());
  EXPECT_EQ(db.object_count(), 0u);
}

TEST(SemanticsTest, ConstantLinksCannotChange) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Name").ok());
  ASSERT_TRUE(db.DefineClass("Publication").ok());
  RelationshipSemantics sem;
  sem.constant = true;
  ASSERT_TRUE(db.DefineRelationship("published_in", "Name", "Publication",
                                    sem, {IntAttr("page")})
                  .ok());
  Oid n = db.CreateObject("Name").value();
  Oid p = db.CreateObject("Publication").value();
  Oid l = db.CreateLink("published_in", n, p).value();
  EXPECT_EQ(db.DeleteLink(l).code(), Status::Code::kConstraintViolation);
  EXPECT_EQ(db.SetLinkAttribute(l, "page", Value::Int(3)).code(),
            Status::Code::kConstraintViolation);
  // Participant death still removes the link.
  ASSERT_TRUE(db.DeleteObject(p).ok());
  EXPECT_EQ(db.GetLink(l), nullptr);
}

TEST(SemanticsTest, MaxCardinalityEnforced) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Genus").ok());
  ASSERT_TRUE(db.DefineClass("Species").ok());
  RelationshipSemantics sem;
  sem.max_out = 2;
  sem.max_in = 1;
  ASSERT_TRUE(db.DefineRelationship("includes", "Genus", "Species", sem).ok());
  Oid g = db.CreateObject("Genus").value();
  Oid g2 = db.CreateObject("Genus").value();
  Oid s1 = db.CreateObject("Species").value();
  Oid s2 = db.CreateObject("Species").value();
  Oid s3 = db.CreateObject("Species").value();
  ASSERT_TRUE(db.CreateLink("includes", g, s1).ok());
  ASSERT_TRUE(db.CreateLink("includes", g, s2).ok());
  EXPECT_EQ(db.CreateLink("includes", g, s3).status().code(),
            Status::Code::kConstraintViolation);
  EXPECT_EQ(db.CreateLink("includes", g2, s1).status().code(),
            Status::Code::kConstraintViolation);
}

TEST(SemanticsTest, MinCardinalityValidation) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Name").ok());
  ASSERT_TRUE(db.DefineClass("Type").ok());
  RelationshipSemantics sem;
  sem.min_out = 1;
  ASSERT_TRUE(db.DefineRelationship("typified_by", "Name", "Type", sem).ok());
  Oid n = db.CreateObject("Name").value();
  EXPECT_EQ(db.ValidateCardinality().code(),
            Status::Code::kConstraintViolation);
  Oid t = db.CreateObject("Type").value();
  ASSERT_TRUE(db.CreateLink("typified_by", n, t).ok());
  EXPECT_TRUE(db.ValidateCardinality().ok());
}

TEST(SemanticsTest, AttributeInheritanceOverLinks) {
  // The ADAM-style role example of figure 17/18: wedding attributes become
  // visible on the spouses.
  Database db;
  ASSERT_TRUE(db.DefineClass("Person", {}, {StrAttr("name")}).ok());
  RelationshipSemantics sem;
  sem.inherit_attributes = true;
  ASSERT_TRUE(db.DefineRelationship("married_to", "Person", "Person", sem,
                                    {StrAttr("wedding_date")})
                  .ok());
  Oid a = db.CreateObject("Person", {{"name", Value::String("a")}}).value();
  Oid b = db.CreateObject("Person", {{"name", Value::String("b")}}).value();
  ASSERT_TRUE(db.CreateLink("married_to", a, b, kNullOid,
                            {{"wedding_date", Value::String("1999-06-12")}})
                  .ok());
  // The target inherits the link attribute as a derived attribute.
  EXPECT_TRUE(db.GetAttribute(b, "wedding_date")
                  .value()
                  .Equals(Value::String("1999-06-12")));
  // The source does not (inheritance flows along the link direction).
  EXPECT_FALSE(db.GetAttribute(a, "wedding_date").ok());
}

TEST(SemanticsTest, RefAttributeClassChecked) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Taxon").ok());
  AttributeDef ref;
  ref.name = "accepted";
  ref.type = ValueType::kRef;
  ref.ref_class = "Taxon";
  ASSERT_TRUE(db.DefineClass("Record", {}, {ref}).ok());
  ASSERT_TRUE(db.DefineClass("Other").ok());
  Oid t = db.CreateObject("Taxon").value();
  Oid o = db.CreateObject("Other").value();
  Oid r = db.CreateObject("Record").value();
  EXPECT_TRUE(db.SetAttribute(r, "accepted", Value::Ref(t)).ok());
  EXPECT_EQ(db.SetAttribute(r, "accepted", Value::Ref(o)).code(),
            Status::Code::kTypeError);
}

// --------------------------------------------------------------- traversal

class TraversalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db.DefineClass("Node", {}, {StrAttr("tag")}).ok());
    ASSERT_TRUE(db.DefineRelationship("child", "Node", "Node").ok());
    // Chain: n0 -> n1 -> n2 -> n3, plus n0 -> n4.
    for (int i = 0; i < 5; ++i) {
      n[i] = db.CreateObject(
                   "Node", {{"tag", Value::String("n" + std::to_string(i))}})
                 .value();
    }
    ASSERT_TRUE(db.CreateLink("child", n[0], n[1]).ok());
    ASSERT_TRUE(db.CreateLink("child", n[1], n[2]).ok());
    ASSERT_TRUE(db.CreateLink("child", n[2], n[3]).ok());
    ASSERT_TRUE(db.CreateLink("child", n[0], n[4]).ok());
  }

  Database db;
  Oid n[5];
};

TEST_F(TraversalFixture, UnboundedClosure) {
  auto r = db.Traverse(n[0], "child", 1, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 4u);
  EXPECT_FALSE(Contains(r.value(), n[0]));
}

TEST_F(TraversalFixture, MinDepthZeroIncludesStart) {
  auto r = db.Traverse(n[0], "child", 0, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 5u);
  EXPECT_TRUE(Contains(r.value(), n[0]));
}

TEST_F(TraversalFixture, DepthWindow) {
  auto r = db.Traverse(n[0], "child", 2, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), std::vector<Oid>{n[2]});
}

TEST_F(TraversalFixture, ReverseTraversal) {
  auto r = db.Traverse(n[3], "child", 1, 0, Direction::kIn);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 3u);
  EXPECT_TRUE(Contains(r.value(), n[0]));
}

TEST_F(TraversalFixture, CycleSafe) {
  ASSERT_TRUE(db.CreateLink("child", n[3], n[0]).ok());
  auto r = db.Traverse(n[0], "child", 1, 0);
  ASSERT_TRUE(r.ok());
  // Terminates, reports each node once; the start is never re-reported.
  EXPECT_EQ(r.value().size(), 4u);
  EXPECT_FALSE(Contains(r.value(), n[0]));
}

TEST_F(TraversalFixture, InvalidArguments) {
  EXPECT_EQ(db.Traverse(n[0], "nope", 1, 0).status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(db.Traverse(999999, "child", 1, 0).status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(db.Traverse(n[0], "child", 3, 2).status().code(),
            Status::Code::kInvalidArgument);
}

TEST_F(TraversalFixture, UndirectedRelationshipIgnoresDirection) {
  RelationshipSemantics sem;
  sem.directed = false;
  ASSERT_TRUE(db.DefineRelationship("near", "Node", "Node", sem).ok());
  ASSERT_TRUE(db.CreateLink("near", n[0], n[1]).ok());
  EXPECT_EQ(db.Neighbors(n[1], "near", Direction::kOut),
            std::vector<Oid>{n[0]});
}

TEST_F(TraversalFixture, ContextRestrictsTraversal) {
  ASSERT_TRUE(db.DefineClass("Ctx").ok());
  Oid ctx1 = db.CreateObject("Ctx").value();
  Oid ctx2 = db.CreateObject("Ctx").value();
  Oid m0 = db.CreateObject("Node").value();
  Oid m1 = db.CreateObject("Node").value();
  Oid m2 = db.CreateObject("Node").value();
  ASSERT_TRUE(db.CreateLink("child", m0, m1, ctx1).ok());
  ASSERT_TRUE(db.CreateLink("child", m0, m2, ctx2).ok());
  auto in_ctx1 = db.Traverse(m0, "child", 1, 0, Direction::kOut, ctx1);
  ASSERT_TRUE(in_ctx1.ok());
  EXPECT_EQ(in_ctx1.value(), std::vector<Oid>{m1});
  auto all = db.Traverse(m0, "child", 1, 0);
  EXPECT_EQ(all.value().size(), 2u);
}

// ---------------------------------------------------------------- synonyms

TEST(SynonymTest, EquivalenceRelation) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Specimen").ok());
  Oid a = db.CreateObject("Specimen").value();
  Oid b = db.CreateObject("Specimen").value();
  Oid c = db.CreateObject("Specimen").value();
  Oid d = db.CreateObject("Specimen").value();
  EXPECT_TRUE(db.AreSynonyms(a, a));
  EXPECT_FALSE(db.AreSynonyms(a, b));
  ASSERT_TRUE(db.DeclareSynonym(a, b).ok());
  ASSERT_TRUE(db.DeclareSynonym(c, d).ok());
  EXPECT_TRUE(db.AreSynonyms(a, b));
  EXPECT_FALSE(db.AreSynonyms(a, c));
  ASSERT_TRUE(db.DeclareSynonym(b, c).ok());
  EXPECT_TRUE(db.AreSynonyms(a, d));
  EXPECT_EQ(db.SynonymSet(d).size(), 4u);
  // Canonical representative is the oldest oid.
  EXPECT_EQ(db.CanonicalOf(d), a);
}

TEST(SynonymTest, DeletedMembersLeaveTheSetButSurvivorsStayUnified) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Specimen").ok());
  Oid a = db.CreateObject("Specimen").value();
  Oid b = db.CreateObject("Specimen").value();
  Oid c = db.CreateObject("Specimen").value();
  ASSERT_TRUE(db.DeclareSynonym(a, b).ok());
  ASSERT_TRUE(db.DeclareSynonym(b, c).ok());
  // Deleting the middle member must not split the set.
  ASSERT_TRUE(db.DeleteObject(b).ok());
  EXPECT_TRUE(db.AreSynonyms(a, c));
  std::vector<Oid> set = db.SynonymSet(a);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(Contains(set, b));
}

TEST(SynonymTest, RequiresLiveObjects) {
  Database db;
  ASSERT_TRUE(db.DefineClass("S").ok());
  Oid a = db.CreateObject("S").value();
  EXPECT_EQ(db.DeclareSynonym(a, 424242).code(), Status::Code::kNotFound);
}

TEST_F(CoreFixture, LookupsOnUnknownTargetsAreBenign) {
  EXPECT_TRUE(db.Extent("NoSuchClass").empty());
  EXPECT_TRUE(db.LinkExtent("NoSuchRel").empty());
  EXPECT_TRUE(db.Neighbors(12345, "works_for").empty());
  EXPECT_TRUE(db.IncidentLinks(12345, Direction::kBoth).empty());
  EXPECT_EQ(db.GetObject(kNullOid), nullptr);
  EXPECT_EQ(db.GetLink(kNullOid), nullptr);
  EXPECT_FALSE(db.IsInstanceOf(12345, "Person"));
  EXPECT_EQ(db.GetAttribute(12345, "name").status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(db.GetLinkAttribute(12345, "x").status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(db.DeleteObject(12345).code(), Status::Code::kNotFound);
  EXPECT_EQ(db.DeleteLink(12345).code(), Status::Code::kNotFound);
}

TEST_F(CoreFixture, CompensatingEventsAreMarked) {
  std::vector<std::pair<EventKind, bool>> seen;
  db.bus().Subscribe([&](const Event& e) {
    seen.emplace_back(e.kind, e.compensating);
    return Status::Ok();
  });
  ASSERT_TRUE(db.Begin().ok());
  Oid p = NewPerson("temp");
  ASSERT_TRUE(db.SetAttribute(p, "age", Value::Int(50)).ok());
  ASSERT_TRUE(db.Abort().ok());
  // Forward events were not compensating; rollback events were.
  bool saw_forward_create = false;
  bool saw_compensating_delete = false;
  bool saw_compensating_set = false;
  for (auto [kind, compensating] : seen) {
    if (kind == EventKind::kAfterCreateObject && !compensating) {
      saw_forward_create = true;
    }
    if (kind == EventKind::kAfterDeleteObject && compensating) {
      saw_compensating_delete = true;
    }
    if (kind == EventKind::kAfterSetAttribute && compensating) {
      saw_compensating_set = true;
    }
  }
  EXPECT_TRUE(saw_forward_create);
  EXPECT_TRUE(saw_compensating_delete);
  EXPECT_TRUE(saw_compensating_set);
}

TEST_F(CoreFixture, MinCardinalityRevalidatesAfterDeletion) {
  RelationshipSemantics sem;
  sem.min_out = 1;
  ASSERT_TRUE(
      db.DefineRelationship("employs_someone", "Company", "Person", sem)
          .ok());
  Oid c = NewCompany("Napier");
  Oid p = NewPerson("Ada");
  Oid l = db.CreateLink("employs_someone", c, p).value();
  EXPECT_TRUE(db.ValidateCardinality().ok());
  ASSERT_TRUE(db.DeleteLink(l).ok());
  EXPECT_EQ(db.ValidateCardinality().code(),
            Status::Code::kConstraintViolation);
}

// ------------------------------------------------------------ transactions

TEST_F(CoreFixture, AbortRollsBackEverything) {
  Oid before = NewPerson("permanent");
  ASSERT_TRUE(db.Begin().ok());
  Oid p = NewPerson("temp");
  Oid c = NewCompany("temp co");
  Oid l = db.CreateLink("works_for", p, c).value();
  ASSERT_TRUE(db.SetAttribute(before, "age", Value::Int(99)).ok());
  ASSERT_TRUE(db.Abort().ok());
  EXPECT_EQ(db.GetObject(p), nullptr);
  EXPECT_EQ(db.GetObject(c), nullptr);
  EXPECT_EQ(db.GetLink(l), nullptr);
  EXPECT_TRUE(
      db.GetAttribute(before, "age").value().Equals(Value::Int(30)));
  EXPECT_EQ(db.Extent("Person").size(), 1u);
  EXPECT_EQ(db.object_count(), 1u);
  EXPECT_EQ(db.link_count(), 0u);
}

TEST_F(CoreFixture, AbortRestoresDeletedObjectsAndLinks) {
  Oid p = NewPerson("Ada");
  Oid c = NewCompany("Napier");
  Oid l = db.CreateLink("works_for", p, c).value();
  ASSERT_TRUE(db.Begin().ok());
  ASSERT_TRUE(db.DeleteObject(p).ok());
  EXPECT_EQ(db.GetObject(p), nullptr);
  ASSERT_TRUE(db.Abort().ok());
  ASSERT_NE(db.GetObject(p), nullptr);
  ASSERT_NE(db.GetLink(l), nullptr);
  EXPECT_TRUE(
      db.GetAttribute(p, "name").value().Equals(Value::String("Ada")));
  EXPECT_EQ(db.Neighbors(p, "works_for"), std::vector<Oid>{c});
  EXPECT_EQ(db.Extent("Person").size(), 1u);
}

TEST_F(CoreFixture, CommitMakesChangesPermanent) {
  ASSERT_TRUE(db.Begin().ok());
  Oid p = NewPerson("Ada");
  ASSERT_TRUE(db.Commit().ok());
  EXPECT_NE(db.GetObject(p), nullptr);
  // Further aborts are rejected: no transaction in progress.
  EXPECT_EQ(db.Abort().code(), Status::Code::kFailedPrecondition);
}

TEST_F(CoreFixture, NestedBeginRejected) {
  ASSERT_TRUE(db.Begin().ok());
  EXPECT_EQ(db.Begin().code(), Status::Code::kFailedPrecondition);
  ASSERT_TRUE(db.Commit().ok());
}

TEST_F(CoreFixture, AbortRestoresSynonyms) {
  Oid a = NewPerson("a");
  Oid b = NewPerson("b");
  ASSERT_TRUE(db.Begin().ok());
  ASSERT_TRUE(db.DeclareSynonym(a, b).ok());
  EXPECT_TRUE(db.AreSynonyms(a, b));
  ASSERT_TRUE(db.Abort().ok());
  EXPECT_FALSE(db.AreSynonyms(a, b));
}

TEST_F(CoreFixture, BeforeEventVetoBlocksMutation) {
  db.bus().Subscribe([](const Event& e) {
    if (e.kind == EventKind::kBeforeCreateObject && e.type_name == "Company") {
      return Status::ConstraintViolation("companies forbidden");
    }
    return Status::Ok();
  });
  EXPECT_EQ(db.CreateObject("Company").status().code(),
            Status::Code::kConstraintViolation);
  EXPECT_TRUE(db.CreateObject("Person").ok());
  EXPECT_EQ(db.Extent("Company").size(), 0u);
}

TEST_F(CoreFixture, AfterEventViolationUndoesAutoCommittedOp) {
  // An invariant-style listener: vetoing an after event outside a
  // transaction undoes the operation (implicit micro-transaction).
  db.bus().Subscribe([](const Event& e) {
    if (e.kind == EventKind::kAfterSetAttribute && e.attribute == "age" &&
        e.new_value.type() == ValueType::kInt && e.new_value.AsInt() < 0) {
      return Status::ConstraintViolation("age must be non-negative");
    }
    return Status::Ok();
  });
  Oid p = NewPerson("Ada");
  EXPECT_EQ(db.SetAttribute(p, "age", Value::Int(-1)).code(),
            Status::Code::kConstraintViolation);
  EXPECT_TRUE(db.GetAttribute(p, "age").value().Equals(Value::Int(30)));
}

TEST_F(CoreFixture, EventsCanBeDisabled) {
  int count = 0;
  db.bus().Subscribe([&](const Event&) {
    ++count;
    return Status::Ok();
  });
  db.set_events_enabled(false);
  NewPerson("quiet");
  EXPECT_EQ(count, 0);
  db.set_events_enabled(true);
  NewPerson("loud");
  EXPECT_GT(count, 0);
}

TEST_F(CoreFixture, SemanticsCanBeDisabled) {
  db.set_semantics_enabled(false);
  Oid p = NewPerson("Ada");
  Oid c = NewCompany("Napier");
  // Type checking of link endpoints is skipped.
  EXPECT_TRUE(db.CreateLink("works_for", c, p).ok());
}

}  // namespace
}  // namespace prometheus
