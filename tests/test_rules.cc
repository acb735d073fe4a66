#include <gtest/gtest.h>

#include "rules/pcl.h"
#include "rules/rule_engine.h"

namespace prometheus {
namespace {

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

class RuleFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db.DefineClass("Taxon", {},
                               {Attr("name", ValueType::kString),
                                Attr("rank", ValueType::kString),
                                Attr("year", ValueType::kInt)})
                    .ok());
    ASSERT_TRUE(db.DefineRelationship("placed_in", "Taxon", "Taxon", {},
                                      {Attr("note", ValueType::kString)})
                    .ok());
    rules = std::make_unique<RuleEngine>(&db);
  }

  Oid NewTaxon(const std::string& name, const std::string& rank = "Genus",
               std::int64_t year = 1753) {
    auto r = db.CreateObject("Taxon", {{"name", Value::String(name)},
                                       {"rank", Value::String(rank)},
                                       {"year", Value::Int(year)}});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value_or(kNullOid);
  }

  Database db;
  std::unique_ptr<RuleEngine> rules;
};

TEST_F(RuleFixture, InvariantVetoesBadCreation) {
  ASSERT_TRUE(
      rules->AddInvariant("year_positive", "Taxon", "self.year > 0",
                          "publication year must be positive")
          .ok());
  EXPECT_TRUE(db.CreateObject("Taxon", {{"year", Value::Int(1753)}}).ok());
  auto bad = db.CreateObject("Taxon", {{"year", Value::Int(-5)}});
  EXPECT_EQ(bad.status().code(), Status::Code::kConstraintViolation);
  // The implicit micro-transaction undid the creation.
  EXPECT_EQ(db.Extent("Taxon").size(), 1u);
}

TEST_F(RuleFixture, InvariantVetoesBadUpdate) {
  Oid t = NewTaxon("Apium");
  ASSERT_TRUE(
      rules->AddInvariant("year_positive", "Taxon", "self.year > 0",
                          "publication year must be positive")
          .ok());
  EXPECT_EQ(db.SetAttribute(t, "year", Value::Int(0)).code(),
            Status::Code::kConstraintViolation);
  EXPECT_TRUE(db.GetAttribute(t, "year").value().Equals(Value::Int(1753)));
  EXPECT_TRUE(db.SetAttribute(t, "year", Value::Int(1800)).ok());
}

// `self`, `old` and `new` are caller bindings, not range variables: they
// reach a rule condition — and a subquery inside it — from the rule's
// Environment.
TEST_F(RuleFixture, ConditionReadsOldNewAndSelfThroughSubqueries) {
  RuleSpec grows;
  grows.name = "year_only_grows";
  grows.events = {{EventKind::kAfterSetAttribute, "Taxon"}};
  grows.condition = "attribute != 'year' or new >= old";
  grows.message = "a publication year only moves later";
  ASSERT_TRUE(rules->AddRule(grows).ok());
  RuleSpec unique;
  unique.name = "year_unique_per_name";
  unique.events = {{EventKind::kAfterSetAttribute, "Taxon"}};
  unique.condition =
      "attribute != 'year' or count((select t from Taxon t "
      "where t.name = self.name and t.year = new)) = 1";
  unique.message = "one taxon per name and year";
  ASSERT_TRUE(rules->AddRule(unique).ok());

  Oid a = NewTaxon("Apium", "Genus", 1753);
  NewTaxon("Apium", "Genus", 1800);
  EXPECT_TRUE(db.SetAttribute(a, "year", Value::Int(1760)).ok());
  EXPECT_EQ(db.SetAttribute(a, "year", Value::Int(1700)).code(),
            Status::Code::kConstraintViolation);  // new < old
  EXPECT_EQ(db.SetAttribute(a, "year", Value::Int(1800)).code(),
            Status::Code::kConstraintViolation);  // clashes with the other
  EXPECT_TRUE(db.GetAttribute(a, "year").value().Equals(Value::Int(1760)));
  EXPECT_TRUE(db.SetAttribute(a, "name", Value::String("Apium L.")).ok());
}

TEST_F(RuleFixture, ConditionOfApplicability) {
  // Genus-level names must be capitalised; the rule does not apply to
  // other ranks (thesis 5.2.1.2: condition of applicability).
  RuleSpec spec;
  spec.name = "genus_capitalised";
  spec.events = {{EventKind::kAfterCreateObject, "Taxon"},
                 {EventKind::kAfterSetAttribute, "Taxon"}};
  spec.applicability = "self.rank = 'Genus'";
  spec.condition = "self.name != lower(self.name)";
  spec.message = "genus names start with a capital";
  ASSERT_TRUE(rules->AddRule(spec).ok());
  EXPECT_TRUE(db.CreateObject("Taxon", {{"name", Value::String("apium")},
                                        {"rank", Value::String("Species")}})
                  .ok());
  EXPECT_EQ(db.CreateObject("Taxon", {{"name", Value::String("apium")},
                                      {"rank", Value::String("Genus")}})
                .status()
                .code(),
            Status::Code::kConstraintViolation);
  EXPECT_TRUE(db.CreateObject("Taxon", {{"name", Value::String("Apium")},
                                        {"rank", Value::String("Genus")}})
                  .ok());
}

TEST_F(RuleFixture, WarnRulesRecordWithoutBlocking) {
  ASSERT_TRUE(rules
                  ->AddInvariant("soft", "Taxon", "self.year >= 1753",
                                 "pre-Linnaean year", RuleTiming::kImmediate,
                                 RuleAction::kWarn)
                  .ok());
  Oid t = NewTaxon("Old", "Genus", 1700);
  EXPECT_NE(db.GetObject(t), nullptr);
  ASSERT_EQ(rules->warnings().size(), 1u);
  EXPECT_EQ(rules->warnings()[0].rule_name, "soft");
  EXPECT_EQ(rules->warnings()[0].subject, t);
}

TEST_F(RuleFixture, InteractiveRuleConsultsHandler) {
  ASSERT_TRUE(rules
                  ->AddInvariant("ask", "Taxon", "self.year >= 1753",
                                 "pre-Linnaean year", RuleTiming::kImmediate,
                                 RuleAction::kInteractive)
                  .ok());
  // Without a handler interactive rules abort.
  EXPECT_EQ(db.CreateObject("Taxon", {{"year", Value::Int(1700)}})
                .status()
                .code(),
            Status::Code::kConstraintViolation);
  // Handler allows: operation proceeds, violation logged as a warning.
  rules->set_interactive_handler([](const RuleViolation&) { return true; });
  EXPECT_TRUE(db.CreateObject("Taxon", {{"year", Value::Int(1700)}}).ok());
  EXPECT_EQ(rules->warnings().size(), 1u);
  // Handler denies: vetoed.
  rules->set_interactive_handler([](const RuleViolation&) { return false; });
  EXPECT_FALSE(db.CreateObject("Taxon", {{"year", Value::Int(1700)}}).ok());
}

TEST_F(RuleFixture, DeletePrecondition) {
  ASSERT_TRUE(rules
                  ->AddDeletePrecondition(
                      "no_children", "Taxon",
                      "count(children(self, 'placed_in')) = 0",
                      "cannot delete a taxon that still classifies others")
                  .ok());
  Oid parent = NewTaxon("Apium");
  Oid child = NewTaxon("graveolens", "Species");
  ASSERT_TRUE(db.CreateLink("placed_in", parent, child).ok());
  EXPECT_EQ(db.DeleteObject(parent).code(),
            Status::Code::kConstraintViolation);
  EXPECT_NE(db.GetObject(parent), nullptr);
  EXPECT_TRUE(db.DeleteObject(child).ok());
  EXPECT_TRUE(db.DeleteObject(parent).ok());
}

TEST_F(RuleFixture, RelationshipRule) {
  ASSERT_TRUE(rules
                  ->AddRelationshipRule(
                      "no_self_placement", "placed_in",
                      "source != target",
                      "a taxon cannot be placed in itself")
                  .ok());
  Oid a = NewTaxon("A");
  Oid b = NewTaxon("B");
  EXPECT_TRUE(db.CreateLink("placed_in", a, b).ok());
  EXPECT_EQ(db.CreateLink("placed_in", a, a).status().code(),
            Status::Code::kConstraintViolation);
  EXPECT_EQ(db.link_count(), 1u);
}

TEST_F(RuleFixture, DeferredRuleRunsAtCommit) {
  ASSERT_TRUE(rules
                  ->AddInvariant("named", "Taxon", "self.name != ''",
                                 "taxa must eventually be named",
                                 RuleTiming::kDeferred)
                  .ok());
  // Inside a transaction the violation is tolerated until commit.
  ASSERT_TRUE(db.Begin().ok());
  Oid t = db.CreateObject("Taxon").value();  // name is null -> "" fails
  ASSERT_TRUE(db.SetAttribute(t, "name", Value::String("Apium")).ok());
  EXPECT_TRUE(db.Commit().ok());
  EXPECT_NE(db.GetObject(t), nullptr);
}

TEST_F(RuleFixture, DeferredRuleAbortsCommitWhenStillViolated) {
  ASSERT_TRUE(rules
                  ->AddInvariant("named", "Taxon",
                                 "self.name != null and self.name != ''",
                                 "taxa must eventually be named",
                                 RuleTiming::kDeferred)
                  .ok());
  ASSERT_TRUE(db.Begin().ok());
  Oid t = db.CreateObject("Taxon").value();
  Status st = db.Commit();
  EXPECT_EQ(st.code(), Status::Code::kAborted);
  EXPECT_EQ(db.GetObject(t), nullptr);  // transaction rolled back
  EXPECT_FALSE(db.in_transaction());
}

TEST_F(RuleFixture, DeferredRuleSkipsSubjectsDeletedInTransaction) {
  ASSERT_TRUE(rules
                  ->AddInvariant("named", "Taxon",
                                 "self.name != null and self.name != ''",
                                 "must be named", RuleTiming::kDeferred)
                  .ok());
  ASSERT_TRUE(db.Begin().ok());
  Oid t = db.CreateObject("Taxon").value();
  ASSERT_TRUE(db.DeleteObject(t).ok());
  EXPECT_TRUE(db.Commit().ok());  // the dead subject is not re-checked
}

TEST_F(RuleFixture, RulesIgnoreRollbackCompensation) {
  int violations_before = 0;
  ASSERT_TRUE(
      rules->AddInvariant("pos", "Taxon", "self.year > 0", "positive").ok());
  Oid t = NewTaxon("A", "Genus", 10);
  ASSERT_TRUE(db.Begin().ok());
  ASSERT_TRUE(db.SetAttribute(t, "year", Value::Int(20)).ok());
  violations_before = static_cast<int>(rules->violations());
  ASSERT_TRUE(db.Abort().ok());
  // The compensating AfterSetAttribute did not re-run the rule.
  EXPECT_EQ(static_cast<int>(rules->violations()), violations_before);
}

TEST_F(RuleFixture, RuleManagement) {
  auto id = rules->AddInvariant("r", "Taxon", "self.year > 0", "m");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(rules->rule_count(), 1u);
  ASSERT_TRUE(rules->SetRuleEnabled(id.value(), false).ok());
  EXPECT_TRUE(db.CreateObject("Taxon", {{"year", Value::Int(-1)}}).ok());
  ASSERT_TRUE(rules->SetRuleEnabled(id.value(), true).ok());
  EXPECT_FALSE(db.CreateObject("Taxon", {{"year", Value::Int(-1)}}).ok());
  EXPECT_TRUE(rules->RemoveRule(id.value()).ok());
  EXPECT_TRUE(db.CreateObject("Taxon", {{"year", Value::Int(-1)}}).ok());
  EXPECT_EQ(rules->RemoveRule(id.value()).code(), Status::Code::kNotFound);
}

TEST_F(RuleFixture, BadRuleSpecsRejectedAtInstallTime) {
  RuleSpec no_events;
  no_events.name = "x";
  no_events.condition = "true";
  EXPECT_EQ(rules->AddRule(no_events).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(rules->AddInvariant("bad", "Taxon", "self.year >", "m")
                .status()
                .code(),
            Status::Code::kParseError);
  RuleSpec no_cond;
  no_cond.name = "y";
  no_cond.events = {{EventKind::kAfterCreateObject, "Taxon"}};
  EXPECT_EQ(rules->AddRule(no_cond).status().code(),
            Status::Code::kInvalidArgument);
}

TEST_F(RuleFixture, ConditionEvaluationErrorFailsClosed) {
  ASSERT_TRUE(
      rules->AddInvariant("broken", "Taxon", "self.no_such_attr = 1", "m")
          .ok());
  auto r = db.CreateObject("Taxon");
  EXPECT_EQ(r.status().code(), Status::Code::kConstraintViolation);
}

TEST_F(RuleFixture, CompositeEventFiresOnlyWhenAllSelectorsMatch) {
  // Composite rule (5.2.1.1): a taxon creation AND a placement link in the
  // same transaction; the condition then requires a positive year.
  RuleSpec spec;
  spec.name = "created_and_placed";
  spec.composite = true;
  spec.events = {{EventKind::kAfterCreateObject, "Taxon"},
                 {EventKind::kAfterCreateLink, "placed_in"}};
  spec.condition = "false";  // always violated when it fires
  spec.message = "composite fired";
  ASSERT_TRUE(rules->AddRule(spec).ok());

  // Only one selector matches: the rule never fires.
  ASSERT_TRUE(db.Begin().ok());
  NewTaxon("alone");
  EXPECT_TRUE(db.Commit().ok());

  // Both selectors match inside one transaction: the commit aborts.
  Oid a = NewTaxon("A");
  Oid b = NewTaxon("B");
  ASSERT_TRUE(db.Begin().ok());
  NewTaxon("fresh");
  ASSERT_TRUE(db.CreateLink("placed_in", a, b).ok());
  Status st = db.Commit();
  EXPECT_EQ(st.code(), Status::Code::kAborted);
  EXPECT_EQ(db.Neighbors(a, "placed_in").size(), 0u);
}

TEST_F(RuleFixture, CompositeStateResetsBetweenTransactions) {
  RuleSpec spec;
  spec.name = "pair";
  spec.composite = true;
  spec.events = {{EventKind::kAfterCreateObject, "Taxon"},
                 {EventKind::kAfterCreateLink, "placed_in"}};
  spec.condition = "false";
  spec.message = "fired";
  ASSERT_TRUE(rules->AddRule(spec).ok());
  Oid a = NewTaxon("A");
  Oid b = NewTaxon("B");
  // First txn: only a creation. Second txn: only a link. Neither commits
  // the conjunction, so neither aborts.
  ASSERT_TRUE(db.Begin().ok());
  NewTaxon("x");
  EXPECT_TRUE(db.Commit().ok());
  ASSERT_TRUE(db.Begin().ok());
  ASSERT_TRUE(db.CreateLink("placed_in", a, b).ok());
  EXPECT_TRUE(db.Commit().ok());
}

TEST_F(RuleFixture, CompositeConditionSeesLastEventBindings) {
  // The condition is evaluated against the bindings of the last matching
  // event — here the link, so `source`/`target` are available.
  RuleSpec spec;
  spec.name = "no_self_after_create";
  spec.composite = true;
  spec.events = {{EventKind::kAfterCreateObject, "Taxon"},
                 {EventKind::kAfterCreateLink, "placed_in"}};
  spec.condition = "source != target";
  spec.message = "self placement in creating transaction";
  ASSERT_TRUE(rules->AddRule(spec).ok());
  ASSERT_TRUE(db.Begin().ok());
  Oid t = NewTaxon("T");
  ASSERT_TRUE(db.CreateLink("placed_in", t, t).ok());
  EXPECT_EQ(db.Commit().code(), Status::Code::kAborted);
  ASSERT_TRUE(db.Begin().ok());
  Oid u = NewTaxon("U");
  Oid v = NewTaxon("V");
  ASSERT_TRUE(db.CreateLink("placed_in", u, v).ok());
  EXPECT_TRUE(db.Commit().ok());
}

// ---------------------------------------------------------------------- PCL

TEST_F(RuleFixture, PclInvariant) {
  auto ids = InstallPcl(rules.get(),
                        "context Taxon inv year_pos: self.year > 0");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_FALSE(db.CreateObject("Taxon", {{"year", Value::Int(-1)}}).ok());
  EXPECT_TRUE(db.CreateObject("Taxon", {{"year", Value::Int(1)}}).ok());
}

TEST_F(RuleFixture, PclApplicabilitySugar) {
  auto ids = InstallPcl(
      rules.get(),
      "context Taxon inv genus_cap: "
      "if self.rank = 'Genus' then self.name != lower(self.name)");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_TRUE(db.CreateObject("Taxon", {{"name", Value::String("apium")},
                                        {"rank", Value::String("Species")}})
                  .ok());
  EXPECT_FALSE(db.CreateObject("Taxon", {{"name", Value::String("apium")},
                                         {"rank", Value::String("Genus")}})
                   .ok());
}

TEST_F(RuleFixture, PclRelationshipInvariant) {
  auto ids = InstallPcl(rules.get(),
                        "context placed_in relinv no_self: source != target");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  Oid a = NewTaxon("A");
  Oid b = NewTaxon("B");
  EXPECT_TRUE(db.CreateLink("placed_in", a, b).ok());
  EXPECT_FALSE(db.CreateLink("placed_in", b, b).ok());
}

TEST_F(RuleFixture, PclPrecondition) {
  auto ids = InstallPcl(
      rules.get(),
      "context Taxon::delete pre leafless: "
      "count(children(self, 'placed_in')) = 0");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  Oid parent = NewTaxon("P");
  Oid child = NewTaxon("C");
  ASSERT_TRUE(db.CreateLink("placed_in", parent, child).ok());
  EXPECT_FALSE(db.DeleteObject(parent).ok());
  EXPECT_TRUE(db.DeleteObject(child).ok());
  EXPECT_TRUE(db.DeleteObject(parent).ok());
}

TEST_F(RuleFixture, PclRelationshipPrecondition) {
  // pre/post apply to relationship operations too: the compiler selects
  // the link events when the context names a relationship class.
  auto ids = InstallPcl(
      rules.get(),
      "context placed_in::create pre no_self: source != target");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  Oid a = NewTaxon("A");
  Oid b = NewTaxon("B");
  EXPECT_TRUE(db.CreateLink("placed_in", a, b).ok());
  EXPECT_EQ(db.CreateLink("placed_in", a, a).status().code(),
            Status::Code::kConstraintViolation);
  EXPECT_EQ(db.link_count(), 1u);  // vetoed before creation
}

TEST_F(RuleFixture, PclModifiersAndProgram) {
  auto specs = CompilePclProgram(
      "context Taxon warn inv soft: self.year >= 1753;"
      "context Taxon deferred inv named: self.name != null");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs.value().size(), 2u);
  EXPECT_EQ(specs.value()[0].action, RuleAction::kWarn);
  EXPECT_EQ(specs.value()[0].name, "soft");
  EXPECT_EQ(specs.value()[1].timing, RuleTiming::kDeferred);
}

TEST_F(RuleFixture, PclSyntaxErrors) {
  EXPECT_EQ(CompilePcl("Taxon inv x: true").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(CompilePcl("context Taxon blah x: true").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(CompilePcl("context Taxon inv x").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(CompilePcl("context Taxon pre x: true").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(CompilePcl("context Taxon::explode pre x: true").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(CompilePcl("context Taxon inv x:").status().code(),
            Status::Code::kParseError);
}

TEST_F(RuleFixture, PclDefaultRuleName) {
  auto spec = CompilePcl("context Taxon inv: self.year > 0");
  ASSERT_TRUE(spec.ok());
  // With no explicit name, a default is derived. (The trailing word before
  // ':' is absent, so the kind-based default applies.)
  EXPECT_FALSE(spec.value().name.empty());
}

}  // namespace
}  // namespace prometheus
