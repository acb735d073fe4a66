#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "cache/plan_cache.h"
#include "classification/classification.h"
#include "query/parser.h"
#include "query/query_engine.h"
#include "query/render.h"
#include "query/system_catalog.h"

namespace prometheus::pool {
namespace {

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

// ------------------------------------------------------------------ parser

TEST(ParserTest, RejectsGarbage) {
  EXPECT_EQ(ParseQuery("selec x from Y").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(ParseQuery("select from Y").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(ParseQuery("select x").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(ParseExpression("1 +").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(ParseExpression("'unterminated").status().code(),
            Status::Code::kParseError);
  EXPECT_EQ(ParseExpression("a ! b").status().code(),
            Status::Code::kParseError);
}

TEST(ParserTest, ParsesFullQueryShape) {
  auto q = ParseQuery(
      "select distinct s.name as n, s.year from Specimens s, Taxa as t "
      "where s.year >= 1753 and not (t.rank = 'Genus') "
      "order by s.year desc limit 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const SelectQuery& query = *q.value();
  EXPECT_TRUE(query.distinct);
  ASSERT_EQ(query.items.size(), 2u);
  EXPECT_EQ(query.items[0].alias, "n");
  ASSERT_EQ(query.from.size(), 2u);
  EXPECT_EQ(query.from[0].source_name, "Specimens");
  EXPECT_EQ(query.from[0].variable, "s");
  EXPECT_EQ(query.from[1].variable, "t");
  EXPECT_NE(query.where, nullptr);
  ASSERT_EQ(query.order_by.size(), 1u);
  EXPECT_TRUE(query.order_by[0].desc);
  EXPECT_EQ(query.limit, 10);
}

TEST(ParserTest, OqlInRangeForm) {
  auto q = ParseQuery("select s from s in Specimens");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value()->from[0].variable, "s");
  EXPECT_EQ(q.value()->from[0].source_name, "Specimens");
}

TEST(ParserTest, DependentRange) {
  auto q = ParseQuery(
      "select c from Taxa t, children(t, 'placed_in') c");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value()->from.size(), 2u);
  EXPECT_NE(q.value()->from[1].source_expr, nullptr);
  EXPECT_EQ(q.value()->from[1].variable, "c");
}

TEST(ParserTest, DowncastSyntax) {
  auto e = ParseExpression("x[Genus].name");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->kind, ExprKind::kPath);
  EXPECT_EQ(e.value()->children[0]->kind, ExprKind::kDowncast);
  EXPECT_EQ(e.value()->children[0]->name, "Genus");
}

// Parser robustness: malformed inputs must produce ParseError, never
// crash or hang.
class ParserFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserFuzz, MalformedInputRejectedCleanly) {
  auto q = ParseQuery(GetParam());
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), Status::Code::kParseError);
}

INSTANTIATE_TEST_SUITE_P(
    BadQueries, ParserFuzz,
    ::testing::Values(
        "", "select", "select from", "select x from",
        "select x from Y where", "select x from Y order",
        "select x from Y order by", "select x from Y limit",
        "select x from Y limit x", "select x from Y group",
        "select x from Y group by", "select x from Y group by z having",
        "select x, from Y", "select x from Y,",
        "select x from Y where (a = 1", "select x from Y where a = 1)",
        "select x from (select z from W) ",  // subquery range needs a var
        "select x.[Z] from Y", "select x[1] from Y",
        "select x from Y where a in", "select f( from Y",
        "select 'abc from Y", "select x..y from Y",
        "select x from Y where a ! b", "select x from Y where a = @"));

// ------------------------------------------------------------- like match

TEST(LikeMatchTest, Patterns) {
  EXPECT_TRUE(LikeMatch("Apiaceae", "%aceae"));
  EXPECT_TRUE(LikeMatch("Apiaceae", "Api%"));
  EXPECT_TRUE(LikeMatch("Apiaceae", "A_iaceae"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("Rosaceae", "Api%"));
  EXPECT_FALSE(LikeMatch("abc", "ab"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));
  EXPECT_TRUE(LikeMatch("xxabyy", "%ab%"));
}

// --------------------------------------------------------------- evaluator

class QueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db.DefineClass("Taxon", {},
                               {Attr("name", ValueType::kString),
                                Attr("rank", ValueType::kString),
                                Attr("year", ValueType::kInt)})
                    .ok());
    ASSERT_TRUE(db.DefineClass("Genus", {"Taxon"}).ok());
    ASSERT_TRUE(db.DefineRelationship("placed_in", "Taxon", "Taxon", {},
                                      {Attr("note", ValueType::kString)})
                    .ok());
    engine = std::make_unique<QueryEngine>();

    apium = NewTaxon("Apium", "Genus", 1753, "Genus");
    graveolens = NewTaxon("graveolens", "Species", 1753);
    repens = NewTaxon("repens", "Species", 1821);
    helio = NewTaxon("Heliosciadium", "Genus", 1824, "Genus");
    ASSERT_TRUE(db.CreateLink("placed_in", apium, graveolens, kNullOid,
                              {{"note", Value::String("type species")}})
                    .ok());
    ASSERT_TRUE(db.CreateLink("placed_in", apium, repens).ok());
  }

  Oid NewTaxon(const std::string& name, const std::string& rank,
               std::int64_t year, const std::string& cls = "Taxon") {
    return db.CreateObject(cls, {{"name", Value::String(name)},
                                 {"rank", Value::String(rank)},
                                 {"year", Value::Int(year)}})
        .value();
  }

  Value EvalOk(const std::string& expr, const Environment& env = {}) {
    auto r = engine->Eval(expr, db.live_store(), env);
    EXPECT_TRUE(r.ok()) << expr << " -> " << r.status().ToString();
    return r.value_or(Value::Null());
  }

  Database db;
  std::unique_ptr<QueryEngine> engine;
  Oid apium, graveolens, repens, helio;
};

TEST_F(QueryFixture, ExpressionArithmeticAndLogic) {
  EXPECT_TRUE(EvalOk("1 + 2 * 3").Equals(Value::Int(7)));
  EXPECT_TRUE(EvalOk("(1 + 2) * 3").Equals(Value::Int(9)));
  EXPECT_TRUE(EvalOk("10 / 4").Equals(Value::Int(2)));
  EXPECT_TRUE(EvalOk("10.0 / 4").Equals(Value::Double(2.5)));
  EXPECT_TRUE(EvalOk("7 % 3").Equals(Value::Int(1)));
  EXPECT_TRUE(EvalOk("-3 + 5").Equals(Value::Int(2)));
  EXPECT_TRUE(EvalOk("true and not false").Equals(Value::Bool(true)));
  EXPECT_TRUE(EvalOk("false or true").Equals(Value::Bool(true)));
  EXPECT_TRUE(EvalOk("1 < 2 and 'a' != 'b'").Equals(Value::Bool(true)));
  EXPECT_TRUE(EvalOk("'Api' + 'um'").Equals(Value::String("Apium")));
  EXPECT_TRUE(EvalOk("3 in (select t.year from Taxon t)")
                  .Equals(Value::Bool(false)));
  EXPECT_EQ(engine->Eval("1 / 0", db.live_store(), {}).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine->Eval("1 + 'x' * 2", db.live_store(), {}).status().code(),
            Status::Code::kTypeError);
}

TEST_F(QueryFixture, PathNavigation) {
  Environment env{{"t", Value::Ref(apium)}};
  EXPECT_TRUE(EvalOk("t.name", env).Equals(Value::String("Apium")));
  EXPECT_TRUE(EvalOk("t.class", env).Equals(Value::String("Genus")));
  EXPECT_EQ(engine->Eval("t.nothing", db.live_store(), env).status().code(),
            Status::Code::kNotFound);
}

TEST_F(QueryFixture, LinkMembers) {
  Oid lid = db.LinkExtent("placed_in")[0];
  Environment env{{"l", Value::Ref(lid)}};
  EXPECT_TRUE(EvalOk("l.source", env).Equals(Value::Ref(apium)));
  EXPECT_TRUE(EvalOk("l.target", env).Equals(Value::Ref(graveolens)));
  EXPECT_TRUE(
      EvalOk("l.relationship", env).Equals(Value::String("placed_in")));
  EXPECT_TRUE(EvalOk("l.note", env).Equals(Value::String("type species")));
  EXPECT_TRUE(EvalOk("l.context", env).is_null());
  EXPECT_TRUE(EvalOk("l.source.name", env).Equals(Value::String("Apium")));
}

TEST_F(QueryFixture, SelectiveDowncast) {
  Environment env{{"g", Value::Ref(apium)}, {"s", Value::Ref(graveolens)}};
  EXPECT_TRUE(EvalOk("g[Genus]", env).Equals(Value::Ref(apium)));
  EXPECT_TRUE(EvalOk("s[Genus]", env).is_null());
  // Downcast over a list filters.
  Value filtered = EvalOk("extent('Taxon')[Genus]", env);
  ASSERT_EQ(filtered.type(), ValueType::kList);
  EXPECT_EQ(filtered.AsList().size(), 2u);
}

TEST_F(QueryFixture, BasicSelect) {
  auto r = engine->Execute(
      "select t.name from Taxon t where t.rank = 'Genus' order by t.name",
      db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("Apium")));
  EXPECT_TRUE(r.value().rows[1][0].Equals(Value::String("Heliosciadium")));
}

TEST_F(QueryFixture, SelectStarBindsAllRanges) {
  auto r = engine->Execute("select * from Genus g", db.live_store());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().columns, std::vector<std::string>{"g"});
  EXPECT_EQ(r.value().rows.size(), 2u);
}

TEST_F(QueryFixture, RelationshipExtentIsQueryable) {
  // POOL's uniform treatment: relationships appear in FROM like classes.
  auto r = engine->Execute(
      "select l.target.name from placed_in l where l.source.name = 'Apium' "
      "order by l.target.name", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("graveolens")));
  EXPECT_TRUE(r.value().rows[1][0].Equals(Value::String("repens")));
}

TEST_F(QueryFixture, JoinAcrossRanges) {
  auto r = engine->Execute(
      "select g.name, s.name from Genus g, Taxon s, placed_in l "
      "where l.source = g and l.target = s order by s.name", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("Apium")));
}

TEST_F(QueryFixture, DependentRangeJoin) {
  auto r = engine->Execute(
      "select c.name from Genus g, children(g, 'placed_in') c "
      "where g.name = 'Apium' order by c.name", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("graveolens")));
}

TEST_F(QueryFixture, DistinctAndLimit) {
  auto r = engine->Execute("select distinct t.rank from Taxon t",
                           db.live_store());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows.size(), 2u);
  auto l = engine->Execute("select t.name from Taxon t limit 2",
                           db.live_store());
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l.value().rows.size(), 2u);
}

TEST_F(QueryFixture, SubqueryAndIn) {
  auto r = engine->Execute(
      "select t.name from Taxon t "
      "where t.year in (select g.year from Genus g) "
      "order by t.name", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Years 1753 (Apium, graveolens) and 1824 (Heliosciadium).
  ASSERT_EQ(r.value().rows.size(), 3u);
}

TEST_F(QueryFixture, CorrelatedSubquery) {
  // Genera with at least one placed child.
  auto r = engine->Execute(
      "select g.name from Genus g "
      "where exists((select l from placed_in l where l.source = g))",
      db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("Apium")));
}

TEST_F(QueryFixture, AggregateFunctions) {
  Environment env;
  EXPECT_TRUE(EvalOk("count(extent('Taxon'))", env).Equals(Value::Int(4)));
  EXPECT_TRUE(EvalOk("min((select t.year from Taxon t))", env)
                  .Equals(Value::Int(1753)));
  EXPECT_TRUE(EvalOk("max((select t.year from Taxon t))", env)
                  .Equals(Value::Int(1824)));
  EXPECT_TRUE(EvalOk("sum((select t.year from Taxon t))", env)
                  .Equals(Value::Int(1753 + 1753 + 1821 + 1824)));
  EXPECT_TRUE(EvalOk("avg((select t.year from Taxon t))", env)
                  .Equals(Value::Double((1753 + 1753 + 1821 + 1824) / 4.0)));
}

TEST_F(QueryFixture, StringFunctionsAndLike) {
  auto r = engine->Execute(
      "select t.name from Taxon t where t.name like '%um' order by t.name",
      db.live_store());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 2u);  // Apium, Heliosciadium
  EXPECT_TRUE(EvalOk("upper('api')").Equals(Value::String("API")));
  EXPECT_TRUE(EvalOk("lower('API')").Equals(Value::String("api")));
  EXPECT_TRUE(EvalOk("length('abc')").Equals(Value::Int(3)));
  EXPECT_TRUE(EvalOk("starts_with('Apium', 'Api')").Equals(Value::Bool(true)));
  EXPECT_TRUE(EvalOk("ends_with('Apiaceae', 'aceae')")
                  .Equals(Value::Bool(true)));
}

TEST_F(QueryFixture, GraphFunctions) {
  Environment env{{"g", Value::Ref(apium)}, {"s", Value::Ref(graveolens)}};
  Value desc = EvalOk("traverse(g, 'placed_in', 1, 0)", env);
  ASSERT_EQ(desc.type(), ValueType::kList);
  EXPECT_EQ(desc.AsList().size(), 2u);
  Value kids = EvalOk("children(g, 'placed_in')", env);
  EXPECT_EQ(kids.AsList().size(), 2u);
  Value up = EvalOk("parents(s, 'placed_in')", env);
  ASSERT_EQ(up.AsList().size(), 1u);
  EXPECT_TRUE(up.AsList()[0].Equals(Value::Ref(apium)));
  EXPECT_TRUE(EvalOk("reachable(g, s, 'placed_in')", env)
                  .Equals(Value::Bool(true)));
  EXPECT_TRUE(EvalOk("reachable(s, g, 'placed_in')", env)
                  .Equals(Value::Bool(false)));
  Value lvs = EvalOk("leaves(g, 'placed_in')", env);
  EXPECT_EQ(lvs.AsList().size(), 2u);
  Value lnks = EvalOk("links(g, 'placed_in', 'out')", env);
  EXPECT_EQ(lnks.AsList().size(), 2u);
}

TEST_F(QueryFixture, ContextualGraphQuery) {
  ClassificationManager mgr(&db);
  Oid c1 = mgr.Create("C1", "t1").value();
  Oid c2 = mgr.Create("C2", "t2").value();
  ASSERT_TRUE(mgr.AddEdge(c1, "placed_in", helio, repens).ok());
  ASSERT_TRUE(mgr.AddEdge(c2, "placed_in", helio, graveolens).ok());
  Environment env{{"h", Value::Ref(helio)},
                  {"c1", Value::Ref(c1)},
                  {"c2", Value::Ref(c2)}};
  Value in_c1 = EvalOk("children(h, 'placed_in', c1)", env);
  ASSERT_EQ(in_c1.AsList().size(), 1u);
  EXPECT_TRUE(in_c1.AsList()[0].Equals(Value::Ref(repens)));
  Value in_c2 = EvalOk("children(h, 'placed_in', c2)", env);
  ASSERT_EQ(in_c2.AsList().size(), 1u);
  EXPECT_TRUE(in_c2.AsList()[0].Equals(Value::Ref(graveolens)));
  Value edges = EvalOk("in_context(c1)", env);
  EXPECT_EQ(edges.AsList().size(), 1u);
}

TEST_F(QueryFixture, SynonymFunctions) {
  ASSERT_TRUE(db.DeclareSynonym(graveolens, repens).ok());
  Environment env{{"a", Value::Ref(graveolens)}, {"b", Value::Ref(repens)}};
  EXPECT_TRUE(EvalOk("are_synonyms(a, b)", env).Equals(Value::Bool(true)));
  EXPECT_TRUE(EvalOk("canonical(b)", env).Equals(Value::Ref(graveolens)));
  EXPECT_EQ(EvalOk("synonyms(a)", env).AsList().size(), 2u);
}

TEST_F(QueryFixture, IndexAcceleratedLookupGivesSameAnswer) {
  IndexManager idx(&db);
  ASSERT_TRUE(idx.CreateIndex("Taxon", "name").ok());
  QueryEngine with_index(&idx);
  const std::string q =
      "select t.year from Taxon t where t.name = 'Heliosciadium'";
  auto a = engine->Execute(q, db.live_store());
  auto b = with_index.Execute(q, db.live_store());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().rows.size(), 1u);
  ASSERT_EQ(b.value().rows.size(), 1u);
  EXPECT_TRUE(a.value().rows[0][0].Equals(b.value().rows[0][0]));
}

TEST_F(QueryFixture, GroupByWithAggregates) {
  auto r = engine->Execute(
      "select t.rank as rank, count(t) as n, min(t.year) as oldest "
      "from Taxon t group by t.rank order by t.rank", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  // Genus group: Apium (1753) + Heliosciadium (1824).
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("Genus")));
  EXPECT_TRUE(r.value().rows[0][1].Equals(Value::Int(2)));
  EXPECT_TRUE(r.value().rows[0][2].Equals(Value::Int(1753)));
  // Species group: graveolens (1753) + repens (1821).
  EXPECT_TRUE(r.value().rows[1][0].Equals(Value::String("Species")));
  EXPECT_TRUE(r.value().rows[1][1].Equals(Value::Int(2)));
}

TEST_F(QueryFixture, GroupByHavingFilter) {
  auto r = engine->Execute(
      "select t.year, count(t) from Taxon t group by t.year "
      "having count(t) >= 2", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Only 1753 has two taxa (Apium + graveolens).
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::Int(1753)));
  EXPECT_TRUE(r.value().rows[0][1].Equals(Value::Int(2)));
}

TEST_F(QueryFixture, GroupByAggregateArithmetic) {
  auto r = engine->Execute(
      "select t.rank, max(t.year) - min(t.year) as span from Taxon t "
      "group by t.rank order by t.rank", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][1].Equals(Value::Int(1824 - 1753)));
  EXPECT_TRUE(r.value().rows[1][1].Equals(Value::Int(1821 - 1753)));
}

TEST_F(QueryFixture, GroupByOrderByAggregate) {
  auto r = engine->Execute(
      "select t.rank from Taxon t group by t.rank "
      "order by count(t) desc limit 1", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
}

TEST_F(QueryFixture, SelectStarRejectedWithGroupBy) {
  EXPECT_EQ(engine->Execute("select * from Taxon t group by t.rank",
                            db.live_store())
                .status()
                .code(),
            Status::Code::kParseError);
}

TEST_F(QueryFixture, PathFunction) {
  // Chain helio under apium to give a two-hop path.
  ASSERT_TRUE(db.CreateLink("placed_in", graveolens, helio).ok());
  Environment env{{"a", Value::Ref(apium)},
                  {"g", Value::Ref(graveolens)},
                  {"h", Value::Ref(helio)},
                  {"r", Value::Ref(repens)}};
  Value p = EvalOk("path(a, h, 'placed_in')", env);
  ASSERT_EQ(p.type(), ValueType::kList);
  ASSERT_EQ(p.AsList().size(), 3u);
  EXPECT_TRUE(p.AsList()[0].Equals(Value::Ref(apium)));
  EXPECT_TRUE(p.AsList()[1].Equals(Value::Ref(graveolens)));
  EXPECT_TRUE(p.AsList()[2].Equals(Value::Ref(helio)));
  // Trivial path and unreachable pair.
  EXPECT_EQ(EvalOk("path(a, a, 'placed_in')", env).AsList().size(), 1u);
  EXPECT_TRUE(EvalOk("path(h, a, 'placed_in')", env).AsList().empty());
}

TEST_F(QueryFixture, SubgraphExtraction) {
  Environment env{{"a", Value::Ref(apium)}};
  Value links = EvalOk("subgraph(a, 'placed_in')", env);
  ASSERT_EQ(links.type(), ValueType::kList);
  EXPECT_EQ(links.AsList().size(), 2u);  // apium->graveolens, apium->repens
  // Every element is a link whose members navigate.
  Value targets = EvalOk("subgraph(a, 'placed_in').target.name", env);
  EXPECT_EQ(targets.AsList().size(), 2u);
}

TEST_F(QueryFixture, SetOperations) {
  Environment env{{"a", Value::Ref(apium)}, {"h", Value::Ref(helio)}};
  Value all = EvalOk(
      "union_of(children(a, 'placed_in'), children(h, 'placed_in'))", env);
  EXPECT_EQ(all.AsList().size(), 2u);
  Value common = EvalOk(
      "intersect(children(a, 'placed_in'), children(a, 'placed_in'))", env);
  EXPECT_EQ(common.AsList().size(), 2u);
  Value none = EvalOk(
      "minus(children(a, 'placed_in'), children(a, 'placed_in'))", env);
  EXPECT_TRUE(none.AsList().empty());
  // Synonym-style query: shared leaves between two groups.
  Value shared = EvalOk(
      "intersect(leaves(a, 'placed_in'), children(a, 'placed_in'))", env);
  EXPECT_EQ(shared.AsList().size(), 2u);
}

TEST_F(QueryFixture, ErrorsSurfaceCleanly) {
  EXPECT_EQ(engine->Execute("select x from Nowhere x",
                            db.live_store()).status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(engine->Eval("unknown_fn(1)", db.live_store(), {}).status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(engine->Eval("x.name", db.live_store(), {}).status().code(),
            Status::Code::kNotFound);  // unbound variable
  EXPECT_EQ(engine->Execute("select t from Taxon t where t.year",
                            db.live_store())
                .status()
                .code(),
            Status::Code::kTypeError);  // non-boolean where
}

TEST_F(QueryFixture, JoinOrderDoesNotChangeResults) {
  // The optimiser may reorder ranges; the answer (with an order by) must
  // be identical whichever order the user wrote.
  const char* q1 =
      "select g.name, s.name from Genus g, Taxon s, placed_in l "
      "where l.source = g and l.target = s order by s.name";
  const char* q2 =
      "select g.name, s.name from placed_in l, Taxon s, Genus g "
      "where l.source = g and l.target = s order by s.name";
  auto a = engine->Execute(q1, db.live_store());
  auto b = engine->Execute(q2, db.live_store());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().rows.size(), b.value().rows.size());
  for (std::size_t i = 0; i < a.value().rows.size(); ++i) {
    EXPECT_TRUE(a.value().rows[i][0].Equals(b.value().rows[i][0]));
    EXPECT_TRUE(a.value().rows[i][1].Equals(b.value().rows[i][1]));
  }
}

TEST_F(QueryFixture, DependentRangeWaitsForItsVariableRegardlessOfOrder) {
  // The dependent range is written FIRST but references g, which is bound
  // by a later range; the optimiser must schedule g before it.
  auto r = engine->Execute(
      "select c.name from children(g, 'placed_in') c, Genus g "
      "where g.name = 'Apium' order by c.name", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("graveolens")));
}

TEST_F(QueryFixture, SubqueryAsRangeSource) {
  auto r = engine->Execute(
      "select x.name from (select t from Taxon t where t.rank = 'Genus') "
      "as x order by x.name", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("Apium")));
}

TEST_F(QueryFixture, ExplainReportsStrategy) {
  IndexManager idx(&db);
  ASSERT_TRUE(idx.CreateIndex("Taxon", "name").ok());
  QueryEngine with_index(&idx);
  auto plan = with_index.Explain(
      "select t from Taxon t, children(t, 'placed_in') c "
      "where t.name = 'Apium'", db.live_store());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().find("index lookup on Taxon.name"),
            std::string::npos);
  EXPECT_NE(plan.value().find("dependent expression"), std::string::npos);
  // Without the index the same query scans.
  auto scan_plan = engine->Explain(
      "select t from Taxon t where t.name = 'Apium'", db.live_store());
  ASSERT_TRUE(scan_plan.ok());
  EXPECT_NE(scan_plan.value().find("extent scan of class Taxon"),
            std::string::npos);
  // Relationship ranges and clauses are reported.
  auto rel_plan = with_index.Explain(
      "select l from placed_in l group by l.source order by count(l)",
      db.live_store());
  ASSERT_TRUE(rel_plan.ok());
  EXPECT_NE(rel_plan.value().find("extent scan of relationship placed_in"),
            std::string::npos);
  EXPECT_NE(rel_plan.value().find("group by"), std::string::npos);
  EXPECT_NE(rel_plan.value().find("order by"), std::string::npos);
}

TEST_F(QueryFixture, RangeConjunctsProbeAnOrderedIndex) {
  IndexManager idx(&db);
  ASSERT_TRUE(idx.CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  QueryEngine with_index(&idx);
  // Bounds merge to the tightest pair; `literal op path` flips.
  const std::string q =
      "select t.name from Taxon t where t.year >= 1753 and 1824 > t.year "
      "and t.year > 1700 order by t.name";
  auto plan = with_index.Explain(q, db.live_store());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value(),
            "t: index range on Taxon.year [1753, 1824)\n"
            "  answered by the index: t.year >= 1753, 1824 > t.year, "
            "t.year > 1700\n"
            "order by: sort\n");
  auto profiled = with_index.ExecuteProfiled(q, db.live_store());
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  const obs::TraceNode* range = profiled.value().trace.Child("plan")->Child(
      "range t");
  ASSERT_NE(range, nullptr);
  EXPECT_EQ(range->detail, "index range on Taxon.year [1753, 1824)");
  EXPECT_EQ(range->rows, 3);  // the strict upper bound keeps out 1824
  auto scanned = engine->Execute(q, db.live_store());
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(profiled.value().rows.rows.size(), 3u);
  EXPECT_EQ(profiled.value().rows.rows, scanned.value().rows);
  // An equality conjunct with an index wins over the range.
  ASSERT_TRUE(idx.CreateIndex("Taxon", "name").ok());
  EXPECT_EQ(with_index
                .Explain("select t from Taxon t where t.year < 1800 and "
                         "t.name = 'Apium'", db.live_store())
                .value(),
            "t: index lookup on Taxon.name\n");
  // Literals that do not fit the declared type leave the range to a scan.
  EXPECT_EQ(with_index.Explain("select t from Taxon t where t.year > 'x'",
                               db.live_store())
                .value(),
            "t: extent scan of class Taxon\n");
  EXPECT_EQ(with_index
                .Explain("select t from Taxon t where t.year > 1800 and "
                         "t.year >= 'x'", db.live_store())
                .value(),
            "t: extent scan of class Taxon\n");
}

// The served hot set's shape — two inclusive bounds on one int attribute —
// is answered by the ordered index: EXPLAIN and PROFILE say so, and the
// rows are the scan's.
TEST_F(QueryFixture, HotSetShapeIsAnsweredByTheIndex) {
  IndexManager idx(&db);
  ASSERT_TRUE(idx.CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  QueryEngine with_index(&idx);
  const std::string q =
      "select t.name from Taxon t where t.year >= 1753 and t.year <= 1821 "
      "order by t.name";
  EXPECT_EQ(with_index.Explain(q, db.live_store()).value(),
            "t: index range on Taxon.year [1753, 1821]\n"
            "  answered by the index: t.year >= 1753, t.year <= 1821\n"
            "order by: sort\n");
  auto profiled = with_index.ExecuteProfiled(q, db.live_store());
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  const obs::TraceNode* range =
      profiled.value().trace.Child("plan")->Child("range t");
  ASSERT_NE(range, nullptr);
  EXPECT_EQ(range->detail, "index range on Taxon.year [1753, 1821]");
  const obs::TraceNode* answered = range->Child("answered by the index");
  ASSERT_NE(answered, nullptr);
  EXPECT_EQ(answered->detail, "t.year >= 1753, t.year <= 1821");
  auto scanned = engine->Execute(q, db.live_store());
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(range->rows, 3);
  EXPECT_EQ(profiled.value().rows.rows, scanned.value().rows);
  // A string range and an equality lookup answer nothing: their
  // candidates still pass the whole where clause.
  ASSERT_TRUE(idx.CreateIndex("Taxon", "rank", /*ordered=*/true).ok());
  EXPECT_EQ(with_index
                .Explain("select t from Taxon t where t.rank >= 'S'",
                         db.live_store())
                .value(),
            "t: index range on Taxon.rank [\"S\", +inf)\n");
  EXPECT_EQ(with_index
                .Explain("select t from Taxon t where t.year = 1753",
                         db.live_store())
                .value(),
            "t: index lookup on Taxon.year\n");
}

// Strict bounds are honoured by the index, and an open-ended numeric range
// stops before the nulls, which sort after every number in the index: no
// endpoint row and no null reaches the result or the candidate count.
TEST_F(QueryFixture, StrictBoundsKeepNoEndpointRows) {
  ASSERT_TRUE(db.CreateObject("Taxon", {{"name", Value::String("undated")}})
                  .ok());
  IndexManager idx(&db);
  ASSERT_TRUE(idx.CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  QueryEngine with_index(&idx);
  struct Case {
    std::string where;
    std::vector<std::string> names;
  };
  const std::vector<Case> cases = {
      {"t.year > 1753 and t.year < 1824", {"repens"}},
      {"t.year > 1821", {"Heliosciadium"}},
      {"1821 < t.year", {"Heliosciadium"}},
      {"t.year >= 1821", {"Heliosciadium", "repens"}},
      {"t.year < 1821", {"Apium", "graveolens"}},
      {"t.year > 1753 and t.year < 1754", {}},
      {"t.year > 1821 and t.year < 1821", {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.where);
    const std::string q =
        "select t.name from Taxon t where " + c.where + " order by t.name";
    auto profiled = with_index.ExecuteProfiled(q, db.live_store());
    ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
    std::vector<std::string> names;
    for (const auto& row : profiled.value().rows.rows) {
      names.push_back(row[0].AsString());
    }
    EXPECT_EQ(names, c.names);
    const obs::TraceNode* range =
        profiled.value().trace.Child("plan")->Child("range t");
    ASSERT_NE(range, nullptr);
    EXPECT_EQ(range->rows, static_cast<std::int64_t>(c.names.size()));
    EXPECT_NE(range->Child("answered by the index"), nullptr);
    auto scanned = engine->Execute(q, db.live_store());
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(profiled.value().rows.rows, scanned.value().rows);
  }
}

TEST(RangePlanTest, UntypedMixedAttributeStillRaisesTypeError) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Box", {}, {Attr("v", ValueType::kNull)}).ok());
  ASSERT_TRUE(db.CreateObject("Box", {{"v", Value::Int(3)}}).ok());
  ASSERT_TRUE(db.CreateObject("Box", {{"v", Value::String("x")}}).ok());
  IndexManager idx(&db);
  ASSERT_TRUE(idx.CreateIndex("Box", "v", /*ordered=*/true).ok());
  QueryEngine engine(&idx);
  // The ordered index holds only the int under a numeric bound; a scan
  // compares the string too, and that comparison is a type error.
  const std::string q = "select b from Box b where b.v >= 1";
  EXPECT_EQ(engine.Execute(q,
      db.live_store()).status().code(), Status::Code::kTypeError);
  auto plan = engine.Explain(q, db.live_store());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value(), "b: extent scan of class Box\n");
}

TEST_F(QueryFixture, OrderByAscendingAndDescending) {
  auto asc = engine->Execute("select t.year from Taxon t order by t.year",
                             db.live_store());
  ASSERT_TRUE(asc.ok());
  EXPECT_TRUE(asc.value().rows.front()[0].Equals(Value::Int(1753)));
  EXPECT_TRUE(asc.value().rows.back()[0].Equals(Value::Int(1824)));
  auto desc =
      engine->Execute("select t.year from Taxon t order by t.year desc",
                      db.live_store());
  ASSERT_TRUE(desc.ok());
  EXPECT_TRUE(desc.value().rows.front()[0].Equals(Value::Int(1824)));
}

TEST_F(QueryFixture, ResultSetColumnHelper) {
  auto r = engine->Execute(
      "select t.name, t.year from Taxon t where t.rank = 'Genus' "
      "order by t.year", db.live_store());
  ASSERT_TRUE(r.ok());
  std::vector<Value> names = r.value().Column(0);
  std::vector<Value> years = r.value().Column(1);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_TRUE(names[0].Equals(Value::String("Apium")));
  EXPECT_TRUE(years[1].Equals(Value::Int(1824)));
  // Out-of-range column yields an empty vector.
  EXPECT_TRUE(r.value().Column(5).empty());
}

TEST_F(QueryFixture, MultiKeyOrderBy) {
  // Primary key year ascending, secondary key name descending.
  auto r = engine->Execute(
      "select t.year, t.name from Taxon t order by t.year, t.name desc",
      db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 4u);
  // 1753 twice (graveolens before Apium when name desc), then 1821, 1824.
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::Int(1753)));
  EXPECT_TRUE(r.value().rows[0][1].Equals(Value::String("graveolens")));
  EXPECT_TRUE(r.value().rows[1][1].Equals(Value::String("Apium")));
  EXPECT_TRUE(r.value().rows[2][0].Equals(Value::Int(1821)));
  EXPECT_TRUE(r.value().rows[3][0].Equals(Value::Int(1824)));
}

TEST_F(QueryFixture, NullPropagationThroughPaths) {
  Environment env{{"x", Value::Null()}};
  EXPECT_TRUE(EvalOk("x.name", env).is_null());
  EXPECT_TRUE(EvalOk("x.name = 'Apium'", env).Equals(Value::Bool(false)));
  EXPECT_TRUE(EvalOk("x.name = null", env).Equals(Value::Bool(true)));
}

// ------------------------------------------------------ lexical scoping
// The parser binds every range variable to a frame slot; the innermost
// enclosing range wins, and names no range binds come from the caller's
// Environment.

TEST_F(QueryFixture, SubqueryRangeShadowsOuterVariable) {
  // The inner `t` ranges over Taxon (1821 is there); were it read as the
  // outer genus, `t.year` would be 1753 or 1824 and no row would pass.
  // The outer `t` is intact after the subquery ran.
  auto r = engine->Execute(
      "select t.name from Genus t "
      "where 1821 in (select t.year from Taxon t) order by t.name",
      db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("Apium")));
  EXPECT_TRUE(r.value().rows[1][0].Equals(Value::String("Heliosciadium")));
}

TEST_F(QueryFixture, CorrelatedSubqueryReadsOuterRangeVariable) {
  auto r = engine->Execute(
      "select g.name, count((select c from Taxon c where c.year > g.year)) "
      "from Genus g order by g.name", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][1].Equals(Value::Int(2)));  // 1821, 1824
  EXPECT_TRUE(r.value().rows[1][1].Equals(Value::Int(0)));
}

TEST_F(QueryFixture, SiblingSubqueriesReuseOneName) {
  auto r = engine->Execute(
      "select t.name from Taxon t "
      "where t.year in (select x.year from Genus x) "
      "and t.name in (select x.name from Taxon x where x.rank = 'Species')",
      db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("graveolens")));
  auto counts = engine->Execute(
      "select count((select x from Genus x)), count((select x from Taxon x)) "
      "from Genus g limit 1", db.live_store());
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  ASSERT_EQ(counts.value().rows.size(), 1u);
  EXPECT_TRUE(counts.value().rows[0][0].Equals(Value::Int(2)));
  EXPECT_TRUE(counts.value().rows[0][1].Equals(Value::Int(4)));
}

TEST_F(QueryFixture, DependentRangeReadsItsSiblingsBinding) {
  auto r = engine->Execute(
      "select t.name, c.name from Taxon t, children(t, 'placed_in') c "
      "order by c.name", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("Apium")));
  EXPECT_TRUE(r.value().rows[0][1].Equals(Value::String("graveolens")));
  EXPECT_TRUE(r.value().rows[1][1].Equals(Value::String("repens")));
}

TEST_F(QueryFixture, DependentRangeWaitsForReadsInsideItsSubquery) {
  // `b` is written before `a` and reads it only from a range source inside
  // its subquery; the join must still bind `a` first.
  auto r = engine->Execute(
      "select a.name, b from Genus g, "
      "(select p.name from parents(a, 'placed_in') p) b, "
      "children(g, 'placed_in') a order by a.name", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("graveolens")));
  EXPECT_TRUE(r.value().rows[0][1].Equals(Value::String("Apium")));
  EXPECT_TRUE(r.value().rows[1][0].Equals(Value::String("repens")));
}

TEST_F(QueryFixture, SelectStarEmitsEachRangesBinding) {
  auto r = engine->Execute(
      "select * from Genus g, placed_in l where l.source = g", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().columns, (std::vector<std::string>{"g", "l"}));
  const std::vector<Oid> links = db.LinkExtent("placed_in");
  ASSERT_EQ(r.value().rows.size(), 2u);
  for (const auto& row : r.value().rows) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_TRUE(row[0].Equals(Value::Ref(apium)));
    ASSERT_EQ(row[1].type(), ValueType::kRef);
    EXPECT_NE(std::find(links.begin(), links.end(), row[1].AsRef()),
              links.end());
  }
}

TEST_F(QueryFixture, GroupFramesFeedHavingAndAggregates) {
  auto r = engine->Execute(
      "select t.rank, count(t), min(t.year), max(t.year) from Taxon t "
      "group by t.rank having count(t) > 1 and max(t.year) > 1800 "
      "order by t.rank", db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  const auto& genus = r.value().rows[0];
  EXPECT_TRUE(genus[0].Equals(Value::String("Genus")));
  EXPECT_TRUE(genus[1].Equals(Value::Int(2)));
  EXPECT_TRUE(genus[2].Equals(Value::Int(1753)));
  EXPECT_TRUE(genus[3].Equals(Value::Int(1824)));
  const auto& species = r.value().rows[1];
  EXPECT_TRUE(species[0].Equals(Value::String("Species")));
  EXPECT_TRUE(species[3].Equals(Value::Int(1821)));
  // Aggregates are grouped wherever they appear, also as call arguments.
  auto nested = engine->Execute(
      "select lower(max(t.name)), count(t) * 10 from Taxon t "
      "group by t.rank order by count(t), lower(max(t.name))", db.live_store());
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  ASSERT_EQ(nested.value().rows.size(), 2u);
  EXPECT_TRUE(nested.value().rows[0][0].Equals(Value::String("heliosciadium")));
  EXPECT_TRUE(nested.value().rows[1][0].Equals(Value::String("repens")));
  EXPECT_TRUE(nested.value().rows[1][1].Equals(Value::Int(20)));
}

TEST_F(QueryFixture, UnboundNameIsNotFound) {
  auto r = engine->Execute("select t from Taxon t where u.year = 1753",
                           db.live_store());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  EXPECT_NE(r.status().ToString().find("unbound variable 'u'"),
            std::string::npos);
  // A name a range binds in a sibling subquery is not visible here.
  auto sibling = engine->Execute(
      "select t from Taxon t where exists((select x from Genus x)) "
      "and x.year = 1753", db.live_store());
  EXPECT_EQ(sibling.status().code(), Status::Code::kNotFound);
}

TEST_F(QueryFixture, ClassAndLinkMembersInQueries) {
  auto cls = engine->Execute(
      "select t.class from Taxon t where t.name = 'Apium'", db.live_store());
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();
  ASSERT_EQ(cls.value().rows.size(), 1u);
  EXPECT_TRUE(cls.value().rows[0][0].Equals(Value::String("Genus")));
  auto links = engine->Execute(
      "select l.source, l.target, l.context, l.relationship, l.note "
      "from placed_in l where l.note = 'type species'", db.live_store());
  ASSERT_TRUE(links.ok()) << links.status().ToString();
  ASSERT_EQ(links.value().rows.size(), 1u);
  const auto& row = links.value().rows[0];
  EXPECT_TRUE(row[0].Equals(Value::Ref(apium)));
  EXPECT_TRUE(row[1].Equals(Value::Ref(graveolens)));
  EXPECT_TRUE(row[2].is_null());
  EXPECT_TRUE(row[3].Equals(Value::String("placed_in")));
  EXPECT_TRUE(row[4].Equals(Value::String("type species")));
  // A link without the attribute set reads null; an undeclared one is
  // NotFound.
  auto unset = engine->Execute(
      "select l.note from placed_in l where l.target.name = 'repens'",
      db.live_store());
  ASSERT_TRUE(unset.ok()) << unset.status().ToString();
  ASSERT_EQ(unset.value().rows.size(), 1u);
  EXPECT_TRUE(unset.value().rows[0][0].is_null());
  EXPECT_EQ(engine->Execute("select l.nothing from placed_in l",
                            db.live_store())
                .status()
                .code(),
            Status::Code::kNotFound);
}

TEST(ScopingTest, InheritedAttributeReadThroughRangeVariable) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Person", {}, {Attr("name", ValueType::kString)})
                  .ok());
  RelationshipSemantics sem;
  sem.inherit_attributes = true;
  ASSERT_TRUE(db.DefineRelationship("married_to", "Person", "Person", sem,
                                    {Attr("wedding_date", ValueType::kString)})
                  .ok());
  Oid a = db.CreateObject("Person", {{"name", Value::String("a")}}).value();
  Oid b = db.CreateObject("Person", {{"name", Value::String("b")}}).value();
  ASSERT_TRUE(db.CreateLink("married_to", a, b, kNullOid,
                            {{"wedding_date", Value::String("1999-06-12")}})
                  .ok());
  QueryEngine engine;
  auto r = engine.Execute(
      "select p.wedding_date from Person p where p.name = 'b'",
      db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("1999-06-12")));
  auto filtered = engine.Execute(
      "select p.name from Person p where p.name = 'b' and "
      "p.wedding_date like '1999%'", db.live_store());
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_EQ(filtered.value().rows.size(), 1u);
  // The source does not inherit (inheritance follows the link direction).
  EXPECT_EQ(engine.Execute("select p.wedding_date from Person p",
                           db.live_store())
                .status()
                .code(),
            Status::Code::kNotFound);
}

TEST(ScopingTest, CatalogStructFieldsAndMissingField) {
  Database db;
  SystemCatalog catalog;
  catalog.Register("sys.things", "test rows", {"name", "n"},
                   [](const DbSnapshot&) {
                     std::vector<Value> rows;
                     for (int i = 0; i < 3; ++i) {
                       rows.push_back(Value::MakeStruct(
                           {{"name", Value::String("r" + std::to_string(i))},
                            {"n", Value::Int(i)}}));
                     }
                     return rows;
                   });
  QueryEngine engine;
  engine.set_system_catalog(&catalog);
  auto r = engine.Execute(
      "select r.name from sys.things r where r.n > 0 order by r.n desc",
      db.live_store());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::String("r2")));
  // A self-join reads both bindings' struct fields.
  auto join = engine.Execute(
      "select a.name from sys.things a, sys.things b where a.n = b.n + 1",
      db.live_store());
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join.value().rows.size(), 2u);
  auto missing = engine.Execute("select r.nope from sys.things r",
                                db.live_store());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
  EXPECT_NE(missing.status().ToString().find("struct has no field 'nope'"),
            std::string::npos);
}

// One cached plan — a correlated subquery plus a dependent range — run by
// four threads against pinned snapshots while a writer commits. Each
// result must equal a serial run on the same snapshot: frames belong to
// one execution and the bound AST is only read.
TEST_F(QueryFixture, ConcurrentCachedPlanMatchesSerialRunOnItsSnapshot) {
  const std::string q =
      "select g.name, c.name, "
      "count((select x from Taxon x where x.year > c.year)) "
      "from Genus g, children(g, 'placed_in') c where g.year >= 1700";
  cache::PlanCache plans(cache::PlanCache::Config{});
  QueryEngine cached;
  cached.set_plan_cache(&plans);
  ASSERT_TRUE(cached.Execute(q,
      db.live_store()).ok());  // the plan every thread shares

  std::vector<Oid> children;
  for (int i = 0; i < 16; ++i) {
    children.push_back(NewTaxon("c" + std::to_string(i), "Species", 1800));
    ASSERT_TRUE(
        db.CreateLink("placed_in", i % 2 == 0 ? apium : helio, children.back())
            .ok());
  }

  // The writer moves children's years (changing the subquery's counts)
  // and now and then places a new child (changing the dependent range).
  std::atomic<bool> stop{false};
  std::atomic<int> writes{0};
  std::thread writer([&] {
    for (int i = 0; !stop.load(std::memory_order_acquire) && i < 300; ++i) {
      Database::WriteGuard guard(db);
      if (i % 15 == 0) {
        auto child = db.CreateObject(
            "Taxon", {{"name", Value::String("n" + std::to_string(i))},
                      {"year", Value::Int(1790)}});
        if (child.ok()) {
          (void)db.CreateLink("placed_in", i % 2 == 0 ? apium : helio,
                              child.value());
        }
      } else {
        (void)db.SetAttribute(children[i % children.size()], "year",
                              Value::Int(1750 + (i * 7) % 100));
      }
      writes.fetch_add(1, std::memory_order_release);
    }
  });
  while (writes.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  struct Run {
    SnapshotHandle snapshot;
    Result<ResultSet> rows;
  };
  std::vector<std::vector<Run>> runs(4);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < runs.size(); ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 12; ++i) {
        SnapshotHandle snap = db.AcquireSnapshot();
        Result<ResultSet> rows = cached.Execute(q, *snap);
        runs[t].push_back(Run{std::move(snap), std::move(rows)});
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  QueryEngine serial;
  std::size_t checked = 0;
  for (const std::vector<Run>& thread_runs : runs) {
    for (const Run& run : thread_runs) {
      ASSERT_TRUE(run.rows.ok()) << run.rows.status().ToString();
      auto expected = serial.Execute(q, *run.snapshot);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_EQ(run.rows.value().rows.size(), expected.value().rows.size());
      for (std::size_t i = 0; i < expected.value().rows.size(); ++i) {
        const auto& got = run.rows.value().rows[i];
        const auto& want = expected.value().rows[i];
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k) {
          EXPECT_TRUE(got[k].Equals(want[k])) << "row " << i << " col " << k;
        }
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 48u);
  EXPECT_GT(plans.stats().hits, 0u);
}

// Parameterized sweep: every rank of query shapes returns consistent counts
// between the scan path and an indexed path.
class IndexConsistency : public ::testing::TestWithParam<int> {};

TEST_P(IndexConsistency, ScanAndIndexAgree) {
  Database db;
  ASSERT_TRUE(
      db.DefineClass("Item", {}, {Attr("k", ValueType::kInt)}).ok());
  const int n = GetParam();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(db.CreateObject("Item", {{"k", Value::Int(i % 7)}}).ok());
  }
  QueryEngine scan;
  IndexManager idx(&db);
  ASSERT_TRUE(idx.CreateIndex("Item", "k").ok());
  QueryEngine indexed(&idx);
  for (int key = 0; key < 7; ++key) {
    std::string q = "select i from Item i where i.k = " + std::to_string(key);
    auto a = scan.Execute(q, db.live_store());
    auto b = indexed.Execute(q, db.live_store());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().rows.size(), b.value().rows.size()) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IndexConsistency,
                         ::testing::Values(0, 1, 7, 50, 200));

// ------------------------------------------------------------- renderer

TEST(RenderTest, JsonKeepsTypesAndMapsNonFiniteToNull) {
  const Value row = Value::MakeStruct(
      {{"b", Value::Bool(true)},
       {"i", Value::Int(-3)},
       {"d", Value::Double(0.5)},
       {"nan", Value::Double(std::nan(""))},
       {"inf", Value::Double(HUGE_VAL)},
       {"n", Value::Null()},
       {"s", Value::String("a\"b")},
       {"r", Value::Ref(7)},
       {"l", Value::MakeList({Value::Int(1), Value::String("x")})}});
  EXPECT_EQ(RenderJson(row),
            "{\"b\":true,\"i\":-3,\"d\":0.5,\"nan\":null,\"inf\":null,"
            "\"n\":null,\"s\":\"a\\\"b\",\"r\":\"@7\",\"l\":[1,\"x\"]}");
}

TEST(RenderTest, RowsRenderAsTheirStructOrKeyedByColumn) {
  ResultSet structs;
  structs.columns = {"r"};
  structs.rows.push_back({Value::MakeStruct({{"k", Value::Int(1)}})});
  EXPECT_EQ(RenderJson(structs), "[{\"k\":1}]");
  ResultSet plain;
  plain.columns = {"name", "n"};
  plain.rows.push_back({Value::String("p0"), Value::Int(2)});
  EXPECT_EQ(RenderJson(plain), "[{\"name\":\"p0\",\"n\":2}]");
  EXPECT_EQ(RenderJson(ResultSet{}), "[]");
}

TEST(RenderTest, TextAlignsColumnsAndExpandsStructRows) {
  ResultSet plain;
  plain.columns = {"name", "n"};
  plain.rows.push_back({Value::String("long name"), Value::Int(2)});
  EXPECT_EQ(RenderText(plain),
            "name         n  \n\"long name\"  2  \n(1 rows)\n");
  ResultSet structs;
  structs.columns = {"r"};
  structs.rows.push_back(
      {Value::MakeStruct({{"k", Value::Int(1)}, {"v", Value::Null()}})});
  EXPECT_EQ(RenderText(structs), "k  v     \n1  null  \n(1 rows)\n");
}

}  // namespace
}  // namespace prometheus::pool
