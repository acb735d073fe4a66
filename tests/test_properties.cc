// Property-based tests: randomized operation sequences checked against
// system-wide invariants — rollback equivalence, snapshot/journal
// round-trip fidelity, pinned MVCC snapshots, views on pinned snapshots,
// traversal laws, synonym equivalence laws, query plan equivalence,
// filter/projection agreement. Each law is seeded from its test parameter,
// so a failure replays.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <random>
#include <sstream>

#include "cache/plan_cache.h"
#include "core/database.h"
#include "index/index_manager.h"
#include "obs/metrics.h"
#include "query/query_engine.h"
#include "storage/journal.h"
#include "storage/snapshot.h"
#include "views/view_manager.h"

namespace prometheus {
namespace {

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

/// Deterministically seeds a schema exercising the interesting semantics.
void DefineFuzzSchema(Database* db) {
  ASSERT_TRUE(db->DefineClass("Node", {},
                              {Attr("tag", ValueType::kString),
                               Attr("n", ValueType::kInt)})
                  .ok());
  ASSERT_TRUE(db->DefineClass("Leaf", {"Node"}).ok());
  ASSERT_TRUE(db->DefineRelationship("edge", "Node", "Node", {},
                                     {Attr("w", ValueType::kInt)})
                  .ok());
  RelationshipSemantics owning;
  owning.kind = RelationshipKind::kAggregation;
  owning.lifetime_dependent = true;
  ASSERT_TRUE(db->DefineRelationship("owns", "Node", "Leaf", owning).ok());
}

/// One random mutation; returns false when it chose an op that could not
/// apply (e.g. no objects yet).
bool RandomOp(Database* db, std::mt19937* rng, std::vector<Oid>* pool) {
  auto pick = [&](const std::vector<Oid>& v) {
    return v[(*rng)() % v.size()];
  };
  // Refresh the pool of live oids occasionally.
  if (pool->empty() || (*rng)() % 16 == 0) {
    *pool = db->Extent("Node");
  }
  switch ((*rng)() % 8) {
    case 0:
    case 1: {
      const char* cls = (*rng)() % 4 == 0 ? "Leaf" : "Node";
      auto r = db->CreateObject(
          cls, {{"n", Value::Int(static_cast<std::int64_t>((*rng)() % 100))}});
      if (r.ok()) pool->push_back(r.value());
      return r.ok();
    }
    case 2: {
      if (pool->empty()) return false;
      Oid oid = pick(*pool);
      if (db->GetObject(oid) == nullptr) return false;
      return db
          ->SetAttribute(oid, "tag",
                         Value::String("t" + std::to_string((*rng)() % 10)))
          .ok();
    }
    case 3:
    case 4: {
      if (pool->size() < 2) return false;
      Oid a = pick(*pool);
      Oid b = pick(*pool);
      if (db->GetObject(a) == nullptr || db->GetObject(b) == nullptr) {
        return false;
      }
      const bool owning = db->IsInstanceOf(b, "Leaf") && (*rng)() % 2 == 0;
      return db
          ->CreateLink(owning ? "owns" : "edge", a, b, kNullOid,
                       owning ? std::vector<AttrInit>{}
                              : std::vector<AttrInit>{
                                    {"w", Value::Int(static_cast<std::int64_t>(
                                         (*rng)() % 50))}})
          .ok();
    }
    case 5: {
      if (pool->empty()) return false;
      Oid oid = pick(*pool);
      if (db->GetObject(oid) == nullptr) return false;
      std::vector<Oid> links = db->IncidentLinks(oid, Direction::kOut);
      if (links.empty()) return false;
      return db->DeleteLink(links[(*rng)() % links.size()]).ok();
    }
    case 6: {
      if (pool->empty()) return false;
      Oid oid = pick(*pool);
      if (db->GetObject(oid) == nullptr) return false;
      return db->DeleteObject(oid).ok();
    }
    case 7: {
      if (pool->size() < 2) return false;
      Oid a = pick(*pool);
      Oid b = pick(*pool);
      if (db->GetObject(a) == nullptr || db->GetObject(b) == nullptr) {
        return false;
      }
      return db->DeclareSynonym(a, b).ok();
    }
  }
  return false;
}

/// Structural equivalence: same live objects (attrs), links (endpoints,
/// contexts, attrs) and synonym partition — independent of extent order.
/// Compares any two stores: live databases and pinned snapshots alike.
void ExpectEquivalent(const DbSnapshot& a, const DbSnapshot& b) {
  ASSERT_EQ(a.object_count(), b.object_count());
  ASSERT_EQ(a.link_count(), b.link_count());
  for (Oid oid : a.Extent("Node")) {
    const Object* oa = a.GetObject(oid);
    const Object* ob = b.GetObject(oid);
    ASSERT_NE(ob, nullptr) << "missing object @" << oid;
    EXPECT_EQ(oa->cls->name(), ob->cls->name());
    for (const auto& [name, value] : oa->attrs) {
      EXPECT_TRUE(ob->attrs.at(name).Equals(value)) << "@" << oid << "."
                                                    << name;
    }
    // Same incident link multiset (by oid).
    std::vector<Oid> la = oa->out_links;
    std::vector<Oid> lb = ob->out_links;
    std::sort(la.begin(), la.end());
    std::sort(lb.begin(), lb.end());
    EXPECT_EQ(la, lb) << "@" << oid;
  }
  for (Oid oid : a.Extent("Node")) {
    for (Oid other : a.Extent("Node")) {
      EXPECT_EQ(a.AreSynonyms(oid, other), b.AreSynonyms(oid, other));
    }
  }
}

void ExpectEquivalent(const Database& a, const Database& b) {
  ExpectEquivalent(a.live_store(), b.live_store());
}

class FuzzSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzSeeds, AbortRestoresExactState) {
  std::mt19937 rng(GetParam());
  Database db;
  DefineFuzzSchema(&db);
  std::vector<Oid> pool;
  for (int i = 0; i < 120; ++i) RandomOp(&db, &rng, &pool);

  // Snapshot of the pre-transaction state (semantic reference).
  Database reference;
  {
    std::stringstream buffer;
    ASSERT_TRUE(storage::SaveSnapshot(db, buffer).ok());
    ASSERT_TRUE(storage::LoadSnapshot(&reference, buffer).ok());
  }

  ASSERT_TRUE(db.Begin().ok());
  for (int i = 0; i < 80; ++i) RandomOp(&db, &rng, &pool);
  ASSERT_TRUE(db.Abort().ok());

  ExpectEquivalent(reference, db);
}

TEST_P(FuzzSeeds, SnapshotRoundTripIsFaithful) {
  std::mt19937 rng(GetParam() + 1000);
  Database db;
  DefineFuzzSchema(&db);
  std::vector<Oid> pool;
  for (int i = 0; i < 150; ++i) RandomOp(&db, &rng, &pool);

  std::stringstream buffer;
  ASSERT_TRUE(storage::SaveSnapshot(db, buffer).ok());
  Database loaded;
  ASSERT_TRUE(storage::LoadSnapshot(&loaded, buffer).ok());
  ExpectEquivalent(db, loaded);

  // Idempotence: a second save of the loaded database re-loads to the
  // same state again.
  std::stringstream buffer2;
  ASSERT_TRUE(storage::SaveSnapshot(loaded, buffer2).ok());
  Database loaded2;
  ASSERT_TRUE(storage::LoadSnapshot(&loaded2, buffer2).ok());
  ExpectEquivalent(loaded, loaded2);
}

TEST_P(FuzzSeeds, JournalReplayMatchesLiveDatabase) {
  std::mt19937 rng(GetParam() + 2000);
  Database db;
  DefineFuzzSchema(&db);
  const std::string path = ::testing::TempDir() + "/fuzz_journal_" +
                           std::to_string(GetParam()) + ".log";
  auto journal = storage::Journal::Open(&db, path,
                                        storage::Journal::OpenMode::kTruncate);
  ASSERT_TRUE(journal.ok());
  std::vector<Oid> pool;
  for (int i = 0; i < 100; ++i) RandomOp(&db, &rng, &pool);
  // A transaction that commits and one that aborts.
  ASSERT_TRUE(db.Begin().ok());
  for (int i = 0; i < 30; ++i) RandomOp(&db, &rng, &pool);
  ASSERT_TRUE(db.Commit().ok());
  ASSERT_TRUE(db.Begin().ok());
  for (int i = 0; i < 30; ++i) RandomOp(&db, &rng, &pool);
  ASSERT_TRUE(db.Abort().ok());
  journal.value().reset();  // close

  Database replayed;
  ASSERT_TRUE(storage::Journal::Replay(&replayed, path).ok());
  ExpectEquivalent(db, replayed);
}

TEST_P(FuzzSeeds, TraversalLaws) {
  std::mt19937 rng(GetParam() + 3000);
  Database db;
  DefineFuzzSchema(&db);
  std::vector<Oid> pool;
  for (int i = 0; i < 120; ++i) RandomOp(&db, &rng, &pool);
  std::vector<Oid> nodes = db.Extent("Node");
  if (nodes.empty()) return;
  Oid start = nodes[rng() % nodes.size()];

  auto unbounded = db.Traverse(start, "edge", 1, 0);
  ASSERT_TRUE(unbounded.ok());
  // Uniqueness.
  std::vector<Oid> sorted = unbounded.value();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  // Depth-window results are subsets of the unbounded closure.
  for (std::uint32_t lo = 1; lo <= 3; ++lo) {
    auto window = db.Traverse(start, "edge", lo, lo + 1);
    ASSERT_TRUE(window.ok());
    for (Oid oid : window.value()) {
      EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), oid));
    }
  }
  // Every reported node is reachable: its parents chain back via kIn
  // traversal from it containing start... verified cheaply: the reverse
  // closure from each reported node contains the start.
  for (std::size_t i = 0; i < std::min<std::size_t>(3, sorted.size()); ++i) {
    auto back = db.Traverse(sorted[i], "edge", 0, 0, Direction::kIn);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(std::find(back.value().begin(), back.value().end(), start) !=
                back.value().end());
  }
}

TEST_P(FuzzSeeds, SynonymEquivalenceLaws) {
  std::mt19937 rng(GetParam() + 4000);
  Database db;
  DefineFuzzSchema(&db);
  std::vector<Oid> pool;
  for (int i = 0; i < 100; ++i) RandomOp(&db, &rng, &pool);
  std::vector<Oid> nodes = db.Extent("Node");
  if (nodes.size() < 3) return;
  for (int i = 0; i < 20; ++i) {
    Oid a = nodes[rng() % nodes.size()];
    Oid b = nodes[rng() % nodes.size()];
    Oid c = nodes[rng() % nodes.size()];
    // Reflexive, symmetric, transitive.
    EXPECT_TRUE(db.AreSynonyms(a, a));
    EXPECT_EQ(db.AreSynonyms(a, b), db.AreSynonyms(b, a));
    if (db.AreSynonyms(a, b) && db.AreSynonyms(b, c)) {
      EXPECT_TRUE(db.AreSynonyms(a, c));
    }
    // The canonical representative is itself canonical and shared.
    EXPECT_EQ(db.CanonicalOf(db.CanonicalOf(a)), db.CanonicalOf(a));
    if (db.AreSynonyms(a, b)) {
      EXPECT_EQ(db.CanonicalOf(a), db.CanonicalOf(b));
    }
  }
  // Synonym sets partition: sizes of distinct sets sum to the universe.
  std::unordered_map<Oid, std::size_t> set_sizes;
  for (Oid oid : nodes) {
    set_sizes[db.CanonicalOf(oid)] += 1;
  }
  std::size_t total = 0;
  for (const auto& [root, size] : set_sizes) {
    EXPECT_EQ(db.SynonymSet(root).size(), size) << "root @" << root;
    total += size;
  }
  EXPECT_EQ(total, nodes.size());
}

TEST_P(FuzzSeeds, PinnedSnapshotsKeepTheirCut) {
  std::mt19937 rng(GetParam() + 5000);
  Database db;
  DefineFuzzSchema(&db);
  std::vector<Oid> pool;
  std::vector<SnapshotHandle> pins;
  std::vector<std::string> references;
  for (int section = 0; section < 12; ++section) {
    {
      Database::WriteGuard guard(db);
      const bool txn = section == 4 || section == 8;
      if (txn) ASSERT_TRUE(db.Begin().ok());
      for (int i = 0; i < 25; ++i) RandomOp(&db, &rng, &pool);
      if (section == 4) ASSERT_TRUE(db.Commit().ok());
      if (section == 8) ASSERT_TRUE(db.Abort().ok());
    }
    // Pin the cut the section published, and record the live state it
    // must keep showing however later sections rewrite the store.
    pins.push_back(db.AcquireSnapshot());
    std::stringstream buffer;
    ASSERT_TRUE(storage::SaveSnapshot(db, buffer).ok());
    references.push_back(buffer.str());
  }
  for (std::size_t i = 0; i < pins.size(); ++i) {
    SCOPED_TRACE("section " + std::to_string(i));
    Database reference;
    std::stringstream buffer(references[i]);
    ASSERT_TRUE(storage::LoadSnapshot(&reference, buffer).ok());
    ExpectEquivalent(reference.live_store(), *pins[i]);
    // Saving the pinned snapshot writes the very text saved at pin time.
    std::stringstream pinned;
    ASSERT_TRUE(storage::SaveSnapshot(*pins[i], pinned).ok());
    EXPECT_EQ(pinned.str(), references[i]);
  }
}

/// The oids a query's single column returns on `store`, sorted; or one
/// sentinel on error.
std::vector<Oid> QueryOids(const pool::QueryEngine& engine,
                           const std::string& q, const DbSnapshot& store) {
  auto r = engine.Execute(q, store);
  EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
  if (!r.ok()) return {kNullOid};
  std::vector<Oid> out;
  for (const auto& row : r.value().rows) out.push_back(row[0].AsRef());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Oid> Sorted(Result<std::vector<Oid>> r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {kNullOid};
  std::vector<Oid> out = std::move(r).value();
  std::sort(out.begin(), out.end());
  return out;
}

// Views answer for the snapshot they are given: on a pinned snapshot, a
// class+predicate view and a context view return exactly what the
// equivalent POOL query returns on that snapshot, and keep doing so after
// later commits rewrite the live store.
TEST_P(FuzzSeeds, ViewsAnswerForTheirSnapshot) {
  std::mt19937 rng(GetParam() + 6000);
  Database db;
  DefineFuzzSchema(&db);
  ASSERT_TRUE(db.DefineClass("Ctx").ok());
  const Oid ctx = db.CreateObject("Ctx").value();
  ViewManager views(&db);
  ViewDef by_class;
  by_class.name = "by_class";
  by_class.class_name = "Node";
  by_class.predicate = "self.n < 50 or self.tag = 't3'";
  ASSERT_TRUE(views.Define(by_class).ok());
  ViewDef by_context;
  by_context.name = "by_context";
  by_context.context = ctx;
  by_context.predicate = "self.n >= 20";
  ASSERT_TRUE(views.Define(by_context).ok());
  // The POOL equivalents: members, context members, context edges.
  const std::string class_q =
      "select s from Node s where s.n < 50 or s.tag = 't3'";
  const std::string context_q =
      "select s from Node s, Ctx c "
      "where count(links(s, null, 'both', c)) > 0 and s.n >= 20";
  const std::string edges_q =
      "select l from edge l, Ctx c "
      "where l.context = c and l.source.n >= 20 and l.target.n >= 20";
  pool::QueryEngine engine;

  struct Answer {
    std::vector<Oid> members, context_members, edges;
  };
  auto answer = [&](const DbSnapshot& store) {
    Answer a{Sorted(views.Evaluate("by_class", store)),
             Sorted(views.Evaluate("by_context", store)),
             Sorted(views.EvaluateEdges("by_context", store))};
    EXPECT_EQ(a.members, QueryOids(engine, class_q, store));
    EXPECT_EQ(a.context_members, QueryOids(engine, context_q, store));
    EXPECT_EQ(a.edges, QueryOids(engine, edges_q, store));
    return a;
  };

  std::vector<Oid> pool;
  std::vector<SnapshotHandle> pins;
  std::vector<Answer> answers;
  bool context_seen = false;
  for (int round = 0; round < 4; ++round) {
    {
      Database::WriteGuard guard(db);
      for (int i = 0; i < 40; ++i) RandomOp(&db, &rng, &pool);
      const std::vector<Oid> nodes = db.Extent("Node");
      for (int i = 0; i < 6 && nodes.size() > 1; ++i) {
        (void)db.CreateLink("edge", nodes[rng() % nodes.size()],
                            nodes[rng() % nodes.size()], ctx,
                            {{"w", Value::Int(i)}});
      }
    }
    pins.push_back(db.AcquireSnapshot());
    SCOPED_TRACE("round " + std::to_string(round));
    answers.push_back(answer(*pins.back()));
    context_seen = context_seen || !answers.back().edges.empty();
  }
  // Later commits changed the live store; every pin still answers as it
  // did when it was taken.
  for (std::size_t i = 0; i < pins.size(); ++i) {
    SCOPED_TRACE("pin " + std::to_string(i));
    const Answer again = answer(*pins[i]);
    EXPECT_EQ(again.members, answers[i].members);
    EXPECT_EQ(again.context_members, answers[i].context_members);
    EXPECT_EQ(again.edges, answers[i].edges);
  }
  // The law is not vacuous: the context view had edges, and the first pin
  // no longer describes the live store.
  EXPECT_TRUE(context_seen);
  const Answer live = answer(db.live_store());
  EXPECT_NE(live.members, answers.front().members);
}

/// A random value for attribute `attr` of the plan-equivalence schema:
/// `i` int, `d` double (or int; NaN one time in six), `s` string, `u`
/// untyped (int or string); one in eight is null.
Value RandomItemValue(const std::string& attr, std::mt19937* rng) {
  if ((*rng)() % 8 == 0) return Value::Null();
  const auto n = static_cast<std::int64_t>((*rng)() % 20);
  if (attr == "d") {
    if ((*rng)() % 6 == 0) {
      return Value::Double(std::numeric_limits<double>::quiet_NaN());
    }
    // Ints are acceptable where doubles are declared.
    return (*rng)() % 3 == 0 ? Value::Int(n / 2)
                             : Value::Double(static_cast<double>(n) / 2);
  }
  if (attr == "s" || (attr == "u" && (*rng)() % 2 == 0)) {
    return Value::String(std::string(1, static_cast<char>('a' + n % 8)));
  }
  return Value::Int(n);
}

/// A literal to bound `attr` with: of its own type (int or fractional
/// literals for the numeric attributes) — unless `any_type`, when it is
/// sometimes of the wrong one.
std::string RandomBoundLiteral(const std::string& attr, bool any_type,
                               std::mt19937* rng) {
  const unsigned n = (*rng)() % 22;
  const bool stringy = attr == "s" || (attr == "u" && (*rng)() % 2 == 0);
  if (stringy == (!any_type || (*rng)() % 10 != 0)) {
    return "'" + std::string(1, static_cast<char>('a' + n % 9)) + "'";
  }
  if ((attr == "d" || attr == "i") && (*rng)() % 3 == 0) {
    return std::to_string(n / 2) + ".5";
  }
  return std::to_string(n);
}

/// One to three bounds on `var.attr`, strict or inclusive, in either
/// operand order — one bound leaves the range open-ended, two-sided ranges
/// are often contradictory. `any_type` as for `RandomBoundLiteral`.
std::vector<std::string> RandomBounds(const std::string& var,
                                      const std::string& attr, bool any_type,
                                      std::mt19937* rng) {
  static const char* kOps[] = {"<", "<=", ">", ">="};
  std::vector<std::string> conjuncts;
  const unsigned bounds = 1 + (*rng)() % 2 + ((*rng)() % 4 == 0 ? 1 : 0);
  for (unsigned b = 0; b < bounds; ++b) {
    const std::string op = kOps[(*rng)() % 4];
    const std::string lit = RandomBoundLiteral(attr, any_type, rng);
    const std::string path = var + "." + attr;
    conjuncts.push_back((*rng)() % 2 == 0 ? path + " " + op + " " + lit
                                          : lit + " " + op + " " + path);
  }
  return conjuncts;
}

/// A random selection over `Item x`: bounds on one attribute plus, half
/// the time, an equality on the unindexed attribute `k`. One query in
/// three joins `SubItem y` on `k` — SubItem has no index of its own, so
/// `y` is scanned and its bounds stay in the where clause while `x`'s may
/// be answered by the index. `y`'s bounds are well typed: a comparison
/// error in them would surface or not depending on how many `x` bindings
/// the access path enumerates, with or without an index.
std::string RandomRangeQuery(std::mt19937* rng) {
  static const char* kAttrs[] = {"i", "i", "d", "d", "s", "u"};
  std::vector<std::string> conjuncts =
      RandomBounds("x", kAttrs[(*rng)() % 6], /*any_type=*/true, rng);
  auto insert = [&](std::string conjunct) {
    conjuncts.insert(conjuncts.begin() + (*rng)() % (conjuncts.size() + 1),
                     std::move(conjunct));
  };
  if ((*rng)() % 2 == 0) insert("x.k = " + std::to_string((*rng)() % 4));
  std::string q = "select x from Item x where ";
  if ((*rng)() % 3 == 0) {
    insert("y.k = x.k");
    for (std::string& c : RandomBounds("y", (*rng)() % 2 == 0 ? "i" : "d",
                                       /*any_type=*/false, rng)) {
      insert(std::move(c));
    }
    q = "select x, y from Item x, SubItem y where ";
  }
  for (std::size_t c = 0; c < conjuncts.size(); ++c) {
    q += (c == 0 ? "" : " and ") + conjuncts[c];
  }
  return q;
}

/// A query outcome as a comparable value: the sorted rows, or the error.
std::vector<std::string> Outcome(const Result<pool::ResultSet>& r) {
  if (!r.ok()) return {"error: " + r.status().ToString()};
  std::vector<std::string> rows;
  for (const auto& row : r.value().rows) {
    std::string cells;
    for (const Value& v : row) cells += v.ToString() + " ";
    rows.push_back(std::move(cells));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Plan equivalence: an ordered index, a hash index, no index and a cached
// plan answer every range selection with the same rows (or the same
// error), whether the ordered index answers the range's conjuncts, is not
// used or feeds one side of a join. Indexes are built half-way through
// loading, so both backfill and maintenance feed them. Each round also
// replays its queries on a snapshot pinned before the round's writes,
// which must still be planned through its own indexes and answer as a scan
// of itself — the last round writes without a write guard — and a
// listener runs them on the live store in the middle of each write, after
// the record and its index entries moved.
TEST_P(FuzzSeeds, RangePlansAnswerLikeAScan) {
  std::mt19937 rng(GetParam());
  Database db;
  ASSERT_TRUE(db.DefineClass("Item", {},
                             {Attr("i", ValueType::kInt),
                              Attr("d", ValueType::kDouble),
                              Attr("s", ValueType::kString),
                              Attr("u", ValueType::kNull),
                              Attr("k", ValueType::kInt)})
                  .ok());
  ASSERT_TRUE(db.DefineClass("SubItem", {"Item"}).ok());
  IndexManager ordered(&db);
  IndexManager hashed(&db);
  std::vector<Oid> items;
  auto load = [&](int n) {
    for (int j = 0; j < n; ++j) {
      std::vector<AttrInit> init;
      for (const char* attr : {"i", "d", "s", "u"}) {
        init.push_back({attr, RandomItemValue(attr, &rng)});
      }
      init.push_back({"k", Value::Int(static_cast<std::int64_t>(rng() % 4))});
      auto oid = db.CreateObject(rng() % 3 == 0 ? "SubItem" : "Item", init);
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      items.push_back(oid.value());
    }
  };
  load(60);
  for (const char* attr : {"i", "d", "s", "u"}) {
    ASSERT_TRUE(ordered.CreateIndex("Item", attr, /*ordered=*/true).ok());
    ASSERT_TRUE(hashed.CreateIndex("Item", attr).ok());
  }
  load(60);

  const DbSnapshot& store = db.live_store();
  pool::QueryEngine with_ordered(&ordered);
  pool::QueryEngine with_hash(&hashed);
  pool::QueryEngine no_index;
  cache::PlanCache plans(cache::PlanCache::Config{});
  pool::QueryEngine cached(&ordered);
  cached.set_plan_cache(&plans);

  std::vector<std::string> round_queries;
  std::vector<std::string> round_plans;
  std::size_t mid_write = 0;
  const ListenerId probe = db.bus().Subscribe(
      [&](const Event& e) {
        if (round_queries.empty() ||
            (e.kind != EventKind::kAfterSetAttribute &&
             e.kind != EventKind::kAfterDeleteObject)) {
          return Status::Ok();
        }
        const std::string& q =
            round_queries[mid_write++ % round_queries.size()];
        EXPECT_EQ(Outcome(with_ordered.Execute(q, db.live_store())),
                  Outcome(no_index.Execute(q, db.live_store())))
            << "mid-write, seed " << GetParam() << ": " << q;
        return Status::Ok();
      },
      /*priority=*/0);

  int ranged = 0;
  int answered = 0;
  int pinned_ranged = 0;
  for (int round = 0; round < 3; ++round) {
    round_queries.clear();
    round_plans.clear();
    for (int n = 0; n < 60; ++n) {
      const std::string q = RandomRangeQuery(&rng);
      SCOPED_TRACE("seed " + std::to_string(GetParam()) + ": " + q);
      const std::vector<std::string> expected =
          Outcome(no_index.Execute(q, store));
      EXPECT_EQ(Outcome(with_ordered.Execute(q, store)), expected);
      EXPECT_EQ(Outcome(with_hash.Execute(q, store)), expected);
      (void)cached.Execute(q, store);
      const std::uint64_t hits = plans.stats().hits;
      EXPECT_EQ(Outcome(cached.Execute(q, store)), expected);
      EXPECT_EQ(plans.stats().hits, hits + 1);
      auto plan = with_ordered.Explain(q, store);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      if (plan.value().find("index range") != std::string::npos) ++ranged;
      if (plan.value().find("answered by the index") != std::string::npos) {
        ++answered;
      }
      round_queries.push_back(q);
      round_plans.push_back(plan.value());
    }
    // Move, null out and delete some rows in one write section, or, in the
    // last round, unguarded (single-threaded use); cached plans must still
    // hold.
    SnapshotHandle before = db.AcquireSnapshot();
    {
      std::optional<Database::WriteGuard> guard;
      if (round < 2) guard.emplace(db);
      for (int j = 0; j < 30; ++j) {
        const Oid oid = items[rng() % items.size()];
        if (db.GetObject(oid) == nullptr) continue;
        if (j % 5 == 0) {
          ASSERT_TRUE(db.DeleteObject(oid).ok());
          continue;
        }
        const char* attr = j % 2 == 0 ? "i" : "d";
        ASSERT_TRUE(
            db.SetAttribute(oid, attr, RandomItemValue(attr, &rng)).ok());
      }
    }
    // The working indexes have moved past the pinned snapshot; it keeps
    // its own, so its plans are unchanged and answer as its scan does.
    for (std::size_t k = 0; k < round_queries.size(); ++k) {
      const std::string& q = round_queries[k];
      SCOPED_TRACE("pinned, seed " + std::to_string(GetParam()) + ": " + q);
      auto plan = with_ordered.Explain(q, *before);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(plan.value(), round_plans[k]);
      if (plan.value().find("index range") != std::string::npos) {
        ++pinned_ranged;
      }
      EXPECT_EQ(Outcome(with_ordered.Execute(q, *before)),
                Outcome(no_index.Execute(q, *before)));
    }
  }
  db.bus().Unsubscribe(probe);
  // The law is not vacuous: the ordered engine took range probes, pinned
  // snapshots among them, some answered their conjuncts, and queries ran
  // mid-write.
  EXPECT_GT(ranged, 0);
  EXPECT_GT(pinned_ranged, 0);
  EXPECT_GT(answered, 0);
  EXPECT_GT(mid_write, 0u);
}

/// An operand of the predicate law over range variable `s`: mostly its
/// attributes — `i` int, `d` double, `s` string, `u` untyped (mixed, often
/// null) and, rarely, `x` (declared by SubObj only) or `w` (inherited by
/// tag targets only), which are missing elsewhere — else a literal or
/// arithmetic over operands.
std::string RandomOperand(std::mt19937* rng, int depth) {
  switch ((*rng)() % 12) {
    case 0:
    case 1:
      return "s.i";
    case 2:
      return "s.d";
    case 3:
      return "s.s";
    case 4:
      return "s.u";
    case 5:
      return (*rng)() % 2 == 0 ? "s.x" : "s.w";
    case 6:
      return std::to_string((*rng)() % 20);
    case 7:
      return std::to_string((*rng)() % 10) + ".5";
    case 8:
      return "'" + std::string(1, static_cast<char>('a' + (*rng)() % 8)) +
             "'";
    case 9:
      return "null";
    default: {
      if (depth >= 2) return std::to_string((*rng)() % 20);
      static const char* kArith[] = {"+", "-", "*", "/", "%"};
      return "(" + RandomOperand(rng, depth + 1) + " " +
             kArith[(*rng)() % 5] + " " + RandomOperand(rng, depth + 1) + ")";
    }
  }
}

/// A random predicate tree: comparisons with random operands on either
/// side, `like`, `in` over a subquery (sometimes correlated with `s`),
/// `class` tests, and `and`/`or`/`not` over subtrees.
std::string RandomPredicate(std::mt19937* rng, int depth) {
  static const char* kCmp[] = {"=", "!=", "<", "<=", ">", ">="};
  static const char* kPatterns[] = {"'a%'", "'%b'", "'_'", "'%'", "'c'"};
  static const char* kAttrs[] = {"i", "d", "s", "u"};
  switch ((*rng)() % (depth >= 3 ? 5 : 8)) {
    case 0:
    case 1:
      return RandomOperand(rng, 0) + " " + kCmp[(*rng)() % 6] + " " +
             RandomOperand(rng, 0);
    case 2: {
      const std::string lhs = (*rng)() % 3 == 0 ? RandomOperand(rng, 0)
                              : (*rng)() % 2 == 0 ? "s.s"
                                                  : "s.u";
      const std::string pattern =
          (*rng)() % 6 == 0 ? RandomOperand(rng, 0) : kPatterns[(*rng)() % 5];
      return lhs + ((*rng)() % 3 == 0 ? " not like " : " like ") + pattern;
    }
    case 3: {
      const std::string attr = kAttrs[(*rng)() % 4];
      std::string sub = "(select o." + attr + " from Obj o";
      if ((*rng)() % 2 == 0) {
        sub += std::string(" where o.") + kAttrs[(*rng)() % 4] + " " +
               kCmp[(*rng)() % 6] + " s." + kAttrs[(*rng)() % 4];
      }
      return RandomOperand(rng, 0) +
             ((*rng)() % 3 == 0 ? " not in " : " in ") + sub + ")";
    }
    case 4:
      return (*rng)() % 2 == 0 ? "s.class = 'SubObj'"
                               : "'Obj' = s.class";
    case 5:
      return "(" + RandomPredicate(rng, depth + 1) + " and " +
             RandomPredicate(rng, depth + 1) + ")";
    case 6:
      return "(" + RandomPredicate(rng, depth + 1) + " or " +
             RandomPredicate(rng, depth + 1) + ")";
    default:
      return "not (" + RandomPredicate(rng, depth + 1) + ")";
  }
}

/// The bindings `select s ... where P` returned, in order, or its error.
std::vector<std::string> FilteredRows(const Result<pool::ResultSet>& r) {
  if (!r.ok()) return {"error: " + r.status().ToString()};
  std::vector<std::string> rows;
  for (const auto& row : r.value().rows) rows.push_back(row[0].ToString());
  return rows;
}

/// The bindings `select s, (P) ...` projected with P true, in order, or
/// its error.
std::vector<std::string> ProjectedTrueRows(const Result<pool::ResultSet>& r) {
  if (!r.ok()) return {"error: " + r.status().ToString()};
  std::vector<std::string> rows;
  for (const auto& row : r.value().rows) {
    if (row[1].type() == ValueType::kBool && row[1].AsBool()) {
      rows.push_back(row[0].ToString());
    }
  }
  return rows;
}

// One evaluator, two uses: a predicate filtering in a where clause (read
// in place, to a bool) selects exactly the bindings for which the same
// predicate, projected as a column (materialised as a Value), is true —
// and the two fail on the same queries with the same error. Checked with
// a fresh plan, a cached plan and under PROFILE.
TEST_P(FuzzSeeds, PredicatesFilterAsTheyProject) {
  std::mt19937 rng(GetParam());
  Database db;
  ASSERT_TRUE(db.DefineClass("Obj", {},
                             {Attr("i", ValueType::kInt),
                              Attr("d", ValueType::kDouble),
                              Attr("s", ValueType::kString),
                              Attr("u", ValueType::kNull)})
                  .ok());
  ASSERT_TRUE(
      db.DefineClass("SubObj", {"Obj"}, {Attr("x", ValueType::kInt)}).ok());
  RelationshipSemantics inherit;
  inherit.inherit_attributes = true;
  ASSERT_TRUE(db.DefineRelationship("tags", "Obj", "Obj", inherit,
                                    {Attr("w", ValueType::kInt)})
                  .ok());
  std::vector<Oid> objs;
  for (int j = 0; j < 30; ++j) {
    const bool sub = rng() % 3 == 0;
    std::vector<AttrInit> init;
    for (const char* attr : {"i", "d", "s", "u"}) {
      if (rng() % 6 != 0) init.push_back({attr, RandomItemValue(attr, &rng)});
    }
    if (sub && rng() % 4 != 0) {
      init.push_back({"x", Value::Int(static_cast<std::int64_t>(rng() % 20))});
    }
    auto oid = db.CreateObject(sub ? "SubObj" : "Obj", init);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    objs.push_back(oid.value());
  }
  for (int j = 0; j < 10; ++j) {
    std::vector<AttrInit> init;
    if (rng() % 4 != 0) {
      init.push_back({"w", Value::Int(static_cast<std::int64_t>(rng() % 20))});
    }
    (void)db.CreateLink("tags", objs[rng() % objs.size()],
                        objs[rng() % objs.size()], kNullOid, init);
  }

  const DbSnapshot& store = db.live_store();
  pool::QueryEngine plain;
  cache::PlanCache plans(cache::PlanCache::Config{});
  pool::QueryEngine cached;
  cached.set_plan_cache(&plans);
  auto profiled = [&](const std::string& q) -> Result<pool::ResultSet> {
    auto p = plain.ExecuteProfiled("profile " + q, store);
    if (!p.ok()) return p.status();
    return std::move(p).value().rows;
  };

  int matched = 0;
  int failed = 0;
  for (int n = 0; n < 60; ++n) {
    const std::string p = RandomPredicate(&rng, 0);
    const std::string filter = "select s from Obj s where " + p;
    const std::string project = "select s, (" + p + ") from Obj s";
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + ": " + p);
    const std::vector<std::string> expected =
        FilteredRows(plain.Execute(filter, store));
    EXPECT_EQ(ProjectedTrueRows(plain.Execute(project, store)), expected);
    // A plan-cache miss (unless an earlier round drew the same text),
    // then a hit.
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t hits = plans.stats().hits;
      EXPECT_EQ(FilteredRows(cached.Execute(filter, store)), expected);
      EXPECT_EQ(ProjectedTrueRows(cached.Execute(project, store)), expected);
      if (pass == 1) {
        EXPECT_EQ(plans.stats().hits, hits + 2);
      }
    }
    EXPECT_EQ(FilteredRows(profiled(filter)), expected);
    EXPECT_EQ(ProjectedTrueRows(profiled(project)), expected);
    if (expected.size() == 1 && expected[0].rfind("error: ", 0) == 0) {
      ++failed;
    } else if (!expected.empty()) {
      ++matched;
    }
  }
  // The law is not vacuous: predicates both selected rows and failed.
  EXPECT_GT(matched, 0);
  EXPECT_GT(failed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace prometheus
