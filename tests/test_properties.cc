// Property-based tests: randomized operation sequences checked against
// system-wide invariants — rollback equivalence, snapshot/journal
// round-trip fidelity, pinned MVCC snapshots, traversal laws, synonym
// equivalence laws, query plan equivalence, filter/projection agreement. Each law is seeded from its
// test parameter, so a failure replays.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "cache/plan_cache.h"
#include "core/database.h"
#include "index/index_manager.h"
#include "query/query_engine.h"
#include "storage/journal.h"
#include "storage/snapshot.h"

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
  }
}

/// A random value for attribute `attr` of the plan-equivalence schema:
/// `i` int, `d` double (or int), `s` string, `u` untyped (int or string);
/// one in eight is null.
Value RandomItemValue(const std::string& attr, std::mt19937* rng) {
  if ((*rng)() % 8 == 0) return Value::Null();
  const auto n = static_cast<std::int64_t>((*rng)() % 20);
  if (attr == "d") {
    // Ints are acceptable where doubles are declared.
    return (*rng)() % 3 == 0 ? Value::Int(n / 2)
                             : Value::Double(static_cast<double>(n) / 2);
  }
  if (attr == "s" || (attr == "u" && (*rng)() % 2 == 0)) {
    return Value::String(std::string(1, static_cast<char>('a' + n % 8)));
  }
  return Value::Int(n);
}

/// A literal to bound `attr` with: mostly of its own type (int literals
/// for the double attribute too), sometimes of the wrong one.
std::string RandomBoundLiteral(const std::string& attr, std::mt19937* rng) {
  const unsigned n = (*rng)() % 22;
  const bool stringy = attr == "s" || (attr == "u" && (*rng)() % 2 == 0);
  if (stringy == ((*rng)() % 10 != 0)) {
    return "'" + std::string(1, static_cast<char>('a' + n % 9)) + "'";
  }
  if (attr == "d" && (*rng)() % 2 == 0) return std::to_string(n / 2) + ".5";
  return std::to_string(n);
}

/// A random selection over `Item`: one or two (sometimes three) bounds on
/// one attribute, strict or inclusive, in either operand order — two-sided
/// ranges are often contradictory — plus, half the time, an equality on
/// the unindexed attribute `k`.
std::string RandomRangeQuery(std::mt19937* rng) {
  static const char* kAttrs[] = {"i", "i", "d", "d", "s", "u"};
  static const char* kOps[] = {"<", "<=", ">", ">="};
  const std::string attr = kAttrs[(*rng)() % 6];
  std::vector<std::string> conjuncts;
  const unsigned bounds = 1 + (*rng)() % 2 + ((*rng)() % 4 == 0 ? 1 : 0);
  for (unsigned b = 0; b < bounds; ++b) {
    const std::string op = kOps[(*rng)() % 4];
    const std::string lit = RandomBoundLiteral(attr, rng);
    conjuncts.push_back((*rng)() % 2 == 0 ? "x." + attr + " " + op + " " + lit
                                          : lit + " " + op + " x." + attr);
  }
  if ((*rng)() % 2 == 0) {
    conjuncts.insert(conjuncts.begin() + (*rng)() % (conjuncts.size() + 1),
                     "x.k = " + std::to_string((*rng)() % 4));
  }
  std::string q = "select x from Item x where ";
  for (std::size_t c = 0; c < conjuncts.size(); ++c) {
    q += (c == 0 ? "" : " and ") + conjuncts[c];
  }
  return q;
}

/// A query outcome as a comparable value: the sorted rows, or the error.
std::vector<std::string> Outcome(const Result<pool::ResultSet>& r) {
  if (!r.ok()) return {"error: " + r.status().ToString()};
  std::vector<std::string> rows;
  for (const auto& row : r.value().rows) rows.push_back(row[0].ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Plan equivalence: an ordered index, a hash index, no index and a cached
// plan answer every range selection with the same rows (or the same
// error). Indexes are built half-way through loading, so both backfill and
// maintenance feed them.
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

  pool::QueryEngine with_ordered(&db, &ordered);
  pool::QueryEngine with_hash(&db, &hashed);
  pool::QueryEngine no_index(&db);
  cache::PlanCache plans(cache::PlanCache::Config{});
  pool::QueryEngine cached(&db, &ordered);
  cached.set_plan_cache(&plans);

  int ranged = 0;
  for (int round = 0; round < 2; ++round) {
    for (int n = 0; n < 60; ++n) {
      const std::string q = RandomRangeQuery(&rng);
      SCOPED_TRACE("seed " + std::to_string(GetParam()) + ": " + q);
      const std::vector<std::string> expected = Outcome(no_index.Execute(q));
      EXPECT_EQ(Outcome(with_ordered.Execute(q)), expected);
      EXPECT_EQ(Outcome(with_hash.Execute(q)), expected);
      (void)cached.Execute(q);
      const std::uint64_t hits = plans.stats().hits;
      EXPECT_EQ(Outcome(cached.Execute(q)), expected);
      EXPECT_EQ(plans.stats().hits, hits + 1);
      auto plan = with_ordered.Explain(q);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      if (plan.value().find("index range") != std::string::npos) ++ranged;
    }
    // Move, null out and delete some rows; cached plans must still hold.
    for (int j = 0; j < 30; ++j) {
      const Oid oid = items[rng() % items.size()];
      if (db.GetObject(oid) == nullptr) continue;
      if (j % 5 == 0) {
        ASSERT_TRUE(db.DeleteObject(oid).ok());
        continue;
      }
      const char* attr = j % 2 == 0 ? "i" : "d";
      ASSERT_TRUE(db.SetAttribute(oid, attr, RandomItemValue(attr, &rng)).ok());
    }
  }
  // The law is not vacuous: the ordered engine took range probes.
  EXPECT_GT(ranged, 0);
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

  pool::QueryEngine plain(&db);
  cache::PlanCache plans(cache::PlanCache::Config{});
  pool::QueryEngine cached(&db);
  cached.set_plan_cache(&plans);
  auto profiled = [&](const std::string& q) -> Result<pool::ResultSet> {
    auto p = plain.ExecuteProfiled("profile " + q);
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
        FilteredRows(plain.Execute(filter));
    EXPECT_EQ(ProjectedTrueRows(plain.Execute(project)), expected);
    // A plan-cache miss (unless an earlier round drew the same text),
    // then a hit.
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t hits = plans.stats().hits;
      EXPECT_EQ(FilteredRows(cached.Execute(filter)), expected);
      EXPECT_EQ(ProjectedTrueRows(cached.Execute(project)), expected);
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
