// Property-based tests: randomized operation sequences checked against
// system-wide invariants — rollback equivalence, snapshot/journal
// round-trip fidelity, pinned MVCC snapshots, traversal laws, synonym
// equivalence laws. Each law is seeded from its test parameter, so a
// failure replays.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "core/database.h"
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

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace prometheus
