#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "storage/fault.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"

namespace prometheus::storage {
namespace {

namespace fs = std::filesystem;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

/// The schema every store in this suite runs on. Used both as a
/// `DurableStore` bootstrap and to prepare reference databases.
Status Bootstrap(Database* db) {
  auto cls = db->DefineClass("Taxon", {},
                             {Attr("name", ValueType::kString),
                              Attr("year", ValueType::kInt)});
  if (!cls.ok()) return cls.status();
  RelationshipSemantics owns;
  owns.lifetime_dependent = true;
  auto r1 = db->DefineRelationship("owns", "Taxon", "Taxon", owns,
                                   {Attr("note", ValueType::kString)});
  if (!r1.ok()) return r1.status();
  RelationshipSemantics constant;
  constant.constant = true;
  auto r2 = db->DefineRelationship("published", "Taxon", "Taxon", constant);
  if (!r2.ok()) return r2.status();
  return Status::Ok();
}

DurableStore::Options StoreOptions(Env* env = nullptr) {
  DurableStore::Options options;
  options.env = env;
  options.bootstrap = Bootstrap;
  return options;
}

/// Canonical, order-independent digest of all user-visible state: every
/// object and link rendered as its storage record, plus every synonym set.
/// Two databases with equal fingerprints are indistinguishable to queries.
std::string Fingerprint(const Database& db) {
  std::vector<std::string> parts;
  for (const ClassDef* cls : db.classes()) {
    for (Oid oid : db.Extent(cls->name(), /*include_subclasses=*/false)) {
      parts.push_back(ObjectRecord(db.live_store(), oid));
      std::vector<Oid> set = db.SynonymSet(oid);
      if (set.size() > 1 && oid == *std::min_element(set.begin(), set.end())) {
        std::sort(set.begin(), set.end());
        std::string syn = "SYNSET";
        for (Oid member : set) syn += " " + std::to_string(member);
        parts.push_back(std::move(syn));
      }
    }
  }
  for (const RelationshipDef* rel : db.relationships()) {
    for (Oid lid : db.LinkExtent(rel->name(), false)) {
      parts.push_back(LinkRecord(db.live_store(), lid));
    }
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& p : parts) {
    out += p;
    out += '\n';
  }
  return out;
}

constexpr int kSteps = 200;

/// One deterministic mutation step. Every step succeeds on a healthy
/// database; on a crashed store the vetoed mutation reports an error.
/// Mix: creations, updates, links, cascading deletes, synonym
/// declarations, multi-record committed transactions (which must recover
/// atomically) and aborted transactions (which must never recover).
Status DoStep(Database* db, int i, std::vector<Oid>* pool) {
  auto purge_dead = [&] {
    pool->erase(std::remove_if(pool->begin(), pool->end(),
                               [&](Oid oid) {
                                 return db->GetObject(oid) == nullptr;
                               }),
                pool->end());
  };
  auto create = [&]() -> Status {
    auto obj = db->CreateObject("Taxon", {{"name", Value::String(
                                              "t" + std::to_string(i))},
                                          {"year", Value::Int(i)}});
    if (!obj.ok()) return obj.status();
    pool->push_back(obj.value());
    return Status::Ok();
  };
  switch (i % 10) {
    case 1: {  // cascading delete (lifetime-dependent links kill targets)
      if (i <= 20 || pool->size() < 6) return create();
      Oid victim = (*pool)[(static_cast<std::size_t>(i) * 7) % pool->size()];
      PROMETHEUS_RETURN_IF_ERROR(db->DeleteObject(victim));
      purge_dead();
      return Status::Ok();
    }
    case 3: {  // attribute update
      if (pool->empty()) return create();
      Oid target = (*pool)[static_cast<std::size_t>(i) % pool->size()];
      return db->SetAttribute(target, "year", Value::Int(1900 + i));
    }
    case 5: {  // attributed link between the two newest objects
      if (pool->size() < 2) return create();
      Oid src = (*pool)[pool->size() - 1];
      Oid dst = (*pool)[pool->size() - 2];
      return db->CreateLink("owns", src, dst, kNullOid,
                            {{"note", Value::String("s" + std::to_string(i))}})
          .status();
    }
    case 6: {  // synonym declaration
      if (pool->size() < 4) return create();
      Oid a = (*pool)[(static_cast<std::size_t>(i) * 3) % pool->size()];
      Oid b = (*pool)[(static_cast<std::size_t>(i) * 5 + 1) % pool->size()];
      if (a == b || db->AreSynonyms(a, b)) return create();
      return db->DeclareSynonym(a, b);
    }
    case 7: {  // committed transaction: three records, atomic on recovery
      PROMETHEUS_RETURN_IF_ERROR(db->Begin());
      auto a = db->CreateObject(
          "Taxon", {{"name", Value::String("txn" + std::to_string(i))}});
      if (!a.ok()) return a.status();
      auto b = db->CreateObject("Taxon");
      if (!b.ok()) return b.status();
      PROMETHEUS_RETURN_IF_ERROR(
          db->SetAttribute(a.value(), "year", Value::Int(i)));
      PROMETHEUS_RETURN_IF_ERROR(db->Commit());
      pool->push_back(a.value());
      pool->push_back(b.value());
      return Status::Ok();
    }
    case 9: {  // aborted transaction: must never appear after recovery
      PROMETHEUS_RETURN_IF_ERROR(db->Begin());
      auto ghost = db->CreateObject("Taxon", {{"name", Value::String("ghost")}});
      if (!ghost.ok()) return ghost.status();
      return db->Abort();
    }
    default:
      return create();
  }
}

/// Runs the workload until completion or the first durability failure.
/// Returns the number of fully applied steps.
int RunWorkload(DurableStore* store) {
  std::vector<Oid> pool;
  for (int i = 0; i < kSteps; ++i) {
    if (!DoStep(&store->db(), i, &pool).ok()) return i;
    // A commit whose journal flush crashed still succeeds in memory; the
    // sticky status is how the application learns the store is dead.
    if (!store->status().ok()) return i;
  }
  return kSteps;
}

/// Runs the workload on a plain database, recording the fingerprint at
/// every durable point: after each non-transactional mutation record and
/// after each commit. These are exactly the states a crash at any journal
/// byte may recover to.
std::set<std::string> ReferenceDurableStates(std::string* final_fp) {
  Database db;
  EXPECT_TRUE(Bootstrap(&db).ok());
  std::set<std::string> durable;
  durable.insert(Fingerprint(db));  // a crash before any record lands here
  bool in_txn = false;
  db.bus().Subscribe(
      [&](const Event& e) {
        switch (e.kind) {
          case EventKind::kTransactionBegin:
            in_txn = true;
            break;
          case EventKind::kAfterAbort:
            in_txn = false;
            break;
          case EventKind::kAfterCommit:
            in_txn = false;
            durable.insert(Fingerprint(db));
            break;
          case EventKind::kAfterCreateObject:
          case EventKind::kAfterDeleteObject:
          case EventKind::kAfterSetAttribute:
          case EventKind::kAfterCreateLink:
          case EventKind::kAfterDeleteLink:
          case EventKind::kAfterSetLinkAttribute:
          case EventKind::kAfterDeclareSynonym:
            if (!in_txn) durable.insert(Fingerprint(db));
            break;
          default:
            break;
        }
        return Status::Ok();
      },
      /*priority=*/10);
  std::vector<Oid> pool;
  for (int i = 0; i < kSteps; ++i) {
    EXPECT_TRUE(DoStep(&db, i, &pool).ok()) << "reference step " << i;
  }
  if (final_fp != nullptr) *final_fp = Fingerprint(db);
  return durable;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/prometheus_" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// ---------------------------------------------------------------- fault env

TEST(FaultInjectionEnvTest, TearsTheFailingAppend) {
  FaultInjectionEnv env;
  FaultPolicy policy;
  policy.fail_after_bytes = 10;
  env.SetPolicy(policy);
  std::string path = ::testing::TempDir() + "/fault_torn.bin";
  auto file = env.NewWritableFile(path, /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file.value()->Append("01234567").ok());  // 8 bytes, under budget
  EXPECT_FALSE(file.value()->Append("abcdefgh").ok());  // crosses the limit
  EXPECT_TRUE(env.crashed());
  // The torn write persisted exactly the byte budget: 8 + 2.
  EXPECT_EQ(env.FileSize(path).value(), 10u);
  // A dead env refuses everything, like a killed process.
  EXPECT_FALSE(file.value()->Append("x").ok());
  EXPECT_FALSE(env.NewWritableFile(path, false).ok());
  EXPECT_FALSE(env.RenameFile(path, path + ".2").ok());
  // SetPolicy revives it for the next matrix entry.
  env.SetPolicy(FaultPolicy());
  EXPECT_FALSE(env.crashed());
  EXPECT_TRUE(env.NewWritableFile(path, true).ok());
}

TEST(FaultInjectionEnvTest, AppendCountFaultSuppressesTearing) {
  FaultInjectionEnv env;
  FaultPolicy policy;
  policy.fail_after_appends = 2;
  policy.torn_writes = false;
  env.SetPolicy(policy);
  std::string path = ::testing::TempDir() + "/fault_count.bin";
  auto file = env.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file.value()->Append("aaaa").ok());
  EXPECT_FALSE(file.value()->Append("bbbb").ok());  // 2nd append crashes
  EXPECT_EQ(env.FileSize(path).value(), 4u);  // nothing of it persisted
}

TEST(FaultInjectionEnvTest, SyncAndRenameFaultsDoNotCrashTheEnv) {
  FaultInjectionEnv env;
  FaultPolicy policy;
  policy.fail_sync = true;
  policy.fail_rename = true;
  env.SetPolicy(policy);
  std::string path = ::testing::TempDir() + "/fault_sync.bin";
  auto file = env.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file.value()->Append("data").ok());
  EXPECT_FALSE(file.value()->Sync().ok());
  EXPECT_FALSE(env.RenameFile(path, path + ".2").ok());
  EXPECT_FALSE(env.crashed());  // still alive: writes keep flowing
  EXPECT_TRUE(file.value()->Append("more").ok());
}

// ------------------------------------------------------------ durable store

TEST(DurableStoreTest, FreshStoreBootstrapsAndSurvivesReopen) {
  std::string dir = FreshDir("fresh");
  std::string fp;
  {
    auto store = DurableStore::Open(dir, StoreOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(store.value()->recovery_info().snapshot_file.empty());
    Database& db = store.value()->db();
    ASSERT_NE(db.FindClass("Taxon"), nullptr);  // bootstrap ran
    ASSERT_TRUE(db.CreateObject("Taxon", {{"name", Value::String("a")}}).ok());
    ASSERT_TRUE(db.CreateObject("Taxon", {{"name", Value::String("b")}}).ok());
    fp = Fingerprint(db);
  }
  auto reopened = DurableStore::Open(dir, StoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Fingerprint(reopened.value()->db()), fp);
  EXPECT_EQ(reopened.value()->recovery_info().replayed_records, 2u);
  EXPECT_FALSE(reopened.value()->recovery_info().torn_tail);
}

// A bootstrap that seeds *data* (not just schema) must survive a reopen
// even when no checkpoint ever ran: the full journal's prologue has to
// carry the bootstrapped objects, links, and synonyms, or replay starts
// from an empty database and every record referencing them fails.
TEST(DurableStoreTest, BootstrapDataSurvivesReopenWithoutCheckpoint) {
  auto seeded = [](Database* db) -> Status {
    PROMETHEUS_RETURN_IF_ERROR(Bootstrap(db));
    auto a = db->CreateObject("Taxon", {{"name", Value::String("seed-a")},
                                        {"year", Value::Int(1753)}});
    if (!a.ok()) return a.status();
    auto b = db->CreateObject("Taxon", {{"name", Value::String("seed-b")}});
    if (!b.ok()) return b.status();
    auto c = db->CreateObject("Taxon", {{"name", Value::String("seed-c")}});
    if (!c.ok()) return c.status();
    PROMETHEUS_RETURN_IF_ERROR(
        db->CreateLink("owns", a.value(), b.value(), kNullOid,
                       {{"note", Value::String("from bootstrap")}})
            .status());
    return db->DeclareSynonym(b.value(), c.value());
  };
  DurableStore::Options options;
  options.bootstrap = seeded;

  std::string dir = FreshDir("bootstrap_data");
  std::string fp;
  {
    auto store = DurableStore::Open(dir, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    Database& db = store.value()->db();
    EXPECT_EQ(db.object_count(), 3u);
    // Mutate a bootstrapped object so replay must resolve it by oid.
    std::vector<Oid> extent = db.Extent("Taxon", false);
    ASSERT_FALSE(extent.empty());
    ASSERT_TRUE(db.SetAttribute(extent.front(), "year",
                                Value::Int(1859)).ok());
    fp = Fingerprint(db);
  }  // no Checkpoint: everything must come back from the journal alone
  auto reopened = DurableStore::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Database& db = reopened.value()->db();
  EXPECT_EQ(Fingerprint(db), fp);
  EXPECT_EQ(db.object_count(), 3u);
  EXPECT_TRUE(reopened.value()->recovery_info().snapshot_file.empty());
  EXPECT_FALSE(reopened.value()->recovery_info().torn_tail);
}

// Schema defined at *runtime* — through the live store, not a bootstrap —
// must be journaled like any mutation: a class defined after open, with
// objects created in it, has to survive a reopen with no checkpoint.
TEST(DurableStoreTest, RuntimeDdlSurvivesReopenWithoutCheckpoint) {
  std::string dir = FreshDir("runtime_ddl");
  std::string fp;
  {
    auto store = DurableStore::Open(dir, DurableStore::Options{});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    Database& db = store.value()->db();
    ASSERT_TRUE(Bootstrap(&db).ok());  // DDL on the live, journaled db
    RelationshipSemantics plain;
    ASSERT_TRUE(db.DefineRelationshipTemplate("annotates", plain,
                                              {Attr("text",
                                                    ValueType::kString)})
                    .ok());
    ASSERT_TRUE(
        db.InstantiateRelationship("annotates", "remarks", "Taxon", "Taxon")
            .ok());
    auto a = db.CreateObject("Taxon", {{"name", Value::String("live-a")}});
    ASSERT_TRUE(a.ok());
    auto b = db.CreateObject("Taxon", {{"name", Value::String("live-b")}});
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(db.CreateLink("remarks", a.value(), b.value(), kNullOid,
                              {{"text", Value::String("runtime")}})
                    .ok());
    fp = Fingerprint(db);
  }  // no Checkpoint: schema + data must both come back from the journal
  auto reopened = DurableStore::Open(dir, DurableStore::Options{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Database& db = reopened.value()->db();
  EXPECT_EQ(Fingerprint(db), fp);
  ASSERT_NE(db.FindClass("Taxon"), nullptr);
  ASSERT_NE(db.FindRelationship("remarks"), nullptr);
  EXPECT_NE(db.FindTemplate("annotates"), nullptr);
  EXPECT_EQ(db.object_count(), 2u);
  EXPECT_FALSE(reopened.value()->recovery_info().torn_tail);
}

TEST(DurableStoreTest, ReopenAppendsToTheLiveJournal) {
  std::string dir = FreshDir("reopen_append");
  for (int round = 0; round < 3; ++round) {
    auto store = DurableStore::Open(dir, StoreOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store.value()
                    ->db()
                    .CreateObject("Taxon",
                                  {{"year", Value::Int(round)}})
                    .ok());
  }
  auto store = DurableStore::Open(dir, StoreOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->db().object_count(), 3u);
  // No checkpoint ever ran: everything lives in the one full journal.
  EXPECT_EQ(DirEntries(dir),
            std::vector<std::string>({"journal-000001.log"}));
}

TEST(DurableStoreTest, CheckpointRotatesPrunesAndRecovers) {
  std::string dir = FreshDir("checkpoint");
  std::string fp;
  {
    auto opened = DurableStore::Open(dir, StoreOptions());
    ASSERT_TRUE(opened.ok());
    DurableStore& store = *opened.value();
    std::vector<Oid> pool;
    for (int i = 0; i < 40; ++i) ASSERT_TRUE(DoStep(&store.db(), i, &pool).ok());
    ASSERT_TRUE(store.Checkpoint().ok()) << store.status().ToString();
    EXPECT_EQ(store.generation(), 2u);
    for (int i = 40; i < 80; ++i) ASSERT_TRUE(DoStep(&store.db(), i, &pool).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
    EXPECT_EQ(store.generation(), 4u);
    for (int i = 80; i < 100; ++i) {
      ASSERT_TRUE(DoStep(&store.db(), i, &pool).ok());
    }
    fp = Fingerprint(store.db());
  }
  // Current generation + one fallback generation; nothing older.
  EXPECT_EQ(DirEntries(dir),
            std::vector<std::string>({"journal-000003.log", "journal-000005.log",
                                      "snapshot-000002.pdb",
                                      "snapshot-000004.pdb"}));
  auto reopened = DurableStore::Open(dir, StoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->recovery_info().snapshot_file,
            "snapshot-000004.pdb");
  EXPECT_EQ(Fingerprint(reopened.value()->db()), fp);
  EXPECT_TRUE(reopened.value()->db().ValidateCardinality().ok());
}

TEST(DurableStoreTest, CorruptNewestSnapshotFallsBackToPreviousGeneration) {
  std::string dir = FreshDir("fallback");
  std::string fp;
  {
    auto opened = DurableStore::Open(dir, StoreOptions());
    ASSERT_TRUE(opened.ok());
    DurableStore& store = *opened.value();
    std::vector<Oid> pool;
    for (int i = 0; i < 40; ++i) ASSERT_TRUE(DoStep(&store.db(), i, &pool).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
    for (int i = 40; i < 80; ++i) ASSERT_TRUE(DoStep(&store.db(), i, &pool).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
    for (int i = 80; i < 100; ++i) {
      ASSERT_TRUE(DoStep(&store.db(), i, &pool).ok());
    }
    fp = Fingerprint(store.db());
  }
  // Maul the newest snapshot; recovery must fall back to the previous one
  // and reconstruct the exact same state through the journal chain.
  {
    std::fstream f(dir + "/snapshot-000004.pdb",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    f.write("XXXXXXXXXXXXXXXX", 16);
  }
  auto reopened = DurableStore::Open(dir, StoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->recovery_info().snapshot_file,
            "snapshot-000002.pdb");
  ASSERT_EQ(reopened.value()->recovery_info().skipped.size(), 1u);
  EXPECT_EQ(Fingerprint(reopened.value()->db()), fp);
  // The store stays fully usable: it can mutate and checkpoint again.
  ASSERT_TRUE(reopened.value()->db().CreateObject("Taxon").ok());
  EXPECT_TRUE(reopened.value()->Checkpoint().ok());
}

// ----------------------------------------------------- checkpoint crashes

class CheckpointCrashTest : public ::testing::Test {
 protected:
  /// Builds a store with one valid checkpoint plus journal tail, then
  /// returns it (opened through `fenv`). `fp` is the pre-crash fingerprint.
  Result<std::unique_ptr<DurableStore>> Build(const std::string& name) {
    dir = FreshDir(name);
    auto opened = DurableStore::Open(dir, StoreOptions(&fenv));
    if (!opened.ok()) return opened.status();
    std::unique_ptr<DurableStore> store = std::move(opened).value();
    std::vector<Oid> pool;
    for (int i = 0; i < 40; ++i) {
      Status st = DoStep(&store->db(), i, &pool);
      if (!st.ok()) return st;
    }
    if (Status st = store->Checkpoint(); !st.ok()) return st;
    for (int i = 40; i < 60; ++i) {
      Status st = DoStep(&store->db(), i, &pool);
      if (!st.ok()) return st;
    }
    fp = Fingerprint(store->db());
    return store;
  }

  void ExpectCleanRecovery() {
    auto reopened = DurableStore::Open(dir, StoreOptions());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value()->recovery_info().snapshot_file,
              "snapshot-000002.pdb");
    EXPECT_EQ(Fingerprint(reopened.value()->db()), fp);
    EXPECT_TRUE(reopened.value()->db().ValidateCardinality().ok());
    // No staging leftovers survive recovery, and the next checkpoint works.
    for (const std::string& name : DirEntries(dir)) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    }
    EXPECT_TRUE(reopened.value()->Checkpoint().ok());
  }

  FaultInjectionEnv fenv;
  std::string dir;
  std::string fp;
};

TEST_F(CheckpointCrashTest, CrashMidSnapshotWriteKeepsPreviousGeneration) {
  auto store = Build("ckpt_crash_bytes");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  FaultPolicy policy;
  policy.fail_after_bytes = 200;  // dies inside the .tmp staging write
  fenv.SetPolicy(policy);
  EXPECT_FALSE(store.value()->Checkpoint().ok());
  store.value().reset();
  ExpectCleanRecovery();
}

TEST_F(CheckpointCrashTest, FailedRenameKeepsPreviousGeneration) {
  auto store = Build("ckpt_crash_rename");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  FaultPolicy policy;
  policy.fail_rename = true;
  fenv.SetPolicy(policy);
  EXPECT_FALSE(store.value()->Checkpoint().ok());
  // A failed rename is not a crash: the journal is still live and the
  // store keeps accepting (and journalling) mutations.
  ASSERT_TRUE(store.value()->db().CreateObject("Taxon").ok());
  fp = Fingerprint(store.value()->db());
  store.value().reset();
  ExpectCleanRecovery();
}

TEST_F(CheckpointCrashTest, FailedFsyncKeepsPreviousGeneration) {
  auto store = Build("ckpt_crash_sync");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  FaultPolicy policy;
  policy.fail_sync = true;
  fenv.SetPolicy(policy);
  EXPECT_FALSE(store.value()->Checkpoint().ok());
  store.value().reset();
  ExpectCleanRecovery();
}

// --------------------------------------------------------- crash matrix

/// The tentpole test: crash at every single append the durability layer
/// ever makes during a 200-step (≈220-record) workload, recover, and
/// require the recovered state to be byte-for-byte one of the reference
/// run's durable states — i.e. a consistent prefix of the committed
/// history, with committed transactions atomic and aborted ones absent.
TEST(CrashMatrixTest, EveryAppendCrashRecoversToADurablePrefix) {
  std::string final_fp;
  const std::set<std::string> durable = ReferenceDurableStates(&final_fp);
  ASSERT_GT(durable.size(), 150u);  // the workload is genuinely long

  // Probe run: count the appends of a fault-free execution.
  std::uint64_t total_appends = 0;
  {
    FaultInjectionEnv fenv;
    std::string dir = FreshDir("crash_probe");
    auto store = DurableStore::Open(dir, StoreOptions(&fenv));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ(RunWorkload(store.value().get()), kSteps);
    EXPECT_EQ(Fingerprint(store.value()->db()), final_fp);
    store.value().reset();  // END record
    total_appends = fenv.appends_seen();
  }
  ASSERT_GT(total_appends, 220u);

  FaultInjectionEnv fenv;
  for (std::uint64_t k = 1; k <= total_appends; ++k) {
    SCOPED_TRACE("crash at append " + std::to_string(k));
    std::string dir = FreshDir("crash_matrix");
    FaultPolicy policy;
    policy.fail_after_appends = static_cast<std::int64_t>(k);
    policy.torn_writes = (k % 2 == 0);  // alternate torn and clean crashes
    fenv.SetPolicy(policy);
    {
      auto store = DurableStore::Open(dir, StoreOptions(&fenv));
      if (store.ok()) RunWorkload(store.value().get());
      // The store dies here: destructor close fails silently, like a kill.
    }
    auto recovered = DurableStore::Open(dir, StoreOptions());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const Database& db = recovered.value()->db();
    EXPECT_EQ(durable.count(Fingerprint(db)), 1u)
        << "recovered state is not a durable prefix";
    EXPECT_TRUE(db.ValidateCardinality().ok());
    ASSERT_NE(db.FindClass("Taxon"), nullptr);
  }
}

// ----------------------------------------------------- corruption matrices

TEST(CorruptionMatrixTest, JournalByteFlipsNeverCrashReplay) {
  std::string path = ::testing::TempDir() + "/corrupt_journal.log";
  Database db;
  ASSERT_TRUE(Bootstrap(&db).ok());
  {
    auto journal = Journal::Open(&db, path, Journal::OpenMode::kTruncate);
    ASSERT_TRUE(journal.ok());
    std::vector<Oid> pool;
    for (int i = 0; i < 30; ++i) ASSERT_TRUE(DoStep(&db, i, &pool).ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  Database reference;
  Journal::ReplayReport ref_report;
  ASSERT_TRUE(Journal::Replay(&reference, path, &ref_report).ok());

  std::string flipped_path = path + ".flip";
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    std::ofstream(flipped_path, std::ios::binary) << mutated;
    Database replica;
    Journal::ReplayReport report;
    Status st = Journal::Replay(&replica, flipped_path, &report);
    // Clean outcome only: either the valid prefix replays, or the stream
    // is rejected with kIoError. Never a crash, never a throw.
    EXPECT_TRUE(st.ok() || st.code() == Status::Code::kIoError)
        << "byte " << i << ": " << st.ToString();
    if (st.ok()) {
      EXPECT_LE(report.applied_records, ref_report.applied_records);
    }
  }
}

TEST(CorruptionMatrixTest, JournalTruncationAtEveryByteRecoversAPrefix) {
  std::string path = ::testing::TempDir() + "/truncate_journal.log";
  Database db;
  ASSERT_TRUE(Bootstrap(&db).ok());
  {
    auto journal = Journal::Open(&db, path, Journal::OpenMode::kTruncate);
    ASSERT_TRUE(journal.ok());
    std::vector<Oid> pool;
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(DoStep(&db, i, &pool).ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  Database reference;
  Journal::ReplayReport ref_report;
  ASSERT_TRUE(Journal::Replay(&reference, path, &ref_report).ok());
  std::uint64_t max_applied = 0;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut));
    Database replica;
    Journal::ReplayReport report;
    Status st = Journal::Replay(&replica, in, &report);
    if (st.ok()) {
      EXPECT_LE(report.applied_records, ref_report.applied_records);
      max_applied = std::max(max_applied, report.applied_records);
      // Applied records grow monotonically with the cut: a longer prefix
      // never recovers less.
      EXPECT_GE(report.applied_records, max_applied);
    } else {
      EXPECT_EQ(st.code(), Status::Code::kIoError);
    }
  }
  EXPECT_EQ(max_applied, ref_report.applied_records);
}

TEST(CorruptionMatrixTest, SnapshotTruncationAtEveryLineLeavesDbUntouched) {
  Database db;
  ASSERT_TRUE(Bootstrap(&db).ok());
  std::vector<Oid> pool;
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(DoStep(&db, i, &pool).ok());
  std::ostringstream out;
  ASSERT_TRUE(SaveSnapshot(db, out).ok());
  const std::string full = out.str();
  int boundaries = 0;
  for (std::size_t pos = full.find('\n'); pos != std::string::npos;
       pos = full.find('\n', pos + 1)) {
    std::string prefix = full.substr(0, pos + 1);
    if (prefix.size() == full.size()) break;  // the complete snapshot
    ++boundaries;
    std::istringstream in(prefix);
    Database target;
    Status st = LoadSnapshot(&target, in);
    EXPECT_EQ(st.code(), Status::Code::kIoError) << "line boundary " << pos;
    // Completeness is checked before anything is applied: the target
    // database is still pristine, not partially mutated.
    EXPECT_EQ(target.object_count(), 0u);
    EXPECT_EQ(target.link_count(), 0u);
    EXPECT_TRUE(target.classes().empty());
  }
  EXPECT_GT(boundaries, 15);
}

TEST(CorruptionMatrixTest, SnapshotByteFlipsNeverCrashLoad) {
  Database db;
  ASSERT_TRUE(Bootstrap(&db).ok());
  std::vector<Oid> pool;
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(DoStep(&db, i, &pool).ok());
  std::ostringstream out;
  ASSERT_TRUE(SaveSnapshot(db, out).ok());
  const std::string full = out.str();
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::string mutated = full;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    std::istringstream in(mutated);
    Database target;
    Status st = LoadSnapshot(&target, in);
    // Exception-free parsing: every flip yields Ok (benign, e.g. inside a
    // string payload) or a clean kIoError — never a crash or a throw.
    EXPECT_TRUE(st.ok() || st.code() == Status::Code::kIoError)
        << "byte " << i << ": " << st.ToString();
  }
}

}  // namespace
}  // namespace prometheus::storage
