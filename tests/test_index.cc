#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <random>
#include <thread>

#include "index/index_manager.h"
#include "obs/metrics.h"
#include "query/query_engine.h"
#include "storage/snapshot.h"

namespace prometheus {
namespace {

bool Contains(const std::vector<Oid>& v, Oid x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

class IndexFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    AttributeDef name;
    name.name = "name";
    name.type = ValueType::kString;
    AttributeDef year;
    year.name = "year";
    year.type = ValueType::kInt;
    ASSERT_TRUE(db.DefineClass("Taxon", {}, {name, year}).ok());
    ASSERT_TRUE(db.DefineClass("Genus", {"Taxon"}).ok());
    taxon = db.FindClass("Taxon");
    idx = std::make_unique<IndexManager>(&db);
  }

  Oid NewTaxon(const std::string& name, std::int64_t year,
               const std::string& cls = "Taxon") {
    return db.CreateObject(cls, {{"name", Value::String(name)},
                                 {"year", Value::Int(year)}})
        .value();
  }

  Database db;
  /// The working store the single-threaded cases read.
  const DbSnapshot& live = db.live_store();
  const ClassDef* taxon = nullptr;
  std::unique_ptr<IndexManager> idx;
};

TEST_F(IndexFixture, BackfillsExistingObjects) {
  Oid a = NewTaxon("Apium", 1753);
  NewTaxon("Helio", 1824);
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  auto r = idx->Lookup(live, taxon, "name", Value::String("Apium"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), std::vector<Oid>{a});
}

TEST_F(IndexFixture, TracksCreateUpdateDelete) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  Oid a = NewTaxon("Apium", 1753);
  EXPECT_EQ(idx->Lookup(live, taxon, "name", Value::String("Apium")).value(),
            std::vector<Oid>{a});
  ASSERT_TRUE(db.SetAttribute(a, "name", Value::String("Helio")).ok());
  EXPECT_TRUE(
      idx->Lookup(live, taxon, "name", Value::String("Apium")).value().empty());
  EXPECT_EQ(idx->Lookup(live, taxon, "name", Value::String("Helio")).value(),
            std::vector<Oid>{a});
  ASSERT_TRUE(db.DeleteObject(a).ok());
  EXPECT_TRUE(
      idx->Lookup(live, taxon, "name", Value::String("Helio")).value().empty());
  EXPECT_EQ(idx->total_entries(db.live_store()), 0u);
}

TEST_F(IndexFixture, CoversSubclasses) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  Oid g = NewTaxon("Apium", 1753, "Genus");
  EXPECT_EQ(idx->Lookup(live, taxon, "name", Value::String("Apium")).value(),
            std::vector<Oid>{g});
}

TEST_F(IndexFixture, OrderedRangeLookup) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  Oid a = NewTaxon("a", 1753);
  Oid b = NewTaxon("b", 1800);
  Oid c = NewTaxon("c", 1824);
  auto r = idx->RangeLookup(live, taxon, "year", {Value::Int(1760)},
                            {Value::Int(1824)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_TRUE(Contains(r.value(), b));
  EXPECT_TRUE(Contains(r.value(), c));
  // Open bounds.
  auto all = idx->RangeLookup(live, taxon, "year", {}, {});
  EXPECT_EQ(all.value().size(), 3u);
  auto upto = idx->RangeLookup(live, taxon, "year", {},
                               {Value::Int(1753)});
  EXPECT_EQ(upto.value(), std::vector<Oid>{a});
}

// A range lookup returns exactly what its bounds accept: strict bounds
// exclude their endpoint, an open end stays among the numbers (no null),
// and NaN is one number, equal to itself and after every other.
TEST_F(IndexFixture, RangeLookupIsExact) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  Oid a = NewTaxon("a", 1753);
  Oid b = NewTaxon("b", 1800);
  Oid c = NewTaxon("c", 1824);
  ASSERT_TRUE(db.CreateObject("Taxon", {{"name", Value::String("undated")}})
                  .ok());
  auto sorted = [](Result<std::vector<Oid>> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<Oid> out = r.value_or(std::vector<Oid>{});
    std::sort(out.begin(), out.end());
    return out;
  };
  const Value lo = Value::Int(1753);
  const Value hi = Value::Int(1824);
  EXPECT_EQ(
      sorted(idx->RangeLookup(live, taxon, "year", {lo, true}, {hi, true})),
      std::vector<Oid>{b});
  EXPECT_EQ(
      sorted(idx->RangeLookup(live, taxon, "year", {lo, false}, {hi, true})),
      (std::vector<Oid>{a, b}));
  EXPECT_EQ(sorted(idx->RangeLookup(live, taxon, "year", {lo, true}, {})),
            (std::vector<Oid>{b, c}));
  EXPECT_EQ(sorted(idx->RangeLookup(live, taxon, "year", {}, {hi, true})),
            (std::vector<Oid>{a, b}));
  EXPECT_TRUE(
      sorted(idx->RangeLookup(live, taxon, "year", {lo, true}, {lo, false}))
          .empty());
  EXPECT_EQ(idx->RangeLookup(live, taxon, "year", {Value::Bool(true)}, {})
                .status()
                .code(),
            Status::Code::kInvalidArgument);

  AttributeDef d;
  d.name = "d";
  d.type = ValueType::kDouble;
  ASSERT_TRUE(db.DefineClass("Sample", {}, {d}).ok());
  ASSERT_TRUE(idx->CreateIndex("Sample", "d", /*ordered=*/true).ok());
  const ClassDef* sample = db.FindClass("Sample");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Oid one = db.CreateObject("Sample", {{"d", Value::Double(1.5)}}).value();
  Oid nan1 = db.CreateObject("Sample", {{"d", Value::Double(nan)}}).value();
  Oid nan2 = db.CreateObject("Sample", {{"d", Value::Double(nan)}}).value();
  ASSERT_TRUE(db.CreateObject("Sample", {}).ok());  // null
  EXPECT_EQ(sorted(idx->RangeLookup(live, sample, "d", {Value::Int(1)}, {})),
            (std::vector<Oid>{one, nan1, nan2}));
  EXPECT_EQ(sorted(idx->RangeLookup(live, sample, "d", {}, {Value::Int(2)})),
            std::vector<Oid>{one});
  EXPECT_EQ(sorted(idx->Lookup(live, sample, "d", Value::Double(nan))),
            (std::vector<Oid>{nan1, nan2}));
}

TEST_F(IndexFixture, InvertedRangeIsEmpty) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  NewTaxon("a", 1753);
  NewTaxon("b", 1800);  // lies between the inverted bounds
  NewTaxon("c", 1824);
  auto r = idx->RangeLookup(live, taxon, "year", {Value::Int(1824)},
                            {Value::Int(1753)});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  auto strings = idx->RangeLookup(live, taxon, "year", {Value::String("z")},
                                  {Value::Int(1800)});
  ASSERT_TRUE(strings.ok());
  EXPECT_TRUE(strings.value().empty());
}

TEST_F(IndexFixture, RangeOnHashIndexRejected) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year").ok());
  EXPECT_FALSE(idx->HasOrderedIndex(live, taxon, "year"));
  obs::Counter* hits = obs::Registry().GetCounter("index_lookup_hits_total");
  const std::uint64_t hits_before = hits->value();
  EXPECT_EQ(idx->RangeLookup(live, taxon, "year", {Value::Int(0)},
                             {Value::Int(9999)})
                .status()
                .code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(hits->value(), hits_before);
}

TEST_F(IndexFixture, ErrorsOnUnknownTargets) {
  EXPECT_EQ(idx->CreateIndex("Nope", "x").code(), Status::Code::kNotFound);
  EXPECT_EQ(idx->CreateIndex("Taxon", "nope").code(),
            Status::Code::kNotFound);
  EXPECT_EQ(
      idx->Lookup(live, taxon, "name", Value::String("x")).status().code(),
      Status::Code::kNotFound);
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  EXPECT_EQ(idx->CreateIndex("Taxon", "name").code(),
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(idx->DropIndex("Taxon", "name").ok());
  EXPECT_EQ(idx->DropIndex("Taxon", "name").code(), Status::Code::kNotFound);
}

TEST_F(IndexFixture, StaysConsistentAcrossAbort) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  Oid a = NewTaxon("Apium", 1753);
  ASSERT_TRUE(db.Begin().ok());
  Oid b = NewTaxon("Helio", 1824);
  ASSERT_TRUE(db.SetAttribute(a, "name", Value::String("Renamed")).ok());
  ASSERT_TRUE(db.DeleteObject(a).ok());
  ASSERT_TRUE(db.Abort().ok());
  // Rollback restores the index entries with the records it restores.
  EXPECT_EQ(idx->Lookup(live, taxon, "name", Value::String("Apium")).value(),
            std::vector<Oid>{a});
  EXPECT_TRUE(
      idx->Lookup(live, taxon, "name", Value::String("Helio")).value().empty());
  EXPECT_TRUE(idx->Lookup(live, taxon, "name", Value::String("Renamed"))
                  .value()
                  .empty());
  (void)b;
}

TEST_F(IndexFixture, DuplicateKeysReturnAllMatches) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  Oid a = NewTaxon("a", 1753);
  Oid b = NewTaxon("b", 1753);
  auto r = idx->Lookup(live, taxon, "year", Value::Int(1753));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_TRUE(Contains(r.value(), a));
  EXPECT_TRUE(Contains(r.value(), b));
}

TEST_F(IndexFixture, NumericKeysUnifyIntAndDouble) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year").ok());
  Oid a = NewTaxon("a", 1753);
  EXPECT_EQ(idx->Lookup(live, taxon, "year", Value::Double(1753.0)).value(),
            std::vector<Oid>{a});
}

// Range queries read through pinned snapshots while a writer moves the
// indexed attribute. Every snapshot reads its own index, so each query —
// on a fresh snapshot or on one pinned before the writer started — takes
// the index and answers as a scan of that snapshot.
TEST_F(IndexFixture, ConcurrentRangeReadsMatchAScanOfTheirSnapshot) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  std::vector<Oid> taxa;
  for (int i = 0; i < 64; ++i) {
    taxa.push_back(NewTaxon("t" + std::to_string(i), 1750 + i));
  }
  pool::QueryEngine indexed(idx.get());
  pool::QueryEngine scan;
  // Pinned before any write: every later write moves the working index
  // past it.
  SnapshotHandle before = db.AcquireSnapshot();
  obs::Counter* lookups =
      obs::Registry().GetCounter("pool_index_lookups_total");
  const std::uint64_t lookups_before = lookups->value();
  constexpr int kQueries = 150;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::thread writer([&] {
    std::mt19937 rng(7);
    while (!stop.load(std::memory_order_acquire)) {
      Database::WriteGuard guard(db);
      const Oid taxon = taxa[rng() % taxa.size()];
      const auto year = static_cast<std::int64_t>(1750 + rng() % 64);
      if (!db.SetAttribute(taxon, "year", Value::Int(year)).ok()) {
        mismatches.fetch_add(1);
      }
      writes.fetch_add(1, std::memory_order_release);
    }
  });
  while (writes.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }

  auto sorted_rows = [](const Result<pool::ResultSet>& r) {
    std::vector<std::string> out;
    if (!r.ok()) return std::vector<std::string>{r.status().ToString()};
    for (const auto& row : r.value().rows) out.push_back(row[0].ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(r + 11);
      for (int i = 0; i < kQueries; ++i) {
        SnapshotHandle fresh = db.AcquireSnapshot();
        const DbSnapshot& snap = i % 2 == 0 ? *fresh : *before;
        const unsigned lo = 1750 + rng() % 64;
        const std::string q =
            "select t from Taxon t where t.year >= " + std::to_string(lo) +
            " and t.year < " + std::to_string(lo + rng() % 16);
        if (sorted_rows(indexed.Execute(q, snap)) !=
            sorted_rows(scan.Execute(q, snap))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(mismatches.load(), 0u);
  // Every indexed execution took the index, the old pin's included.
  EXPECT_GE(lookups->value() - lookups_before,
            static_cast<std::uint64_t>(2 * kQueries));
  const std::string q = "select t from Taxon t where t.year >= 1760";
  EXPECT_NE(indexed.Explain(q, *before).value().find("index range"),
            std::string::npos);
  EXPECT_EQ(sorted_rows(indexed.Execute(q, *before)),
            sorted_rows(scan.Execute(q, *before)));
}

// Readers take the indexed class from their own snapshot, never from the
// working store: range queries on pinned snapshots run while a writer
// defines classes (replacing the working store's schema tables), and
// each answers as a scan of its snapshot, through the index.
TEST_F(IndexFixture, RangeReadsOnPinnedSnapshotsWhileAWriterDefinesClasses) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  for (int i = 0; i < 32; ++i) {
    NewTaxon("t" + std::to_string(i), 1750 + i);
  }
  pool::QueryEngine indexed(idx.get());
  pool::QueryEngine scan;
  (void)db.AcquireSnapshot();  // engage before the threads start
  obs::Counter* lookups =
      obs::Registry().GetCounter("pool_index_lookups_total");
  const std::uint64_t lookups_before = lookups->value();

  constexpr int kClasses = 100;
  std::atomic<bool> done{false};
  std::atomic<int> defined{0};
  std::thread writer([&] {
    for (int i = 0; i < kClasses; ++i) {
      Database::WriteGuard guard(db);
      const std::vector<std::string> supers =
          i % 2 == 0 ? std::vector<std::string>{"Taxon"}
                     : std::vector<std::string>{};
      if (db.DefineClass("Extra" + std::to_string(i), supers).ok()) {
        defined.fetch_add(1);
      }
    }
    done.store(true, std::memory_order_release);
  });

  auto names = [](const Result<pool::ResultSet>& r) {
    if (!r.ok()) return std::vector<std::string>{r.status().ToString()};
    std::vector<std::string> out;
    for (const auto& row : r.value().rows) out.push_back(row[0].ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  std::mt19937 rng(5);
  int queries = 0;
  int mismatches = 0;
  bool last_round = false;
  while (!last_round) {
    last_round = done.load(std::memory_order_acquire);
    SnapshotHandle snap = db.AcquireSnapshot();
    const unsigned lo = 1750 + rng() % 32;
    const std::string q = "select t.name from Taxon t where t.year > " +
                          std::to_string(lo) + " and t.year <= " +
                          std::to_string(lo + rng() % 8);
    if (names(indexed.Execute(q, *snap)) != names(scan.Execute(q, *snap))) {
      ++mismatches;
    }
    ++queries;
  }
  writer.join();

  EXPECT_EQ(defined.load(), kClasses);
  EXPECT_EQ(mismatches, 0);
  // Class definitions leave the index current for every snapshot.
  EXPECT_GE(lookups->value() - lookups_before,
            static_cast<std::uint64_t>(queries));
}

// Raw restores publish no events; the store indexes what they place
// whenever the index was created. Both the primitive and the snapshot
// record path (`storage::ApplyRecord`, what `LoadSnapshot` and journal
// replay apply) are covered.
TEST_F(IndexFixture, IndexCreatedBeforeARawRestoreCoversTheRestoredObjects) {
  Database source;
  AttributeDef year;
  year.name = "year";
  year.type = ValueType::kInt;
  ASSERT_TRUE(source.DefineClass("Taxon", {}, {year}).ok());
  std::vector<Oid> saved;
  for (int i = 0; i < 6; ++i) {
    saved.push_back(
        source.CreateObject("Taxon", {{"year", Value::Int(i)}}).value());
  }
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  // Oids 1..6 by the primitive, the same records again under fresh oids
  // through the snapshot record path.
  for (Oid oid : saved) {
    ASSERT_TRUE(db.RestoreObjectRaw(oid, "Taxon",
                                    {{"year", source.GetAttribute(oid, "year")
                                                  .value()}})
                    .ok());
  }
  for (Oid oid : saved) {
    std::string record = storage::ObjectRecord(source.live_store(), oid);
    const std::string prefix = "OBJ " + std::to_string(oid) + " ";
    ASSERT_EQ(record.rfind(prefix, 0), 0u) << record;
    record.replace(0, prefix.size(),
                   "OBJ " + std::to_string(oid + 100) + " ");
    bool end = false;
    ASSERT_TRUE(storage::ApplyRecord(&db, record, &end).ok()) << record;
  }
  pool::QueryEngine indexed(idx.get());
  pool::QueryEngine scan;
  const std::string q = "select t.year from Taxon t where t.year >= 0 and "
                        "t.year <= 5";
  auto rows = [](const Result<pool::ResultSet>& r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().rows.size() : 0u;
  };
  SnapshotHandle snap = db.AcquireSnapshot();
  EXPECT_NE(indexed.Explain(q, *snap).value().find("index range"),
            std::string::npos);
  EXPECT_EQ(rows(indexed.Execute(q, *snap)), 12u);
  EXPECT_EQ(rows(scan.Execute(q, *snap)), 12u);
  EXPECT_EQ(idx->total_entries(*snap), 12u);
}

// A snapshot reads the indexes it was published with: one created after
// the pin is invisible to it, and it answers by a scan.
TEST_F(IndexFixture, IndexCreatedAfterAPinIsInvisibleToThatSnapshot) {
  for (int i = 0; i < 8; ++i) NewTaxon("t" + std::to_string(i), 1750 + i);
  SnapshotHandle pinned = db.AcquireSnapshot();
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  SnapshotHandle fresh = db.AcquireSnapshot();
  EXPECT_FALSE(idx->HasIndex(*pinned, taxon, "year"));
  EXPECT_TRUE(idx->HasOrderedIndex(*fresh, taxon, "year"));
  EXPECT_TRUE(idx->IndexedAttributes(*pinned, "Taxon").empty());
  EXPECT_EQ(idx->IndexedAttributes(*fresh, "Taxon"),
            std::vector<std::string>{"year"});
  EXPECT_EQ(idx->RangeLookup(*pinned, taxon, "year", {}, {}).status().code(),
            Status::Code::kNotFound);

  pool::QueryEngine indexed(idx.get());
  pool::QueryEngine scan;
  const std::string q = "select t.name from Taxon t where t.year < 1754";
  EXPECT_EQ(indexed.Explain(q, *pinned).value(),
            "t: extent scan of class Taxon\n");
  EXPECT_NE(indexed.Explain(q, *fresh).value().find("index range"),
            std::string::npos);
  EXPECT_EQ(indexed.Execute(q, *pinned).value().rows.size(), 4u);
  EXPECT_EQ(indexed.Execute(q, *fresh).value().rows.size(), 4u);
  EXPECT_EQ(scan.Execute(q, *pinned).value().rows.size(), 4u);
}

// A drop after the pin leaves the pinned snapshot its index: it is still
// planned and served through it, while fresh snapshots scan.
TEST_F(IndexFixture, DropIndexAfterAPinLeavesThatSnapshotItsIndex) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  for (int i = 0; i < 8; ++i) NewTaxon("t" + std::to_string(i), 1750 + i);
  SnapshotHandle pinned = db.AcquireSnapshot();
  ASSERT_TRUE(idx->DropIndex("Taxon", "year").ok());
  SnapshotHandle fresh = db.AcquireSnapshot();
  EXPECT_TRUE(idx->HasOrderedIndex(*pinned, taxon, "year"));
  EXPECT_FALSE(idx->HasIndex(*fresh, taxon, "year"));
  EXPECT_EQ(idx->total_entries(*pinned), 8u);
  EXPECT_EQ(idx->total_entries(*fresh), 0u);

  pool::QueryEngine indexed(idx.get());
  const std::string q = "select t.name from Taxon t where t.year >= 1754";
  obs::Counter* lookups =
      obs::Registry().GetCounter("pool_index_lookups_total");
  const std::uint64_t lookups_before = lookups->value();
  auto result = indexed.Execute(q, *pinned);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows.size(), 4u);
  EXPECT_EQ(lookups->value(), lookups_before + 1);
  EXPECT_NE(indexed.Explain(q, *pinned).value().find("index range"),
            std::string::npos);
  EXPECT_EQ(indexed.Explain(q, *fresh).value(),
            "t: extent scan of class Taxon\n");
  EXPECT_EQ(indexed.Execute(q, *fresh).value().rows.size(), 4u);
}

// Readers on pinned snapshots while a writer creates and drops the index
// and moves indexed values: each snapshot is planned by the indexes it
// holds — an index range exactly when it holds the index — and answers as
// a scan of itself.
TEST_F(IndexFixture, PinnedReadersWhileAWriterCreatesAndDropsIndexes) {
  std::vector<Oid> taxa;
  for (int i = 0; i < 48; ++i) {
    taxa.push_back(NewTaxon("t" + std::to_string(i), 1750 + i));
  }
  pool::QueryEngine indexed(idx.get());
  pool::QueryEngine scan;
  (void)db.AcquireSnapshot();  // engage before the threads start

  std::atomic<bool> stop{false};
  std::atomic<int> writes{0};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    std::mt19937 rng(3);
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      Database::WriteGuard guard(db);
      Status st;
      switch (i % 4) {
        case 0:
          st = idx->CreateIndex("Taxon", "year", /*ordered=*/true);
          break;
        case 2:
          st = idx->DropIndex("Taxon", "year");
          break;
        default:
          st = db.SetAttribute(taxa[rng() % taxa.size()], "year",
                               Value::Int(1750 + rng() % 48));
      }
      if (!st.ok()) failures.fetch_add(1);
      writes.fetch_add(1, std::memory_order_release);
    }
  });
  while (writes.load(std::memory_order_acquire) < 4) std::this_thread::yield();

  auto sorted_rows = [](const Result<pool::ResultSet>& r) {
    std::vector<std::string> out;
    if (!r.ok()) return std::vector<std::string>{r.status().ToString()};
    for (const auto& row : r.value().rows) out.push_back(row[0].ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(r + 21);
      for (int i = 0; i < 150; ++i) {
        SnapshotHandle snap = db.AcquireSnapshot();
        const unsigned lo = 1750 + rng() % 48;
        const std::string q =
            "select t from Taxon t where t.year > " + std::to_string(lo) +
            " and t.year <= " + std::to_string(lo + rng() % 12);
        const bool has = idx->HasOrderedIndex(*snap, taxon, "year");
        auto plan = indexed.Explain(q, *snap);
        if (!plan.ok() || (plan.value().find("index range") !=
                           std::string::npos) != has ||
            sorted_rows(indexed.Execute(q, *snap)) !=
                sorted_rows(scan.Execute(q, *snap))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace prometheus
