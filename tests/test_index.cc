#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "index/index_manager.h"
#include "obs/metrics.h"
#include "query/query_engine.h"

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
    idx = std::make_unique<IndexManager>(&db);
  }

  Oid NewTaxon(const std::string& name, std::int64_t year,
               const std::string& cls = "Taxon") {
    return db.CreateObject(cls, {{"name", Value::String(name)},
                                 {"year", Value::Int(year)}})
        .value();
  }

  Database db;
  std::unique_ptr<IndexManager> idx;
};

TEST_F(IndexFixture, BackfillsExistingObjects) {
  Oid a = NewTaxon("Apium", 1753);
  NewTaxon("Helio", 1824);
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  auto r = idx->Lookup("Taxon", "name", Value::String("Apium"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), std::vector<Oid>{a});
}

TEST_F(IndexFixture, TracksCreateUpdateDelete) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  Oid a = NewTaxon("Apium", 1753);
  EXPECT_EQ(idx->Lookup("Taxon", "name", Value::String("Apium")).value(),
            std::vector<Oid>{a});
  ASSERT_TRUE(db.SetAttribute(a, "name", Value::String("Helio")).ok());
  EXPECT_TRUE(
      idx->Lookup("Taxon", "name", Value::String("Apium")).value().empty());
  EXPECT_EQ(idx->Lookup("Taxon", "name", Value::String("Helio")).value(),
            std::vector<Oid>{a});
  ASSERT_TRUE(db.DeleteObject(a).ok());
  EXPECT_TRUE(
      idx->Lookup("Taxon", "name", Value::String("Helio")).value().empty());
  EXPECT_EQ(idx->total_entries(), 0u);
}

TEST_F(IndexFixture, CoversSubclasses) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  Oid g = NewTaxon("Apium", 1753, "Genus");
  EXPECT_EQ(idx->Lookup("Taxon", "name", Value::String("Apium")).value(),
            std::vector<Oid>{g});
}

TEST_F(IndexFixture, OrderedRangeLookup) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  Oid a = NewTaxon("a", 1753);
  Oid b = NewTaxon("b", 1800);
  Oid c = NewTaxon("c", 1824);
  auto r = idx->RangeLookup("Taxon", "year", Value::Int(1760),
                            Value::Int(1824));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_TRUE(Contains(r.value(), b));
  EXPECT_TRUE(Contains(r.value(), c));
  // Open bounds.
  auto all = idx->RangeLookup("Taxon", "year", Value::Null(), Value::Null());
  EXPECT_EQ(all.value().size(), 3u);
  auto upto = idx->RangeLookup("Taxon", "year", Value::Null(),
                               Value::Int(1753));
  EXPECT_EQ(upto.value(), std::vector<Oid>{a});
}

TEST_F(IndexFixture, InvertedRangeIsEmpty) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  NewTaxon("a", 1753);
  NewTaxon("b", 1800);  // lies between the inverted bounds
  NewTaxon("c", 1824);
  auto r = idx->RangeLookup("Taxon", "year", Value::Int(1824),
                            Value::Int(1753));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  auto strings = idx->RangeLookup("Taxon", "year", Value::String("z"),
                                  Value::Int(1800));
  ASSERT_TRUE(strings.ok());
  EXPECT_TRUE(strings.value().empty());
}

TEST_F(IndexFixture, RangeOnHashIndexRejected) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year").ok());
  EXPECT_FALSE(idx->HasOrderedIndex("Taxon", "year"));
  obs::Counter* hits = obs::Registry().GetCounter("index_lookup_hits_total");
  const std::uint64_t hits_before = hits->value();
  EXPECT_EQ(idx->RangeLookup("Taxon", "year", Value::Int(0), Value::Int(9999))
                .status()
                .code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(hits->value(), hits_before);
}

TEST_F(IndexFixture, ErrorsOnUnknownTargets) {
  EXPECT_EQ(idx->CreateIndex("Nope", "x").code(), Status::Code::kNotFound);
  EXPECT_EQ(idx->CreateIndex("Taxon", "nope").code(),
            Status::Code::kNotFound);
  EXPECT_EQ(idx->Lookup("Taxon", "name", Value::String("x")).status().code(),
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
  // Rollback published compensating events; the index reflects pre-txn state.
  EXPECT_EQ(idx->Lookup("Taxon", "name", Value::String("Apium")).value(),
            std::vector<Oid>{a});
  EXPECT_TRUE(
      idx->Lookup("Taxon", "name", Value::String("Helio")).value().empty());
  EXPECT_TRUE(
      idx->Lookup("Taxon", "name", Value::String("Renamed")).value().empty());
  (void)b;
}

TEST_F(IndexFixture, DuplicateKeysReturnAllMatches) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  Oid a = NewTaxon("a", 1753);
  Oid b = NewTaxon("b", 1753);
  auto r = idx->Lookup("Taxon", "year", Value::Int(1753));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_TRUE(Contains(r.value(), a));
  EXPECT_TRUE(Contains(r.value(), b));
}

TEST_F(IndexFixture, NumericKeysUnifyIntAndDouble) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year").ok());
  Oid a = NewTaxon("a", 1753);
  EXPECT_EQ(idx->Lookup("Taxon", "year", Value::Double(1753.0)).value(),
            std::vector<Oid>{a});
}

// Range queries read through pinned snapshots while a writer moves the
// indexed attribute. An index that ran ahead of a snapshot must send the
// query to a scan of that snapshot; either way the answer is the scan's.
TEST_F(IndexFixture, ConcurrentRangeReadsMatchAScanOfTheirSnapshot) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  std::vector<Oid> taxa;
  for (int i = 0; i < 64; ++i) {
    taxa.push_back(NewTaxon("t" + std::to_string(i), 1750 + i));
  }
  pool::QueryEngine indexed(&db, idx.get());
  pool::QueryEngine scan(&db);
  // Pinned before any write: every later write runs the index past it.
  SnapshotHandle before = db.AcquireSnapshot();
  obs::Counter* fallbacks =
      obs::Registry().GetCounter("pool_index_fallbacks_total");
  const std::uint64_t fallbacks_before = fallbacks->value();

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
      for (int i = 0; i < 150; ++i) {
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
  EXPECT_GT(fallbacks->value(), fallbacks_before);
}

}  // namespace
}  // namespace prometheus
