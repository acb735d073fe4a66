#ifndef PROMETHEUS_CORE_SNAPSHOT_H_
#define PROMETHEUS_CORE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/oid.h"
#include "common/result.h"
#include "common/value.h"
#include "core/instance.h"
#include "core/oid_trie.h"
#include "core/read_view.h"
#include "core/schema.h"

namespace prometheus {

class Database;

namespace mvcc {
namespace internal {
// Version/snapshot accounting. Deliberately *not* behind the
// `obs::MetricsEnabled()` kill switch: tests assert GC behaviour
// (superseded versions actually freed) with metrics off, and two relaxed
// counters cost nothing measurable. The same numbers are mirrored into the
// `mvcc_*` gauges for /debug/contention and /metrics.
extern std::atomic<std::uint64_t> g_retained_versions;
extern std::atomic<std::uint64_t> g_live_snapshots;
}  // namespace internal

/// Object/link versions currently alive: every record of the working
/// store, plus the superseded versions kept alive only by a published or
/// pinned snapshot.
inline std::uint64_t RetainedVersions() {
  return internal::g_retained_versions.load(std::memory_order_relaxed);
}

/// Published snapshots currently alive (the current one + pinned ones).
inline std::uint64_t LiveSnapshots() {
  return internal::g_live_snapshots.load(std::memory_order_relaxed);
}

/// Wraps `record` as a counted immutable version. The custom deleter
/// decrements the retained-version count, so `RetainedVersions()` tracks
/// exactly the versions still reachable from the working store or some
/// snapshot — the number GC (snapshot release dropping the last
/// reference) must drive back down.
template <typename T>
std::shared_ptr<const T> MakeVersion(T record) {
  internal::g_retained_versions.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<const T>(new T(std::move(record)), [](const T* p) {
    internal::g_retained_versions.fetch_sub(1, std::memory_order_relaxed);
    delete p;
  });
}

/// Copy-on-write access for the single writer: `p` is edited in place when
/// the working store is its only owner, replaced by a private copy when a
/// published snapshot shares it, and created when null.
template <typename T>
T& Writable(std::shared_ptr<const T>& p) {
  if (p == nullptr) {
    p = std::make_shared<const T>();
  } else if (p.use_count() > 1) {
    p = std::make_shared<const T>(*p);
  }
  return const_cast<T&>(*p);
}
}  // namespace mvcc

/// Schema tables of one store: name→definition maps plus the store's own
/// children adjacency (`subclasses`/`subrels`). The copies matter: the
/// `ClassDef::subclasses_` / `RelationshipDef::subs_` vectors are appended
/// to by later DDL, so a snapshot's extent BFS must not read them.
/// Everything else on a definition (name, supers, attributes, semantics,
/// endpoints) is frozen once defined and safely shared.
///
/// The keep-alive vectors own the definitions, so record versions retained
/// by old snapshots keep valid `cls`/`def` pointers even across
/// `Database::Clear()` (follower rebootstrap).
struct SchemaTables {
  std::unordered_map<std::string, const ClassDef*> classes_by_name;
  std::unordered_map<std::string, const RelationshipDef*> rels_by_name;
  std::vector<const ClassDef*> classes_in_order;
  std::vector<const RelationshipDef*> rels_in_order;
  std::unordered_map<const ClassDef*, std::vector<const ClassDef*>>
      subclasses;
  std::unordered_map<const RelationshipDef*,
                     std::vector<const RelationshipDef*>>
      subrels;
  std::vector<std::shared_ptr<const ClassDef>> class_keep_alive;
  std::vector<std::shared_ptr<const RelationshipDef>> rel_keep_alive;
};

/// The one store of objects and first-class links, and the one type every
/// read goes through. `Database` owns one as its *working store* and edits
/// it through copy-on-write: `OidTrie::Mutable` for records and
/// `mvcc::Writable` for the extent, link-extent, context, synonym and
/// schema tables. The end of each write section publishes a copy of it —
/// O(#classes + #contexts), every record and table shared — as an
/// immutable snapshot stamped with the committed epoch.
///
/// Readers traverse a published snapshot with **no lock of any kind**:
/// the writer clones whatever a snapshot shares before changing it, so
/// nothing reachable from a snapshot is edited again. Acquired as a
/// `SnapshotHandle`; a snapshot answers exactly as the database did at
/// `epoch()`.
class DbSnapshot {
 public:
  DbSnapshot& operator=(const DbSnapshot&) = delete;

  /// Epoch this store observes: fixed for a snapshot, the database's
  /// moving epoch for the working store.
  std::uint64_t epoch() const {
    return live_epoch_ != nullptr
               ? live_epoch_->load(std::memory_order_acquire)
               : epoch_;
  }

  /// Largest index `dirty_epoch` this store may consume (see
  /// `IndexManager::Lookup`'s `as_of`). The working store accepts any
  /// index state (indexes track it by construction); a snapshot accepts
  /// only indexes untouched since its epoch.
  std::uint64_t index_epoch_ceiling() const {
    return live_epoch_ != nullptr ? std::numeric_limits<std::uint64_t>::max()
                                  : epoch_;
  }

  // ---------------------------------------------------------------- schema
  const ClassDef* FindClass(std::string_view name) const;
  const RelationshipDef* FindRelationship(std::string_view name) const;
  std::vector<const ClassDef*> classes() const {
    return schema_->classes_in_order;
  }
  std::vector<const RelationshipDef*> relationships() const {
    return schema_->rels_in_order;
  }
  /// Direct subclasses of `cls` as of this store.
  const std::vector<const ClassDef*>& SubclassesOf(const ClassDef* cls) const;

  // --------------------------------------------------------------- objects
  Result<Value> GetAttribute(Oid oid, const std::string& name) const;
  const Object* GetObject(Oid oid) const { return objects_.Find(oid); }
  bool IsInstanceOf(Oid oid, std::string_view class_name) const;
  std::vector<Oid> Extent(const std::string& class_name,
                          bool include_subclasses = true) const;
  std::size_t object_count() const { return live_objects_; }

  // ----------------------------------------------------------------- links
  Result<Value> GetLinkAttribute(Oid oid, const std::string& name) const;
  const Link* GetLink(Oid oid) const { return links_.Find(oid); }
  std::vector<Oid> LinkExtent(const std::string& rel_name,
                              bool include_subrelationships = true) const;
  const std::vector<Oid>& LinksInContext(Oid context) const;
  std::size_t link_count() const { return live_links_; }

  // ------------------------------------------------------------- traversal
  std::vector<Oid> IncidentLinks(Oid oid, Direction dir,
                                 const RelationshipDef* def = nullptr,
                                 Oid context = kNullOid) const;
  std::vector<Oid> Neighbors(Oid oid, const std::string& rel_name,
                             Direction dir = Direction::kOut,
                             Oid context = kNullOid) const;
  Result<std::vector<Oid>> Traverse(Oid start, const std::string& rel_name,
                                    std::uint32_t min_depth,
                                    std::uint32_t max_depth,
                                    Direction dir = Direction::kOut,
                                    Oid context = kNullOid) const;

  // -------------------------------------------------------------- synonyms
  bool AreSynonyms(Oid a, Oid b) const;
  Oid CanonicalOf(Oid oid) const;
  std::vector<Oid> SynonymSet(Oid oid) const;

 private:
  friend class Database;

  DbSnapshot();
  /// O(#classes + #contexts): shares every record, node and table.
  DbSnapshot(const DbSnapshot&) = default;
  DbSnapshot& operator=(DbSnapshot&&) = default;

  template <typename Key>
  using OidTables =
      std::unordered_map<Key, std::shared_ptr<const std::vector<Oid>>>;

  std::uint64_t epoch_ = 0;
  /// The owning database's epoch counter; set on the working store only.
  const std::atomic<std::uint64_t>* live_epoch_ = nullptr;

  OidTrie<Object> objects_;
  OidTrie<Link> links_;
  OidTables<const ClassDef*> extents_;  // absent key == empty
  OidTables<const RelationshipDef*> link_extents_;
  OidTables<Oid> context_index_;
  std::shared_ptr<const std::unordered_map<Oid, Oid>> synonym_parent_;
  std::shared_ptr<const SchemaTables> schema_;

  std::size_t live_objects_ = 0;
  std::size_t live_links_ = 0;
};

/// Move-only RAII pin of one snapshot. While alive, the snapshot (and every
/// version it reaches) is retained and the database's GC watermark
/// (`mvcc_oldest_snapshot_epoch`) cannot advance past its epoch.
/// Destruction unpins; versions whose last reference this was are freed on
/// the spot (shared_ptr reclamation — there is no separate GC thread).
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  SnapshotHandle(SnapshotHandle&& other) noexcept
      : snap_(std::move(other.snap_)), db_(other.db_) {
    other.db_ = nullptr;
  }
  SnapshotHandle& operator=(SnapshotHandle&& other) noexcept {
    if (this != &other) {
      Release();
      snap_ = std::move(other.snap_);
      db_ = other.db_;
      other.db_ = nullptr;
    }
    return *this;
  }
  ~SnapshotHandle() { Release(); }

  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  const DbSnapshot& operator*() const { return *snap_; }
  const DbSnapshot* operator->() const { return snap_.get(); }
  const DbSnapshot* get() const { return snap_.get(); }
  explicit operator bool() const { return snap_ != nullptr; }

  /// Shares ownership of the snapshot beyond the handle (e.g. a cache entry
  /// that outlives the request). The shared copy retains versions but does
  /// not hold the pin-registry entry — the watermark follows handles only.
  std::shared_ptr<const DbSnapshot> shared() const { return snap_; }

 private:
  friend class Database;
  SnapshotHandle(std::shared_ptr<const DbSnapshot> snap, Database* db)
      : snap_(std::move(snap)), db_(db) {}

  void Release();

  std::shared_ptr<const DbSnapshot> snap_;
  Database* db_ = nullptr;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_SNAPSHOT_H_
