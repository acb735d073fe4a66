#ifndef PROMETHEUS_INDEX_INDEX_MANAGER_H_
#define PROMETHEUS_INDEX_INDEX_MANAGER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/database.h"

namespace prometheus {

/// The index layer (thesis 6.1.4): secondary attribute indexes over class
/// extents, kept consistent through the event layer. The query layer
/// (6.1.5.2) consults these indexes to replace extent scans by lookups.
///
/// Two flavours:
///  - hash indexes: exact-match lookup, any value type;
///  - ordered indexes: additionally range lookup, for int/double/string.
///
/// Indexes follow transactions: rollback publishes compensating events,
/// which the manager applies like ordinary mutations.
///
/// Snapshot consistency: indexes are maintained against the live database,
/// not against MVCC snapshots. Each index carries a `dirty_epoch` — the
/// epoch its contents will be visible under (stamped from
/// `Database::pending_epoch()` at every mutation). A snapshot reader
/// passes its epoch as `as_of`; if the index has been touched past that
/// epoch the lookup reports kUnavailable and the caller falls back to an
/// extent scan over the snapshot. Structures are guarded by a shared
/// mutex: lookups take it shared (they run off snapshot threads with no
/// database guard held), maintenance takes it exclusive (it runs on the
/// writer thread via the event bus).
class IndexManager {
 public:
  /// Subscribes to `db`'s event bus. `db` must outlive the manager.
  explicit IndexManager(Database* db);
  ~IndexManager();

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Creates an index on `class_name.attr` (covering subclasses) and
  /// backfills it from the current extent. `ordered` selects the range-
  /// capable flavour.
  Status CreateIndex(const std::string& class_name, const std::string& attr,
                     bool ordered = false);

  /// Drops an index. Unknown indexes report kNotFound.
  Status DropIndex(const std::string& class_name, const std::string& attr);

  /// True when `class_name.attr` is indexed.
  bool HasIndex(const std::string& class_name, const std::string& attr) const;

  /// True when `class_name.attr` has an ordered (range-capable) index.
  bool HasOrderedIndex(const std::string& class_name,
                       const std::string& attr) const;

  /// Exact-match lookup. Returns kNotFound when no such index exists;
  /// kUnavailable when the index has been mutated past `as_of` (the
  /// caller's snapshot epoch) — fall back to an extent scan.
  Result<std::vector<Oid>> Lookup(
      const std::string& class_name, const std::string& attr,
      const Value& value,
      std::uint64_t as_of = std::numeric_limits<std::uint64_t>::max()) const;

  /// Range lookup over an ordered index: lo <= value <= hi; a null bound is
  /// open, and an inverted range (hi < lo) is empty. Returns
  /// kFailedPrecondition on a hash index; kUnavailable when the index has
  /// been mutated past `as_of`.
  Result<std::vector<Oid>> RangeLookup(
      const std::string& class_name, const std::string& attr, const Value& lo,
      const Value& hi,
      std::uint64_t as_of = std::numeric_limits<std::uint64_t>::max()) const;

  /// Number of entries across all indexes (diagnostics).
  std::size_t total_entries() const;

  /// Attributes indexed for `class_name` (diagnostics; feeds the
  /// `sys.storage` index-coverage column). The class's own indexes only —
  /// indexes on superclasses cover this extent too but are reported on
  /// their defining class.
  std::vector<std::string> IndexedAttributes(const std::string& class_name)
      const;

 private:
  /// Ordering key for ordered indexes: numerics sort before strings;
  /// other types are not range-indexable and use only hash indexes.
  struct OrderedKey {
    bool is_numeric = false;
    double num = 0;
    std::string str;

    static OrderedKey FromValue(const Value& v);
    bool operator<(const OrderedKey& o) const {
      if (is_numeric != o.is_numeric) return is_numeric;  // numerics first
      if (is_numeric) return num < o.num;
      return str < o.str;
    }
  };

  struct Index {
    const ClassDef* cls = nullptr;
    std::string attr;
    bool ordered = false;
    std::unordered_multimap<std::string, Oid> hash;
    std::multimap<OrderedKey, Oid> tree;
    /// Current indexed key per object, for removal on delete/update.
    std::unordered_map<Oid, Value> current;
    /// Epoch this index's contents become visible under: the database's
    /// pending epoch at the last mutation. A snapshot at epoch E may use
    /// the index only when dirty_epoch <= E.
    std::uint64_t dirty_epoch = 0;
  };

  void OnEvent(const Event& event);
  void InsertEntry(Index* index, Oid oid, const Value& value);
  void RemoveEntry(Index* index, Oid oid);
  const Index* FindIndex(const std::string& class_name,
                         const std::string& attr) const;

  Database* db_;
  ListenerId listener_ = 0;
  /// Shared for lookups (snapshot readers, no db guard held), exclusive
  /// for create/drop and event-driven maintenance (writer thread).
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Index>> indexes_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_INDEX_INDEX_MANAGER_H_
