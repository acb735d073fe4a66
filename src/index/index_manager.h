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
/// database guard held, so they never touch `db`), maintenance and
/// create/drop take it exclusive (they run on the writer thread, the former
/// via the event bus).
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

  // The read side below names its class by the `ClassDef` of the caller's
  // own store (`DbSnapshot::FindClass`): definitions are shared by every
  // snapshot, so readers never resolve a name against the working store.

  /// True when `cls.attr` is indexed.
  bool HasIndex(const ClassDef* cls, const std::string& attr) const;

  /// True when `cls.attr` has an ordered (range-capable) index.
  bool HasOrderedIndex(const ClassDef* cls, const std::string& attr) const;

  /// Exact-match lookup. Returns kNotFound when no such index exists;
  /// kUnavailable when the index has been mutated past `as_of` (the
  /// caller's snapshot epoch) — fall back to an extent scan. An ordered
  /// index answers by `OrderedKey` equality, so the result is a superset
  /// of the `Value::Equals` matches (all nulls, bools and refs share a key).
  Result<std::vector<Oid>> Lookup(
      const ClassDef* cls, const std::string& attr, const Value& value,
      std::uint64_t as_of = std::numeric_limits<std::uint64_t>::max()) const;

  /// One end of a range lookup: a null `value` is open; `strict` excludes
  /// the keys equal to `value`.
  struct RangeBound {
    Value value;
    bool strict = false;
  };

  /// Range lookup over an ordered index, exact: the oids whose indexed
  /// value `v` satisfies `lo < v` / `lo <= v` and `v < hi` / `v <= hi` as
  /// `Value::Compare` orders them — numbers by `CompareNumbers`, NaN
  /// last. A range is confined to the family of its bounds: a numeric
  /// range never returns a null or a string, even when one end is open,
  /// and bounds of two families (or an inverted range) select nothing.
  /// Both ends open select every entry. Returns kInvalidArgument for a
  /// bound that is neither a number nor a string; kFailedPrecondition on
  /// a hash index; kUnavailable when the index has been mutated past
  /// `as_of`.
  Result<std::vector<Oid>> RangeLookup(
      const ClassDef* cls, const std::string& attr, const RangeBound& lo,
      const RangeBound& hi,
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
  /// Ordering key for ordered indexes, in three families: numbers (ints
  /// and doubles together, in `CompareNumbers` order, so NaN is the
  /// largest number), then strings, then every other value (nulls, bools,
  /// refs, lists) as one key. Only numbers and strings are range-indexable.
  struct OrderedKey {
    enum Family : std::uint8_t { kNumber, kString, kOther };
    Family family = kOther;
    double num = 0;
    std::string str;

    static OrderedKey FromValue(const Value& v);
    /// A key no key of `family` sorts before.
    static OrderedKey First(Family family);
    bool operator<(const OrderedKey& o) const {
      if (family != o.family) return family < o.family;
      if (family == kNumber) return CompareNumbers(num, o.num) < 0;
      return family == kString && str < o.str;
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
  /// Caller must hold mu_ (shared suffices).
  const Index* FindIndex(const ClassDef* cls, const std::string& attr) const;

  Database* db_;
  ListenerId listener_ = 0;
  /// Shared for lookups (snapshot readers, no db guard held), exclusive
  /// for create/drop and event-driven maintenance (writer thread).
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Index>> indexes_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_INDEX_INDEX_MANAGER_H_
