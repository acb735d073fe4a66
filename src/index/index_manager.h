#ifndef PROMETHEUS_INDEX_INDEX_MANAGER_H_
#define PROMETHEUS_INDEX_INDEX_MANAGER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/database.h"

namespace prometheus {

/// The index layer (thesis 6.1.4): secondary attribute indexes over class
/// extents, which the query layer (6.1.5.2) consults to replace extent
/// scans by lookups. Two flavours:
///  - hash indexes: exact-match lookup, any value type;
///  - ordered indexes: additionally range lookup, for int/double/string.
///
/// The manager is the owner handle of its indexes; their contents live in
/// the database's store (`AttributeIndex`), maintained by the same code
/// that places records, so a published or pinned snapshot reads exactly
/// its own indexes, rollback restores them with the records, and raw
/// restores and snapshot loads cover them whenever the index was created.
/// Every read below names the store it reads; it takes no lock.
class IndexManager {
 public:
  /// `db` must outlive the manager.
  explicit IndexManager(Database* db) : db_(db) {}
  /// Drops the manager's indexes: a mutation, so writer-only.
  ~IndexManager() { db_->DropIndexes(this); }

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Creates an index on `class_name.attr` (covering subclasses) and
  /// backfills it from the current extent. `ordered` selects the range-
  /// capable flavour. A mutation of the database (`Database::CreateIndex`).
  Status CreateIndex(const std::string& class_name, const std::string& attr,
                     bool ordered = false) {
    return db_->CreateIndex(this, class_name, attr, ordered);
  }

  /// Drops an index. Unknown indexes report kNotFound.
  Status DropIndex(const std::string& class_name, const std::string& attr) {
    return db_->DropIndex(this, class_name, attr);
  }

  // The read side below names its class by the `ClassDef` of the store it
  // reads (`DbSnapshot::FindClass`).

  /// True when `cls.attr` is indexed in `view`.
  bool HasIndex(const DbSnapshot& view, const ClassDef* cls,
                const std::string& attr) const {
    return view.FindIndex(this, cls, attr) != nullptr;
  }

  /// True when `cls.attr` has an ordered (range-capable) index in `view`.
  bool HasOrderedIndex(const DbSnapshot& view, const ClassDef* cls,
                       const std::string& attr) const {
    const AttributeIndex* ix = view.FindIndex(this, cls, attr);
    return ix != nullptr && ix->ordered();
  }

  /// Exact-match lookup (see `AttributeIndex::Lookup`). Returns kNotFound
  /// when `view` has no such index.
  Result<std::vector<Oid>> Lookup(const DbSnapshot& view, const ClassDef* cls,
                                  const std::string& attr,
                                  const Value& value) const;

  /// Range lookup over an ordered index (see `AttributeIndex::RangeLookup`).
  /// Returns kNotFound when `view` has no such index.
  Result<std::vector<Oid>> RangeLookup(
      const DbSnapshot& view, const ClassDef* cls, const std::string& attr,
      const AttributeIndex::RangeBound& lo,
      const AttributeIndex::RangeBound& hi) const;

  /// Number of entries across the manager's indexes in `view`
  /// (diagnostics).
  std::size_t total_entries(const DbSnapshot& view) const;

  /// Attributes indexed for `class_name` in `view` (diagnostics; feeds the
  /// `sys.storage` index-coverage column). The class's own indexes only —
  /// indexes on superclasses cover this extent too but are reported on
  /// their defining class.
  std::vector<std::string> IndexedAttributes(
      const DbSnapshot& view, const std::string& class_name) const;

 private:
  Database* db_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_INDEX_INDEX_MANAGER_H_
