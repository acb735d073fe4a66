#ifndef PROMETHEUS_CORE_ATTRIBUTE_INDEX_H_
#define PROMETHEUS_CORE_ATTRIBUTE_INDEX_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/oid.h"
#include "common/result.h"
#include "common/value.h"
#include "core/schema.h"

namespace prometheus {

/// Ordering key for ordered indexes, in three families: numbers (ints and
/// doubles together, in `CompareNumbers` order, so NaN is the largest
/// number), then strings, then every other value (nulls, bools, refs,
/// lists) as one key. Only numbers and strings are range-indexable.
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

/// One secondary index over `cls.attr` (thesis 6.1.4), covering the deep
/// extent of `cls`: every instance is entered under its own value of
/// `attr` (null when the record lacks it). Two flavours:
///  - hash: exact-match lookup, any value type;
///  - ordered: additionally range lookup, for int/double/string.
///
/// A value type of the store: the writer edits it through
/// `mvcc::Writable`, so a published snapshot reads its own immutable copy.
/// `owner` is an opaque token naming the handle that created the index
/// (`IndexManager`); two owners may index the same attribute.
class AttributeIndex {
 public:
  /// One end of a range lookup: a null `value` is open; `strict` excludes
  /// the keys equal to `value`.
  struct RangeBound {
    Value value;
    bool strict = false;
  };

  AttributeIndex(const void* owner, const ClassDef* cls, std::string attr,
                 bool ordered)
      : owner_(owner), cls_(cls), attr_(std::move(attr)), ordered_(ordered) {}

  const void* owner() const { return owner_; }
  const ClassDef* cls() const { return cls_; }
  const std::string& attr() const { return attr_; }
  bool ordered() const { return ordered_; }
  std::size_t size() const {
    return ordered_ ? tree_.size() : hash_.size();
  }

  void Insert(Oid oid, const Value& value);
  /// Removes `oid`'s entry under `value` (the value it was inserted with).
  void Remove(Oid oid, const Value& value);

  /// Exact-match lookup. An ordered index answers by `OrderedKey`
  /// equality, so the result is a superset of the `Value::Equals` matches
  /// (all nulls, bools and refs share a key).
  std::vector<Oid> Lookup(const Value& value) const;

  /// Range lookup over an ordered index, exact: the oids whose indexed
  /// value `v` satisfies `lo < v` / `lo <= v` and `v < hi` / `v <= hi` as
  /// `Value::Compare` orders them — numbers by `CompareNumbers`, NaN
  /// last. A range is confined to the family of its bounds: a numeric
  /// range never returns a null or a string, even when one end is open,
  /// and bounds of two families (or an inverted range) select nothing.
  /// Both ends open select every entry. Returns kInvalidArgument for a
  /// bound that is neither a number nor a string; kFailedPrecondition on
  /// a hash index.
  Result<std::vector<Oid>> RangeLookup(const RangeBound& lo,
                                       const RangeBound& hi) const;

 private:
  const void* owner_;
  const ClassDef* cls_;
  std::string attr_;
  bool ordered_;
  std::unordered_multimap<std::string, Oid> hash_;
  std::multimap<OrderedKey, Oid> tree_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_ATTRIBUTE_INDEX_H_
