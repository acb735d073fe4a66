#include "core/attribute_index.h"

#include <limits>

namespace prometheus {

OrderedKey OrderedKey::FromValue(const Value& v) {
  OrderedKey key;
  switch (v.type()) {
    case ValueType::kInt:
    case ValueType::kDouble:
      key.family = kNumber;
      key.num = v.ToNumeric().value();
      break;
    case ValueType::kString:
      key.family = kString;
      key.str = v.AsString();
      break;
    default:
      break;
  }
  return key;
}

OrderedKey OrderedKey::First(Family family) {
  OrderedKey key;
  key.family = family;
  key.num = -std::numeric_limits<double>::infinity();
  return key;
}

void AttributeIndex::Insert(Oid oid, const Value& value) {
  if (ordered_) {
    tree_.emplace(OrderedKey::FromValue(value), oid);
  } else {
    hash_.emplace(value.IndexKey(), oid);
  }
}

void AttributeIndex::Remove(Oid oid, const Value& value) {
  auto erase_from = [oid](auto& map, const auto& key) {
    auto [lo, hi] = map.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == oid) {
        map.erase(it);
        return;
      }
    }
  };
  if (ordered_) {
    erase_from(tree_, OrderedKey::FromValue(value));
  } else {
    erase_from(hash_, value.IndexKey());
  }
}

std::vector<Oid> AttributeIndex::Lookup(const Value& value) const {
  std::vector<Oid> out;
  auto collect = [&out](const auto& range) {
    for (auto it = range.first; it != range.second; ++it) {
      out.push_back(it->second);
    }
  };
  if (ordered_) {
    collect(tree_.equal_range(OrderedKey::FromValue(value)));
  } else {
    collect(hash_.equal_range(value.IndexKey()));
  }
  return out;
}

Result<std::vector<Oid>> AttributeIndex::RangeLookup(
    const RangeBound& lo, const RangeBound& hi) const {
  const OrderedKey lo_key = OrderedKey::FromValue(lo.value);
  const OrderedKey hi_key = OrderedKey::FromValue(hi.value);
  const bool lo_open = lo.value.is_null();
  const bool hi_open = hi.value.is_null();
  auto name = [this] { return cls_->name() + "." + attr_; };
  if ((!lo_open && lo_key.family == OrderedKey::kOther) ||
      (!hi_open && hi_key.family == OrderedKey::kOther)) {
    return Status::InvalidArgument("range bounds on " + name() +
                                   " must be numbers or strings");
  }
  if (!ordered_) {
    return Status::FailedPrecondition("index on " + name() +
                                      " is a hash index; range lookups "
                                      "require an ordered index");
  }
  std::vector<Oid> out;
  if (lo_open && hi_open) {
    for (const auto& [key, oid] : tree_) out.push_back(oid);
    return out;
  }
  // Bounds of two families, or an inverted or empty range, select nothing;
  // walking one would run its begin past its end.
  if (!lo_open && !hi_open &&
      (lo_key.family != hi_key.family || hi_key < lo_key ||
       (!(lo_key < hi_key) && (lo.strict || hi.strict)))) {
    return out;
  }
  // An open end stops at the edge of the bounded end's family.
  const OrderedKey::Family family = lo_open ? hi_key.family : lo_key.family;
  auto begin = lo_open    ? tree_.lower_bound(OrderedKey::First(family))
               : lo.strict ? tree_.upper_bound(lo_key)
                           : tree_.lower_bound(lo_key);
  auto end = !hi_open ? (hi.strict ? tree_.lower_bound(hi_key)
                                   : tree_.upper_bound(hi_key))
                      : tree_.lower_bound(OrderedKey::First(
                            static_cast<OrderedKey::Family>(family + 1)));
  for (auto it = begin; it != end; ++it) out.push_back(it->second);
  return out;
}

}  // namespace prometheus
