#include "index/index_manager.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"

namespace prometheus {

namespace {

/// Process-wide index counters: lookups that found an index vs. requests
/// for a class/attribute pair with no index, plus incremental maintenance
/// work triggered by mutation events.
struct IndexMetrics {
  obs::Counter* lookup_hits;
  obs::Counter* lookup_misses;
  obs::Counter* maintenance;

  static const IndexMetrics& Get() {
    static const IndexMetrics m = [] {
      obs::MetricsRegistry& reg = obs::Registry();
      IndexMetrics im;
      im.lookup_hits = reg.GetCounter(
          "index_lookup_hits_total",
          "Index lookups served by an existing index");
      im.lookup_misses = reg.GetCounter(
          "index_lookup_misses_total",
          "Index lookups for class/attribute pairs with no index");
      im.maintenance = reg.GetCounter(
          "index_maintenance_updates_total",
          "Index entries inserted/removed by mutation events");
      return im;
    }();
    return m;
  }
};

/// `Class.attr`, for messages.
std::string Describe(const ClassDef* cls, const std::string& attr) {
  return (cls != nullptr ? cls->name() : std::string("?")) + "." + attr;
}

}  // namespace

IndexManager::OrderedKey IndexManager::OrderedKey::FromValue(const Value& v) {
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

IndexManager::OrderedKey IndexManager::OrderedKey::First(Family family) {
  OrderedKey key;
  key.family = family;
  key.num = -std::numeric_limits<double>::infinity();
  return key;
}

IndexManager::IndexManager(Database* db) : db_(db) {
  listener_ = db_->bus().Subscribe(
      [this](const Event& e) {
        OnEvent(e);
        return Status::Ok();
      },
      /*priority=*/50);
}

IndexManager::~IndexManager() { db_->bus().Unsubscribe(listener_); }

Status IndexManager::CreateIndex(const std::string& class_name,
                                 const std::string& attr, bool ordered) {
  const ClassDef* cls = db_->FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("unknown class '" + class_name + "'");
  }
  if (cls->FindAttribute(attr) == nullptr) {
    return Status::NotFound("class '" + class_name + "' has no attribute '" +
                            attr + "'");
  }
  {
    std::shared_lock lock(mu_);
    if (FindIndex(cls, attr) != nullptr) {
      return Status::InvalidArgument("index on " + class_name + "." + attr +
                                     " already exists");
    }
  }
  auto index = std::make_unique<Index>();
  index->cls = cls;
  index->attr = attr;
  index->ordered = ordered;
  // Backfill from the deep extent. The new index only reflects the state
  // at the pending epoch; older snapshots must not consult it.
  index->dirty_epoch = db_->pending_epoch();
  for (Oid oid : db_->Extent(class_name)) {
    auto v = db_->GetAttribute(oid, attr);
    if (v.ok()) InsertEntry(index.get(), oid, v.value());
  }
  std::unique_lock lock(mu_);
  indexes_.push_back(std::move(index));
  return Status::Ok();
}

Status IndexManager::DropIndex(const std::string& class_name,
                               const std::string& attr) {
  const ClassDef* cls = db_->FindClass(class_name);
  std::unique_lock lock(mu_);
  auto it = std::find_if(indexes_.begin(), indexes_.end(),
                         [&](const std::unique_ptr<Index>& ix) {
                           return ix->cls == cls && ix->attr == attr;
                         });
  if (it == indexes_.end()) {
    return Status::NotFound("no index on " + class_name + "." + attr);
  }
  indexes_.erase(it);
  return Status::Ok();
}

bool IndexManager::HasIndex(const ClassDef* cls,
                            const std::string& attr) const {
  std::shared_lock lock(mu_);
  return FindIndex(cls, attr) != nullptr;
}

bool IndexManager::HasOrderedIndex(const ClassDef* cls,
                                   const std::string& attr) const {
  std::shared_lock lock(mu_);
  const Index* ix = FindIndex(cls, attr);
  return ix != nullptr && ix->ordered;
}

const IndexManager::Index* IndexManager::FindIndex(
    const ClassDef* cls, const std::string& attr) const {
  if (cls == nullptr) return nullptr;
  for (const auto& ix : indexes_) {
    if (ix->cls == cls && ix->attr == attr) return ix.get();
  }
  return nullptr;
}

Result<std::vector<Oid>> IndexManager::Lookup(const ClassDef* cls,
                                              const std::string& attr,
                                              const Value& value,
                                              std::uint64_t as_of) const {
  std::shared_lock lock(mu_);
  const Index* ix = FindIndex(cls, attr);
  if (ix == nullptr) {
    IndexMetrics::Get().lookup_misses->Increment();
    return Status::NotFound("no index on " + Describe(cls, attr));
  }
  if (ix->dirty_epoch > as_of) {
    return Status::Unavailable("index on " + Describe(cls, attr) +
                               " has run ahead of snapshot epoch");
  }
  IndexMetrics::Get().lookup_hits->Increment();
  std::vector<Oid> out;
  if (ix->ordered) {
    auto [lo, hi] = ix->tree.equal_range(OrderedKey::FromValue(value));
    for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  } else {
    auto [lo, hi] = ix->hash.equal_range(value.IndexKey());
    for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  }
  return out;
}

Result<std::vector<Oid>> IndexManager::RangeLookup(const ClassDef* cls,
                                                   const std::string& attr,
                                                   const RangeBound& lo,
                                                   const RangeBound& hi,
                                                   std::uint64_t as_of) const {
  const OrderedKey lo_key = OrderedKey::FromValue(lo.value);
  const OrderedKey hi_key = OrderedKey::FromValue(hi.value);
  const bool lo_open = lo.value.is_null();
  const bool hi_open = hi.value.is_null();
  if ((!lo_open && lo_key.family == OrderedKey::kOther) ||
      (!hi_open && hi_key.family == OrderedKey::kOther)) {
    return Status::InvalidArgument("range bounds on " + Describe(cls, attr) +
                                   " must be numbers or strings");
  }
  std::shared_lock lock(mu_);
  const Index* ix = FindIndex(cls, attr);
  if (ix == nullptr) {
    IndexMetrics::Get().lookup_misses->Increment();
    return Status::NotFound("no index on " + Describe(cls, attr));
  }
  if (ix->dirty_epoch > as_of) {
    return Status::Unavailable("index on " + Describe(cls, attr) +
                               " has run ahead of snapshot epoch");
  }
  if (!ix->ordered) {
    return Status::FailedPrecondition("index on " + Describe(cls, attr) +
                                      " is a hash index; range lookups "
                                      "require an ordered index");
  }
  IndexMetrics::Get().lookup_hits->Increment();
  std::vector<Oid> out;
  if (lo_open && hi_open) {
    for (const auto& [key, oid] : ix->tree) out.push_back(oid);
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
  auto begin = lo_open    ? ix->tree.lower_bound(OrderedKey::First(family))
               : lo.strict ? ix->tree.upper_bound(lo_key)
                           : ix->tree.lower_bound(lo_key);
  auto end = !hi_open ? (hi.strict ? ix->tree.lower_bound(hi_key)
                                   : ix->tree.upper_bound(hi_key))
                      : ix->tree.lower_bound(OrderedKey::First(
                            static_cast<OrderedKey::Family>(family + 1)));
  for (auto it = begin; it != end; ++it) out.push_back(it->second);
  return out;
}

std::size_t IndexManager::total_entries() const {
  std::shared_lock lock(mu_);
  std::size_t n = 0;
  for (const auto& ix : indexes_) {
    n += ix->ordered ? ix->tree.size() : ix->hash.size();
  }
  return n;
}

std::vector<std::string> IndexManager::IndexedAttributes(
    const std::string& class_name) const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  for (const auto& ix : indexes_) {
    if (ix->cls != nullptr && ix->cls->name() == class_name) {
      out.push_back(ix->attr);
    }
  }
  return out;
}

void IndexManager::InsertEntry(Index* index, Oid oid, const Value& value) {
  if (index->ordered) {
    index->tree.emplace(OrderedKey::FromValue(value), oid);
  } else {
    index->hash.emplace(value.IndexKey(), oid);
  }
  index->current[oid] = value;
}

void IndexManager::RemoveEntry(Index* index, Oid oid) {
  auto cur = index->current.find(oid);
  if (cur == index->current.end()) return;
  if (index->ordered) {
    auto [lo, hi] = index->tree.equal_range(OrderedKey::FromValue(cur->second));
    for (auto it = lo; it != hi; ++it) {
      if (it->second == oid) {
        index->tree.erase(it);
        break;
      }
    }
  } else {
    auto [lo, hi] = index->hash.equal_range(cur->second.IndexKey());
    for (auto it = lo; it != hi; ++it) {
      if (it->second == oid) {
        index->hash.erase(it);
        break;
      }
    }
  }
  index->current.erase(cur);
}

void IndexManager::OnEvent(const Event& event) {
  std::unique_lock lock(mu_);
  switch (event.kind) {
    case EventKind::kAfterCreateObject: {
      for (auto& ix : indexes_) {
        if (!db_->IsInstanceOf(event.subject, ix->cls->name())) continue;
        auto v = db_->GetAttribute(event.subject, ix->attr);
        if (v.ok()) {
          InsertEntry(ix.get(), event.subject, v.value());
          ix->dirty_epoch = db_->pending_epoch();
          IndexMetrics::Get().maintenance->Increment();
        }
      }
      break;
    }
    case EventKind::kAfterDeleteObject: {
      for (auto& ix : indexes_) {
        if (ix->current.count(event.subject) != 0) {
          ix->dirty_epoch = db_->pending_epoch();
          IndexMetrics::Get().maintenance->Increment();
        }
        RemoveEntry(ix.get(), event.subject);
      }
      break;
    }
    case EventKind::kAfterSetAttribute: {
      for (auto& ix : indexes_) {
        if (ix->attr != event.attribute) continue;
        if (!ix->current.count(event.subject)) continue;
        RemoveEntry(ix.get(), event.subject);
        InsertEntry(ix.get(), event.subject, event.new_value);
        ix->dirty_epoch = db_->pending_epoch();
        IndexMetrics::Get().maintenance->Increment();
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace prometheus
