#include "index/index_manager.h"

#include "obs/metrics.h"

namespace prometheus {

namespace {

/// Process-wide index counters: lookups that found an index vs. requests
/// for a class/attribute pair with no index.
struct IndexMetrics {
  obs::Counter* lookup_hits;
  obs::Counter* lookup_misses;

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
      return im;
    }();
    return m;
  }
};

/// `owner`'s index on `cls.attr` in `view`, or kNotFound (counted as a
/// miss).
Result<const AttributeIndex*> Find(const DbSnapshot& view, const void* owner,
                                   const ClassDef* cls,
                                   const std::string& attr) {
  const AttributeIndex* ix = view.FindIndex(owner, cls, attr);
  if (ix == nullptr) {
    IndexMetrics::Get().lookup_misses->Increment();
    return Status::NotFound(
        "no index on " + (cls != nullptr ? cls->name() : std::string("?")) +
        "." + attr);
  }
  return ix;
}

}  // namespace

Result<std::vector<Oid>> IndexManager::Lookup(const DbSnapshot& view,
                                              const ClassDef* cls,
                                              const std::string& attr,
                                              const Value& value) const {
  PROMETHEUS_ASSIGN_OR_RETURN(const AttributeIndex* ix,
                              Find(view, this, cls, attr));
  IndexMetrics::Get().lookup_hits->Increment();
  return ix->Lookup(value);
}

Result<std::vector<Oid>> IndexManager::RangeLookup(
    const DbSnapshot& view, const ClassDef* cls, const std::string& attr,
    const AttributeIndex::RangeBound& lo,
    const AttributeIndex::RangeBound& hi) const {
  PROMETHEUS_ASSIGN_OR_RETURN(const AttributeIndex* ix,
                              Find(view, this, cls, attr));
  Result<std::vector<Oid>> out = ix->RangeLookup(lo, hi);
  if (out.ok()) IndexMetrics::Get().lookup_hits->Increment();
  return out;
}

std::size_t IndexManager::total_entries(const DbSnapshot& view) const {
  std::size_t n = 0;
  for (const auto& ix : view.indexes()) {
    if (ix->owner() == this) n += ix->size();
  }
  return n;
}

std::vector<std::string> IndexManager::IndexedAttributes(
    const DbSnapshot& view, const std::string& class_name) const {
  std::vector<std::string> out;
  for (const auto& ix : view.indexes()) {
    if (ix->owner() == this && ix->cls()->name() == class_name) {
      out.push_back(ix->attr());
    }
  }
  return out;
}

}  // namespace prometheus
