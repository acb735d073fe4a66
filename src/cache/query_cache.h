#ifndef PROMETHEUS_CACHE_QUERY_CACHE_H_
#define PROMETHEUS_CACHE_QUERY_CACHE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/plan_cache.h"
#include "cache/result_cache.h"

namespace prometheus::cache {

/// A point-in-time snapshot of both cache tiers plus one canonical
/// field/value rendering. Every stats surface — the kCacheControl rows
/// `.cache` prints and the `sys.cache` catalog class — reads from this one
/// struct, so the surfaces can never drift.
struct QueryCacheStats {
  bool enabled = false;
  ResultCache::Stats result;
  PlanCache::Stats plan;

  /// The canonical (field, rendered value) rows, in display order:
  /// enabled, result_hits, result_misses, result_hit_rate, result_entries,
  /// result_bytes, result_evictions, result_invalidations, result_oversize,
  /// plan_hits, plan_misses, plan_entries, plan_invalidations,
  /// schema_generation.
  std::vector<std::pair<std::string, std::string>> Fields() const;
};

/// Configuration the server's Options embeds. The defaults keep both
/// tiers on with a modest footprint; set `enabled = false` to build a
/// server with no caching at all (benchmark baselines, tests that count
/// executions).
struct QueryCacheConfig {
  /// Master switch for both tiers at construction. The runtime toggle
  /// (`.cache off` / `.cache on`) flips the same per-tier switches later.
  bool enabled = true;
  /// Result tier: total byte budget, shard count, per-entry size cap.
  std::size_t result_max_bytes = 8u << 20;
  std::size_t result_shards = 8;
  std::size_t result_max_entry_bytes = 512u << 10;
  /// Plan tier: entry-count LRU capacity.
  std::size_t plan_max_entries = 512;
};

/// The two cache tiers as one subsystem — what a `Server` owns and what
/// `.cache` / `RequestKind::kCacheControl` administers.
///
/// - `plans()`: query text -> AST + access-path analysis, invalidated by
///   schema generation (wired to kAfterDefineClass/Template/Relationship
///   through `OnSchemaChange`).
/// - `results()`: query text -> materialized rows, validated against the
///   database epoch on every lookup (any committed write invalidates).
class QueryCache {
 public:
  explicit QueryCache(const QueryCacheConfig& config)
      : plans_(PlanCache::Config{config.plan_max_entries, config.enabled}),
        results_(ResultCache::Config{config.result_max_bytes,
                                     config.result_shards,
                                     config.result_max_entry_bytes,
                                     config.enabled}) {}

  PlanCache& plans() { return plans_; }
  ResultCache& results() { return results_; }

  /// Drops both tiers wholesale (promotion, rebootstrap, `.cache clear`).
  void Clear() {
    plans_.Clear();
    results_.Clear();
  }

  /// Runtime toggle for both tiers. Disabling stops lookups and inserts;
  /// entries stay resident until `Clear()` (re-enabling may serve them if
  /// still epoch-valid).
  void SetEnabled(bool on) {
    plans_.set_enabled(on);
    results_.set_enabled(on);
  }
  bool enabled() const { return results_.enabled(); }

  /// Event hook: schema DDL committed; every cached plan is stale.
  void OnSchemaChange() { plans_.OnSchemaChange(); }

  /// Point-in-time snapshot of both tiers (the one source every stats
  /// surface renders from).
  QueryCacheStats Stats() const {
    QueryCacheStats s;
    s.enabled = enabled();
    s.result = results_.stats();
    s.plan = plans_.stats();
    return s;
  }

 private:
  PlanCache plans_;
  ResultCache results_;
};

}  // namespace prometheus::cache

#endif  // PROMETHEUS_CACHE_QUERY_CACHE_H_
