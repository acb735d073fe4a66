#include "cache/result_cache.h"

#include <functional>
#include <utility>

#include "obs/metrics.h"

namespace prometheus::cache {

namespace {

/// obs mirrors of the result tier's counters (see PlanMetrics in
/// plan_cache.cc for the split between these and the internal atomics).
struct ResultMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* inserts;
  obs::Counter* evictions;
  obs::Counter* invalidations;
  obs::Gauge* entries;
  obs::Gauge* bytes;
  obs::Gauge* hit_rate;

  static const ResultMetrics& Get() {
    static const ResultMetrics m = [] {
      obs::MetricsRegistry& reg = obs::Registry();
      ResultMetrics rm;
      rm.hits = reg.GetCounter(
          "cache_result_hits_total",
          "Queries answered from the result cache (no guard, no execution)");
      rm.misses = reg.GetCounter("cache_result_misses_total",
                                 "Result-cache lookups that executed");
      rm.inserts = reg.GetCounter("cache_result_inserts_total",
                                  "Results materialized into the cache");
      rm.evictions = reg.GetCounter(
          "cache_result_evictions_total",
          "Cached results evicted by the LRU byte budget");
      rm.invalidations = reg.GetCounter(
          "cache_result_invalidations_total",
          "Cached results dropped stale (database epoch moved)");
      rm.entries =
          reg.GetGauge("cache_result_entries", "Results currently cached");
      rm.bytes = reg.GetGauge("cache_result_bytes",
                              "Approximate bytes held by the result cache");
      rm.hit_rate = reg.GetGauge(
          "cache_result_hit_rate_percent",
          "Result-cache hits as a percentage of lookups since start");
      return rm;
    }();
    return m;
  }
};

}  // namespace

ResultCache::ResultCache(const Config& config)
    : max_bytes_(config.max_bytes),
      per_shard_bytes_(config.max_bytes /
                       (config.shards == 0 ? 1 : config.shards)),
      max_entry_bytes_(config.max_entry_bytes),
      enabled_(config.enabled) {
  const std::size_t n = config.shards == 0 ? 1 : config.shards;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(std::string_view text) {
  return *shards_[KeyHash{}(text) % shards_.size()];
}

void ResultCache::RecordHitRate() {
  const std::uint64_t h = hits_.load(std::memory_order_relaxed);
  const std::uint64_t m = misses_.load(std::memory_order_relaxed);
  if (h + m == 0) return;
  ResultMetrics::Get().hit_rate->Set(
      static_cast<std::int64_t>((100 * h) / (h + m)));
}

std::shared_ptr<const pool::ResultSet> ResultCache::Lookup(
    std::string_view text, std::uint64_t epoch) {
  if (!enabled()) return nullptr;
  const ResultMetrics& metrics = ResultMetrics::Get();
  Shard& shard = ShardFor(text);
  std::shared_ptr<const pool::ResultSet> found;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(text);
    if (it != shard.entries.end()) {
      if (it->second.epoch == epoch) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
        found = it->second.rows;
      } else if (it->second.epoch < epoch) {
        // A write section completed since this result was built; the
        // lookup that discovers it pays the erase. (An entry newer than
        // `epoch` was stored after this caller read the epoch: a miss,
        // but the entry stays for the callers that read the new one.)
        const std::size_t stale_bytes = it->second.bytes;
        shard.bytes -= stale_bytes;
        shard.lru.erase(it->second.lru_it);
        shard.entries.erase(it);
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        metrics.invalidations->Increment();
        metrics.entries->Sub(1);
        metrics.bytes->Sub(static_cast<std::int64_t>(stale_bytes));
      }
    }
  }
  if (found != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.hits->Increment();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    metrics.misses->Increment();
  }
  RecordHitRate();
  return found;
}

void ResultCache::Insert(std::string_view text, std::uint64_t epoch,
                         std::shared_ptr<const pool::ResultSet> rows,
                         std::size_t bytes) {
  if (!enabled() || rows == nullptr || max_bytes_ == 0) return;
  if (bytes > max_entry_bytes_ || bytes > per_shard_bytes_) {
    oversize_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const ResultMetrics& metrics = ResultMetrics::Get();
  Shard& shard = ShardFor(text);
  std::int64_t entries_delta = 0;
  std::int64_t bytes_delta = 0;
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(text);
    if (it != shard.entries.end()) {
      // A reader that pinned an older snapshot finished after one that
      // pinned a newer: its rows could never serve, so keep the entry.
      if (it->second.epoch > epoch) return;
      // Replace in place (a fresher epoch, or a racing twin of the same
      // miss — identical content either way).
      shard.bytes -= it->second.bytes;
      bytes_delta -= static_cast<std::int64_t>(it->second.bytes);
      it->second.rows = std::move(rows);
      it->second.epoch = epoch;
      it->second.bytes = bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    } else {
      shard.lru.emplace_front(text);
      shard.entries.emplace(
          shard.lru.front(),
          Entry{std::move(rows), epoch, bytes, shard.lru.begin()});
      ++entries_delta;
    }
    shard.bytes += bytes;
    bytes_delta += static_cast<std::int64_t>(bytes);
    while (shard.bytes > per_shard_bytes_ && !shard.lru.empty()) {
      auto victim = shard.entries.find(shard.lru.back());
      shard.bytes -= victim->second.bytes;
      bytes_delta -= static_cast<std::int64_t>(victim->second.bytes);
      shard.entries.erase(victim);
      shard.lru.pop_back();
      --entries_delta;
      ++evicted;
    }
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  metrics.inserts->Increment();
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    metrics.evictions->Increment(evicted);
  }
  metrics.entries->Add(entries_delta);
  metrics.bytes->Add(bytes_delta);
}

void ResultCache::Clear() {
  const ResultMetrics& metrics = ResultMetrics::Get();
  std::int64_t entries_delta = 0;
  std::int64_t bytes_delta = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    entries_delta -= static_cast<std::int64_t>(shard->entries.size());
    bytes_delta -= static_cast<std::int64_t>(shard->bytes);
    shard->entries.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
  metrics.entries->Add(entries_delta);
  metrics.bytes->Add(bytes_delta);
}

void ResultCache::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_release);
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.oversize = oversize_.load(std::memory_order_relaxed);
  s.shards = shards_.size();
  s.max_bytes = max_bytes_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.entries += shard->entries.size();
    s.bytes += shard->bytes;
  }
  if (s.hits + s.misses > 0) {
    s.hit_rate_percent =
        100.0 * static_cast<double>(s.hits) /
        static_cast<double>(s.hits + s.misses);
  }
  return s;
}

}  // namespace prometheus::cache
