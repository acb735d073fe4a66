#ifndef PROMETHEUS_CACHE_PLAN_CACHE_H_
#define PROMETHEUS_CACHE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace prometheus::pool {
struct SelectQuery;
struct FromRange;
struct Expr;
}  // namespace prometheus::pool

namespace prometheus::cache {

/// The structural access-path analysis of one extent range: every
/// where-clause conjunct an index could serve, recorded whether or not an
/// index (or even the class) exists right now. Literals point into the
/// analysed AST, which must outlive the record.
struct RangeAccess {
  /// `var.attr = literal`, in either operand order.
  struct Equality {
    std::string attribute;
    const pool::Expr* literal;
  };
  /// The `<`, `<=`, `>`, `>=` conjuncts on one attribute, merged to the
  /// tightest lower and upper literal (`literal op var.attr` is flipped).
  /// A null bound is open.
  struct Bounds {
    std::string attribute;
    const pool::Expr* lower = nullptr;
    const pool::Expr* upper = nullptr;
    bool lower_strict = false;
    bool upper_strict = false;
    /// Two literals on one side do not order against each other (e.g. an
    /// int and a string), so there is no tightest bound to probe with.
    bool incomparable = false;
    /// The where-clause conjuncts merged here, in source order. A range
    /// lookup that answers the bounds exactly answers all of them.
    std::vector<const pool::Expr*> conjuncts = {};
  };
  std::vector<Equality> equalities;  ///< in conjunct order
  std::vector<Bounds> ranges;        ///< one per attribute, first-seen order
};

/// The access-path analysis of one query: its where clause's conjuncts
/// and, per extent range, what they offer an index.
struct AccessAnalysis {
  /// The `and`-conjuncts of the where clause, in source order (empty
  /// without one). Evaluating them in order, stopping at the first false,
  /// is evaluating the where clause.
  std::vector<const pool::Expr*> conjuncts;
  /// Per-range analyses, keyed by the `FromRange`'s address in its AST. An
  /// absent key means the where clause pins nothing for that range
  /// (extent scan).
  std::unordered_map<const pool::FromRange*, RangeAccess> ranges;
};

/// A cached query plan: the parsed AST plus the structural access-path
/// analysis the optimiser derives from it. Both are pure functions of the
/// query text, so one entry serves every execution of that text.
///
/// The plan deliberately stops at *structure*: it records index
/// candidates without checking whether an index exists. `HasIndex` is
/// re-checked at execution, so an index created or dropped after the plan
/// was cached is picked up immediately — index DDL does not raise schema
/// events and must not need to. Schema DDL (class/template/relationship
/// definition) *does* raise events, which bump the cache's generation and
/// lazily drop stale plans.
struct PlanEntry {
  /// The immutable AST. Shared so concurrent executions and the cache can
  /// hold it together; nothing mutates a SelectQuery after parse.
  std::shared_ptr<const pool::SelectQuery> ast;
  /// The access-path analysis of `*ast`; keys and literals point into it.
  AccessAnalysis access;
};

/// Text -> PlanEntry map with count-bounded LRU eviction, keyed on
/// (query text, schema generation).
///
/// Invalidation is event-driven and lazy: DDL listeners call
/// `OnSchemaChange()`, which is one relaxed atomic increment — safe from
/// under the database's write guard. Entries remember the generation they
/// were planned under; a lookup that finds an older generation erases the
/// entry and reports a miss. Nothing scans the map on DDL.
///
/// Thread-safe; one mutex (plan lookups are off the per-binding hot path —
/// at most one per query — so a single lock is plenty).
class PlanCache {
 public:
  struct Config {
    std::size_t max_entries = 512;
    bool enabled = true;
  };

  explicit PlanCache(const Config& config);

  /// The cached plan for `text` at the current schema generation, or null
  /// (disabled / absent / stale).
  std::shared_ptr<const PlanEntry> Lookup(const std::string& text);

  /// Stores `entry` under `text`, stamped with the current generation.
  void Insert(const std::string& text, std::shared_ptr<const PlanEntry> entry);

  /// Lock-free generation bump — every cached plan becomes stale. Safe to
  /// call from an event listener running under the write guard.
  void OnSchemaChange();

  std::uint64_t schema_generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  void Clear();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_release);
  }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;      ///< LRU capacity drops
    std::uint64_t invalidations = 0;  ///< stale-generation drops
    std::uint64_t schema_generation = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

 private:
  struct Slot {
    std::shared_ptr<const PlanEntry> entry;
    std::uint64_t generation = 0;
    std::list<std::string>::iterator lru_it;
  };

  const std::size_t max_entries_;
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> generation_{0};

  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> entries_;
  std::list<std::string> lru_;  ///< front = most recently used

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace prometheus::cache

#endif  // PROMETHEUS_CACHE_PLAN_CACHE_H_
