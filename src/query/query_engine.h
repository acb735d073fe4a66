#ifndef PROMETHEUS_QUERY_QUERY_ENGINE_H_
#define PROMETHEUS_QUERY_QUERY_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/plan_cache.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "core/database.h"
#include "core/read_view.h"
#include "index/index_manager.h"
#include "obs/trace.h"
#include "query/ast.h"
#include "query/system_catalog.h"

namespace prometheus::pool {

/// The caller's bindings: names no range of the query binds, such as
/// `self` / `old` / `new` in rule conditions and `self` in view predicates.
/// Range variables never live here — the parser resolves them to frame
/// slots (see `Expr::slot`).
using Environment = std::unordered_map<std::string, Value>;

/// A query result: named columns over rows of Values. Object-valued results
/// are references to the stored objects (POOL's object conservation,
/// 5.1.2.2) — the engine never copies database objects.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// Convenience: the single column of a one-column result as a flat list.
  std::vector<Value> Column(std::size_t i = 0) const;
};

/// A query result plus its execution trace — what `PROFILE <select>` and
/// `ExecuteProfiled` return. The trace is a per-stage timing/cardinality
/// tree: parse, plan (one child per range with the chosen strategy),
/// execute (bindings scanned), sort, project.
struct QueryProfile {
  ResultSet rows;
  obs::TraceNode trace;
};

/// The POOL query processor (thesis ch. 5.1; architecture 6.1.5).
///
/// Evaluates `select` queries and standalone expressions against a
/// `Database`. Ranges iterate class extents *and* relationship extents
/// uniformly; expressions provide path navigation, selective downcast,
/// graph traversal (`traverse`, `children`, `parents`, `leaves`), context
/// restriction and subqueries. When an `IndexManager` is supplied, equality
/// and range conjuncts over indexed attributes replace extent scans
/// (6.1.5.2/3); the where-clause still filters every candidate.
///
/// Const discipline / concurrency: the const execution paths (`Execute`,
/// `Eval`, `Explain`) perform **no** `Database` mutation — results copy
/// attribute values and hold object references as bare Oids, never aliasing
/// engine-internal state. All reads route through `ReadViewOf(db)`: when
/// the caller installs a pinned `DbSnapshot` — directly via the snapshot
/// overloads below or with a `ScopedReadView` — execution is wait-free
/// against writers and the engine never touches the live database. With no
/// snapshot installed, reads go to the live store, where the legacy
/// contract applies: the caller must hold a `Database::ReadGuard`, enforced
/// in debug builds by the epoch-stability assert at the end of every
/// execution.
class QueryEngine {
 public:
  /// `db` (and `indexes`, when given) must outlive the engine.
  explicit QueryEngine(Database* db, IndexManager* indexes = nullptr)
      : db_(db), indexes_(indexes) {}

  /// Attaches a plan cache (nullable; must outlive the engine). With one
  /// attached, `Execute(text)` / `ExecuteProfiled` consult it before
  /// parsing: a hit skips parse and the access-path analysis entirely,
  /// executing the cached immutable AST. The cache is internally
  /// synchronized, so concurrent const executions may share it. Index
  /// existence is deliberately NOT baked into cached plans — see
  /// cache::PlanEntry — so index DDL needs no invalidation.
  void set_plan_cache(cache::PlanCache* plan_cache) {
    plan_cache_ = plan_cache;
  }

  /// Attaches the virtual system catalog (nullable; must outlive the
  /// engine). With one attached, a range over a registered `sys.*` class
  /// materializes a point-in-time row set of `Value` structs instead of
  /// resolving a stored extent. Materialization happens at most once per
  /// top-level execution: joins and subqueries touching the same catalog
  /// class within one query observe the same rows.
  void set_system_catalog(const SystemCatalog* catalog) {
    catalog_ = catalog;
  }
  const SystemCatalog* system_catalog() const { return catalog_; }

  /// Parses and runs a query. `ctx` (nullable) is a cooperative deadline /
  /// cancellation token: the join loops call `ctx->Check()` once per
  /// enumerated binding and unwind with `kDeadlineExceeded` / `kAborted`,
  /// so a long scan aborts mid-execution instead of running to completion
  /// after its caller has given up. Without a context the loops pay one
  /// branch per binding.
  Result<ResultSet> Execute(const std::string& query,
                            const ExecutionContext* ctx = nullptr) const;

  /// Parses and runs a query against an explicit read view (typically a
  /// pinned `DbSnapshot`): installs it as the thread's view for the
  /// duration, so every read — including index-fallback extent scans and
  /// subqueries — observes exactly that snapshot.
  Result<ResultSet> Execute(const std::string& query, const DbSnapshot& view,
                            const ExecutionContext* ctx = nullptr) const {
    ScopedReadView scope(&view);
    return Execute(query, ctx);
  }

  /// Runs a parsed query; `outer` provides the names its ranges do not
  /// bind (correlated bindings).
  Result<ResultSet> Execute(const SelectQuery& query, const Environment& outer,
                            const ExecutionContext* ctx = nullptr) const;

  /// Parses and runs a query with span tracing: returns the rows plus the
  /// per-stage timing/cardinality tree. Accepts the query with or without
  /// a leading `profile` keyword. Tracing costs two clock reads per stage;
  /// the unprofiled `Execute` path pays none of it.
  Result<QueryProfile> ExecuteProfiled(
      const std::string& query, const ExecutionContext* ctx = nullptr) const;

  /// Profiled execution against an explicit read view; see the `Execute`
  /// overload above.
  Result<QueryProfile> ExecuteProfiled(
      const std::string& query, const DbSnapshot& view,
      const ExecutionContext* ctx = nullptr) const {
    ScopedReadView scope(&view);
    return ExecuteProfiled(query, ctx);
  }

  /// Parses and evaluates a standalone expression under `env`.
  Result<Value> Eval(const std::string& expr, const Environment& env) const;

  /// Describes the execution strategy chosen for `query`, one line per
  /// range: extent scan, index lookup or index range (with the attribute),
  /// or dependent expression — the observable face of the optimiser
  /// (6.1.5.3). The strategy strings are the ones PROFILE reports.
  Result<std::string> Explain(const std::string& query) const;

  /// Evaluates a parsed expression under `env`.
  Result<Value> Eval(const Expr& expr, const Environment& env) const;

  const Database* db() const { return db_; }

 private:
  struct RangeBinding;
  struct Scope;

  /// The store reads route through (see `ReadViewOf`).
  const DbSnapshot& view() const { return ReadViewOf(*db_); }

  // The one evaluator. `Eval` reads an operand in place: the result points
  // at a literal, a frame slot, an Environment entry or a member inside
  // the snapshot's immutable record, or at `scratch` when the value had to
  // be computed. Such a borrowed pointer is used only within the
  // expression evaluation that took it — the next binding overwrites the
  // frame and the caller's scratch dies with its evaluation. `Test`
  // evaluates a filter (comparisons, `and`/`or`/`not`) to a bool without
  // building a Value; `EvalCopy` copies a result out, for emitted rows.
  Result<const Value*> Eval(const Expr& expr, const Scope& scope,
                            Value& scratch) const;
  Result<bool> Test(const Expr& expr, const Scope& scope) const;
  Result<Value> EvalCopy(const Expr& expr, const Scope& scope) const;
  Result<const Value*> EvalPath(const Expr& expr, const Scope& scope,
                                Value& scratch) const;
  Result<Value> EvalCall(const Expr& expr, const Scope& scope) const;

  /// An aggregate call (`count`, `sum`, `min`, `max`, `avg` of one
  /// argument) over the frames of `scope.group`.
  Result<Value> Aggregate(const Expr& call, const Scope& scope) const;

  /// Runs a parsed query with its range variables bound in `shared` — a
  /// caller's frame of at least `query.frame_size` slots — or, when null,
  /// in a frame of its own; every other name is looked up in `env`.
  /// `trace` (nullable) receives plan/execute/sort/project child spans
  /// when profiling; `ctx` (nullable) is checked once per enumerated
  /// binding; `access` (nullable) is the cached access-path analysis of
  /// `query` — without one it is derived here, once per call.
  Result<ResultSet> ExecuteInternal(
      const SelectQuery& query, std::vector<Value>* shared,
      const Environment& env, obs::TraceNode* trace,
      const ExecutionContext* ctx,
      const cache::AccessAnalysis* access = nullptr) const;

  /// Candidate oids for an extent range, narrowed through an index when
  /// `access` (nullable: the range's analysis) offers a conjunct an index
  /// can serve. `strategy` (nullable) receives the access path taken.
  Result<std::vector<Value>> RangeCandidates(const FromRange& range,
                                             const cache::RangeAccess* access,
                                             std::string* strategy) const;

  /// The plan for `text`: the cached entry when the plan cache holds one,
  /// else a fresh parse wrapped by `BuildPlanEntry` (and inserted when a
  /// plan cache is attached). `trace` (nullable) receives the `cache` and
  /// `parse` spans.
  Result<std::shared_ptr<const cache::PlanEntry>> PlanFor(
      const std::string& text, obs::TraceNode* trace) const;

  /// Wraps a freshly parsed AST plus its structural access-path analysis
  /// into a cacheable plan entry.
  std::shared_ptr<const cache::PlanEntry> BuildPlanEntry(
      std::shared_ptr<const SelectQuery> ast) const;

  Database* db_;
  IndexManager* indexes_;
  cache::PlanCache* plan_cache_ = nullptr;
  const SystemCatalog* catalog_ = nullptr;
};

/// True when `text` matches the SQL-style `like` pattern (`%` = any run,
/// `_` = any single character). Exposed for tests.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// True when `text` starts with the `profile` keyword (case-insensitive) —
/// the POOL wrapper the server and shell route to `ExecuteProfiled`.
bool IsProfileQuery(std::string_view text);

/// `text` without its leading `profile` keyword (unchanged when absent): a
/// view into `text`, valid while it is.
std::string_view StripProfileKeyword(std::string_view text);

}  // namespace prometheus::pool

#endif  // PROMETHEUS_QUERY_QUERY_ENGINE_H_
