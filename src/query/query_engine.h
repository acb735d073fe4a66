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
/// database store. Ranges iterate class extents *and* relationship extents
/// uniformly; expressions provide path navigation, selective downcast,
/// graph traversal (`traverse`, `children`, `parents`, `leaves`), context
/// restriction and subqueries. When an `IndexManager` is supplied, equality
/// and range conjuncts over attributes it indexes in the store being read
/// replace extent scans (6.1.5.2/3). An ordered-index range over a numeric
/// attribute is exact, so the conjuncts it answered are dropped from the
/// per-binding where test; every other path's candidates still pass the
/// whole where clause.
///
/// Every entry point names the store it reads: a pinned `DbSnapshot`
/// (`Database::AcquireSnapshot`), or `Database::live_store()` for embedded
/// callers and the writer thread. Execution performs **no** mutation —
/// results copy attribute values and hold object references as bare Oids —
/// so against a pinned snapshot it is wait-free against writers and never
/// touches the live database. Debug builds assert that the store's epoch
/// did not move during an execution (a live-store read racing a writer).
class QueryEngine {
 public:
  /// `indexes`, when given, must outlive the engine.
  explicit QueryEngine(IndexManager* indexes = nullptr) : indexes_(indexes) {}

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
  /// class within one query observe the same rows, and providers read the
  /// store the query names.
  void set_system_catalog(const SystemCatalog* catalog) {
    catalog_ = catalog;
  }
  const SystemCatalog* system_catalog() const { return catalog_; }

  /// Parses and runs a query against `view`. `ctx` (nullable) is a
  /// cooperative deadline / cancellation token: the join loops call
  /// `ctx->Check()` once per enumerated binding and unwind with
  /// `kDeadlineExceeded` / `kAborted`, so a long scan aborts mid-execution
  /// instead of running to completion after its caller has given up.
  /// Without a context the loops pay one branch per binding.
  Result<ResultSet> Execute(const std::string& query, const DbSnapshot& view,
                            const ExecutionContext* ctx = nullptr) const;

  /// Parses and runs a query with span tracing: returns the rows plus the
  /// per-stage timing/cardinality tree. Accepts the query with or without
  /// a leading `profile` keyword. Tracing costs two clock reads per stage;
  /// the unprofiled `Execute` path pays none of it.
  Result<QueryProfile> ExecuteProfiled(
      const std::string& query, const DbSnapshot& view,
      const ExecutionContext* ctx = nullptr) const;

  /// Describes the execution strategy chosen for `query` against `view`,
  /// one line per range: extent scan, index lookup or index range (with
  /// the attribute), or dependent expression — the observable face of the
  /// optimiser (6.1.5.3). The strategy strings are the ones PROFILE
  /// reports. An exact index range adds an indented line listing the
  /// conjuncts it answers (PROFILE: an `answered by the index` child of
  /// the range).
  Result<std::string> Explain(const std::string& query,
                              const DbSnapshot& view) const;

  /// Evaluates a standalone expression against `view` under `env`, from
  /// its text or already parsed.
  Result<Value> Eval(const std::string& expr, const DbSnapshot& view,
                     const Environment& env) const;
  Result<Value> Eval(const Expr& expr, const DbSnapshot& view,
                     const Environment& env) const;

 private:
  struct RangeBinding;
  struct Scope;

  /// The `sys.*` rows one top-level execution has materialised, by class:
  /// its subqueries and dependent ranges reuse them, so a self-join of
  /// `sys.requests` sees one point-in-time row set.
  using CatalogMemo = std::unordered_map<std::string, std::vector<Value>>;

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

  /// Runs a parsed query against `view` with its range variables bound in
  /// `shared` — a caller's frame of at least `query.frame_size` slots — or,
  /// when null, in a frame of its own; every other name is looked up in
  /// `env`. `catalog` is the top-level execution's catalog memo.
  /// `trace` (nullable) receives plan/execute/sort/project child spans
  /// when profiling; `ctx` (nullable) is checked once per enumerated
  /// binding; `access` (nullable) is the cached access-path analysis of
  /// `query` — without one it is derived here, once per call.
  Result<ResultSet> ExecuteInternal(
      const SelectQuery& query, const DbSnapshot& view, CatalogMemo& catalog,
      std::vector<Value>* shared, const Environment& env,
      obs::TraceNode* trace,
      const ExecutionContext* ctx,
      const cache::AccessAnalysis* access = nullptr) const;

  /// Candidate oids for an extent range, narrowed through an index when
  /// `access` (nullable: the range's analysis) offers a conjunct an index
  /// can serve. `strategy` (nullable) receives the access path taken;
  /// `*answered` the bounds an exact index range answered (left as is
  /// otherwise): every candidate satisfies their conjuncts.
  Result<std::vector<Value>> RangeCandidates(
      const FromRange& range, const DbSnapshot& view, CatalogMemo& catalog,
      const cache::RangeAccess* access, std::string* strategy,
      const cache::RangeAccess::Bounds** answered) const;

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
