#include "query/query_engine.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <unordered_set>

#include "obs/metrics.h"
#include "query/parser.h"

namespace prometheus::pool {

namespace {

/// Strict truthiness: booleans are themselves, null is false (absent
/// information fails a filter), anything else is a type error (5.1.2.4).
Result<bool> Truthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kBool:
      return v.AsBool();
    case ValueType::kNull:
      return false;
    default:
      return Status::TypeError(std::string("expected a boolean, got ") +
                               ValueTypeName(v.type()));
  }
}

/// The query layer's metrics, registered once. Pointers are cached so the
/// hot path never does a name lookup; each hook is one enabled-branch plus
/// a relaxed atomic op.
struct EngineMetrics {
  obs::Counter* queries;
  obs::Counter* profiled;
  obs::Counter* errors;
  obs::Counter* rows_scanned;
  obs::Counter* rows_returned;
  obs::Counter* index_lookups;
  obs::Counter* extent_scans;
  obs::Counter* index_fallbacks;
  obs::Counter* catalog_materializations;
  obs::Histogram* latency;

  static const EngineMetrics& Get() {
    static const EngineMetrics m = [] {
      obs::MetricsRegistry& reg = obs::Registry();
      EngineMetrics em;
      em.queries = reg.GetCounter("pool_queries_total",
                                  "Top-level POOL queries executed");
      em.profiled = reg.GetCounter("pool_queries_profiled_total",
                                   "Queries executed with span tracing");
      em.errors = reg.GetCounter("pool_query_errors_total",
                                 "Queries that failed to parse or execute");
      em.rows_scanned =
          reg.GetCounter("pool_rows_scanned_total",
                         "Candidate bindings enumerated by the join loops");
      em.rows_returned = reg.GetCounter("pool_rows_returned_total",
                                        "Result rows produced");
      em.index_lookups =
          reg.GetCounter("pool_index_lookups_total",
                         "Ranges resolved through an attribute index");
      em.extent_scans = reg.GetCounter("pool_extent_scans_total",
                                       "Ranges resolved by full extent scan");
      em.index_fallbacks = reg.GetCounter(
          "pool_index_fallbacks_total",
          "Index lookups abandoned mid-plan (index ran ahead of the "
          "snapshot, or was dropped) and resolved by extent scan instead");
      em.catalog_materializations = reg.GetCounter(
          "pool_catalog_materializations_total",
          "sys.* virtual extents materialized from live server state");
      em.latency = reg.GetHistogram("pool_query_micros",
                                    "Top-level query latency (microseconds)");
      return em;
    }();
    return m;
  }
};

/// Per-execution memo of materialized catalog extents. The outermost
/// ExecuteInternal on a thread installs one; nested executions (subqueries,
/// dependent ranges) reuse it, so a self-join of `sys.requests` — or a
/// correlated subquery re-touching `sys.metrics` — observes one consistent
/// point-in-time row set per top-level query.
struct CatalogScope {
  std::unordered_map<std::string, std::vector<Value>> materialized;
};

thread_local CatalogScope* g_catalog_scope = nullptr;

/// RAII installer: a no-op when a scope is already active on this thread.
class ScopedCatalogScope {
 public:
  ScopedCatalogScope() {
    if (g_catalog_scope == nullptr) {
      g_catalog_scope = &local_;
      installed_ = true;
    }
  }
  ~ScopedCatalogScope() {
    if (installed_) g_catalog_scope = nullptr;
  }
  ScopedCatalogScope(const ScopedCatalogScope&) = delete;
  ScopedCatalogScope& operator=(const ScopedCatalogScope&) = delete;

 private:
  CatalogScope local_;
  bool installed_ = false;
};

}  // namespace

bool IsProfileQuery(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  static constexpr char kKeyword[] = "profile";
  for (std::size_t k = 0; k < 7; ++k, ++i) {
    if (i >= text.size() ||
        std::tolower(static_cast<unsigned char>(text[i])) != kKeyword[k]) {
      return false;
    }
  }
  // Must be a whole word followed by the query body.
  return i < text.size() && std::isspace(static_cast<unsigned char>(text[i]));
}

std::string_view StripProfileKeyword(std::string_view text) {
  if (!IsProfileQuery(text)) return text;
  std::size_t i = 0;
  while (std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  i += 7;  // "profile"
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  return text.substr(i);
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard matcher with backtracking over '%'.
  std::size_t t = 0, p = 0;
  std::size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

std::vector<Value> ResultSet::Column(std::size_t i) const {
  std::vector<Value> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    if (i < row.size()) out.push_back(row[i]);
  }
  return out;
}

Result<std::shared_ptr<const cache::PlanEntry>> QueryEngine::PlanFor(
    const std::string& text, obs::TraceNode* trace) const {
  // Plan tier: a hit returns the cached immutable AST, skipping parse and
  // the access-path analysis. Failed parses are never cached (the error
  // path re-parses), and index existence is re-checked per execution.
  // Traced, the profile stays self-describing: a `cache` span reports the
  // plan hit/miss, and a `parse` span appears only when parsing ran.
  if (plan_cache_ != nullptr) {
    obs::TraceNode* span = trace != nullptr ? trace->AddChild("cache") : nullptr;
    std::shared_ptr<const cache::PlanEntry> plan;
    {
      obs::SpanTimer timer(span);
      plan = plan_cache_->Lookup(text);
    }
    if (span != nullptr) {
      span->detail = plan != nullptr ? "plan hit (parse + analysis skipped)"
                                     : "plan miss";
    }
    if (plan != nullptr) return plan;
  }
  obs::TraceNode* span = trace != nullptr ? trace->AddChild("parse") : nullptr;
  Result<std::unique_ptr<SelectQuery>> parsed = [&] {
    obs::SpanTimer timer(span);
    return ParseQuery(text);
  }();
  if (!parsed.ok()) return parsed.status();
  std::shared_ptr<const cache::PlanEntry> plan = BuildPlanEntry(
      std::shared_ptr<const SelectQuery>(std::move(parsed).value()));
  if (plan_cache_ != nullptr) plan_cache_->Insert(text, plan);
  return plan;
}

Result<ResultSet> QueryEngine::Execute(const std::string& query,
                                       const ExecutionContext* ctx) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.queries->Increment();
  obs::ScopedTimer timer(metrics.latency);
  Result<std::shared_ptr<const cache::PlanEntry>> plan =
      PlanFor(query, nullptr);
  if (!plan.ok()) {
    metrics.errors->Increment();
    return plan.status();
  }
  Result<ResultSet> result =
      ExecuteInternal(*plan.value()->ast, nullptr, Environment{}, nullptr,
                      ctx, &plan.value()->access);
  if (!result.ok()) metrics.errors->Increment();
  return result;
}

Result<QueryProfile> QueryEngine::ExecuteProfiled(
    const std::string& query, const ExecutionContext* ctx) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.queries->Increment();
  metrics.profiled->Increment();
  obs::ScopedTimer timer(metrics.latency);

  QueryProfile out;
  out.trace.name = "query";
  const std::string body(StripProfileKeyword(query));
  out.trace.detail = body;
  obs::SpanTimer total(&out.trace);

  Result<std::shared_ptr<const cache::PlanEntry>> plan =
      PlanFor(body, &out.trace);
  if (!plan.ok()) {
    metrics.errors->Increment();
    return plan.status();
  }
  Result<ResultSet> rows =
      ExecuteInternal(*plan.value()->ast, nullptr, Environment{}, &out.trace,
                      ctx, &plan.value()->access);
  if (!rows.ok()) {
    metrics.errors->Increment();
    return rows.status();
  }
  out.rows = std::move(rows).value();
  out.trace.rows = static_cast<std::int64_t>(out.rows.rows.size());
  total.Stop();
  return out;
}

Result<Value> QueryEngine::Eval(const std::string& expr,
                                const Environment& env) const {
  PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> parsed,
                              ParseExpression(expr));
  return Eval(*parsed, env);
}

// ------------------------------------------------------------- expressions

/// What an evaluation reads: the snapshot pinned for the execution, the
/// frame its range variables are bound in (slots resolved by the parser),
/// and the caller's Environment for every name no range binds. Under
/// `group by`, `group` holds the frames of the group being projected and
/// `frame` is its first: aggregate calls reduce over every frame, all
/// other expressions read the first (they must be group-constant).
struct QueryEngine::Scope {
  const DbSnapshot& view;
  std::vector<Value>& frame;
  const Environment& env;
  std::vector<std::vector<Value>>* group = nullptr;
};

namespace {

/// The null every null-propagating step borrows.
const Value kNullValue;

/// Member `member` of the object or link `oid`, read in place: attributes
/// point into the record; `class`, the link members and inherited
/// attributes land in `scratch`.
Result<const Value*> MemberOf(const DbSnapshot& view, Oid oid,
                              const std::string& member, Value& scratch) {
  // Objects and links share one oid space: one lookup finds an object,
  // a second only for links.
  if (const Object* obj = view.GetObject(oid)) {
    if (member == "class") {
      scratch = Value::String(obj->cls->name());
      return &scratch;
    }
    auto it = obj->attrs.find(member);
    if (it != obj->attrs.end()) return &it->second;
    // Not stored on the object: inherited over an `inherit_attributes`
    // link (thesis 4.4.5), or NotFound.
    PROMETHEUS_ASSIGN_OR_RETURN(scratch, view.GetAttribute(oid, member));
    return &scratch;
  }
  if (const Link* link = view.GetLink(oid)) {
    if (member == "source") {
      scratch = Value::Ref(link->source);
    } else if (member == "target") {
      scratch = Value::Ref(link->target);
    } else if (member == "context") {
      scratch = link->context == kNullOid ? Value::Null()
                                          : Value::Ref(link->context);
    } else if (member == "relationship") {
      scratch = Value::String(link->def->name());
    } else {
      auto it = link->attrs.find(member);
      if (it != link->attrs.end()) return &it->second;
      return view.GetLinkAttribute(oid, member).status();
    }
    return &scratch;
  }
  return Status::NotFound("no object or link @" + std::to_string(oid));
}

/// Binary operators over evaluated operands (no short-circuiting):
/// `Compare` for comparisons, `like` and `in`, `Arithmetic` for `+ - * /
/// %`.
bool IsArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

Result<bool> Compare(BinaryOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case BinaryOp::kEq:
      return lhs.Equals(rhs);
    case BinaryOp::kNe:
      return !lhs.Equals(rhs);
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lhs.is_null() || rhs.is_null()) return false;
      PROMETHEUS_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs));
      switch (op) {
        case BinaryOp::kLt:
          return c < 0;
        case BinaryOp::kLe:
          return c <= 0;
        case BinaryOp::kGt:
          return c > 0;
        default:
          return c >= 0;
      }
    }
    case BinaryOp::kLike: {
      if (lhs.is_null()) return false;
      if (lhs.type() != ValueType::kString ||
          rhs.type() != ValueType::kString) {
        return Status::TypeError("'like' requires strings");
      }
      return LikeMatch(lhs.AsString(), rhs.AsString());
    }
    case BinaryOp::kIn: {
      if (rhs.type() != ValueType::kList) {
        return Status::TypeError("'in' requires a list or subquery");
      }
      for (const Value& v : rhs.AsList()) {
        if (lhs.Equals(v)) return true;
      }
      return false;
    }
    default:
      return Status::TypeError("unsupported binary operator");
  }
}

Result<Value> Arithmetic(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (op == BinaryOp::kAdd && (lhs.type() == ValueType::kString ||
                               rhs.type() == ValueType::kString)) {
    auto text = [](const Value& v) {
      return v.type() == ValueType::kString ? v.AsString() : v.ToString();
    };
    return Value::String(text(lhs) + text(rhs));
  }
  PROMETHEUS_ASSIGN_OR_RETURN(double a, lhs.ToNumeric());
  PROMETHEUS_ASSIGN_OR_RETURN(double b, rhs.ToNumeric());
  const bool ints =
      lhs.type() == ValueType::kInt && rhs.type() == ValueType::kInt;
  switch (op) {
    case BinaryOp::kAdd:
      return ints ? Value::Int(lhs.AsInt() + rhs.AsInt())
                  : Value::Double(a + b);
    case BinaryOp::kSub:
      return ints ? Value::Int(lhs.AsInt() - rhs.AsInt())
                  : Value::Double(a - b);
    case BinaryOp::kMul:
      return ints ? Value::Int(lhs.AsInt() * rhs.AsInt())
                  : Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      return ints ? Value::Int(lhs.AsInt() / rhs.AsInt())
                  : Value::Double(a / b);
    case BinaryOp::kMod:
      if (!ints) return Status::TypeError("'%' requires integers");
      if (rhs.AsInt() == 0) return Status::InvalidArgument("division by zero");
      return Value::Int(lhs.AsInt() % rhs.AsInt());
    default:
      return Status::TypeError("unsupported binary operator");
  }
}

/// True for a call that aggregates over a group: `count`, `sum`, `min`,
/// `max` or `avg` of one argument.
bool IsAggregate(const Expr& call) {
  const std::string& fn = call.name;
  return call.children.size() == 1 &&
         (fn == "count" || fn == "sum" || fn == "min" || fn == "max" ||
          fn == "avg");
}

/// `sum`, `avg`, `min` or `max` of `values`: null when there are none;
/// the sum of ints stays an int.
Result<Value> Reduce(const std::string& fn, const std::vector<Value>& values) {
  if (values.empty()) return Value::Null();
  if (fn == "min" || fn == "max") {
    const Value* best = &values.front();
    for (std::size_t i = 1; i < values.size(); ++i) {
      PROMETHEUS_ASSIGN_OR_RETURN(int c, values[i].Compare(*best));
      if ((fn == "min" && c < 0) || (fn == "max" && c > 0)) best = &values[i];
    }
    return *best;
  }
  double total = 0;
  bool all_int = true;
  for (const Value& v : values) {
    PROMETHEUS_ASSIGN_OR_RETURN(double d, v.ToNumeric());
    total += d;
    all_int = all_int && v.type() == ValueType::kInt;
  }
  if (fn == "avg") return Value::Double(total / values.size());
  return all_int ? Value::Int(static_cast<std::int64_t>(total))
                 : Value::Double(total);
}

}  // namespace

Result<Value> QueryEngine::Eval(const Expr& expr,
                                const Environment& env) const {
  // A standalone expression binds no range; a subquery in it sizes its own
  // frame.
  std::vector<Value> frame;
  return EvalCopy(expr, Scope{view(), frame, env});
}

Result<Value> QueryEngine::EvalCopy(const Expr& expr,
                                    const Scope& scope) const {
  Value scratch;
  PROMETHEUS_ASSIGN_OR_RETURN(const Value* v, Eval(expr, scope, scratch));
  if (v == &scratch) return scratch;
  return *v;
}

Result<bool> QueryEngine::Test(const Expr& expr, const Scope& scope) const {
  if (expr.kind == ExprKind::kUnary && expr.unary_op == UnaryOp::kNot) {
    PROMETHEUS_ASSIGN_OR_RETURN(bool b, Test(*expr.children[0], scope));
    return !b;
  }
  if (expr.kind == ExprKind::kBinary && !IsArithmetic(expr.binary_op)) {
    if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
      // Short-circuit: `and` stops at false, `or` at true.
      PROMETHEUS_ASSIGN_OR_RETURN(bool lb, Test(*expr.children[0], scope));
      if (lb == (expr.binary_op == BinaryOp::kOr)) return lb;
      return Test(*expr.children[1], scope);
    }
    Value lhs_scratch;
    Value rhs_scratch;
    PROMETHEUS_ASSIGN_OR_RETURN(const Value* lhs,
                                Eval(*expr.children[0], scope, lhs_scratch));
    PROMETHEUS_ASSIGN_OR_RETURN(const Value* rhs,
                                Eval(*expr.children[1], scope, rhs_scratch));
    return Compare(expr.binary_op, *lhs, *rhs);
  }
  Value scratch;
  PROMETHEUS_ASSIGN_OR_RETURN(const Value* v, Eval(expr, scope, scratch));
  return Truthy(*v);
}

Result<const Value*> QueryEngine::Eval(const Expr& expr, const Scope& scope,
                                       Value& scratch) const {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return &expr.literal;
    case ExprKind::kVariable: {
      if (expr.slot >= 0) {
        assert(static_cast<std::size_t>(expr.slot) < scope.frame.size());
        return &scope.frame[expr.slot];
      }
      auto it = scope.env.find(expr.name);
      if (it == scope.env.end()) {
        return Status::NotFound("unbound variable '" + expr.name + "'");
      }
      return &it->second;
    }
    case ExprKind::kPath:
      return EvalPath(expr, scope, scratch);
    case ExprKind::kDowncast: {
      PROMETHEUS_ASSIGN_OR_RETURN(const Value* base,
                                  Eval(*expr.children[0], scope, scratch));
      // Selective downcast (5.1.1.2): keep only values of the named class.
      if (base->type() == ValueType::kRef) {
        return scope.view.IsInstanceOf(base->AsRef(), expr.name) ? base
                                                                 : &kNullValue;
      }
      if (base->type() == ValueType::kList) {
        Value::List filtered;
        for (const Value& v : base->AsList()) {
          if (v.type() == ValueType::kRef &&
              scope.view.IsInstanceOf(v.AsRef(), expr.name)) {
            filtered.push_back(v);
          }
        }
        scratch = Value::MakeList(std::move(filtered));
        return &scratch;
      }
      if (base->is_null()) return &kNullValue;
      return Status::TypeError("downcast applies to objects and lists");
    }
    case ExprKind::kUnary: {
      if (expr.unary_op == UnaryOp::kNot) {
        PROMETHEUS_ASSIGN_OR_RETURN(bool b, Test(expr, scope));
        scratch = Value::Bool(b);
        return &scratch;
      }
      PROMETHEUS_ASSIGN_OR_RETURN(const Value* operand,
                                  Eval(*expr.children[0], scope, scratch));
      PROMETHEUS_ASSIGN_OR_RETURN(double d, operand->ToNumeric());
      scratch = operand->type() == ValueType::kInt
                    ? Value::Int(-operand->AsInt())
                    : Value::Double(-d);
      return &scratch;
    }
    case ExprKind::kBinary: {
      if (!IsArithmetic(expr.binary_op)) {
        PROMETHEUS_ASSIGN_OR_RETURN(bool b, Test(expr, scope));
        scratch = Value::Bool(b);
        return &scratch;
      }
      Value rhs_scratch;
      PROMETHEUS_ASSIGN_OR_RETURN(const Value* lhs,
                                  Eval(*expr.children[0], scope, scratch));
      PROMETHEUS_ASSIGN_OR_RETURN(const Value* rhs,
                                  Eval(*expr.children[1], scope, rhs_scratch));
      PROMETHEUS_ASSIGN_OR_RETURN(Value out,
                                  Arithmetic(expr.binary_op, *lhs, *rhs));
      scratch = std::move(out);
      return &scratch;
    }
    case ExprKind::kCall: {
      if (scope.group != nullptr && IsAggregate(expr)) {
        PROMETHEUS_ASSIGN_OR_RETURN(scratch, Aggregate(expr, scope));
      } else {
        PROMETHEUS_ASSIGN_OR_RETURN(scratch, EvalCall(expr, scope));
      }
      return &scratch;
    }
    case ExprKind::kSubquery: {
      // A nested query runs in its caller's frame, which the parser sized
      // for it; one inside a standalone expression brings its own.
      const SelectQuery& sub = *expr.subquery;
      std::vector<Value>* frame =
          scope.frame.size() >= sub.frame_size ? &scope.frame : nullptr;
      PROMETHEUS_ASSIGN_OR_RETURN(
          ResultSet rs,
          ExecuteInternal(sub, frame, scope.env, nullptr, nullptr));
      Value::List out;
      out.reserve(rs.rows.size());
      for (auto& row : rs.rows) {
        if (row.size() == 1) {
          out.push_back(std::move(row[0]));
        } else {
          out.push_back(Value::MakeList(std::move(row)));
        }
      }
      scratch = Value::MakeList(std::move(out));
      return &scratch;
    }
  }
  return Status::TypeError("malformed expression");
}

Result<const Value*> QueryEngine::EvalPath(const Expr& expr,
                                           const Scope& scope,
                                           Value& scratch) const {
  PROMETHEUS_ASSIGN_OR_RETURN(const Value* base,
                              Eval(*expr.children[0], scope, scratch));
  switch (base->type()) {
    case ValueType::kNull:
      return &kNullValue;  // null propagation
    case ValueType::kRef:
      return MemberOf(scope.view, base->AsRef(), expr.name, scratch);
    case ValueType::kStruct:
      // Catalog rows: field access by name. A missing field is an error,
      // not null — typos on sys.* attributes should be loud.
      if (const Value* field = base->Field(expr.name)) return field;
      return Status::NotFound("struct has no field '" + expr.name + "'");
    case ValueType::kList: {
      // Path through a collection maps over its elements.
      Value::List out;
      Value member_scratch;
      for (const Value& v : base->AsList()) {
        if (v.is_null()) continue;
        if (v.type() != ValueType::kRef) {
          return Status::TypeError("path through a list requires objects");
        }
        PROMETHEUS_ASSIGN_OR_RETURN(
            const Value* member,
            MemberOf(scope.view, v.AsRef(), expr.name, member_scratch));
        out.push_back(*member);
      }
      scratch = Value::MakeList(std::move(out));
      return &scratch;
    }
    default:
      return Status::TypeError("path step '." + expr.name +
                               "' applies to objects, links and lists");
  }
}

Result<Value> QueryEngine::EvalCall(const Expr& expr,
                                    const Scope& scope) const {
  const std::string& fn = expr.name;
  const DbSnapshot& view = scope.view;
  std::vector<Value> args;
  args.reserve(expr.children.size());
  for (const auto& child : expr.children) {
    PROMETHEUS_ASSIGN_OR_RETURN(Value v, EvalCopy(*child, scope));
    args.push_back(std::move(v));
  }
  auto want = [&](std::size_t lo, std::size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::InvalidArgument("function '" + fn +
                                     "' called with wrong arity");
    }
    return Status::Ok();
  };
  auto as_ref = [&](std::size_t i) -> Result<Oid> {
    if (args[i].type() != ValueType::kRef) {
      return Status::TypeError("argument " + std::to_string(i + 1) + " of '" +
                               fn + "' must be an object");
    }
    return args[i].AsRef();
  };
  auto as_str = [&](std::size_t i) -> Result<std::string> {
    if (args[i].type() != ValueType::kString) {
      return Status::TypeError("argument " + std::to_string(i + 1) + " of '" +
                               fn + "' must be a string");
    }
    return args[i].AsString();
  };
  auto as_list = [&](std::size_t i) -> Result<Value::List> {
    if (args[i].type() != ValueType::kList) {
      return Status::TypeError("argument " + std::to_string(i + 1) + " of '" +
                               fn + "' must be a list");
    }
    return args[i].AsList();
  };
  auto refs_to_list = [](const std::vector<Oid>& oids) {
    Value::List out;
    out.reserve(oids.size());
    for (Oid o : oids) out.push_back(Value::Ref(o));
    return Value::MakeList(std::move(out));
  };

  // --- collection functions ---
  if (fn == "count") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    return Value::Int(static_cast<std::int64_t>(l.size()));
  }
  if (fn == "exists") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    return Value::Bool(!l.empty());
  }
  if (fn == "first") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    return l.empty() ? Value::Null() : l.front();
  }
  if (fn == "sum" || fn == "avg" || fn == "min" || fn == "max") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    return Reduce(fn, l);
  }
  if (fn == "flatten") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    Value::List out;
    for (const Value& v : l) {
      if (v.type() == ValueType::kList) {
        out.insert(out.end(), v.AsList().begin(), v.AsList().end());
      } else if (!v.is_null()) {
        out.push_back(v);
      }
    }
    return Value::MakeList(std::move(out));
  }
  if (fn == "distinct") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List l, as_list(0));
    Value::List out;
    for (const Value& v : l) {
      bool dup = std::any_of(out.begin(), out.end(),
                             [&](const Value& o) { return o.Equals(v); });
      if (!dup) out.push_back(v);
    }
    return Value::MakeList(std::move(out));
  }

  // --- string functions ---
  if (fn == "lower" || fn == "upper") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string s, as_str(0));
    for (char& c : s) {
      c = fn == "lower" ? static_cast<char>(std::tolower(c))
                        : static_cast<char>(std::toupper(c));
    }
    return Value::String(std::move(s));
  }
  if (fn == "length") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    if (args[0].type() == ValueType::kList) {
      return Value::Int(static_cast<std::int64_t>(args[0].AsList().size()));
    }
    PROMETHEUS_ASSIGN_OR_RETURN(std::string s, as_str(0));
    return Value::Int(static_cast<std::int64_t>(s.size()));
  }
  if (fn == "substr") {
    // substr(s, start, len): clamped to the string's bounds.
    PROMETHEUS_RETURN_IF_ERROR(want(3, 3));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string s, as_str(0));
    if (args[1].type() != ValueType::kInt ||
        args[2].type() != ValueType::kInt) {
      return Status::TypeError("substr bounds must be integers");
    }
    std::int64_t start = std::max<std::int64_t>(0, args[1].AsInt());
    std::int64_t len = std::max<std::int64_t>(0, args[2].AsInt());
    if (static_cast<std::size_t>(start) >= s.size()) {
      return Value::String("");
    }
    return Value::String(s.substr(static_cast<std::size_t>(start),
                                  static_cast<std::size_t>(len)));
  }
  if (fn == "starts_with" || fn == "ends_with") {
    PROMETHEUS_RETURN_IF_ERROR(want(2, 2));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string s, as_str(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string p, as_str(1));
    if (p.size() > s.size()) return Value::Bool(false);
    bool match = fn == "starts_with" ? s.compare(0, p.size(), p) == 0
                                     : s.compare(s.size() - p.size(),
                                                 p.size(), p) == 0;
    return Value::Bool(match);
  }

  // --- object / schema functions ---
  if (fn == "class_of") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    if (const Object* obj = view.GetObject(oid)) {
      return Value::String(obj->cls->name());
    }
    if (const Link* link = view.GetLink(oid)) {
      return Value::String(link->def->name());
    }
    return Value::Null();
  }
  if (fn == "is_a") {
    PROMETHEUS_RETURN_IF_ERROR(want(2, 2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string cls, as_str(1));
    return Value::Bool(view.IsInstanceOf(oid, cls));
  }
  if (fn == "oid") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    return Value::Int(static_cast<std::int64_t>(oid));
  }
  if (fn == "extent") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, as_str(0));
    if (view.FindClass(name) != nullptr) {
      return refs_to_list(view.Extent(name));
    }
    if (view.FindRelationship(name) != nullptr) {
      return refs_to_list(view.LinkExtent(name));
    }
    return Status::NotFound("no extent named '" + name + "'");
  }
  if (fn == "attr") {
    PROMETHEUS_RETURN_IF_ERROR(want(2, 2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string name, as_str(1));
    Value scratch;
    PROMETHEUS_ASSIGN_OR_RETURN(const Value* member,
                                MemberOf(view, oid, name, scratch));
    return *member;
  }

  // --- synonym functions (4.5) ---
  if (fn == "canonical") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    return Value::Ref(view.CanonicalOf(oid));
  }
  if (fn == "synonyms") {
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid oid, as_ref(0));
    return refs_to_list(view.SynonymSet(oid));
  }
  if (fn == "are_synonyms") {
    PROMETHEUS_RETURN_IF_ERROR(want(2, 2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid a, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid b, as_ref(1));
    return Value::Bool(view.AreSynonyms(a, b));
  }

  // --- graph functions (5.1.1.3) ---
  auto parse_dir = [&](std::size_t i) -> Result<Direction> {
    PROMETHEUS_ASSIGN_OR_RETURN(std::string d, as_str(i));
    if (d == "out") return Direction::kOut;
    if (d == "in") return Direction::kIn;
    if (d == "both") return Direction::kBoth;
    return Status::InvalidArgument("direction must be 'out', 'in' or 'both'");
  };
  auto opt_context = [&](std::size_t i) -> Result<Oid> {
    if (i >= args.size() || args[i].is_null()) return kNullOid;
    if (args[i].type() != ValueType::kRef) {
      return Status::TypeError("context argument must be an object");
    }
    return args[i].AsRef();
  };
  if (fn == "traverse") {
    // traverse(start, 'rel', min, max [, dir] [, context])
    PROMETHEUS_RETURN_IF_ERROR(want(4, 6));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid start, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(1));
    if (args[2].type() != ValueType::kInt ||
        args[3].type() != ValueType::kInt) {
      return Status::TypeError("traverse depths must be integers");
    }
    Direction dir = Direction::kOut;
    std::size_t ctx_arg = 4;
    if (args.size() >= 5 && args[4].type() == ValueType::kString) {
      PROMETHEUS_ASSIGN_OR_RETURN(dir, parse_dir(4));
      ctx_arg = 5;
    }
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(ctx_arg));
    PROMETHEUS_ASSIGN_OR_RETURN(
        std::vector<Oid> oids,
        view.Traverse(start, rel, static_cast<std::uint32_t>(args[2].AsInt()),
                      static_cast<std::uint32_t>(args[3].AsInt()), dir, ctx));
    return refs_to_list(oids);
  }
  if (fn == "children" || fn == "parents") {
    // children(obj, 'rel' [, context])
    PROMETHEUS_RETURN_IF_ERROR(want(2, 3));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid obj, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(2));
    Direction dir = fn == "children" ? Direction::kOut : Direction::kIn;
    return refs_to_list(view.Neighbors(obj, rel, dir, ctx));
  }
  if (fn == "leaves") {
    // leaves(obj, 'rel' [, context]): descendants (or obj) with no children.
    PROMETHEUS_RETURN_IF_ERROR(want(2, 3));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid obj, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(2));
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<Oid> all,
                                view.Traverse(obj, rel, 0, 0,
                                            Direction::kOut, ctx));
    std::vector<Oid> leaves;
    for (Oid o : all) {
      if (view.Neighbors(o, rel, Direction::kOut, ctx).empty()) {
        leaves.push_back(o);
      }
    }
    return refs_to_list(leaves);
  }
  if (fn == "links") {
    // links(obj, 'rel'|null, 'out'|'in'|'both' [, context]) -> link objects.
    PROMETHEUS_RETURN_IF_ERROR(want(3, 4));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid obj, as_ref(0));
    const RelationshipDef* def = nullptr;
    if (!args[1].is_null()) {
      PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(1));
      def = view.FindRelationship(rel);
      if (def == nullptr) {
        return Status::NotFound("unknown relationship '" + rel + "'");
      }
    }
    PROMETHEUS_ASSIGN_OR_RETURN(Direction dir, parse_dir(2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(3));
    return refs_to_list(view.IncidentLinks(obj, dir, def, ctx));
  }
  if (fn == "in_context") {
    // in_context(classification) -> the classification's links.
    PROMETHEUS_RETURN_IF_ERROR(want(1, 1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, as_ref(0));
    return refs_to_list(view.LinksInContext(ctx));
  }
  if (fn == "reachable") {
    // reachable(from, to, 'rel' [, context]) -> bool.
    PROMETHEUS_RETURN_IF_ERROR(want(3, 4));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid from, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid to, as_ref(1));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(3));
    PROMETHEUS_ASSIGN_OR_RETURN(
        std::vector<Oid> oids,
        view.Traverse(from, rel, 1, 0, Direction::kOut, ctx));
    return Value::Bool(std::find(oids.begin(), oids.end(), to) !=
                       oids.end());
  }

  if (fn == "path") {
    // path(from, to, 'rel' [, context]) -> shortest path as a list of
    // objects including both endpoints; empty when unreachable.
    PROMETHEUS_RETURN_IF_ERROR(want(3, 4));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid from, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid to, as_ref(1));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(2));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(3));
    if (view.FindRelationship(rel) == nullptr) {
      return Status::NotFound("unknown relationship '" + rel + "'");
    }
    std::unordered_map<Oid, Oid> parent;
    std::vector<Oid> frontier{from};
    parent[from] = from;
    bool found = from == to;
    while (!found && !frontier.empty()) {
      std::vector<Oid> next;
      for (Oid cur : frontier) {
        for (Oid n : view.Neighbors(cur, rel, Direction::kOut, ctx)) {
          if (parent.count(n)) continue;
          parent[n] = cur;
          if (n == to) {
            found = true;
            break;
          }
          next.push_back(n);
        }
        if (found) break;
      }
      frontier = std::move(next);
    }
    Value::List out;
    if (found) {
      std::vector<Oid> chain;
      for (Oid cur = to;; cur = parent[cur]) {
        chain.push_back(cur);
        if (cur == from) break;
      }
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        out.push_back(Value::Ref(*it));
      }
    }
    return Value::MakeList(std::move(out));
  }
  if (fn == "subgraph") {
    // subgraph(start, 'rel' [, context]) -> the links of the graph
    // reachable downward from start (parameterised graph extraction,
    // thesis 5.1.1.3): the classification subtree as an entity.
    PROMETHEUS_RETURN_IF_ERROR(want(2, 3));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid start, as_ref(0));
    PROMETHEUS_ASSIGN_OR_RETURN(std::string rel, as_str(1));
    PROMETHEUS_ASSIGN_OR_RETURN(Oid ctx, opt_context(2));
    const RelationshipDef* def = view.FindRelationship(rel);
    if (def == nullptr) {
      return Status::NotFound("unknown relationship '" + rel + "'");
    }
    Value::List out;
    std::unordered_set<Oid> visited{start};
    std::vector<Oid> frontier{start};
    while (!frontier.empty()) {
      Oid cur = frontier.back();
      frontier.pop_back();
      for (Oid lid : view.IncidentLinks(cur, Direction::kOut, def, ctx)) {
        const Link* link = view.GetLink(lid);
        out.push_back(Value::Ref(lid));
        if (visited.insert(link->target).second) {
          frontier.push_back(link->target);
        }
      }
    }
    return Value::MakeList(std::move(out));
  }
  if (fn == "union_of" || fn == "intersect" || fn == "minus") {
    // OQL-style set operations over lists (duplicates removed).
    PROMETHEUS_RETURN_IF_ERROR(want(2, 2));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List a, as_list(0));
    PROMETHEUS_ASSIGN_OR_RETURN(Value::List b, as_list(1));
    auto contains = [](const Value::List& l, const Value& v) {
      return std::any_of(l.begin(), l.end(),
                         [&](const Value& x) { return x.Equals(v); });
    };
    Value::List out;
    auto push_unique = [&](const Value& v) {
      if (!contains(out, v)) out.push_back(v);
    };
    if (fn == "union_of") {
      for (const Value& v : a) push_unique(v);
      for (const Value& v : b) push_unique(v);
    } else if (fn == "intersect") {
      for (const Value& v : a) {
        if (contains(b, v)) push_unique(v);
      }
    } else {
      for (const Value& v : a) {
        if (!contains(b, v)) push_unique(v);
      }
    }
    return Value::MakeList(std::move(out));
  }
  return Status::NotFound("unknown function '" + fn + "'");
}

Result<Value> QueryEngine::Aggregate(const Expr& call,
                                     const Scope& scope) const {
  // The argument evaluates in each frame of the group, nulls skipped; an
  // aggregate nested inside it is not grouped again.
  std::vector<Value> values;
  values.reserve(scope.group->size());
  for (std::vector<Value>& frame : *scope.group) {
    PROMETHEUS_ASSIGN_OR_RETURN(
        Value v, EvalCopy(*call.children[0], Scope{scope.view, frame,
                                                   scope.env}));
    if (!v.is_null()) values.push_back(std::move(v));
  }
  if (call.name == "count") {
    return Value::Int(static_cast<std::int64_t>(values.size()));
  }
  return Reduce(call.name, values);
}

// ----------------------------------------------------------------- queries

namespace {

/// Appends the `and`-conjuncts of `e` to `out` — the planner's one view of
/// a where-clause.
void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    FlattenConjuncts(e->children[0].get(), out);
    FlattenConjuncts(e->children[1].get(), out);
  } else {
    out->push_back(e);
  }
}

/// `op` with its operands swapped: `5 < x` is `x > 5`.
BinaryOp Flipped(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

/// Merges the conjunct `var.attr op literal` into `bounds`: a lower bound
/// keeps the larger literal, an upper bound the smaller; on a tie the
/// strict one wins.
void Tighten(BinaryOp op, const Expr* literal,
             cache::RangeAccess::Bounds* bounds) {
  const bool lower = op == BinaryOp::kGt || op == BinaryOp::kGe;
  const bool strict = op == BinaryOp::kGt || op == BinaryOp::kLt;
  const Expr*& bound = lower ? bounds->lower : bounds->upper;
  bool& bound_strict = lower ? bounds->lower_strict : bounds->upper_strict;
  if (bound == nullptr) {
    bound = literal;
    bound_strict = strict;
    return;
  }
  Result<int> c = literal->literal.Compare(bound->literal);
  if (!c.ok()) {
    bounds->incomparable = true;
    return;
  }
  if (c.value() == 0) {
    bound_strict = bound_strict || strict;
  } else if (lower == (c.value() > 0)) {
    bound = literal;
    bound_strict = strict;
  }
}

/// The structural access-path analysis of `query` (see cache::RangeAccess):
/// per extent range, its `var.attr = literal` conjuncts and the merged
/// bounds of its `var.attr <op> literal` conjuncts.
cache::AccessAnalysis AnalyzeAccess(const SelectQuery& query) {
  cache::AccessAnalysis out;
  if (query.where == nullptr) return out;
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(query.where.get(), &conjuncts);
  for (const FromRange& range : query.from) {
    if (range.source_expr != nullptr) continue;
    cache::RangeAccess access;
    for (const Expr* c : conjuncts) {
      if (c->kind != ExprKind::kBinary) continue;
      BinaryOp op = c->binary_op;
      if (op != BinaryOp::kEq && op != BinaryOp::kLt &&
          op != BinaryOp::kLe && op != BinaryOp::kGt && op != BinaryOp::kGe) {
        continue;
      }
      const Expr* path = c->children[0].get();
      const Expr* lit = c->children[1].get();
      if (path->kind != ExprKind::kPath) {
        std::swap(path, lit);
        op = Flipped(op);
      }
      if (path->kind != ExprKind::kPath || lit->kind != ExprKind::kLiteral) {
        continue;
      }
      const Expr* base = path->children[0].get();
      if (base->kind != ExprKind::kVariable || base->slot != range.slot) {
        continue;
      }
      if (op == BinaryOp::kEq) {
        access.equalities.push_back({path->name, lit});
        continue;
      }
      auto it = std::find_if(access.ranges.begin(), access.ranges.end(),
                             [&](const cache::RangeAccess::Bounds& b) {
                               return b.attribute == path->name;
                             });
      if (it == access.ranges.end()) {
        it = access.ranges.insert(access.ranges.end(), {path->name});
      }
      Tighten(op, lit, &*it);
    }
    if (!access.equalities.empty() || !access.ranges.empty()) {
      out.emplace(&range, std::move(access));
    }
  }
  return out;
}

/// True when an ordered index over an attribute declared `declared` orders
/// `bound` (null: open) exactly as the where-clause compares it. Other
/// pairings are left to the scan, so the index never hides the TypeError
/// a comparison over an untyped or mismatched attribute raises.
bool BoundFitsDeclaredType(ValueType declared, const Expr* bound) {
  if (bound == nullptr) return true;
  const ValueType t = bound->literal.type();
  switch (declared) {
    case ValueType::kInt:
    case ValueType::kDouble:
      return t == ValueType::kInt || t == ValueType::kDouble;
    case ValueType::kString:
      return t == ValueType::kString;
    default:
      return false;
  }
}

/// The access path for an extent range over a class, chosen at execution
/// time in a fixed order: an equality conjunct with a live index, then a
/// range with a live ordered index whose declared type fits its bounds,
/// else (both null) an extent scan.
struct AccessPath {
  const cache::RangeAccess::Equality* lookup = nullptr;
  const cache::RangeAccess::Bounds* range = nullptr;

  /// The strategy string PROFILE and EXPLAIN report.
  std::string Strategy(const std::string& class_name) const {
    if (lookup != nullptr) {
      return "index lookup on " + class_name + "." + lookup->attribute;
    }
    if (range != nullptr) {
      std::string lo = "(-inf";
      if (range->lower != nullptr) {
        lo = (range->lower_strict ? "(" : "[") +
             range->lower->literal.ToString();
      }
      std::string hi = "+inf)";
      if (range->upper != nullptr) {
        hi = range->upper->literal.ToString() +
             (range->upper_strict ? ")" : "]");
      }
      return "index range on " + class_name + "." + range->attribute + " " +
             lo + ", " + hi;
    }
    return "extent scan of class " + class_name;
  }
};

AccessPath ChooseAccessPath(const IndexManager* indexes,
                            const DbSnapshot& view,
                            const std::string& class_name,
                            const cache::RangeAccess* access) {
  AccessPath path;
  if (indexes == nullptr || access == nullptr) return path;
  for (const cache::RangeAccess::Equality& eq : access->equalities) {
    if (indexes->HasIndex(class_name, eq.attribute)) {
      path.lookup = &eq;
      return path;
    }
  }
  const ClassDef* cls = view.FindClass(class_name);
  for (const cache::RangeAccess::Bounds& b : access->ranges) {
    if (b.incomparable) continue;
    const AttributeDef* def = cls->FindAttribute(b.attribute);
    if (def == nullptr || !BoundFitsDeclaredType(def->type, b.lower) ||
        !BoundFitsDeclaredType(def->type, b.upper) ||
        !indexes->HasOrderedIndex(class_name, b.attribute)) {
      continue;
    }
    path.range = &b;
    return path;
  }
  return path;
}

}  // namespace

/// One range of an execution's join, in join order.
struct QueryEngine::RangeBinding {
  const FromRange* range;
  std::vector<Value> candidates;  ///< for extent ranges (pre-computed)
  std::string strategy;           ///< access path chosen (profiling)
  /// A dependent range's list under the current outer bindings.
  Value source;
  /// The candidates being enumerated (`candidates` or `source`'s list) and
  /// the next one to bind.
  const std::vector<Value>* rows = nullptr;
  std::size_t next = 0;
};

std::shared_ptr<const cache::PlanEntry> QueryEngine::BuildPlanEntry(
    std::shared_ptr<const SelectQuery> ast) const {
  auto entry = std::make_shared<cache::PlanEntry>();
  entry->ast = std::move(ast);
  entry->access = AnalyzeAccess(*entry->ast);
  return entry;
}

Result<std::vector<Value>> QueryEngine::RangeCandidates(
    const FromRange& range, const cache::RangeAccess* access,
    std::string* strategy) const {
  auto refs = [](const std::vector<Oid>& oids) {
    std::vector<Value> out;
    out.reserve(oids.size());
    for (Oid o : oids) out.push_back(Value::Ref(o));
    return out;
  };
  const std::string& name = range.source_name;
  const EngineMetrics& metrics = EngineMetrics::Get();
  // Virtual system-catalog range: materialize a point-in-time row set (at
  // most once per top-level execution, via the thread's CatalogScope). No
  // index ever applies; rows are structs, not refs.
  if (SystemCatalog::IsCatalogName(name)) {
    if (catalog_ == nullptr || !catalog_->Has(name)) {
      return Status::NotFound("no system catalog class named '" + name + "'");
    }
    if (strategy != nullptr) *strategy = "catalog materialization of " + name;
    if (g_catalog_scope != nullptr) {
      auto it = g_catalog_scope->materialized.find(name);
      if (it != g_catalog_scope->materialized.end()) return it->second;
    }
    metrics.catalog_materializations->Increment();
    std::vector<Value> rows = catalog_->Materialize(name);
    if (g_catalog_scope != nullptr) {
      g_catalog_scope->materialized.emplace(name, rows);
    }
    return rows;
  }
  const bool is_class = view().FindClass(name) != nullptr;
  if (!is_class && view().FindRelationship(name) == nullptr) {
    return Status::NotFound("no extent named '" + name + "'");
  }
  // Index optimization (6.1.5.2/3): replace the extent scan by an index
  // lookup or range. The candidates are a superset filter — the where
  // clause still runs on each — so the answer never depends on the path.
  if (is_class) {
    const AccessPath path = ChooseAccessPath(indexes_, view(), name, access);
    if (path.lookup != nullptr || path.range != nullptr) {
      // The index probes that chose the path and this lookup are distinct
      // critical sections, and under MVCC the index may also have run ahead of the
      // snapshot this query reads through. Either way the lookup itself is
      // the source of truth: any failure falls through to the extent scan,
      // which is always correct against the current view. Strict range
      // bounds probe inclusively; the where clause trims the endpoints.
      auto bound = [](const Expr* e) {
        return e != nullptr ? e->literal : Value::Null();
      };
      Result<std::vector<Oid>> oids =
          path.lookup != nullptr
              ? indexes_->Lookup(name, path.lookup->attribute,
                                 path.lookup->literal->literal,
                                 view().index_epoch_ceiling())
              : indexes_->RangeLookup(name, path.range->attribute,
                                      bound(path.range->lower),
                                      bound(path.range->upper),
                                      view().index_epoch_ceiling());
      if (oids.ok()) {
        metrics.index_lookups->Increment();
        ExtentHeat::Instance().RecordIndexHit(name, oids.value().size());
        if (strategy != nullptr) *strategy = path.Strategy(name);
        return refs(oids.value());
      }
      metrics.index_fallbacks->Increment();
    }
  }
  metrics.extent_scans->Increment();
  if (strategy != nullptr) {
    *strategy = is_class ? AccessPath().Strategy(name)
                         : "extent scan of relationship " + name;
  }
  std::vector<Oid> oids = is_class ? view().Extent(name) : view().LinkExtent(name);
  ExtentHeat::Instance().RecordScan(name, oids.size());
  return refs(oids);
}

Result<std::string> QueryEngine::Explain(const std::string& query) const {
  PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<SelectQuery> parsed,
                              ParseQuery(query));
  const cache::AccessAnalysis analysis = AnalyzeAccess(*parsed);
  std::string out;
  for (const FromRange& range : parsed->from) {
    out += range.variable;
    out += ": ";
    if (range.source_expr != nullptr) {
      out += "dependent expression (evaluated per outer binding)";
    } else if (SystemCatalog::IsCatalogName(range.source_name)) {
      if (catalog_ == nullptr || !catalog_->Has(range.source_name)) {
        return Status::NotFound("no system catalog class named '" +
                                range.source_name + "'");
      }
      out += "catalog materialization of " + range.source_name;
    } else if (view().FindClass(range.source_name) != nullptr) {
      auto it = analysis.find(&range);
      out += ChooseAccessPath(indexes_, view(), range.source_name,
                              it != analysis.end() ? &it->second : nullptr)
                 .Strategy(range.source_name);
    } else if (view().FindRelationship(range.source_name) != nullptr) {
      out += "extent scan of relationship " + range.source_name;
    } else {
      return Status::NotFound("no extent named '" + range.source_name + "'");
    }
    out += "\n";
  }
  if (!parsed->group_by.empty()) out += "group by: hash grouping\n";
  if (!parsed->order_by.empty()) out += "order by: sort\n";
  return out;
}

Result<ResultSet> QueryEngine::Execute(const SelectQuery& query,
                                       const Environment& outer,
                                       const ExecutionContext* ctx) const {
  return ExecuteInternal(query, nullptr, outer, nullptr, ctx);
}

Result<ResultSet> QueryEngine::ExecuteInternal(const SelectQuery& query,
                                               std::vector<Value>* shared,
                                               const Environment& env,
                                               obs::TraceNode* trace,
                                               const ExecutionContext* ctx,
                                               const cache::AccessAnalysis*
                                                   access) const {
  // Const-execution contract: this path never mutates the database. When
  // the thread reads through a pinned snapshot the epoch is immutable by
  // construction; when it reads the live database the caller must hold
  // the epoch guard, so no writer can interleave and the epoch is stable
  // across the run. An epoch change here means a racing writer (a skipped
  // ReadGuard on the live path).
#ifndef NDEBUG
  const std::uint64_t epoch_at_entry = view().epoch();
#endif
  if (query.from.empty()) {
    return Status::ParseError("query requires at least one range");
  }
  // One catalog materialization per top-level query (no-op when a scope is
  // already active, i.e. for subqueries and dependent ranges).
  ScopedCatalogScope catalog_scope;
  // Without a cached plan (subqueries, parsed queries) the access-path
  // analysis runs here, once per call — and only when an index could use it.
  cache::AccessAnalysis local_access;
  if (access == nullptr && indexes_ != nullptr) {
    local_access = AnalyzeAccess(query);
    access = &local_access;
  }
  // Plan stage: pre-compute extent candidates (dependent ranges evaluate
  // per binding) and order the join. Built as a local node and attached
  // when complete, so sibling spans never invalidate it.
  obs::TraceNode plan_node("plan");
  obs::SpanTimer plan_span(trace != nullptr ? &plan_node : nullptr);
  std::vector<RangeBinding> ranges;
  ranges.reserve(query.from.size());
  for (const FromRange& r : query.from) {
    RangeBinding rb;
    rb.range = &r;
    if (r.source_expr == nullptr) {
      const cache::RangeAccess* range_access = nullptr;
      if (access != nullptr) {
        auto it = access->find(&r);
        if (it != access->end()) range_access = &it->second;
      }
      PROMETHEUS_ASSIGN_OR_RETURN(
          rb.candidates,
          RangeCandidates(r, range_access,
                          trace != nullptr ? &rb.strategy : nullptr));
    } else {
      rb.strategy = "dependent expression (evaluated per outer binding)";
    }
    ranges.push_back(std::move(rb));
  }

  // Join-order optimisation (6.1.5.3): drive the nested loops with the
  // most selective extent ranges first. Dependent ranges wait until every
  // sibling range their expression reads (resolved by the parser) is bound.
  {
    std::vector<RangeBinding> ordered;
    std::vector<bool> placed(ranges.size(), false);
    while (ordered.size() < ranges.size()) {
      // Prefer the eligible extent range with the fewest candidates;
      // otherwise the first eligible dependent range.
      std::size_t best = ranges.size();
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (placed[i]) continue;
        const RangeBinding& rb = ranges[i];
        if (rb.range->source_expr != nullptr) {
          const std::vector<std::size_t>& deps = rb.range->depends_on;
          if (!std::all_of(deps.begin(), deps.end(),
                           [&](std::size_t d) { return placed[d]; })) {
            continue;
          }
          // A dependent range is only chosen when no extent range is
          // available (they usually shrink with more bindings).
          if (best == ranges.size()) best = i;
          continue;
        }
        if (best == ranges.size() ||
            ranges[best].range->source_expr != nullptr ||
            rb.candidates.size() < ranges[best].candidates.size()) {
          best = i;
        }
      }
      if (best == ranges.size()) {
        return Status::InvalidArgument(
            "circular dependency between from-ranges");
      }
      placed[best] = true;
      ordered.push_back(std::move(ranges[best]));
    }
    ranges = std::move(ordered);
  }
  plan_span.Stop();
  if (trace != nullptr) {
    for (const RangeBinding& rb : ranges) {
      obs::TraceNode* child = plan_node.AddChild("range " + rb.range->variable);
      child->detail = rb.strategy;
      if (rb.range->source_expr == nullptr) {
        child->rows = static_cast<std::int64_t>(rb.candidates.size());
      }
    }
    trace->children.push_back(std::move(plan_node));
  }

  ResultSet result;
  if (query.select_star) {
    for (const FromRange& r : query.from) result.columns.push_back(r.variable);
  } else {
    for (std::size_t i = 0; i < query.items.size(); ++i) {
      const SelectItem& item = query.items[i];
      result.columns.push_back(
          item.alias.empty() ? "col" + std::to_string(i + 1) : item.alias);
    }
  }

  const bool grouped = !query.group_by.empty();
  if (grouped && query.select_star) {
    return Status::ParseError("'select *' cannot be combined with group by");
  }
  // A top-level execution owns its frame; a subquery shares its caller's.
  std::vector<Value> own;
  if (shared == nullptr) own.resize(query.frame_size);
  std::vector<Value>& frame = shared != nullptr ? *shared : own;
  const Scope scope{view(), frame, env};

  /// Bindings enumerated by the join loops — the query's "rows scanned"
  /// cardinality (profile + metrics).
  std::uint64_t scanned = 0;

  // Positions `rb` at its first candidate. A dependent range evaluates its
  // expression under the bindings of the ranges before it in join order.
  auto open = [&](RangeBinding& rb) -> Status {
    rb.next = 0;
    if (rb.range->source_expr == nullptr) {
      rb.rows = &rb.candidates;
      return Status::Ok();
    }
    PROMETHEUS_ASSIGN_OR_RETURN(
        const Value* src, Eval(*rb.range->source_expr, scope, rb.source));
    if (src->type() != ValueType::kList) {
      return Status::TypeError("range expression for '" +
                               rb.range->variable + "' must produce a list");
    }
    if (src != &rb.source) rb.source = *src;
    rb.rows = &rb.source.AsList();
    return Status::Ok();
  };

  // The nested-loop join as one flat loop over `ranges`: each enumerated
  // binding writes its candidate into the range's frame slot, and
  // `on_binding` runs once per complete binding that passes the where
  // clause.
  auto join = [&](auto&& on_binding) -> Status {
    std::size_t depth = 0;
    PROMETHEUS_RETURN_IF_ERROR(open(ranges[0]));
    for (;;) {
      RangeBinding& rb = ranges[depth];
      if (rb.next == rb.rows->size()) {
        if (depth == 0) return Status::Ok();
        --depth;
        continue;
      }
      // Cooperative deadline / cancellation: one check per enumerated
      // binding bounds the abort latency by a single binding's work
      // (including its subqueries and the emit path).
      if (ctx != nullptr) PROMETHEUS_RETURN_IF_ERROR(ctx->Check());
      ++scanned;
      frame[rb.range->slot] = (*rb.rows)[rb.next++];
      if (depth + 1 < ranges.size()) {
        PROMETHEUS_RETURN_IF_ERROR(open(ranges[++depth]));
        continue;
      }
      if (query.where != nullptr) {
        PROMETHEUS_ASSIGN_OR_RETURN(bool pass, Test(*query.where, scope));
        if (!pass) continue;
      }
      PROMETHEUS_RETURN_IF_ERROR(on_binding());
    }
  };

  // Emitted rows, and their order-by key tuples when there is an order by.
  std::vector<std::vector<Value>> rows;
  std::vector<Value::List> keys;
  auto emit = [&](const Scope& row_scope) -> Status {
    std::vector<Value> row;
    if (query.select_star) {
      row.reserve(query.from.size());
      for (const FromRange& r : query.from) {
        row.push_back(row_scope.frame[r.slot]);
      }
    } else {
      row.reserve(query.items.size());
      for (const SelectItem& item : query.items) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value v, EvalCopy(*item.expr, row_scope));
        row.push_back(std::move(v));
      }
    }
    if (!query.order_by.empty()) {
      Value::List key;
      for (const SelectQuery::OrderKey& ok : query.order_by) {
        PROMETHEUS_ASSIGN_OR_RETURN(Value v, EvalCopy(*ok.expr, row_scope));
        key.push_back(std::move(v));
      }
      keys.push_back(std::move(key));
    }
    rows.push_back(std::move(row));
    return Status::Ok();
  };

  obs::TraceNode exec_node("execute");
  obs::SpanTimer exec_span(trace != nullptr ? &exec_node : nullptr);

  if (grouped) {
    // Group the bindings by the group-by key, keeping a copy of each
    // binding's frame, then emit one row per group (having, select list
    // and order by read the group's frames).
    std::vector<std::vector<std::vector<Value>>*> group_order;
    std::unordered_map<std::string, std::vector<std::vector<Value>>> groups;
    PROMETHEUS_RETURN_IF_ERROR(join([&]() -> Status {
      std::string key;
      Value scratch;
      for (const auto& expr : query.group_by) {
        PROMETHEUS_ASSIGN_OR_RETURN(const Value* v,
                                    Eval(*expr, scope, scratch));
        std::string part = v->IndexKey();
        key += std::to_string(part.size());
        key += ':';
        key += part;
      }
      auto [it, fresh] = groups.try_emplace(std::move(key));
      if (fresh) group_order.push_back(&it->second);
      it->second.push_back(frame);
      return Status::Ok();
    }));
    for (std::vector<std::vector<Value>>* group : group_order) {
      const Scope group_scope{scope.view, group->front(), env, group};
      if (query.having != nullptr) {
        PROMETHEUS_ASSIGN_OR_RETURN(bool pass,
                                    Test(*query.having, group_scope));
        if (!pass) continue;
      }
      PROMETHEUS_RETURN_IF_ERROR(emit(group_scope));
    }
  } else {
    PROMETHEUS_RETURN_IF_ERROR(join([&] { return emit(scope); }));
  }
  exec_span.Stop();
  if (trace != nullptr) {
    exec_node.detail = std::to_string(scanned) + " bindings scanned";
    exec_node.rows = static_cast<std::int64_t>(rows.size());
    trace->children.push_back(std::move(exec_node));
  }

  // The order rows are projected in: emission order, or sorted by key.
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  obs::TraceNode sort_node("sort");
  obs::SpanTimer sort_span(
      trace != nullptr && !query.order_by.empty() ? &sort_node : nullptr);
  if (!query.order_by.empty()) {
    // Lexicographic multi-key sort, each key with its own direction.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       for (std::size_t k = 0; k < query.order_by.size();
                            ++k) {
                         if (k >= keys[a].size() || k >= keys[b].size()) {
                           break;
                         }
                         auto c = keys[a][k].Compare(keys[b][k]);
                         // Tie or incomparable: the next key decides.
                         if (!c.ok() || c.value() == 0) continue;
                         return query.order_by[k].desc ? c.value() > 0
                                                       : c.value() < 0;
                       }
                       return false;
                     });
  }
  sort_span.Stop();
  if (trace != nullptr && !query.order_by.empty()) {
    sort_node.detail = std::to_string(query.order_by.size()) + " key(s)";
    sort_node.rows = static_cast<std::int64_t>(rows.size());
    trace->children.push_back(std::move(sort_node));
  }

  obs::TraceNode project_node("project");
  obs::SpanTimer project_span(trace != nullptr ? &project_node : nullptr);
  std::vector<std::string> seen;  // distinct keys, sorted for binary search
  for (std::size_t i : order) {
    std::vector<Value>& row = rows[i];
    if (query.distinct) {
      std::string k;
      for (const Value& v : row) {
        std::string part = v.IndexKey();
        k += std::to_string(part.size());
        k += ':';
        k += part;
      }
      auto it = std::lower_bound(seen.begin(), seen.end(), k);
      if (it != seen.end() && *it == k) continue;
      seen.insert(it, k);
    }
    result.rows.push_back(std::move(row));
    if (query.limit >= 0 &&
        result.rows.size() >= static_cast<std::size_t>(query.limit)) {
      break;
    }
  }
  project_span.Stop();
  if (trace != nullptr) {
    project_node.detail = query.distinct ? "distinct" : "";
    if (query.limit >= 0) {
      if (!project_node.detail.empty()) project_node.detail += ", ";
      project_node.detail += "limit " + std::to_string(query.limit);
    }
    project_node.rows = static_cast<std::int64_t>(result.rows.size());
    trace->children.push_back(std::move(project_node));
  }

  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.rows_scanned->Increment(scanned);
  metrics.rows_returned->Increment(result.rows.size());
  assert(view().epoch() == epoch_at_entry &&
         "database mutated during const query execution — caller must hold "
         "Database::ReadGuard");
  return result;
}

}  // namespace prometheus::pool
