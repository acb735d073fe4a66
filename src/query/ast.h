#ifndef PROMETHEUS_QUERY_AST_H_
#define PROMETHEUS_QUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace prometheus::pool {

/// Expression node kinds of the POOL AST.
enum class ExprKind : std::uint8_t {
  kLiteral,    ///< constant Value
  kVariable,   ///< range variable (frame slot) or caller binding (self, ...)
  kPath,       ///< base '.' member (attribute / source / target / context)
  kDowncast,   ///< base '[' ClassName ']' — selective downcast (5.1.1.2)
  kUnary,      ///< not / negation
  kBinary,     ///< arithmetic, comparison, boolean, like, in
  kCall,       ///< function call (traverse, count, exists, ...)
  kSubquery,   ///< nested select, evaluated to a list
};

/// Binary operators.
enum class BinaryOp : std::uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kLike,
  kIn,
};

/// Unary operators.
enum class UnaryOp : std::uint8_t {
  kNot,
  kNeg,
};

struct SelectQuery;

/// A POOL expression tree node. Plain data; evaluation lives in the
/// evaluator so the same tree can serve queries, views and rules. The
/// parser resolves every variable before it returns a tree, and nothing
/// changes the tree afterwards, so executions may share it.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  Value literal;
  // kVariable
  std::string name;
  /// kVariable: the frame slot of the range that binds `name` — the
  /// innermost enclosing one — resolved by the parser; -1 when no range
  /// binds it and the name is looked up in the caller's Environment.
  int slot = -1;
  // kPath / kDowncast / kUnary: operand in children[0]; kPath uses `name`
  // as the member, kDowncast uses `name` as the class.
  // kBinary: children[0], children[1].
  // kCall: `name` is the function, children are arguments.
  std::vector<std::unique_ptr<Expr>> children;
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNot;
  // kSubquery
  std::unique_ptr<SelectQuery> subquery;
};

/// One entry of a FROM list.
///
/// If `source_name` names a class, the variable ranges over its deep
/// extent; if it names a relationship class, over its link extent (POOL's
/// uniform treatment of objects and relationships, 5.1.1.2). Otherwise
/// `source_expr` is set and is evaluated per binding of the ranges to its
/// left — it must yield a list (dependent join, the idiom POOL uses for
/// graph navigation in FROM position).
struct FromRange {
  std::string variable;
  std::string source_name;            ///< extent name; empty for expressions
  std::unique_ptr<Expr> source_expr;  ///< dependent range; null for extents
  int slot = -1;  ///< frame slot the range's bindings are written to
  /// Dependent ranges: positions in the query's `from` of the sibling
  /// ranges `source_expr` reads (its subqueries included), so the join
  /// binds them first.
  std::vector<std::size_t> depends_on;
};

/// One projected column.
struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;  ///< output column name (derived when not given)
};

/// A parsed `select` query.
struct SelectQuery {
  bool distinct = false;
  bool select_star = false;
  std::vector<SelectItem> items;
  std::vector<FromRange> from;
  std::unique_ptr<Expr> where;      ///< null when absent
  /// Grouping expressions; when non-empty the select list, `having` and
  /// `order by` are evaluated per group, with `count`/`sum`/`min`/`max`/
  /// `avg` calls aggregating over the group's bindings.
  std::vector<std::unique_ptr<Expr>> group_by;
  std::unique_ptr<Expr> having;     ///< null when absent
  /// Sort keys, outermost first; each with its own direction.
  struct OrderKey {
    std::unique_ptr<Expr> expr;
    bool desc = false;
  };
  std::vector<OrderKey> order_by;
  std::int64_t limit = -1;          ///< -1: no limit
  /// Frame slots this query and its subqueries need. Slots are numbered
  /// across the whole tree — a subquery's follow its caller's — so one
  /// frame serves a query and every subquery it runs.
  std::size_t frame_size = 0;
};

}  // namespace prometheus::pool

#endif  // PROMETHEUS_QUERY_AST_H_
