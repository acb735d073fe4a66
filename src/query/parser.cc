#include "query/parser.h"

#include <algorithm>
#include <utility>

#include "query/token.h"

namespace prometheus::pool {

namespace {

/// Lexical binding, run once over a whole parsed tree (a query's select
/// list precedes its FROM in the text, so names resolve only when the tree
/// is complete). Numbers every range with a frame slot — across the whole
/// tree, so a subquery's slots follow its caller's — and resolves each
/// variable to the slot of the innermost enclosing range with its name.
/// Within one FROM list a later range shadows an earlier one; a dependent
/// range's expression sees its siblings but not itself. Names no range
/// binds keep slot -1 and are looked up in the caller's Environment.
class Binder {
 public:
  void BindQuery(SelectQuery* q) {
    const std::size_t scope_base = scope_.size();
    for (std::size_t i = 0; i < q->from.size(); ++i) {
      FromRange& range = q->from[i];
      range.slot = next_slot_++;
      scope_.push_back({&range.variable, range.slot, q, i});
    }
    for (FromRange& range : q->from) {
      if (range.source_expr == nullptr) continue;
      pending_.push_back({q, range.slot, &range.depends_on});
      BindExpr(range.source_expr.get());
      pending_.pop_back();
    }
    for (SelectItem& item : q->items) BindExpr(item.expr.get());
    BindExpr(q->where.get());
    for (auto& key : q->group_by) BindExpr(key.get());
    BindExpr(q->having.get());
    for (auto& key : q->order_by) BindExpr(key.expr.get());
    scope_.resize(scope_base);
    q->frame_size = static_cast<std::size_t>(next_slot_);
  }

  void BindExpr(Expr* e) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kVariable) Resolve(e);
    for (auto& child : e->children) BindExpr(child.get());
    if (e->subquery != nullptr) BindQuery(e->subquery.get());
  }

 private:
  struct Binding {
    const std::string* name;
    int slot;
    const SelectQuery* query;  ///< the query whose FROM declares it
    std::size_t position;      ///< its index in that FROM list
  };

  /// A dependent range whose source expression is being bound. The range
  /// is not bound while its source is evaluated, so it is invisible there;
  /// `reads` collects the sibling ranges the source reads, also from
  /// inside nested subqueries.
  struct Pending {
    const SelectQuery* query;
    int slot;
    std::vector<std::size_t>* reads;
  };

  void Resolve(Expr* e) {
    auto pending = [&](int slot) {
      return std::any_of(pending_.begin(), pending_.end(),
                         [&](const Pending& p) { return p.slot == slot; });
    };
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (*it->name != e->name || pending(it->slot)) continue;
      e->slot = it->slot;
      for (Pending& p : pending_) {
        if (p.query == it->query &&
            std::find(p.reads->begin(), p.reads->end(), it->position) ==
                p.reads->end()) {
          p.reads->push_back(it->position);
        }
      }
      return;
    }
  }

  std::vector<Binding> scope_;  ///< innermost last
  std::vector<Pending> pending_;  ///< innermost last
  int next_slot_ = 0;
};

/// Recursive-descent parser over the token stream. Grammar (5.1.1):
///
///   query    := SELECT [DISTINCT] ('*' | item (',' item)*)
///               FROM range (',' range)*
///               [WHERE expr] [ORDER BY expr [ASC|DESC]] [LIMIT int]
///   item     := expr [AS ident]
///   range    := ident IN source | source [AS] [ident]
///   source   := extent-name | expr
///   expr     := or-precedence expression with NOT/comparisons/LIKE/IN,
///               path steps `.member`, selective downcast `[Class]`,
///               function calls and parenthesised subqueries.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<SelectQuery>> ParseQueryTop() {
    auto q = ParseSelect();
    if (!q.ok()) return q.status();
    PROMETHEUS_RETURN_IF_ERROR(Expect(TokenKind::kEnd, "end of query"));
    Binder().BindQuery(q.value().get());
    return std::move(q).value();
  }

  Result<std::unique_ptr<Expr>> ParseExprTop() {
    auto e = ParseExpr();
    if (!e.ok()) return e.status();
    PROMETHEUS_RETURN_IF_ERROR(Expect(TokenKind::kEnd, "end of expression"));
    Binder().BindExpr(e.value().get());
    return std::move(e).value();
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(std::size_t ahead = 1) const {
    std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool Accept(TokenKind kind) {
    if (Cur().kind == kind) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(TokenKind kind, const std::string& what) {
    if (Cur().kind != kind) {
      return Status::ParseError("expected " + what + " at offset " +
                                std::to_string(Cur().offset));
    }
    Advance();
    return Status::Ok();
  }

  Result<std::unique_ptr<SelectQuery>> ParseSelect() {
    PROMETHEUS_RETURN_IF_ERROR(Expect(TokenKind::kSelect, "'select'"));
    auto q = std::make_unique<SelectQuery>();
    q->distinct = Accept(TokenKind::kDistinct);
    if (Accept(TokenKind::kStar)) {
      q->select_star = true;
    } else {
      do {
        SelectItem item;
        PROMETHEUS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Accept(TokenKind::kAs)) {
          if (Cur().kind != TokenKind::kIdentifier) {
            return Status::ParseError("expected alias after 'as'");
          }
          item.alias = Cur().text;
          Advance();
        }
        q->items.push_back(std::move(item));
      } while (Accept(TokenKind::kComma));
    }
    PROMETHEUS_RETURN_IF_ERROR(Expect(TokenKind::kFrom, "'from'"));
    do {
      PROMETHEUS_ASSIGN_OR_RETURN(FromRange range, ParseRange());
      q->from.push_back(std::move(range));
    } while (Accept(TokenKind::kComma));
    if (Accept(TokenKind::kWhere)) {
      PROMETHEUS_ASSIGN_OR_RETURN(q->where, ParseExpr());
    }
    if (Accept(TokenKind::kGroup)) {
      PROMETHEUS_RETURN_IF_ERROR(Expect(TokenKind::kBy, "'by'"));
      do {
        PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> key, ParseExpr());
        q->group_by.push_back(std::move(key));
      } while (Accept(TokenKind::kComma));
      if (Accept(TokenKind::kHaving)) {
        PROMETHEUS_ASSIGN_OR_RETURN(q->having, ParseExpr());
      }
    }
    if (Accept(TokenKind::kOrder)) {
      PROMETHEUS_RETURN_IF_ERROR(Expect(TokenKind::kBy, "'by'"));
      do {
        SelectQuery::OrderKey key;
        PROMETHEUS_ASSIGN_OR_RETURN(key.expr, ParseExpr());
        if (Accept(TokenKind::kDesc)) {
          key.desc = true;
        } else {
          Accept(TokenKind::kAsc);
        }
        q->order_by.push_back(std::move(key));
      } while (Accept(TokenKind::kComma));
    }
    if (Accept(TokenKind::kLimit)) {
      if (Cur().kind != TokenKind::kInt) {
        return Status::ParseError("expected integer after 'limit'");
      }
      q->limit = Cur().int_value;
      Advance();
    }
    return q;
  }

  Result<FromRange> ParseRange() {
    FromRange range;
    // OQL form: `var in source`.
    if (Cur().kind == TokenKind::kIdentifier &&
        Peek().kind == TokenKind::kIn) {
      range.variable = Cur().text;
      Advance();
      Advance();  // 'in'
      return FinishRangeSource(std::move(range));
    }
    // Form: `source [as] [var]`.
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> src, ParseExpr());
    Accept(TokenKind::kAs);
    if (Cur().kind == TokenKind::kIdentifier) {
      range.variable = Cur().text;
      Advance();
    }
    if (src->kind == ExprKind::kVariable) {
      range.source_name = src->name;
      if (range.variable.empty()) range.variable = src->name;
    } else if (std::string sys = SysCatalogName(*src); !sys.empty()) {
      range.source_name = std::move(sys);
      if (range.variable.empty()) {
        return Status::ParseError(
            "catalog range requires a variable name (e.g. 'sys.metrics m')");
      }
    } else {
      if (range.variable.empty()) {
        return Status::ParseError(
            "expression range requires a variable name");
      }
      range.source_expr = std::move(src);
    }
    return range;
  }

  Result<FromRange> FinishRangeSource(FromRange range) {
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> src, ParseExpr());
    if (src->kind == ExprKind::kVariable) {
      range.source_name = src->name;
    } else if (std::string sys = SysCatalogName(*src); !sys.empty()) {
      range.source_name = std::move(sys);
    } else {
      range.source_expr = std::move(src);
    }
    return range;
  }

  // `sys` is a reserved namespace: a range source of exactly
  // `sys.<member>` names a virtual system-catalog extent, not a path over a
  // variable. Deeper paths (`sys.a.b`) and every other base stay expression
  // ranges, so dependent ranges like `from t.children c` are unaffected.
  static std::string SysCatalogName(const Expr& src) {
    if (src.kind != ExprKind::kPath || src.children.size() != 1) return "";
    const Expr& base = *src.children[0];
    if (base.kind != ExprKind::kVariable || base.name != "sys") return "";
    return "sys." + src.name;
  }

  Result<std::unique_ptr<Expr>> ParseExpr() { return ParseOr(); }

  Result<std::unique_ptr<Expr>> ParseOr() {
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAnd());
    while (Accept(TokenKind::kOr)) {
      PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAnd());
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseNot());
    while (Accept(TokenKind::kAnd)) {
      PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseNot());
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseNot() {
    if (Accept(TokenKind::kNot)) {
      PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParseNot());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->unary_op = UnaryOp::kNot;
      e->children.push_back(std::move(operand));
      return e;
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAdditive());
    BinaryOp op;
    bool negate = false;
    switch (Cur().kind) {
      case TokenKind::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenKind::kNe:
        op = BinaryOp::kNe;
        break;
      case TokenKind::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenKind::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenKind::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenKind::kGe:
        op = BinaryOp::kGe;
        break;
      case TokenKind::kLike:
        op = BinaryOp::kLike;
        break;
      case TokenKind::kIn:
        op = BinaryOp::kIn;
        break;
      case TokenKind::kNot:
        // `x not in y` / `x not like y`.
        if (Peek().kind == TokenKind::kIn) {
          op = BinaryOp::kIn;
          negate = true;
          Advance();
        } else if (Peek().kind == TokenKind::kLike) {
          op = BinaryOp::kLike;
          negate = true;
          Advance();
        } else {
          return lhs;
        }
        break;
      default:
        return lhs;
    }
    Advance();
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAdditive());
    std::unique_ptr<Expr> cmp =
        MakeBinary(op, std::move(lhs), std::move(rhs));
    if (negate) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->unary_op = UnaryOp::kNot;
      e->children.push_back(std::move(cmp));
      return e;
    }
    return cmp;
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs,
                                ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (Cur().kind == TokenKind::kPlus) {
        op = BinaryOp::kAdd;
      } else if (Cur().kind == TokenKind::kMinus) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      Advance();
      PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs,
                                  ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParsePostfix());
    for (;;) {
      BinaryOp op;
      if (Cur().kind == TokenKind::kStar) {
        op = BinaryOp::kMul;
      } else if (Cur().kind == TokenKind::kSlash) {
        op = BinaryOp::kDiv;
      } else if (Cur().kind == TokenKind::kPercent) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      Advance();
      PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParsePostfix());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<std::unique_ptr<Expr>> ParsePostfix() {
    PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> base, ParsePrimary());
    for (;;) {
      if (Accept(TokenKind::kDot)) {
        if (Cur().kind != TokenKind::kIdentifier) {
          return Status::ParseError("expected member name after '.'");
        }
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kPath;
        e->name = Cur().text;
        e->children.push_back(std::move(base));
        base = std::move(e);
        Advance();
      } else if (Accept(TokenKind::kLBracket)) {
        if (Cur().kind != TokenKind::kIdentifier) {
          return Status::ParseError("expected class name in downcast");
        }
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kDowncast;
        e->name = Cur().text;
        e->children.push_back(std::move(base));
        base = std::move(e);
        Advance();
        PROMETHEUS_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "']'"));
      } else {
        return base;
      }
    }
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    auto e = std::make_unique<Expr>();
    switch (Cur().kind) {
      case TokenKind::kInt:
        e->kind = ExprKind::kLiteral;
        e->literal = Value::Int(Cur().int_value);
        Advance();
        return e;
      case TokenKind::kDouble:
        e->kind = ExprKind::kLiteral;
        e->literal = Value::Double(Cur().double_value);
        Advance();
        return e;
      case TokenKind::kString:
        e->kind = ExprKind::kLiteral;
        e->literal = Value::String(Cur().text);
        Advance();
        return e;
      case TokenKind::kTrue:
        e->kind = ExprKind::kLiteral;
        e->literal = Value::Bool(true);
        Advance();
        return e;
      case TokenKind::kFalse:
        e->kind = ExprKind::kLiteral;
        e->literal = Value::Bool(false);
        Advance();
        return e;
      case TokenKind::kNull:
        e->kind = ExprKind::kLiteral;
        e->literal = Value::Null();
        Advance();
        return e;
      case TokenKind::kMinus: {
        Advance();
        PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand,
                                    ParsePostfix());
        e->kind = ExprKind::kUnary;
        e->unary_op = UnaryOp::kNeg;
        e->children.push_back(std::move(operand));
        return e;
      }
      case TokenKind::kIdentifier: {
        std::string name = Cur().text;
        Advance();
        if (Accept(TokenKind::kLParen)) {
          e->kind = ExprKind::kCall;
          e->name = std::move(name);
          if (!Accept(TokenKind::kRParen)) {
            do {
              PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg,
                                          ParseExpr());
              e->children.push_back(std::move(arg));
            } while (Accept(TokenKind::kComma));
            PROMETHEUS_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
          }
          return e;
        }
        e->kind = ExprKind::kVariable;
        e->name = std::move(name);
        return e;
      }
      case TokenKind::kLParen: {
        Advance();
        if (Cur().kind == TokenKind::kSelect) {
          PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<SelectQuery> sub,
                                      ParseSelect());
          PROMETHEUS_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
          e->kind = ExprKind::kSubquery;
          e->subquery = std::move(sub);
          return e;
        }
        PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseExpr());
        PROMETHEUS_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        return inner;
      }
      default:
        return Status::ParseError("unexpected token at offset " +
                                  std::to_string(Cur().offset));
    }
  }

  static std::unique_ptr<Expr> MakeBinary(BinaryOp op,
                                          std::unique_ptr<Expr> lhs,
                                          std::unique_ptr<Expr> rhs) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kBinary;
    e->binary_op = op;
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<SelectQuery>> ParseQuery(const std::string& source) {
  PROMETHEUS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseQueryTop();
}

Result<std::unique_ptr<Expr>> ParseExpression(const std::string& source) {
  PROMETHEUS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseExprTop();
}

}  // namespace prometheus::pool
