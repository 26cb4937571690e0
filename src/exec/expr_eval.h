// BoundExpr: an expression compiled against a schema for evaluation.
//
// Column references are resolved to row indices once at bind time; eval()
// then runs with no name lookups. Semantics are SQL-ish: NULL propagates
// through arithmetic and comparisons, AND/OR follow Kleene three-valued
// logic, and is_true() maps NULL/0 to false for filtering.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/schema.h"
#include "sql/ast.h"

namespace ysmart {

class BoundExpr {
 public:
  /// The operator of a Unary or Binary node, resolved from the AST's
  /// operator string once at bind time; None on every other kind.
  enum class Op : std::uint8_t {
    None,
    Not, Neg,
    Add, Sub, Mul, Div,
    Eq, Ne, Lt, Le, Gt, Ge,
    And, Or,
  };

  /// The compiled form of one expression node. Public (together with
  /// root() and eval_node) so the vectorized kernels in
  /// exec/vector_kernels.h can walk the same compiled tree the scalar
  /// path interprets — one bind, two execution strategies.
  struct Node {
    ExprKind kind{};
    Op op = Op::None;
    Value literal;
    std::size_t col_index = 0;
    bool negated = false;
    std::vector<Node> args;
  };

  BoundExpr() = default;

  /// Binds `expr` against `schema`; throws PlanError for unknown columns
  /// and operators.
  BoundExpr(ExprPtr expr, const Schema& schema);

  bool valid() const { return expr_ != nullptr; }

  Value eval(const Row& row) const;

  const ExprPtr& expr() const { return expr_; }

  /// Root of the compiled tree; valid() must hold.
  const Node& root() const { return root_; }

  /// Scalar evaluation of a compiled subtree. Does not count
  /// kRowsEvaluated — eval() counts exactly once per top-level call, so
  /// callers comparing kernels against the scalar reference go through
  /// eval().
  static Value eval_node(const Node& n, const Row& row);

 private:
  static Node compile(const Expr& e, const Schema& schema);

  ExprPtr expr_;
  Node root_;
};

/// The result of comparison operator `op` (Eq..Ge) on operands whose
/// three-way order is `c`: the one operator table both evaluators use.
constexpr bool compare_holds(BoundExpr::Op op, std::strong_ordering c) {
  switch (op) {
    case BoundExpr::Op::Eq: return c == 0;
    case BoundExpr::Op::Ne: return c != 0;
    case BoundExpr::Op::Lt: return c < 0;
    case BoundExpr::Op::Le: return c <= 0;
    case BoundExpr::Op::Gt: return c > 0;
    case BoundExpr::Op::Ge: return c >= 0;
    default: return false;  // not a comparison
  }
}

/// `x op y` for op in Add/Sub/Mul: int64 operands wrap (int64_wrap),
/// doubles follow IEEE.
constexpr std::int64_t arith(BoundExpr::Op op, std::int64_t x, std::int64_t y) {
  return int64_wrap(op == BoundExpr::Op::Add   ? '+'
                    : op == BoundExpr::Op::Sub ? '-'
                                               : '*',
                    x, y);
}
constexpr double arith(BoundExpr::Op op, double x, double y) {
  return op == BoundExpr::Op::Add ? x + y : op == BoundExpr::Op::Sub ? x - y : x * y;
}

/// `x / y` (Div): always double, and a zero divisor yields NULL (nullopt).
constexpr std::optional<double> divide(double x, double y) {
  if (y == 0) return std::nullopt;
  return x / y;
}

/// `-x` (Neg): int64 wraps (int64_wrap), doubles follow IEEE.
constexpr std::int64_t negate(std::int64_t x) { return int64_wrap('-', 0, x); }
constexpr double negate(double x) { return -x; }

/// SQL truthiness: NULL and numeric zero are false.
bool is_true(const Value& v);

/// Bind a list of expressions against one schema.
std::vector<BoundExpr> bind_all(const std::vector<ExprPtr>& exprs,
                                const Schema& schema);

}  // namespace ysmart
