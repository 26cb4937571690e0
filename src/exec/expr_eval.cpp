#include "exec/expr_eval.h"

#include "common/error.h"
#include "common/prof_counters.h"

namespace ysmart {

namespace {

enum class Tri { False, True, Unknown };

Tri to_tri(const Value& v) {
  if (v.is_null()) return Tri::Unknown;
  return is_true(v) ? Tri::True : Tri::False;
}

Value from_tri(Tri t) {
  switch (t) {
    case Tri::False: return Value{std::int64_t{0}};
    case Tri::True: return Value{std::int64_t{1}};
    case Tri::Unknown: return Value::null();
  }
  return Value::null();
}

bool both_int(const Value& a, const Value& b) {
  return a.type() == ValueType::Int && b.type() == ValueType::Int;
}

BoundExpr::Op op_of(const Expr& e) {
  using Op = BoundExpr::Op;
  struct Entry {
    ExprKind kind;
    const char* name;
    Op op;
  };
  static constexpr Entry kOps[] = {
      {ExprKind::Unary, "not", Op::Not}, {ExprKind::Unary, "-", Op::Neg},
      {ExprKind::Binary, "+", Op::Add},  {ExprKind::Binary, "-", Op::Sub},
      {ExprKind::Binary, "*", Op::Mul},  {ExprKind::Binary, "/", Op::Div},
      {ExprKind::Binary, "=", Op::Eq},   {ExprKind::Binary, "<>", Op::Ne},
      {ExprKind::Binary, "<", Op::Lt},   {ExprKind::Binary, "<=", Op::Le},
      {ExprKind::Binary, ">", Op::Gt},   {ExprKind::Binary, ">=", Op::Ge},
      {ExprKind::Binary, "and", Op::And}, {ExprKind::Binary, "or", Op::Or},
  };
  if (e.kind != ExprKind::Unary && e.kind != ExprKind::Binary) return Op::None;
  for (const auto& o : kOps)
    if (o.kind == e.kind && e.op == o.name) return o.op;
  throw PlanError("unknown operator '" + e.op + "' in " + e.to_string());
}

}  // namespace

bool is_true(const Value& v) {
  switch (v.type()) {
    case ValueType::Null: return false;
    case ValueType::Int: return v.as_int() != 0;
    case ValueType::Double: return v.as_double() != 0;
    case ValueType::String: return !v.as_string().empty();
  }
  return false;
}

BoundExpr::BoundExpr(ExprPtr expr, const Schema& schema) : expr_(std::move(expr)) {
  check(expr_ != nullptr, "BoundExpr: null expression");
  root_ = compile(*expr_, schema);
}

BoundExpr::Node BoundExpr::compile(const Expr& e, const Schema& schema) {
  Node n;
  n.kind = e.kind;
  n.op = op_of(e);
  n.negated = e.negated;
  switch (e.kind) {
    case ExprKind::Literal:
      n.literal = e.literal;
      break;
    case ExprKind::ColumnRef:
      n.col_index = schema.index_of(e.column);
      break;
    case ExprKind::FuncCall:
      throw PlanError("function call not valid in a bound expression "
                      "(aggregates must be rewritten by the planner): " +
                      e.to_string());
    default:
      break;
  }
  for (const auto& a : e.args) n.args.push_back(compile(*a, schema));
  return n;
}

Value BoundExpr::eval(const Row& row) const {
  prof::count(prof::kRowsEvaluated);
  return eval_node(root_, row);
}

Value BoundExpr::eval_node(const Node& n, const Row& row) {
  switch (n.kind) {
    case ExprKind::Literal:
      return n.literal;
    case ExprKind::ColumnRef:
      return row.at(n.col_index);
    case ExprKind::IsNull: {
      const Value v = eval_node(n.args[0], row);
      const bool isnull = v.is_null();
      return Value{std::int64_t{(isnull != n.negated) ? 1 : 0}};
    }
    case ExprKind::Unary: {
      const Value v = eval_node(n.args[0], row);
      if (n.op == Op::Not) {
        const Tri t = to_tri(v);
        if (t == Tri::Unknown) return Value::null();
        return from_tri(t == Tri::True ? Tri::False : Tri::True);
      }
      if (v.is_null()) return Value::null();  // Op::Neg
      if (v.type() == ValueType::Int) return Value{negate(v.as_int())};
      return Value{negate(v.numeric())};
    }
    case ExprKind::Binary: {
      if (n.op == Op::And || n.op == Op::Or) {
        const bool is_and = n.op == Op::And;
        const Tri a = to_tri(eval_node(n.args[0], row));
        // Short circuit where the result is already determined.
        if (is_and && a == Tri::False) return from_tri(Tri::False);
        if (!is_and && a == Tri::True) return from_tri(Tri::True);
        const Tri b = to_tri(eval_node(n.args[1], row));
        if (is_and) {
          if (b == Tri::False) return from_tri(Tri::False);
          if (a == Tri::Unknown || b == Tri::Unknown) return Value::null();
          return from_tri(Tri::True);
        }
        if (b == Tri::True) return from_tri(Tri::True);
        if (a == Tri::Unknown || b == Tri::Unknown) return Value::null();
        return from_tri(Tri::False);
      }
      const Value a = eval_node(n.args[0], row);
      const Value b = eval_node(n.args[1], row);
      if (a.is_null() || b.is_null()) return Value::null();
      switch (n.op) {
        case Op::Add:
        case Op::Sub:
        case Op::Mul:
          if (both_int(a, b)) return Value{arith(n.op, a.as_int(), b.as_int())};
          return Value{arith(n.op, a.numeric(), b.numeric())};
        case Op::Div: {
          const auto q = divide(a.numeric(), b.numeric());
          return q ? Value{*q} : Value::null();
        }
        default:  // comparisons
          return Value{std::int64_t{compare_holds(n.op, a.compare(b))}};
      }
    }
    case ExprKind::FuncCall:
      break;  // compile() rejects function calls
  }
  throw ExecError("unreachable expression kind");
}

std::vector<BoundExpr> bind_all(const std::vector<ExprPtr>& exprs,
                                const Schema& schema) {
  std::vector<BoundExpr> out;
  out.reserve(exprs.size());
  for (const auto& e : exprs) out.emplace_back(e, schema);
  return out;
}

}  // namespace ysmart
