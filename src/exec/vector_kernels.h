// Type-specialized batch kernels over ColumnBatch.
//
// eval_expr_batch walks the same compiled BoundExpr::Node tree the
// scalar interpreter runs, but evaluates each node over the whole batch
// with loops dispatched once per node on the operand element types and
// the node's opcode — no per-row std::variant visit, no per-row operator
// dispatch, no Value temporaries for intermediates. Comparisons and
// arithmetic share the scalar path's operator table (compare_holds,
// arith, divide and negate in exec/expr_eval.h) and numeric order
// (compare_numeric). The contract is exact scalar equivalence: for
// every row i, value_at(i) of the result equals what BoundExpr::eval
// would return on that row (same variant alternative, same double bit
// pattern), and a successful batch evaluation counts kRowsEvaluated by
// exactly the batch size — one per row, matching the scalar path's one
// count per eval() call.
//
// eval_expr_batch returns false (and counts nothing) when the batch or
// expression shape cannot be vectorized — Mixed columns, irregular
// batches, string operands in arithmetic, or a branch that throws where
// the scalar path's AND/OR short-circuit would have skipped it. Callers
// then fall back to per-row BoundExpr::eval, which reproduces scalar
// semantics (and counters) by definition.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/batch.h"
#include "exec/expr_eval.h"

namespace ysmart {

class AggState;

/// One expression evaluated over every row of a batch. The
/// representation is either borrowed (a batch column, a literal) or an
/// owned typed vector for computed intermediates; numeric intermediates
/// are always uniformly Int64 or Double, so consumers can dispatch once.
struct BatchVector {
  enum class Rep { AllNull, Scalar, IntCol, DblCol, StrCol, IntVec, DblVec };

  Rep rep = Rep::AllNull;
  const ColumnVector* col = nullptr;     // *Col reps (borrowed)
  Value scalar;                          // Scalar rep (never NULL)
  std::vector<std::int64_t> ivec;        // IntVec
  std::vector<double> dvec;              // DblVec
  std::vector<unsigned char> nulls;      // IntVec/DblVec; empty = no NULLs

  bool is_null(std::size_t i) const;
  /// SQL truthiness of element i (NULL / 0 / "" are false).
  bool truthy(std::size_t i) const;
  /// Reconstruct element i as a Value — equals BoundExpr::eval exactly.
  Value value_at(std::size_t i) const;
};

/// Evaluate `expr` over `batch`. On success fills `out`, counts
/// kRowsEvaluated by batch.rows() and returns true; on any
/// non-vectorizable shape returns false having counted nothing.
bool eval_expr_batch(const BoundExpr& expr, ColumnBatch& batch,
                     BatchVector& out);

/// Append the indices of truthy elements to `sel` (the filter kernel's
/// selection-vector builder; loops are dispatched once on v.rep).
void collect_passing(const BatchVector& v, std::size_t n,
                     std::vector<std::uint32_t>& sel);

/// Feed element i of `v` into an aggregate through the typed add paths
/// (AggState::add_int/add_double/add_null), falling back to add(Value)
/// for string elements. Counter- and state-identical to
/// st.add(v.value_at(i)).
void add_to_agg(AggState& st, const BatchVector& v, std::size_t i);

}  // namespace ysmart
