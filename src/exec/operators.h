// Row-vector implementations of the plan operations.
//
// These are the single source of operator semantics in the repository:
// the reference executor (refdb) runs them over whole tables, and the CMF
// common reducer runs them over per-key row groups, so both paths compute
// identical results by construction.
//
// Each operator is split into a prepared form and a run. The prepared
// form binds the plan node once — column indices, compiled expressions,
// sort keys — and is immutable, so one instance is shared read-only by
// every task of a job. run() executes it over one input with a
// caller-owned Scratch holding the per-run buffers and state (cleared
// between runs, not reallocated): the paper's init/next/final reducer,
// prepared once per job and reset per key group. The one-shot functions
// (filter_project, join_group, hash_join, aggregate_rows, sort_rows) are
// prepare + run over a fresh Scratch.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "exec/aggregates.h"
#include "exec/batch.h"
#include "exec/expr_eval.h"
#include "exec/vector_kernels.h"
#include "plan/plan.h"

namespace ysmart {

/// Scan/SP body: filter (invalid = pass-all) then project (empty
/// projections = identity).
struct PreparedFilterProject {
  BoundExpr filter;
  std::vector<BoundExpr> projections;

  PreparedFilterProject() = default;
  /// Binds `node.filter` and `node.projections` against `input`.
  PreparedFilterProject(const PlanNode& node, const Schema& input);

  struct Scratch {
    std::vector<std::uint32_t> sel;
    std::vector<BatchVector> cols;
    std::vector<char> ok;
  };
  /// Appends the surviving, projected rows of `in` to `out`.
  void run(RowRefs in, Scratch& s, std::vector<Row>& out) const;
  /// One batch of run(), without the operator-row count (the map-only
  /// mapper's path).
  void run_batch(ColumnBatch& batch, Scratch& s, std::vector<Row>& out) const;
  /// Row-at-a-time reference for one row: the executable specification
  /// that tests and bench_exec pin run()/run_batch() against.
  void run_row(const Row& r, std::vector<Row>& out) const;
};

/// Join of two row sets already co-partitioned on the equi-key (one
/// reduce key group): cross-match within the group, then apply the
/// residual predicate (WHERE semantics: after null-padding for outer
/// joins), then project. `left_width`/`right_width` are the child output
/// arities used for padding.
struct GroupJoinSpec {
  JoinType type = JoinType::Inner;
  BoundExpr residual;                  // over concat(left, right); may be unbound
  std::vector<BoundExpr> projections;  // over concat(left, right); empty = identity
  std::size_t left_width = 0;
  std::size_t right_width = 0;
  /// Equi-key indices into the left/right child rows; used to re-check
  /// key equality (guards against hash-grouped callers) and may be empty
  /// when the caller guarantees single-key groups.
  std::vector<std::size_t> left_key_idx;
  std::vector<std::size_t> right_key_idx;

  GroupJoinSpec() = default;
  /// Binds a Join plan node: key indices, residual and projections.
  explicit GroupJoinSpec(const PlanNode& join);

  struct Scratch {
    Row joined;
    std::vector<char> right_matched;
  };
  void run(RowRefs left, RowRefs right, Scratch& s,
           std::vector<Row>& out) const;
  /// Emits `l` or `r` (exactly one non-null) padded with NULLs on the
  /// other side — the outer-join output of a row that matched nothing.
  void emit_unmatched(const Row* l, const Row* r, Scratch& s,
                      std::vector<Row>& out) const;

 private:
  void emit(const Row& joined, std::vector<Row>& out) const;
};

/// Grouping aggregation: groups by `agg.group_cols`, computes the
/// aggregates, applies the post projections and HAVING. Output is in
/// group-key (RowLess) order; each group's states see its rows in input
/// order.
class PreparedAgg {
 public:
  PreparedAgg() = default;
  explicit PreparedAgg(const PlanNode& agg);

  /// Per-run state. A Scratch belongs to one PreparedAgg: its pooled
  /// AggStates are built for that operator's calls.
  struct Scratch {
    struct Group {
      Row key;
      std::vector<AggState> states;
    };
    std::vector<Group> groups;  // pool; the first `live` are this run's
    std::size_t live = 0;
    // Group lookup: one index per key kind, see group_of.
    std::unordered_map<Row, std::uint32_t, RowHash, RowEq> index;
    std::unordered_map<std::int64_t, std::uint32_t> int_index;
    std::vector<std::uint32_t> order;
    Row key, internal;
  };
  void run(RowRefs in, Scratch& s, std::vector<Row>& out) const;

  /// The final step of one group: key ++ aggregate results, projected,
  /// then filtered by HAVING, appended to `out`. `internal` is scratch.
  void finish_group(const Row& key, std::span<const AggState> states,
                    Row& internal, std::vector<Row>& out) const;

  const std::vector<AggCall>& aggs() const { return aggs_; }

 private:
  Scratch::Group& add_group(Scratch& s) const;
  std::uint32_t group_of(const Row& r, bool int_keys, Scratch& s) const;

  std::vector<AggCall> aggs_;
  std::vector<std::size_t> group_idx_;
  std::vector<BoundExpr> args_;         // unbound slot for star
  std::vector<BoundExpr> projections_;  // over the internal schema
  BoundExpr having_;                    // over the output schema
};

/// ORDER BY (+ LIMIT). Keys bind against the child's output schema.
class PreparedSort {
 public:
  PreparedSort() = default;
  explicit PreparedSort(const PlanNode& sort);

  struct Scratch {
    std::vector<Value> keys;         // row-major, one row's keys together
    std::vector<std::uint32_t> perm;
  };
  /// Fills `s.perm` with the stable sorted order of `in`, cut to LIMIT.
  void order(RowRefs in, Scratch& s) const;
  /// Appends copies of the sorted rows to `out`.
  void run(RowRefs in, Scratch& s, std::vector<Row>& out) const;

 private:
  std::vector<BoundExpr> keys_;
  std::vector<bool> desc_;
  std::optional<std::int64_t> limit_;
};

// ---- one-shot forms: prepare + run ----

std::vector<Row> filter_project(const PreparedFilterProject& fp, RowRefs in);

std::vector<Row> join_group(const GroupJoinSpec& spec,
                            const std::vector<Row>& left,
                            const std::vector<Row>& right);

/// Full hash equi-join of two tables (used by refdb).
std::vector<Row> hash_join(const PlanNode& join, const std::vector<Row>& left,
                           const std::vector<Row>& right);

/// Grouping aggregation over arbitrary rows (not pre-partitioned).
std::vector<Row> aggregate_rows(const PlanNode& agg, const std::vector<Row>& in);

std::vector<Row> sort_rows(const PlanNode& sort, std::vector<Row> in);

}  // namespace ysmart
