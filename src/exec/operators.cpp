#include "exec/operators.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/error.h"
#include "common/prof_counters.h"

namespace ysmart {

// ---------------------------- filter/project ----------------------------

PreparedFilterProject::PreparedFilterProject(const PlanNode& node,
                                             const Schema& input)
    : projections(bind_all(node.projections, input)) {
  if (node.filter) filter = BoundExpr(node.filter, input);
}

void PreparedFilterProject::run_row(const Row& r, std::vector<Row>& out) const {
  if (filter.valid() && !is_true(filter.eval(r))) return;
  if (projections.empty()) {
    out.push_back(r);
    return;
  }
  Row p;
  p.reserve(projections.size());
  for (const auto& e : projections) p.push_back(e.eval(r));
  out.push_back(std::move(p));
}

// Run the filter kernel into a selection vector, then evaluate the
// projections only over the selected sub-batch. Any non-vectorizable
// expression falls back to per-row eval for exactly the rows the batch
// kernel would have covered, so output and counters match run_row
// cell-for-cell.
void PreparedFilterProject::run_batch(ColumnBatch& batch, Scratch& s,
                                      std::vector<Row>& out) const {
  const std::size_t n = batch.rows();
  s.sel.clear();
  if (filter.valid()) {
    BatchVector fv;
    if (eval_expr_batch(filter, batch, fv)) {
      collect_passing(fv, n, s.sel);
    } else {
      for (std::size_t k = 0; k < n; ++k)
        if (is_true(filter.eval(batch.source_row(k))))
          s.sel.push_back(static_cast<std::uint32_t>(k));
    }
  } else {
    for (std::size_t k = 0; k < n; ++k)
      s.sel.push_back(static_cast<std::uint32_t>(k));
  }
  if (s.sel.empty()) return;
  if (projections.empty()) {
    for (auto k : s.sel) out.push_back(batch.source_row(k));
    return;
  }
  ColumnBatch selected = batch.select(s.sel);
  s.cols.resize(projections.size());
  s.ok.resize(projections.size());
  for (std::size_t j = 0; j < projections.size(); ++j)
    s.ok[j] = eval_expr_batch(projections[j], selected, s.cols[j]);
  for (std::size_t k = 0; k < selected.rows(); ++k) {
    Row p;
    p.reserve(projections.size());
    for (std::size_t j = 0; j < projections.size(); ++j)
      p.push_back(s.ok[j] ? s.cols[j].value_at(k)
                          : projections[j].eval(selected.source_row(k)));
    out.push_back(std::move(p));
  }
}

void PreparedFilterProject::run(RowRefs in, Scratch& s,
                                std::vector<Row>& out) const {
  prof::count(prof::kOperatorRows, in.size());
  out.reserve(out.size() + in.size());
  for (std::size_t base = 0; base < in.size(); base += ColumnBatch::kBatchRows) {
    ColumnBatch batch(
        in.subspan(base, std::min(ColumnBatch::kBatchRows, in.size() - base)));
    run_batch(batch, s, out);
  }
}

// --------------------------------- join ---------------------------------

GroupJoinSpec::GroupJoinSpec(const PlanNode& join) {
  check(join.kind == PlanKind::Join, "GroupJoinSpec on non-Join node");
  const Schema& ls = join.children[0]->output_schema;
  const Schema& rs = join.children[1]->output_schema;
  const Schema combined = Schema::concat(ls, rs);
  if (join.filter) residual = BoundExpr(join.filter, combined);
  projections = bind_all(join.projections, combined);
  type = join.join_type;
  left_width = ls.size();
  right_width = rs.size();
  for (std::size_t i = 0; i < join.left_keys.size(); ++i) {
    left_key_idx.push_back(ls.index_of(join.left_keys[i]));
    right_key_idx.push_back(rs.index_of(join.right_keys[i]));
  }
}

void GroupJoinSpec::emit(const Row& joined, std::vector<Row>& out) const {
  if (residual.valid() && !is_true(residual.eval(joined))) return;
  if (projections.empty()) {
    out.push_back(joined);
    return;
  }
  Row p;
  p.reserve(projections.size());
  for (const auto& e : projections) p.push_back(e.eval(joined));
  out.push_back(std::move(p));
}

void GroupJoinSpec::emit_unmatched(const Row* l, const Row* r, Scratch& s,
                                   std::vector<Row>& out) const {
  s.joined.clear();
  if (l)
    s.joined.insert(s.joined.end(), l->begin(), l->end());
  else
    s.joined.resize(left_width);  // Value{} is NULL
  if (r)
    s.joined.insert(s.joined.end(), r->begin(), r->end());
  else
    s.joined.resize(s.joined.size() + right_width);
  emit(s.joined, out);
}

void GroupJoinSpec::run(RowRefs left, RowRefs right, Scratch& s,
                        std::vector<Row>& out) const {
  prof::count(prof::kOperatorRows, left.size() + right.size());
  // SQL equi-join: NULL keys never match.
  auto keys_equal = [&](const Row& l, const Row& r) {
    for (std::size_t i = 0; i < left_key_idx.size(); ++i) {
      const Value& a = l.at(left_key_idx[i]);
      const Value& b = r.at(right_key_idx[i]);
      if (a.is_null() || b.is_null() || a.compare(b) != 0) return false;
    }
    return true;
  };
  s.right_matched.assign(right.size(), 0);
  for (std::size_t i = 0; i < left.size(); ++i) {
    const Row& l = left[i];
    bool matched = false;
    for (std::size_t j = 0; j < right.size(); ++j) {
      if (!keys_equal(l, right[j])) continue;
      matched = true;
      s.right_matched[j] = 1;
      s.joined.assign(l.begin(), l.end());
      s.joined.insert(s.joined.end(), right[j].begin(), right[j].end());
      emit(s.joined, out);
    }
    if (!matched && (type == JoinType::Left || type == JoinType::Full))
      emit_unmatched(&l, nullptr, s, out);
  }
  if (type == JoinType::Right || type == JoinType::Full)
    for (std::size_t j = 0; j < right.size(); ++j)
      if (!s.right_matched[j]) emit_unmatched(nullptr, &right[j], s, out);
}

// ------------------------------ aggregation ------------------------------

PreparedAgg::PreparedAgg(const PlanNode& agg) : aggs_(agg.aggs) {
  check(agg.kind == PlanKind::Agg, "PreparedAgg on non-Agg node");
  const Schema& child = agg.children[0]->output_schema;
  for (const auto& g : agg.group_cols) group_idx_.push_back(child.index_of(g));
  for (const auto& a : agg.aggs) {
    if (a.star)
      args_.emplace_back();  // unused placeholder
    else
      args_.emplace_back(a.arg, child);
  }
  projections_ = bind_all(agg.projections, agg.agg_internal_schema());
  // HAVING: post-aggregation filter over the output schema.
  if (agg.filter) having_ = BoundExpr(agg.filter, agg.output_schema);
}

PreparedAgg::Scratch::Group& PreparedAgg::add_group(Scratch& s) const {
  if (s.live == s.groups.size()) {
    Scratch::Group g;
    g.states.reserve(aggs_.size());
    for (const auto& a : aggs_) g.states.emplace_back(a);
    s.groups.push_back(std::move(g));
  } else {
    for (auto& st : s.groups[s.live].states) st.reset();
  }
  return s.groups[s.live++];
}

namespace {

/// The group `index` maps `k` to, or a new one made by `add()`, which
/// becomes group number `live`.
template <class Index, class Key, class Add>
std::uint32_t find_or_add(Index& index, const Key& k, std::size_t live,
                          Add add) {
  auto [it, inserted] = index.try_emplace(k, static_cast<std::uint32_t>(live));
  if (inserted) add();
  return it->second;
}

}  // namespace

// Both strategies keep the first-seen key of a group and merge exactly
// the keys compare_rows calls equal (RowHash agrees with it); single
// all-int64 keys skip building key rows.
std::uint32_t PreparedAgg::group_of(const Row& r, bool int_keys,
                                    Scratch& s) const {
  if (group_idx_.empty()) {
    if (s.live == 0) add_group(s).key.clear();
    return 0;
  }
  if (int_keys) {
    const std::int64_t k = r[group_idx_[0]].as_int();
    return find_or_add(s.int_index, k, s.live,
                       [&] { add_group(s).key.assign(1, Value{k}); });
  }
  s.key.clear();
  for (auto i : group_idx_) s.key.push_back(r.at(i));
  return find_or_add(s.index, s.key, s.live, [&] { add_group(s).key = s.key; });
}

void PreparedAgg::run(RowRefs in, Scratch& s, std::vector<Row>& out) const {
  prof::count(prof::kOperatorRows, in.size());
  s.live = 0;
  // clear() touches every bucket, so only clear what the last run used.
  if (!s.index.empty()) s.index.clear();
  if (!s.int_index.empty()) s.int_index.clear();

  // Counter-free pre-scan choosing the group-lookup strategy.
  bool int_keys = group_idx_.size() == 1;
  for (std::size_t k = 0; k < in.size() && int_keys; ++k)
    int_keys = in[k].at(group_idx_[0]).type() == ValueType::Int;

  for (std::size_t k = 0; k < in.size(); ++k) {
    const Row& r = in[k];
    auto& states = s.groups[group_of(r, int_keys, s)].states;
    for (std::size_t i = 0; i < aggs_.size(); ++i) {
      if (aggs_[i].star)
        states[i].add_int(1);
      else
        states[i].add(args_[i].eval(r));
    }
  }
  // Global aggregation over empty input still yields one group.
  if (s.live == 0 && group_idx_.empty()) add_group(s).key.clear();

  // Keys are pairwise distinct under compare_rows, so this is group-key
  // order.
  s.order.clear();
  s.order.resize(s.live);
  std::iota(s.order.begin(), s.order.end(), 0u);
  if (s.live > 1)
    std::sort(s.order.begin(), s.order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return compare_rows(s.groups[a].key, s.groups[b].key) < 0;
              });
  for (const std::uint32_t g : s.order)
    finish_group(s.groups[g].key, s.groups[g].states, s.internal, out);
}

void PreparedAgg::finish_group(const Row& key, std::span<const AggState> states,
                               Row& internal, std::vector<Row>& out) const {
  internal.assign(key.begin(), key.end());
  for (const auto& st : states) internal.push_back(st.result());
  Row o;
  o.reserve(projections_.size());
  for (const auto& p : projections_) o.push_back(p.eval(internal));
  if (having_.valid() && !is_true(having_.eval(o))) return;
  out.push_back(std::move(o));
}

// --------------------------------- sort ---------------------------------

PreparedSort::PreparedSort(const PlanNode& sort) : limit_(sort.limit) {
  check(sort.kind == PlanKind::Sort, "PreparedSort on non-Sort node");
  const Schema& child = sort.children[0]->output_schema;
  for (const auto& k : sort.sort_keys) {
    keys_.emplace_back(k.expr, child);
    desc_.push_back(k.desc);
  }
}

// Keys are evaluated once per row up front. std::stable_sort's sequence
// of comparisons and moves depends only on the element count and the
// comparator's answers, and these answers are the ones the per-comparison
// evaluation gave, so the permutation is that order exactly — mixed
// Int/Double keys included.
void PreparedSort::order(RowRefs in, Scratch& s) const {
  const std::size_t n = in.size();
  s.perm.resize(n);
  std::iota(s.perm.begin(), s.perm.end(), 0u);
  const std::size_t nk = keys_.size();
  if (nk > 0 && n > 1) {
    s.keys.clear();
    s.keys.reserve(n * nk);
    for (std::size_t r = 0; r < n; ++r)
      for (const auto& k : keys_) s.keys.push_back(k.eval(in[r]));
    std::stable_sort(s.perm.begin(), s.perm.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       for (std::size_t i = 0; i < nk; ++i) {
                         const auto c =
                             s.keys[a * nk + i].compare(s.keys[b * nk + i]);
                         if (c != 0) return desc_[i] ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  if (limit_ && static_cast<std::int64_t>(n) > *limit_)
    s.perm.resize(static_cast<std::size_t>(*limit_));
}

void PreparedSort::run(RowRefs in, Scratch& s, std::vector<Row>& out) const {
  prof::count(prof::kOperatorRows, in.size());
  order(in, s);
  for (const std::uint32_t i : s.perm) out.push_back(in[i]);
}

// ------------------------------- one-shot -------------------------------

std::vector<Row> filter_project(const PreparedFilterProject& fp, RowRefs in) {
  PreparedFilterProject::Scratch s;
  std::vector<Row> out;
  fp.run(in, s, out);
  return out;
}

std::vector<Row> join_group(const GroupJoinSpec& spec,
                            const std::vector<Row>& left,
                            const std::vector<Row>& right) {
  GroupJoinSpec::Scratch s;
  std::vector<Row> out;
  spec.run(left, right, s, out);
  return out;
}

std::vector<Row> hash_join(const PlanNode& join, const std::vector<Row>& left,
                           const std::vector<Row>& right) {
  const GroupJoinSpec spec(join);
  // Bucket both sides by key, then run the group joiner per bucket. NULL
  // keys never join but must still surface through outer padding, so they
  // go into per-side "unmatched" pools.
  using Refs = std::vector<const Row*>;
  std::map<Row, std::pair<Refs, Refs>, RowLess> buckets;
  Refs left_null, right_null;
  // The key of `r`, or false when a key cell is NULL.
  auto key_of = [](const Row& r, const std::vector<std::size_t>& idx, Row& k) {
    k.clear();
    for (auto i : idx) {
      if (r.at(i).is_null()) return false;
      k.push_back(r.at(i));
    }
    return true;
  };
  Row key;
  for (const auto& r : left) {
    if (key_of(r, spec.left_key_idx, key))
      buckets[key].first.push_back(&r);
    else
      left_null.push_back(&r);
  }
  for (const auto& r : right) {
    if (key_of(r, spec.right_key_idx, key))
      buckets[key].second.push_back(&r);
    else
      right_null.push_back(&r);
  }

  GroupJoinSpec::Scratch s;
  std::vector<Row> out;
  for (const auto& [bucket_key, rows] : buckets)
    spec.run(rows.first, rows.second, s, out);
  // Null-keyed rows join nothing; pad them for outer joins.
  if (spec.type == JoinType::Left || spec.type == JoinType::Full)
    for (const Row* l : left_null) spec.emit_unmatched(l, nullptr, s, out);
  if (spec.type == JoinType::Right || spec.type == JoinType::Full)
    for (const Row* r : right_null) spec.emit_unmatched(nullptr, r, s, out);
  return out;
}

std::vector<Row> aggregate_rows(const PlanNode& agg,
                                const std::vector<Row>& in) {
  PreparedAgg::Scratch s;
  std::vector<Row> out;
  PreparedAgg(agg).run(in, s, out);
  return out;
}

std::vector<Row> sort_rows(const PlanNode& sort, std::vector<Row> in) {
  prof::count(prof::kOperatorRows, in.size());
  PreparedSort::Scratch s;
  PreparedSort(sort).order(in, s);
  std::vector<Row> out;
  out.reserve(s.perm.size());
  for (const std::uint32_t i : s.perm) out.push_back(std::move(in[i]));
  return out;
}

}  // namespace ysmart
