// Property tests for the vectorized batch layer (exec/batch.h,
// exec/vector_kernels.h):
//   - Row -> ColumnBatch -> Row round-trips are lossless for every nasty
//     cell shape: NULLs, NaN (bit pattern preserved), +/-0.0, int64
//     values beyond 2^53, embedded-NUL and empty strings, Mixed columns.
//   - Every kernel's per-element output is bit-identical to the scalar
//     BoundExpr::eval reference on the same random data.
//   - Batched filter/project produces exactly the rows of the
//     PreparedFilterProject::run_row reference, and the reconciled
//     dispatch counters (kRowsEvaluated, kAggUpdates) advance by exactly
//     the same totals through both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/normkey.h"
#include "common/prof_counters.h"
#include "common/rng.h"
#include "exec/aggregates.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "exec/vector_kernels.h"
#include "sql/parser.h"

namespace ysmart {
namespace {

bool bit_identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::Null:
      return true;
    case ValueType::Int:
      return a.as_int() == b.as_int();
    case ValueType::Double: {
      const double x = a.as_double(), y = b.as_double();
      return std::memcmp(&x, &y, sizeof(x)) == 0;  // NaN- and -0.0-exact
    }
    case ValueType::String:
      return a.as_string() == b.as_string();
  }
  return false;
}

bool rows_bit_identical(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bit_identical(a[i], b[i])) return false;
  return true;
}

// Nasty cell generators. Null probability is high enough that null masks
// and AllNull columns both occur at the test's batch sizes.
Value random_int_cell(Rng& rng) {
  switch (rng.uniform(0, 5)) {
    case 0: return Value::null();
    case 1: return Value{(std::int64_t{1} << 53) + rng.uniform(0, 3)};
    case 2: return Value{std::numeric_limits<std::int64_t>::min()};
    case 3: return Value{std::numeric_limits<std::int64_t>::max()};
    default: return Value{rng.uniform(-100, 100)};
  }
}

Value random_double_cell(Rng& rng) {
  switch (rng.uniform(0, 9)) {
    case 0: return Value::null();
    case 1: return Value{std::numeric_limits<double>::quiet_NaN()};
    case 2: return Value{0.0};
    case 3: return Value{-0.0};
    case 4: return Value{9007199254740993.0};  // near 2^53
    case 5: return Value{std::numeric_limits<double>::infinity()};
    case 6: return Value{-std::numeric_limits<double>::infinity()};
    case 7: return Value{-std::numeric_limits<double>::quiet_NaN()};
    default: return Value{rng.uniform01() * 200 - 100};
  }
}

Value random_string_cell(Rng& rng) {
  switch (rng.uniform(0, 4)) {
    case 0: return Value::null();
    case 1: return Value{std::string()};
    case 2: return Value{std::string("nu\0l", 4)};  // embedded NUL
    default: return Value{rng.ident(3)};
  }
}

Value random_any_cell(Rng& rng) {
  switch (rng.uniform(0, 2)) {
    case 0: return random_int_cell(rng);
    case 1: return random_double_cell(rng);
    default: return random_string_cell(rng);
  }
}

/// Schema: a INT, d INT, b DOUBLE, c STRING, m <mixed>. Columns a/d/b/c
/// are type-pure (plus NULLs) so they pivot to typed vectors; m mixes
/// types so it pivots to Mixed and exercises the fallback.
Schema test_schema() {
  Schema s;
  s.add("a", ValueType::Int);
  s.add("d", ValueType::Int);
  s.add("b", ValueType::Double);
  s.add("c", ValueType::String);
  s.add("m", ValueType::String);
  return s;
}

std::vector<Row> random_rows(Rng& rng, std::size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    rows.push_back(Row{random_int_cell(rng), random_int_cell(rng),
                       random_double_cell(rng), random_string_cell(rng),
                       random_any_cell(rng)});
  return rows;
}

TEST(ColumnBatchRoundTrip, LosslessOnNastyValues) {
  Rng rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    const auto rows = random_rows(rng, 1 + iter * 7);
    ColumnBatch batch{std::span<const Row>(rows)};
    ASSERT_EQ(batch.rows(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(rows_bit_identical(batch.materialize_row(i), rows[i]))
          << "row " << i << " iter " << iter;
      EXPECT_TRUE(rows_bit_identical(batch.source_row(i), rows[i]));
    }
  }
}

TEST(ColumnBatchRoundTrip, SelectionComposesAndStaysLossless) {
  Rng rng(7);
  const auto rows = random_rows(rng, 60);
  ColumnBatch batch{std::span<const Row>(rows)};
  std::vector<std::uint32_t> odd;
  for (std::uint32_t i = 1; i < rows.size(); i += 2) odd.push_back(i);
  ColumnBatch sel1 = batch.select(odd);
  ASSERT_EQ(sel1.rows(), odd.size());
  for (std::size_t i = 0; i < odd.size(); ++i)
    EXPECT_TRUE(rows_bit_identical(sel1.materialize_row(i), rows[odd[i]]));
  // Select from the selection: every third of the odd rows.
  std::vector<std::uint32_t> third;
  for (std::uint32_t i = 0; i < odd.size(); i += 3) third.push_back(i);
  ColumnBatch sel2 = sel1.select(third);
  ASSERT_EQ(sel2.rows(), third.size());
  for (std::size_t i = 0; i < third.size(); ++i)
    EXPECT_TRUE(
        rows_bit_identical(sel2.materialize_row(i), rows[odd[third[i]]]));
}

TEST(ColumnBatchRoundTrip, IrregularBatchIsFlagged) {
  std::vector<Row> rows{{Value{1}, Value{2}}, {Value{1}}};
  ColumnBatch batch{std::span<const Row>(rows)};
  EXPECT_FALSE(batch.regular());
}

// Expressions covering every kernel and every BoundExpr::Op: arithmetic
// (int/int, int/double, division incl. by zero), unary minus/not, IS
// [NOT] NULL, all six comparison ops across int/double/string/cross-rank
// operand pairs, and Kleene AND/OR over NULLs. The double column b holds
// NaN of either sign, ±0.0 and ±inf, so the self-comparisons and b / b
// pin the one numeric order and IEEE arithmetic in both evaluators.
const char* const kVectorizable[] = {
    "a + 2 * d",
    "a - d",
    "a * b",
    "b + b",
    "b / a",
    "a / 0",
    "a / b",
    "-a",
    "-b",
    "not (a < d)",
    "a is null",
    "b is not null",
    "a = d",
    "a <> d",
    "a < b",
    "a <= b",
    "b > d",
    "b >= b",
    "b = b",
    "b <> b",
    "b >= a",
    "b / b",
    "-d",
    "d / d",
    "c = 'hi'",
    "c < 'mm'",
    "c <> ''",
    "a = c",
    "c >= b",
    "a < 'zz'",
    "a < b and b <= d or not (c = '')",
    "a is null and b is null",
    "(a < 0 or b < 0) and d >= 0",
};

TEST(VectorKernels, BitIdenticalToScalarEval) {
  const Schema schema = test_schema();
  Rng rng(123);
  for (const char* text : kVectorizable) {
    BoundExpr bound(parse_expression(text), schema);
    for (int iter = 0; iter < 8; ++iter) {
      const auto rows = random_rows(rng, 50);
      ColumnBatch batch{std::span<const Row>(rows)};
      BatchVector out;
      ASSERT_TRUE(eval_expr_batch(bound, batch, out)) << text;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Value expect = bound.eval(rows[i]);
        EXPECT_TRUE(bit_identical(out.value_at(i), expect))
            << text << " row " << i << ": batch="
            << out.value_at(i).to_string() << " scalar=" << expect.to_string();
        EXPECT_EQ(out.is_null(i), expect.is_null()) << text << " row " << i;
        EXPECT_EQ(out.truthy(i), is_true(expect)) << text << " row " << i;
      }
    }
  }
}

TEST(VectorKernels, MixedColumnFallsBack) {
  const Schema schema = test_schema();
  Rng rng(5);
  // Keep drawing until column m actually mixes types (near-certain).
  for (int iter = 0; iter < 8; ++iter) {
    const auto rows = random_rows(rng, 64);
    ColumnBatch batch{std::span<const Row>(rows)};
    if (batch.column(4).type() != ColType::Mixed) continue;
    BoundExpr bound(parse_expression("m is null"), schema);
    BatchVector out;
    EXPECT_FALSE(eval_expr_batch(bound, batch, out));
    return;
  }
  FAIL() << "random data never produced a Mixed column";
}

TEST(VectorKernels, CollectPassingMatchesTruthy) {
  const Schema schema = test_schema();
  Rng rng(99);
  BoundExpr bound(parse_expression("a < b or c <> ''"), schema);
  const auto rows = random_rows(rng, 200);
  ColumnBatch batch{std::span<const Row>(rows)};
  BatchVector out;
  ASSERT_TRUE(eval_expr_batch(bound, batch, out));
  std::vector<std::uint32_t> sel;
  collect_passing(out, rows.size(), sel);
  std::vector<std::uint32_t> expect;
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (is_true(bound.eval(rows[i])))
      expect.push_back(static_cast<std::uint32_t>(i));
  EXPECT_EQ(sel, expect);
}

// ----------------- operator-level differential checks -----------------

std::uint64_t counter_delta(const prof::ThreadCounters& before,
                            const prof::ThreadCounters& after, int c) {
  return after.dispatch[c] - before.dispatch[c];
}

TEST(BatchedOperators, FilterProjectMatchesRowPathAndCounters) {
  const Schema schema = test_schema();
  Rng rng(2024);
  const auto rows = random_rows(rng, ColumnBatch::kBatchRows * 2 + 177);
  PreparedFilterProject fp;
  fp.filter = BoundExpr(parse_expression("a < b and c <> ''"), schema);
  fp.projections = bind_all(
      {parse_expression("a + d"), parse_expression("b * 2"),
       parse_expression("m"), parse_expression("c")},
      schema);

  prof::acquire_enabled();
  const auto s0 = prof::thread_snapshot();
  const std::vector<Row> vec_out = filter_project(fp, rows);
  const auto s1 = prof::thread_snapshot();
  std::vector<Row> row_out;
  for (const Row& r : rows) fp.run_row(r, row_out);
  const auto s2 = prof::thread_snapshot();
  prof::release_enabled();

  ASSERT_EQ(vec_out.size(), row_out.size());
  for (std::size_t i = 0; i < vec_out.size(); ++i)
    EXPECT_TRUE(rows_bit_identical(vec_out[i], row_out[i])) << "row " << i;
  // The batch kernels must advance the reconciled counters exactly as
  // the row-at-a-time reference does.
  for (int c : {prof::kRowsEvaluated, prof::kAggUpdates, prof::kCellsEncoded,
                prof::kCellsDecoded})
    EXPECT_EQ(counter_delta(s0, s1, c), counter_delta(s1, s2, c))
        << prof::counter_name(c);
  // Operator rows are counted once per input row by the operator itself.
  EXPECT_EQ(counter_delta(s0, s1, prof::kOperatorRows), rows.size());
  EXPECT_EQ(counter_delta(s1, s2, prof::kOperatorRows), 0u);
}

// Typed aggregate adds must be state-identical to add(Value): feed the
// same stream through AggState twice, once as Values and once through
// add_to_agg's typed dispatch, for every aggregate function.
TEST(TypedAggAdds, MatchGenericAddForEveryFunction) {
  Rng rng(777);
  std::vector<Row> data;
  for (int i = 0; i < 500; ++i)
    data.push_back(
        Row{rng.uniform(0, 1) ? random_int_cell(rng) : random_double_cell(rng)});
  ColumnBatch batch{std::span<const Row>(data)};

  for (const char* func : {"count", "sum", "avg", "min", "max"}) {
    AggCall call;
    call.func = func;
    AggState typed(call), generic(call);
    const ColumnVector& col = batch.column(0);
    ASSERT_EQ(col.type(), ColType::Mixed);  // ints + doubles mix
    for (std::size_t i = 0; i < data.size(); ++i) {
      const Value& v = data[i][0];
      generic.add(v);
      switch (v.type()) {
        case ValueType::Null: typed.add_null(); break;
        case ValueType::Int: typed.add_int(v.as_int()); break;
        case ValueType::Double: typed.add_double(v.as_double()); break;
        case ValueType::String: typed.add(v); break;
      }
    }
    const Value t = typed.result(), g = generic.result();
    EXPECT_TRUE(bit_identical(t, g))
        << func << ": typed=" << t.to_string() << " generic=" << g.to_string();
  }

  // MIN and MAX do not depend on input order: every permutation gives
  // the same key (1 and 1.0 tie; every NaN is one key, above +inf). NaN
  // rows first, NaN rows last and reversed are the adversarial orders
  // for keep-first-on-tie.
  auto is_nan = [](const Row& r) {
    return r[0].type() == ValueType::Double && std::isnan(r[0].as_double());
  };
  std::vector<Row> nan_first = data;
  std::stable_partition(nan_first.begin(), nan_first.end(), is_nan);
  std::vector<Row> nan_last = data;
  std::stable_partition(nan_last.begin(), nan_last.end(),
                        [&](const Row& r) { return !is_nan(r); });
  std::vector<Row> reversed(data.rbegin(), data.rend());
  for (const char* func : {"min", "max"}) {
    AggCall call;
    call.func = func;
    auto result_over = [&](const std::vector<Row>& rows) {
      AggState st(call);
      for (const Row& r : rows) st.add(r[0]);
      return st.result();
    };
    const Value want = result_over(data);
    for (const auto* perm : {&nan_first, &nan_last, &reversed}) {
      const Value got = result_over(*perm);
      EXPECT_EQ(encode_norm_key({got}), encode_norm_key({want}))
          << func << ": " << got.to_string() << " vs " << want.to_string();
    }
  }
}

}  // namespace
}  // namespace ysmart
