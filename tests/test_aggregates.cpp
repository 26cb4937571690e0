// Unit tests for AggState: SQL semantics, merging, partial (combiner)
// round trips, distinct handling.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "exec/aggregates.h"

namespace ysmart {
namespace {

AggCall call(const std::string& func, bool distinct = false, bool star = false) {
  AggCall c;
  c.func = func;
  c.distinct = distinct;
  c.star = star;
  if (!star) c.arg = Expr::make_column("x");
  return c;
}

TEST(AggState, CountSkipsNulls) {
  AggState s(call("count"));
  s.add(Value{1});
  s.add(Value::null());
  s.add(Value{2});
  EXPECT_EQ(s.result().as_int(), 2);
}

TEST(AggState, CountStarCountsNulls) {
  AggState s(call("count", false, true));
  s.add(Value{1});
  s.add(Value::null());
  EXPECT_EQ(s.result().as_int(), 2);
}

TEST(AggState, CountDistinct) {
  AggState s(call("count", /*distinct=*/true));
  for (int v : {1, 2, 2, 3, 1}) s.add(Value{v});
  s.add(Value::null());  // NULL does not count
  EXPECT_EQ(s.result().as_int(), 3);
}

TEST(AggState, SumIntStaysInt) {
  AggState s(call("sum"));
  s.add(Value{2});
  s.add(Value{3});
  EXPECT_EQ(s.result().type(), ValueType::Int);
  EXPECT_EQ(s.result().as_int(), 5);
}

TEST(AggState, SumMixedBecomesDouble) {
  AggState s(call("sum"));
  s.add(Value{2});
  s.add(Value{0.5});
  EXPECT_EQ(s.result().type(), ValueType::Double);
  EXPECT_DOUBLE_EQ(s.result().as_double(), 2.5);
}

TEST(AggState, EmptyGroupSemantics) {
  EXPECT_EQ(AggState(call("count")).result().as_int(), 0);
  EXPECT_TRUE(AggState(call("sum")).result().is_null());
  EXPECT_TRUE(AggState(call("avg")).result().is_null());
  EXPECT_TRUE(AggState(call("min")).result().is_null());
  EXPECT_TRUE(AggState(call("max")).result().is_null());
}

TEST(AggState, Avg) {
  AggState s(call("avg"));
  s.add(Value{1});
  s.add(Value{2});
  s.add(Value::null());
  EXPECT_DOUBLE_EQ(s.result().as_double(), 1.5);
}

TEST(AggState, MinMax) {
  AggState mn(call("min")), mx(call("max"));
  for (int v : {5, -2, 9}) {
    mn.add(Value{v});
    mx.add(Value{v});
  }
  EXPECT_EQ(mn.result().as_int(), -2);
  EXPECT_EQ(mx.result().as_int(), 9);
}

// The sign of a NaN sum depends on operand order (x86 gives inf + -inf
// the sign bit), and MIN/MAX keep the first of tied NaNs: every NaN an
// aggregate returns, or a SUM partial carries, is the one quiet NaN.
TEST(AggState, NanResultsAreTheOneQuietNan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto positive_nan = [](const Value& v) {
    return v.type() == ValueType::Double && std::isnan(v.as_double()) &&
           !std::signbit(v.as_double());
  };
  const std::pair<const char*, std::vector<double>> cases[] = {
      {"sum", {inf, -inf}}, {"avg", {inf, -inf}},
      {"min", {-nan, nan}}, {"max", {-nan, nan}}};
  for (const auto& [func, inputs] : cases) {
    AggState st(call(func));
    for (double d : inputs) st.add(Value{d});
    EXPECT_TRUE(positive_nan(st.result())) << func << ": " << st.result().to_string();
  }
  AggState sum(call("sum"));
  sum.add(Value{inf});
  sum.add(Value{-inf});
  Row partial;
  sum.to_partial(partial);
  EXPECT_TRUE(positive_nan(partial[0]));
}

TEST(AggState, MinMaxStrings) {
  AggState mn(call("min"));
  mn.add(Value{"beta"});
  mn.add(Value{"alpha"});
  EXPECT_EQ(mn.result().as_string(), "alpha");
}

TEST(AggState, MergeEqualsSingleStream) {
  AggState a(call("avg")), b(call("avg")), whole(call("avg"));
  for (int v : {1, 2, 3}) {
    a.add(Value{v});
    whole.add(Value{v});
  }
  for (int v : {10, 20}) {
    b.add(Value{v});
    whole.add(Value{v});
  }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.result().as_double(), whole.result().as_double());
}

TEST(AggState, MergeDistinctUnions) {
  AggState a(call("count", true)), b(call("count", true));
  a.add(Value{1});
  a.add(Value{2});
  b.add(Value{2});
  b.add(Value{3});
  a.merge(b);
  EXPECT_EQ(a.result().as_int(), 3);
}

TEST(AggState, PartialRoundTrip) {
  for (const char* func : {"count", "sum", "avg", "min", "max"}) {
    SCOPED_TRACE(func);
    AggState src(call(func));
    for (int v : {4, 7, 7, -1}) src.add(Value{v});
    Row wire;
    src.to_partial(wire);
    EXPECT_EQ(static_cast<int>(wire.size()), src.partial_arity());
    AggState dst(call(func));
    dst.add_partial(std::span<const Value>(wire.data(), wire.size()));
    EXPECT_EQ(dst.result().compare(src.result()), std::strong_ordering::equal);
  }
}

TEST(AggState, PartialOfEmptyState) {
  AggState src(call("min"));
  Row wire;
  src.to_partial(wire);  // NULL min
  AggState dst(call("min"));
  dst.add_partial(std::span<const Value>(wire.data(), wire.size()));
  EXPECT_TRUE(dst.result().is_null());
}

TEST(AggState, DistinctHasNoFixedPartial) {
  AggState s(call("count", true));
  EXPECT_EQ(s.partial_arity(), AggState::kVariableArity);
  Row wire;
  EXPECT_THROW(s.to_partial(wire), InternalError);
}

TEST(AggState, DistinctNonCountThrows) {
  AggState s(call("sum", true));
  s.add(Value{1});
  EXPECT_THROW(s.result(), ExecError);
}

TEST(Combinable, DetectsDistinct) {
  PlanNode agg;
  agg.kind = PlanKind::Agg;
  agg.aggs.push_back(call("sum"));
  EXPECT_TRUE(combinable(agg));
  agg.aggs.push_back(call("count", true));
  EXPECT_FALSE(combinable(agg));
}

}  // namespace
}  // namespace ysmart
