// Unit tests for the row-vector operators: filter/project, group join
// (inner + all outer flavors, residuals, padding), hash join, grouped
// aggregation, sorting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "exec/operators.h"
#include "plan/builder.h"
#include "sql/parser.h"

namespace ysmart {
namespace {

Schema xy() {
  Schema s;
  s.add("x", ValueType::Int);
  s.add("y", ValueType::Int);
  return s;
}

TEST(FilterProject, FilterOnly) {
  PreparedFilterProject fp;
  fp.filter = BoundExpr(parse_expression("x > 1"), xy());
  auto out = filter_project(
      fp, std::vector<Row>{{Value{1}, Value{10}}, {Value{2}, Value{20}}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].as_int(), 2);
}

TEST(FilterProject, ProjectOnly) {
  PreparedFilterProject fp;
  fp.projections = bind_all({parse_expression("y + 1")}, xy());
  auto out = filter_project(fp, std::vector<Row>{{Value{1}, Value{10}}});
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].size(), 1u);
  EXPECT_EQ(out[0][0].as_int(), 11);
}

TEST(FilterProject, NullFilterDropsRow) {
  PreparedFilterProject fp;
  fp.filter = BoundExpr(parse_expression("x > y"), xy());
  auto out = filter_project(fp, std::vector<Row>{{Value::null(), Value{1}}});
  EXPECT_TRUE(out.empty());  // NULL comparison is not true
}

struct JoinFixture {
  // left rows: (k, a); right rows: (k, b)
  GroupJoinSpec spec;
  JoinFixture() {
    spec.left_width = 2;
    spec.right_width = 2;
    spec.left_key_idx = {0};
    spec.right_key_idx = {0};
  }
};

TEST(GroupJoin, InnerCrossMatches) {
  JoinFixture f;
  auto out = join_group(f.spec, {{Value{1}, Value{10}}, {Value{1}, Value{11}}},
                        {{Value{1}, Value{20}}, {Value{1}, Value{21}}});
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].size(), 4u);
}

TEST(GroupJoin, InnerNoMatchEmitsNothing) {
  JoinFixture f;
  auto out = join_group(f.spec, {{Value{1}, Value{10}}}, {});
  EXPECT_TRUE(out.empty());
}

TEST(GroupJoin, LeftOuterPadsUnmatched) {
  JoinFixture f;
  f.spec.type = JoinType::Left;
  auto out = join_group(f.spec, {{Value{1}, Value{10}}}, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0][2].is_null());
  EXPECT_TRUE(out[0][3].is_null());
}

TEST(GroupJoin, RightOuterPadsUnmatched) {
  JoinFixture f;
  f.spec.type = JoinType::Right;
  auto out = join_group(f.spec, {}, {{Value{2}, Value{20}}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0][0].is_null());
  EXPECT_EQ(out[0][2].as_int(), 2);
}

TEST(GroupJoin, FullOuterPadsBothSides) {
  JoinFixture f;
  f.spec.type = JoinType::Full;
  auto out = join_group(f.spec, {{Value{1}, Value{10}}}, {{Value{2}, Value{20}}});
  EXPECT_EQ(out.size(), 2u);  // both unmatched, both padded
}

TEST(GroupJoin, NullKeysNeverMatch) {
  JoinFixture f;
  auto out = join_group(f.spec, {{Value::null(), Value{10}}},
                        {{Value::null(), Value{20}}});
  EXPECT_TRUE(out.empty());
}

TEST(GroupJoin, ResidualAppliesAfterPadding) {
  // WHERE-style residual "right key IS NULL" keeps only padded rows.
  JoinFixture f;
  f.spec.type = JoinType::Left;
  Schema combined;
  combined.add("lk", ValueType::Int);
  combined.add("a", ValueType::Int);
  combined.add("rk", ValueType::Int);
  combined.add("b", ValueType::Int);
  BoundExpr residual(parse_expression("rk IS NULL"), combined);
  f.spec.residual = residual;
  auto out = join_group(f.spec,
                        {{Value{1}, Value{10}}, {Value{2}, Value{11}}},
                        {{Value{1}, Value{20}}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].as_int(), 2);
}

TEST(GroupJoin, ProjectionsShapeOutput) {
  JoinFixture f;
  Schema combined;
  combined.add("lk", ValueType::Int);
  combined.add("a", ValueType::Int);
  combined.add("rk", ValueType::Int);
  combined.add("b", ValueType::Int);
  auto projections = bind_all({parse_expression("a + b")}, combined);
  f.spec.projections = projections;
  auto out = join_group(f.spec, {{Value{1}, Value{10}}}, {{Value{1}, Value{20}}});
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].size(), 1u);
  EXPECT_EQ(out[0][0].as_int(), 30);
}

// hash_join must agree with join_group bucketing on a plan-built join.
TEST(HashJoin, MatchesExpectedRows) {
  Catalog c;
  c.register_table("l", xy());
  Schema rz;
  rz.add("x", ValueType::Int);
  rz.add("z", ValueType::Int);
  c.register_table("r", rz);
  auto p = plan_query("SELECT y, z FROM l, r WHERE l.x = r.x", c);
  std::vector<Row> left{{Value{1}, Value{10}}, {Value{2}, Value{20}},
                        {Value::null(), Value{30}}};
  std::vector<Row> right{{Value{1}, Value{100}}, {Value{1}, Value{101}},
                         {Value{3}, Value{300}}};
  auto out = hash_join(*p, left, right);
  ASSERT_EQ(out.size(), 2u);  // key 1 matches twice; null and 2/3 don't
}

TEST(AggregateRows, GroupsAndProjects) {
  Catalog c;
  c.register_table("t", xy());
  auto p = plan_query("SELECT x, sum(y) + 1 AS s FROM t GROUP BY x", c);
  auto out = aggregate_rows(
      *p, {{Value{1}, Value{10}}, {Value{1}, Value{5}}, {Value{2}, Value{7}}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0].as_int(), 1);
  EXPECT_EQ(out[0][1].as_int(), 16);
  EXPECT_EQ(out[1][1].as_int(), 8);
}

TEST(AggregateRows, GlobalAggOnEmptyInputYieldsOneRow) {
  Catalog c;
  c.register_table("t", xy());
  auto p = plan_query("SELECT count(*) AS n, sum(y) AS s FROM t", c);
  auto out = aggregate_rows(*p, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].as_int(), 0);
  EXPECT_TRUE(out[0][1].is_null());
}

TEST(AggregateRows, GroupedAggOnEmptyInputYieldsNothing) {
  Catalog c;
  c.register_table("t", xy());
  auto p = plan_query("SELECT x, count(*) FROM t GROUP BY x", c);
  EXPECT_TRUE(aggregate_rows(*p, {}).empty());
}

TEST(SortRows, DescAndLimit) {
  Catalog c;
  c.register_table("t", xy());
  auto p = plan_query("SELECT x, y FROM t ORDER BY y DESC LIMIT 2", c);
  auto out = sort_rows(*p, {{Value{1}, Value{5}},
                            {Value{2}, Value{9}},
                            {Value{3}, Value{7}}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][1].as_int(), 9);
  EXPECT_EQ(out[1][1].as_int(), 7);
}

TEST(SortRows, StableOnTies) {
  Catalog c;
  c.register_table("t", xy());
  auto p = plan_query("SELECT x, y FROM t ORDER BY x", c);
  auto out = sort_rows(*p, {{Value{1}, Value{1}},
                            {Value{1}, Value{2}},
                            {Value{0}, Value{3}}});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1][1].as_int(), 1);  // original order kept within ties
  EXPECT_EQ(out[2][1].as_int(), 2);
}

bool same_bits(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type()) return false;
    if (a[i].type() == ValueType::Double) {
      const double x = a[i].as_double(), y = b[i].as_double();
      if (std::memcmp(&x, &y, sizeof x) != 0) return false;
    } else if (a[i].compare(b[i]) != 0) {
      return false;
    }
  }
  return true;
}

// One Scratch serving many runs, as in a reduce task, must give what a
// fresh operator gives each time: with int keys (int64 index), string
// and NaN keys (hash index), at sizes below and across batch
// boundaries, over rows gathered by pointer in an arbitrary order.
TEST(PreparedOperators, ReusedScratchOverGatheredRowsMatchesOneShot) {
  Catalog c;
  c.register_table("t", xy());
  auto agg_plan = plan_query(
      "SELECT x, count(*) AS n, sum(y) AS s, min(y) AS lo, max(y) AS hi, "
      "avg(y) AS a, count(distinct y) AS d FROM t GROUP BY x",
      c);
  const PreparedAgg agg(*agg_plan);
  const PreparedFilterProject fp(*plan_query("SELECT x, y + 1 AS z FROM t "
                                             "WHERE y > 3",
                                             c),
                                 xy());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(7);
  PreparedAgg::Scratch agg_scratch;
  PreparedFilterProject::Scratch fp_scratch;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(
        rng.uniform(0, trial % 7 == 0 ? 2200 : 150));
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      Value x;
      switch (trial % 3) {
        case 0: x = Value{rng.uniform(0, 20)}; break;
        case 1: x = Value{"k" + std::to_string(rng.uniform(0, 20))}; break;
        default:
          x = rng.uniform(0, 9) == 0
                  ? Value{nan}
                  : Value{static_cast<double>(rng.uniform(0, 20))};
      }
      Value y;
      if (rng.uniform(0, 9) != 0)
        y = rng.uniform(0, 1) ? Value{rng.uniform(-9, 9)}
                              : Value{0.5 * static_cast<double>(rng.uniform(-9, 9))};
      rows.push_back({x, y});
    }
    std::vector<const Row*> gathered;
    for (const auto& r : rows) gathered.push_back(&r);
    for (std::size_t i = gathered.size(); i > 1; --i)
      std::swap(gathered[i - 1],
                gathered[static_cast<std::size_t>(
                    rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
    std::vector<Row> copy;
    for (const Row* r : gathered) copy.push_back(*r);

    const auto want_agg = aggregate_rows(*agg_plan, copy);
    std::vector<Row> got_agg;
    agg.run(gathered, agg_scratch, got_agg);
    ASSERT_EQ(got_agg.size(), want_agg.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got_agg.size(); ++i)
      ASSERT_TRUE(same_bits(got_agg[i], want_agg[i]))
          << "trial " << trial << " group " << i;

    const auto want_fp = filter_project(fp, copy);
    std::vector<Row> got_fp;
    fp.run(gathered, fp_scratch, got_fp);
    ASSERT_EQ(got_fp.size(), want_fp.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got_fp.size(); ++i)
      ASSERT_TRUE(same_bits(got_fp[i], want_fp[i])) << "trial " << trial;
  }
}

// sort_rows evaluates each key once per row; the order must be exactly
// the one std::stable_sort gives when the keys are evaluated inside the
// comparator — NaN, ±0.0 and mixed Int/Double keys included.
std::vector<Row> sort_rows_evaluating_in_comparator(const PlanNode& sort,
                                                    std::vector<Row> in) {
  const Schema& child = sort.children[0]->output_schema;
  std::vector<BoundExpr> keys;
  std::vector<bool> desc;
  for (const auto& k : sort.sort_keys) {
    keys.emplace_back(k.expr, child);
    desc.push_back(k.desc);
  }
  std::stable_sort(in.begin(), in.end(), [&](const Row& a, const Row& b) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto c = keys[i].eval(a).compare(keys[i].eval(b));
      if (c != 0) return desc[i] ? c > 0 : c < 0;
    }
    return false;
  });
  if (sort.limit && static_cast<std::int64_t>(in.size()) > *sort.limit)
    in.resize(static_cast<std::size_t>(*sort.limit));
  return in;
}

TEST(SortRows, MatchesPerComparisonEvaluationWithNaNAndMixedTypes) {
  Catalog c;
  c.register_table("t", xy());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(20111017);
  for (const char* sql :
       {"SELECT x, y FROM t ORDER BY y", "SELECT x, y FROM t ORDER BY y DESC",
        "SELECT x, y FROM t ORDER BY y, x DESC",
        "SELECT x, y FROM t ORDER BY y + 1 DESC LIMIT 7"}) {
    auto p = plan_query(sql, c);
    for (int trial = 0; trial < 40; ++trial) {
      // x is a unique row id; y mixes ints, doubles equal to them,
      // doubles between them, NaN, NULL and ±0.0.
      std::vector<Row> rows;
      const int n = static_cast<int>(rng.uniform(0, 120));
      for (int i = 0; i < n; ++i) {
        Value y;
        switch (rng.uniform(0, 6)) {
          case 0: y = Value{rng.uniform(-5, 5)}; break;
          case 1: y = Value{static_cast<double>(rng.uniform(-5, 5))}; break;
          case 2: y = Value{0.5 + static_cast<double>(rng.uniform(-5, 5))}; break;
          case 3: y = Value{nan}; break;
          case 4: y = Value::null(); break;
          case 5: y = Value{rng.uniform(0, 1) ? 0.0 : -0.0}; break;
          default: y = Value{std::int64_t{0}}; break;
        }
        rows.push_back({Value{i}, y});
      }
      const auto want = sort_rows_evaluating_in_comparator(*p, rows);
      const auto got = sort_rows(*p, rows);
      ASSERT_EQ(got.size(), want.size()) << sql;
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i][0].as_int(), want[i][0].as_int())
            << sql << " trial " << trial << " position " << i;
    }
  }
}

}  // namespace
}  // namespace ysmart
