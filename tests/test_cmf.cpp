// Unit tests for the Common MapReduce Framework against hand-built
// TranslatedJobs: tag visibility, value dispatch, post-job computations,
// multi-output behaviour, the CombineAgg fast path, the checks that
// guard malformed job descriptions, and a differential test pinning the
// prepared common reducer (bound once, scratch reset per key group)
// against fresh one-shot operators per group.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "cmf/common_job.h"
#include "common/error.h"
#include "exec/operators.h"
#include "mr/engine.h"
#include "plan/builder.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace ysmart {
namespace {

Schema kv_schema() {
  Schema s;
  s.add("k", ValueType::Int);
  s.add("v", ValueType::Int);
  return s;
}

class CmfTest : public ::testing::Test {
 protected:
  CmfTest() : dfs_(2, 256, 1), engine_(dfs_, ClusterConfig::small_local(1.0)) {
    catalog_.register_table("t", kv_schema());
    auto t = std::make_shared<Table>(kv_schema());
    for (int i = 0; i < 30; ++i) t->append({Value{i % 5}, Value{i}});
    dfs_.write("/tables/t", t);
  }

  Dfs dfs_;
  Engine engine_;
  Catalog catalog_;
  TranslatorProfile profile_ = TranslatorProfile::ysmart();
};

// Two merged aggregations over the same scan with different filters: the
// exclude tags must route each record to the right consumers.
TEST_F(CmfTest, SharedEmissionWithPerConsumerFilters) {
  // AGG over v<10 and AGG over v>=20, both grouped by k, merged job.
  auto agg_lo = plan_query(
      "SELECT k, count(*) AS n FROM t WHERE v < 10 GROUP BY k", catalog_);
  auto agg_hi = plan_query(
      "SELECT k, count(*) AS n FROM t WHERE v >= 20 GROUP BY k", catalog_);

  TranslatedJob job;
  job.name = "merged";
  job.kind = TranslatedJob::Kind::MapReduce;
  job.input_files.push_back(InputFile{"/tables/t", Schema{}});
  Emission e;
  e.input_file = 0;
  e.source_tag = 0;
  e.key_exprs = {Expr::make_column("k")};
  e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
  e.consumers.push_back(Emission::Consumer{0, parse_expression("v < 10")});
  e.consumers.push_back(Emission::Consumer{1, parse_expression("v >= 20")});
  job.emissions.push_back(e);

  Stage s0;
  s0.op = agg_lo.get();
  s0.inputs = {Stage::In{true, 0}};
  s0.output_index = 0;
  Stage s1;
  s1.op = agg_hi.get();
  s1.inputs = {Stage::In{true, 1}};
  s1.output_index = 1;
  job.stages = {s0, s1};
  job.outputs = {JobOutput{"/out/lo", agg_lo->output_schema},
                 JobOutput{"/out/hi", agg_hi->output_schema}};

  auto spec = build_common_job(job, profile_, dfs_);
  auto m = engine_.run(spec);
  ASSERT_FALSE(m.failed);

  // v in 0..29; k = v%5. v<10: 10 rows, 2 per key; v>=20: 10 rows, 2/key.
  auto lo = dfs_.file("/out/lo").table;
  auto hi = dfs_.file("/out/hi").table;
  ASSERT_EQ(lo->row_count(), 5u);
  ASSERT_EQ(hi->row_count(), 5u);
  for (const auto& r : lo->rows()) EXPECT_EQ(r[1].as_int(), 2);
  for (const auto& r : hi->rows()) EXPECT_EQ(r[1].as_int(), 2);
  // Records passing neither filter (10..19) were never emitted: each of
  // the 30 input records emits at most one pair.
  EXPECT_EQ(m.map.output_records, 20u);
}

TEST_F(CmfTest, PostJobComputationConsumesMergedResults) {
  // One aggregation stage whose output feeds an SP stage (the "post-job
  // computation") inside the same reduce invocation; only the SP result
  // is written.
  auto agg = plan_query("SELECT k, sum(v) AS s FROM t GROUP BY k", catalog_);
  PlanPtr sp = std::make_shared<PlanNode>();
  sp->kind = PlanKind::SP;
  sp->children = {agg};
  sp->filter = parse_expression("s > 80");
  sp->output_schema = agg->output_schema;

  TranslatedJob job;
  job.name = "agg+post";
  job.input_files.push_back(InputFile{"/tables/t", Schema{}});
  Emission e;
  e.input_file = 0;
  e.source_tag = 0;
  e.key_exprs = {Expr::make_column("k")};
  e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
  e.consumers.push_back(Emission::Consumer{0, nullptr});
  job.emissions.push_back(e);
  Stage s0;
  s0.op = agg.get();
  s0.inputs = {Stage::In{true, 0}};
  Stage s1;
  s1.op = sp.get();
  s1.inputs = {Stage::In{false, 0}};
  s1.output_index = 0;
  job.stages = {s0, s1};
  job.outputs = {JobOutput{"/out/post", sp->output_schema}};

  engine_.run(build_common_job(job, profile_, dfs_));
  // sums per key: k gets v in {k, k+5, ..., k+25}: 6 values, sum = 6k+75.
  // s > 80 keeps k >= 1.
  EXPECT_EQ(dfs_.file("/out/post").table->row_count(), 4u);
}

TEST_F(CmfTest, CombineAggMatchesPlainAgg) {
  auto agg = plan_query("SELECT k, sum(v) AS s, count(*) AS n FROM t GROUP BY k",
                        catalog_);

  TranslatedJob combine;
  combine.name = "combine";
  combine.kind = TranslatedJob::Kind::CombineAgg;
  combine.combine_agg_node = agg.get();
  combine.input_files.push_back(InputFile{"/tables/t", Schema{}});
  Stage st;
  st.op = agg.get();
  st.inputs = {Stage::In{true, 0}};
  st.output_index = 0;
  combine.stages = {st};
  combine.outputs = {JobOutput{"/out/combined", agg->output_schema}};
  auto mc = engine_.run(build_common_job(combine, profile_, dfs_));

  TranslatedJob plain = combine;
  plain.name = "plain";
  plain.kind = TranslatedJob::Kind::MapReduce;
  Emission e;
  e.input_file = 0;
  e.source_tag = 0;
  e.key_exprs = {Expr::make_column("k")};
  e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
  e.consumers.push_back(Emission::Consumer{0, nullptr});
  plain.emissions.push_back(e);
  plain.outputs = {JobOutput{"/out/plain", agg->output_schema}};
  auto mp = engine_.run(build_common_job(plain, profile_, dfs_));

  EXPECT_TRUE(same_rows_unordered(*dfs_.file("/out/combined").table,
                                  *dfs_.file("/out/plain").table));
  // The combiner must shrink the map output: 5 partial pairs vs 30 raws.
  EXPECT_LT(mc.map.output_records, mp.map.output_records);
}

TEST_F(CmfTest, MissingInputFileThrows) {
  TranslatedJob job;
  job.name = "bad";
  job.input_files.push_back(InputFile{"/tables/nope", Schema{}});
  job.outputs = {JobOutput{"/out/x", kv_schema()}};
  EXPECT_THROW(build_common_job(job, profile_, dfs_), ExecError);
}

TEST_F(CmfTest, NonDenseSourceTagsRejected) {
  auto agg = plan_query("SELECT k, count(*) AS n FROM t GROUP BY k", catalog_);
  TranslatedJob job;
  job.name = "badtags";
  job.input_files.push_back(InputFile{"/tables/t", Schema{}});
  Emission e;
  e.input_file = 0;
  e.source_tag = 3;  // must equal its position (0)
  e.key_exprs = {Expr::make_column("k")};
  e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
  e.consumers.push_back(Emission::Consumer{0, nullptr});
  job.emissions.push_back(e);
  Stage st;
  st.op = agg.get();
  st.inputs = {Stage::In{true, 0}};
  st.output_index = 0;
  job.stages = {st};
  job.outputs = {JobOutput{"/out/x", agg->output_schema}};
  EXPECT_THROW(build_common_job(job, profile_, dfs_), InternalError);
}

// ---- prepared reducer vs fresh one-shot operators per key group ----

Schema kvw_schema() {
  Schema s;
  s.add("k", ValueType::Int);
  s.add("v", ValueType::Int);
  s.add("w", ValueType::Double);
  return s;
}

// 400 rows over 41 keys. w is NULL on every fifth row, else a multiple of
// 0.25 (exact under any summation order), so partial aggregation and the
// row path agree bit for bit.
std::shared_ptr<Table> kvw_table() {
  auto t = std::make_shared<Table>(kvw_schema());
  for (int i = 0; i < 400; ++i) {
    Row r{Value{(i * 7) % 41}, Value{i}, Value::null()};
    if (i % 5 != 0) r[2] = Value{0.25 * static_cast<double>(i % 9) - 1.0};
    t->append(std::move(r));
  }
  return t;
}

bool bit_identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::Null: return true;
    case ValueType::Int: return a.as_int() == b.as_int();
    case ValueType::Double: {
      const double x = a.as_double(), y = b.as_double();
      return std::memcmp(&x, &y, sizeof x) == 0;
    }
    case ValueType::String: return a.as_string() == b.as_string();
  }
  return false;
}

void expect_same_rows(const std::vector<Row>& got, const std::vector<Row>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << what << " row " << i;
    for (std::size_t c = 0; c < got[i].size(); ++c)
      EXPECT_TRUE(bit_identical(got[i][c], want[i][c]))
          << what << " row " << i << " col " << c << ": "
          << got[i][c].to_string() << " vs " << want[i][c].to_string();
  }
}

PlanNode* find_scan(PlanNode* n, const std::string& alias) {
  if (n->kind == PlanKind::Scan) return n->alias == alias ? n : nullptr;
  for (const auto& c : n->children)
    if (PlanNode* hit = find_scan(c.get(), alias)) return hit;
  return nullptr;
}

// Lowers plan trees over table u into one merged job partitioned on k:
// every Scan leaf becomes its own emission with one consumer, every other
// node a stage (post-order), and tree i's root writes output i.
struct MergedJob {
  TranslatedJob job;
  std::vector<const PlanNode*> scans;  // by consumer id

  Stage::In add(const PlanNode* n) {
    if (n->kind == PlanKind::Scan) {
      const int id = static_cast<int>(scans.size());
      Emission e;
      e.input_file = 0;
      e.source_tag = id;
      e.key_exprs = {Expr::make_column("k")};
      e.value_exprs = n->projections;
      if (e.value_exprs.empty())
        for (const auto& c : n->output_schema.columns())
          e.value_exprs.push_back(Expr::make_column(c.name));
      e.consumers.push_back(Emission::Consumer{id, n->filter});
      job.emissions.push_back(e);
      scans.push_back(n);
      return Stage::In{true, id};
    }
    Stage st;
    st.op = n;
    for (const auto& c : n->children) st.inputs.push_back(add(c.get()));
    job.stages.push_back(st);
    return Stage::In{false, static_cast<int>(job.stages.size()) - 1};
  }
};

// The reference: per key (in key order), every consumer's rows computed
// from the table directly, then every stage by the one-shot operators on
// fresh state.
std::vector<std::vector<Row>> per_group_reference(const MergedJob& m,
                                                  const Table& t) {
  std::set<Row, RowLess> keys;
  for (const auto& r : t.rows()) keys.insert(Row{r[0]});
  std::vector<std::vector<Row>> outputs(m.job.outputs.size());
  for (const auto& key : keys) {
    std::vector<std::vector<Row>> consumer(m.scans.size());
    for (std::size_t c = 0; c < m.scans.size(); ++c) {
      const Emission& e = m.job.emissions[c];
      BoundExpr filter;
      if (e.consumers[0].filter)
        filter = BoundExpr(e.consumers[0].filter, t.schema());
      const auto values = bind_all(e.value_exprs, t.schema());
      for (const auto& r : t.rows()) {
        if (r[0].compare(key[0]) != 0) continue;
        if (filter.valid() && !is_true(filter.eval(r))) continue;
        Row v;
        for (const auto& x : values) v.push_back(x.eval(r));
        consumer[c].push_back(std::move(v));
      }
    }
    std::vector<std::vector<Row>> stage(m.job.stages.size());
    for (std::size_t s = 0; s < m.job.stages.size(); ++s) {
      const Stage& st = m.job.stages[s];
      auto in = [&](std::size_t i) -> const std::vector<Row>& {
        const Stage::In& x = st.inputs[i];
        return x.from_consumer ? consumer[static_cast<std::size_t>(x.index)]
                               : stage[static_cast<std::size_t>(x.index)];
      };
      switch (st.op->kind) {
        case PlanKind::Join:
          stage[s] = join_group(GroupJoinSpec(*st.op), in(0), in(1));
          break;
        case PlanKind::Agg:
          stage[s] = aggregate_rows(*st.op, in(0));
          break;
        case PlanKind::SP:
          stage[s] = filter_project(
              PreparedFilterProject(*st.op, st.op->children[0]->output_schema),
              in(0));
          break;
        case PlanKind::Sort:
          stage[s] = sort_rows(*st.op, in(0));
          break;
        case PlanKind::Scan:
          break;
      }
      if (st.output_index >= 0)
        for (const auto& r : stage[s])
          outputs[static_cast<std::size_t>(st.output_index)].push_back(r);
    }
  }
  return outputs;
}

class CmfStateResetTest : public ::testing::Test {
 protected:
  CmfStateResetTest()
      : dfs_(2, 512, 1), engine_(dfs_, ClusterConfig::small_local(1.0)) {
    catalog_.register_table("u", kvw_schema());
    table_ = kvw_table();
    dfs_.write("/tables/u", table_);
  }

  Dfs dfs_;
  Engine engine_;
  Catalog catalog_;
  std::shared_ptr<Table> table_;
  TranslatorProfile profile_ = TranslatorProfile::ysmart();
};

// One reduce partition holds all 41 key groups, so one CommonReducer
// instance runs every stage 41 times on reused scratch. Consumers are
// empty in some groups; the stages cover count(distinct), min/max, avg,
// HAVING, global aggregation over empty input, LEFT and FULL outer-join
// padding, a post-job SP and a Sort with LIMIT.
TEST_F(CmfStateResetTest, CommonReducerMatchesFreshOperatorsPerGroup) {
  std::vector<PlanPtr> plans;
  plans.push_back(plan_query(
      "SELECT k, count(distinct w) AS dw, min(w) AS mn, max(w) AS mx, "
      "avg(w) AS aw, count(*) AS n FROM u WHERE v > 330 GROUP BY k "
      "HAVING n > 1",
      catalog_));
  plans.push_back(plan_query(
      "SELECT count(*) AS n, sum(v) AS s, max(w) AS mx FROM u WHERE v > 360",
      catalog_));
  plans.push_back(plan_query(
      "SELECT a.k, a.v, b.v AS bv, b.w FROM u a LEFT JOIN u b ON a.k = b.k "
      "WHERE a.v < 90",
      catalog_));
  // Right side only for late rows: most groups pad.
  find_scan(plans.back().get(), "b")->filter =
      parse_expression("b.v > 370");
  plans.push_back(plan_query(
      "SELECT a.k, a.v AS av, b.v AS bv FROM u a FULL JOIN u b ON a.k = b.k",
      catalog_));
  find_scan(plans.back().get(), "a")->filter =
      parse_expression("a.v < 20");
  find_scan(plans.back().get(), "b")->filter =
      parse_expression("b.v > 380");
  {
    // Post-job SP over an aggregation.
    auto agg = plan_query(
        "SELECT k, sum(v) AS s, avg(w) AS aw FROM u GROUP BY k", catalog_);
    auto sp = std::make_shared<PlanNode>();
    sp->kind = PlanKind::SP;
    sp->children = {agg};
    sp->filter = parse_expression("s > 1900");
    sp->output_schema = agg->output_schema;
    plans.push_back(sp);
  }
  plans.push_back(plan_query(
      "SELECT k, v, w FROM u WHERE v > 200 ORDER BY w DESC, v LIMIT 3",
      catalog_));

  MergedJob m;
  m.job.name = "state-reset";
  m.job.kind = TranslatedJob::Kind::MapReduce;
  m.job.num_reduce_tasks = 1;
  m.job.input_files.push_back(InputFile{"/tables/u", Schema{}});
  for (std::size_t i = 0; i < plans.size(); ++i) {
    m.add(plans[i].get());
    m.job.stages.back().output_index = static_cast<int>(i);
    m.job.outputs.push_back(JobOutput{"/out/reset" + std::to_string(i),
                                      plans[i]->output_schema});
  }
  ASSERT_LT(m.scans.size(), 32u);

  const auto metrics = engine_.run(build_common_job(m.job, profile_, dfs_));
  ASSERT_FALSE(metrics.failed);
  const auto want = per_group_reference(m, *table_);
  for (std::size_t i = 0; i < plans.size(); ++i)
    expect_same_rows(dfs_.file(m.job.outputs[i].path).table->rows(), want[i],
                     "output " + std::to_string(i));

  // The shapes the test is about really occur.
  auto rows = [&](int i) -> const std::vector<Row>& {
    return dfs_.file(m.job.outputs[static_cast<std::size_t>(i)].path)
        .table->rows();
  };
  auto count_null = [&](int i, std::size_t col) {
    std::size_t n = 0;
    for (const auto& r : rows(i)) n += r[col].is_null();
    return n;
  };
  EXPECT_GT(rows(0).size(), 0u);
  EXPECT_LT(rows(0).size(), 41u);        // empty consumers + HAVING
  EXPECT_EQ(rows(1).size(), 41u);        // one global row per key group
  EXPECT_GT(count_null(1, 1), 0u);       // ... some over empty input
  EXPECT_GT(count_null(2, 2), 0u);       // LEFT padding
  EXPECT_GT(count_null(3, 1), 0u);       // FULL padding, left side
  EXPECT_GT(count_null(3, 2), 0u);       // FULL padding, right side
  EXPECT_GT(rows(4).size(), 0u);         // post-job SP keeps some groups
  EXPECT_LT(rows(4).size(), 41u);        // ... and drops others
  EXPECT_GT(rows(5).size(), 41u);        // sort + LIMIT per group
}

// The CombineAgg reducer reuses one state vector for every key group; it
// must match a one-shot aggregation of the whole table row for row.
TEST_F(CmfStateResetTest, CombineAggReducerMatchesOneShotAggregate) {
  auto agg = plan_query(
      "SELECT k, sum(v) AS s, min(w) AS mn, max(w) AS mx, avg(w) AS aw, "
      "count(w) AS cw, count(*) AS n FROM u GROUP BY k HAVING n > 9",
      catalog_);
  const PlanNode* node = agg.get();
  while (node->kind != PlanKind::Agg) node = node->children.at(0).get();

  TranslatedJob job;
  job.name = "combine-reset";
  job.kind = TranslatedJob::Kind::CombineAgg;
  job.combine_agg_node = node;
  job.num_reduce_tasks = 1;
  job.input_files.push_back(InputFile{"/tables/u", Schema{}});
  Stage st;
  st.op = node;
  st.inputs = {Stage::In{true, 0}};
  st.output_index = 0;
  job.stages = {st};
  job.outputs = {JobOutput{"/out/combine-reset", node->output_schema}};
  const auto metrics = engine_.run(build_common_job(job, profile_, dfs_));
  ASSERT_FALSE(metrics.failed);

  const auto want = aggregate_rows(*node, table_->rows());
  ASSERT_GT(want.size(), 1u);
  ASSERT_LT(want.size(), 41u);  // HAVING dropped some groups
  expect_same_rows(dfs_.file("/out/combine-reset").table->rows(), want,
                   "combine");
}

}  // namespace
}  // namespace ysmart
