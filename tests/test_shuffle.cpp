// Pins the raw-comparator shuffle primitives (mr/shuffle.h) to their
// executable specification, the cell-by-cell kv_less / compare_rows:
// plain std::sort over (norm_key, source, seq) must reproduce exactly
// what std::stable_sort(kv_less) produces, the k-way merge must equal
// concatenate-then-stable-sort, and reduce-group detection must agree
// with compare_rows equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "cmf/common_job.h"
#include "common/env.h"
#include "common/normkey.h"
#include "common/rng.h"
#include "mr/engine.h"
#include "mr/shuffle.h"
#include "plan/builder.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace ysmart {
namespace {

/// Finalize a bucket the way PartitioningEmitter does: cache the
/// normalized key and stamp the bucket-local emit sequence.
void prepare_bucket(std::vector<KeyValue>& bucket) {
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i].norm_key.empty())
      bucket[i].norm_key = encode_norm_key(bucket[i].key);
    bucket[i].seq = static_cast<std::uint32_t>(i);
  }
}

/// The pre-raw-comparator reference: stable sort by (key, source).
std::vector<KeyValue> reference_sort(std::vector<KeyValue> bucket) {
  std::stable_sort(bucket.begin(), bucket.end(), kv_less);
  return bucket;
}

void expect_same_sequence(const std::vector<KeyValue>& got,
                          const std::vector<KeyValue>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // `value` carries the original emit index in these tests, so equal
    // values here means equal pair identity, not just equal keys.
    ASSERT_TRUE(compare_rows(got[i].key, want[i].key) == 0) << "index " << i;
    ASSERT_TRUE(compare_rows(got[i].value, want[i].value) == 0) << "index " << i;
    ASSERT_EQ(got[i].source, want[i].source) << "index " << i;
    ASSERT_EQ(got[i].exclude, want[i].exclude) << "index " << i;
  }
}

std::vector<KeyValue> random_bucket(Rng& rng, int n, int distinct_keys) {
  std::vector<KeyValue> bucket;
  for (int i = 0; i < n; ++i) {
    KeyValue kv;
    // Few distinct keys and sources force plenty of ties, the case where
    // an unstable sort without the seq tie-break would diverge.
    kv.key = {Value{rng.uniform(0, distinct_keys - 1)},
              Value{rng.ident(static_cast<std::size_t>(rng.uniform(0, 2)))}};
    kv.value = {Value{std::int64_t{i}}};
    kv.source = static_cast<std::uint8_t>(rng.uniform(0, 2));
    bucket.push_back(std::move(kv));
  }
  return bucket;
}

TEST(Shuffle, SortMapBucketMatchesStableSortReference) {
  Rng rng(42424242);
  for (int round = 0; round < 50; ++round) {
    auto bucket = random_bucket(rng, 200, 6);
    prepare_bucket(bucket);
    const auto want = reference_sort(bucket);
    sort_map_bucket(bucket);
    expect_same_sequence(bucket, want);
  }
}

TEST(Shuffle, MergeSortedRunsMatchesConcatThenStableSort) {
  Rng rng(777);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<KeyValue>> runs;
    std::vector<KeyValue> concat;
    const auto num_runs = rng.uniform(1, 6);
    for (std::int64_t r = 0; r < num_runs; ++r) {
      auto run = random_bucket(rng, static_cast<int>(rng.uniform(0, 80)), 4);
      prepare_bucket(run);
      sort_map_bucket(run);
      concat.insert(concat.end(), run.begin(), run.end());
      runs.push_back(std::move(run));
    }
    const auto want = reference_sort(std::move(concat));

    std::vector<std::vector<KeyValue>*> run_ptrs;
    for (auto& r : runs) run_ptrs.push_back(&r);
    const auto got = merge_sorted_runs(run_ptrs);
    expect_same_sequence(got, want);
  }
}

// The pin the refactor hangs on: sorting the real map output of a merged
// CMF job (two aggregations sharing one scan, so pairs carry exclude
// tags and duplicate keys) with the new raw path reproduces the old
// stable_sort order pair-for-pair.
TEST(Shuffle, SortPinOnMergedCmfJobMapOutput) {
  Schema schema;
  schema.add("k", ValueType::Int);
  schema.add("v", ValueType::Int);
  Dfs dfs(2, 256, 1);
  Catalog catalog;
  catalog.register_table("t", schema);
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < 60; ++i) t->append({Value{i % 4}, Value{i}});
  dfs.write("/tables/t", t);

  auto agg_lo = plan_query(
      "SELECT k, count(*) AS n FROM t WHERE v < 30 GROUP BY k", catalog);
  auto agg_hi = plan_query(
      "SELECT k, sum(v) AS s FROM t WHERE v >= 15 GROUP BY k", catalog);

  TranslatedJob job;
  job.name = "merged";
  job.kind = TranslatedJob::Kind::MapReduce;
  job.input_files.push_back(InputFile{"/tables/t", Schema{}});
  Emission e;
  e.input_file = 0;
  e.source_tag = 0;
  e.key_exprs = {Expr::make_column("k")};
  e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
  e.consumers.push_back(Emission::Consumer{0, parse_expression("v < 30")});
  e.consumers.push_back(Emission::Consumer{1, parse_expression("v >= 15")});
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
  auto spec = build_common_job(job, TranslatorProfile::ysmart(), dfs);

  // Run the job's real mapper over the table and capture its output.
  class Collector : public MapEmitter {
   public:
    void emit(KeyValue kv) override { out.push_back(std::move(kv)); }
    std::vector<KeyValue> out;
  };
  Collector collector;
  auto mapper = spec.make_mapper();
  ColumnBatch batch(t->rows());  // 60 rows: one batch
  mapper->map(batch, 0, collector);
  mapper->finish(collector);
  ASSERT_FALSE(collector.out.empty());

  auto bucket = std::move(collector.out);
  prepare_bucket(bucket);
  const auto want = reference_sort(bucket);
  sort_map_bucket(bucket);
  ASSERT_EQ(bucket.size(), want.size());
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    ASSERT_TRUE(compare_rows(bucket[i].key, want[i].key) == 0) << "index " << i;
    ASSERT_TRUE(compare_rows(bucket[i].value, want[i].value) == 0) << "index " << i;
    ASSERT_EQ(bucket[i].source, want[i].source) << "index " << i;
    ASSERT_EQ(bucket[i].exclude, want[i].exclude) << "index " << i;
  }
}

TEST(Shuffle, SameShuffleKeyMatchesCompareRows) {
  KeyValue a, b, c;
  a.key = {Value{1}, Value{"x"}};
  b.key = {Value{1.0}, Value{"x"}};  // equal to a across Int/Double
  c.key = {Value{2}, Value{"x"}};
  for (KeyValue* kv : {&a, &b, &c}) kv->norm_key = encode_norm_key(kv->key);
  EXPECT_TRUE(same_shuffle_key(a, b));
  EXPECT_FALSE(same_shuffle_key(a, c));

  // Every pair of a tie-heavy random bucket: byte equality of the cached
  // normalized keys must be exactly compare_rows equality.
  Rng rng(5150);
  auto bucket = random_bucket(rng, 60, 4);
  prepare_bucket(bucket);
  for (const auto& x : bucket)
    for (const auto& y : bucket)
      ASSERT_EQ(same_shuffle_key(x, y), compare_rows(x.key, y.key) == 0);
}

TEST(Shuffle, EnvFlagParsing) {
  EXPECT_EQ(parse_flag("on"), true);
  EXPECT_EQ(parse_flag("ON"), true);
  EXPECT_EQ(parse_flag("1"), true);
  EXPECT_EQ(parse_flag("true"), true);
  EXPECT_EQ(parse_flag("Yes"), true);
  EXPECT_EQ(parse_flag("off"), false);
  EXPECT_EQ(parse_flag("0"), false);
  EXPECT_EQ(parse_flag("False"), false);
  EXPECT_EQ(parse_flag("no"), false);
  EXPECT_EQ(parse_flag(""), std::nullopt);
  EXPECT_EQ(parse_flag("maybe"), std::nullopt);
  EXPECT_EQ(parse_flag("onn"), std::nullopt);

  ::setenv("YSMART_TEST_FLAG", "off", 1);
  EXPECT_EQ(env_flag("YSMART_TEST_FLAG"), false);
  ::setenv("YSMART_TEST_FLAG", "garbage", 1);
  EXPECT_EQ(env_flag("YSMART_TEST_FLAG"), std::nullopt);
  ::unsetenv("YSMART_TEST_FLAG");
  EXPECT_EQ(env_flag("YSMART_TEST_FLAG"), std::nullopt);
}

}  // namespace
}  // namespace ysmart
