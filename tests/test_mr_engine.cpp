// Unit tests for the MapReduce engine itself: word-count style jobs,
// multi-input tagging, map-only jobs, multi-output jobs, metrics,
// contention, compression accounting, determinism.
#include <gtest/gtest.h>

#include "mr/engine.h"

namespace ysmart {
namespace {

Schema word_schema() {
  Schema s;
  s.add("word", ValueType::String);
  return s;
}

Schema count_schema() {
  Schema s;
  s.add("word", ValueType::String);
  s.add("n", ValueType::Int);
  return s;
}

class WordMapper final : public Mapper {
 public:
  void map(ColumnBatch& batch, int /*tag*/, MapEmitter& out) override {
    for (std::size_t i = 0; i < batch.rows(); ++i)
      out.emit(Row{batch.source_row(i)[0]}, Row{Value{1}});
  }
};

class CountReducer final : public Reducer {
 public:
  void reduce(const Row& key, std::span<const KeyValue> values,
              ReduceEmitter& out) override {
    out.emit(Row{key[0], Value{static_cast<std::int64_t>(values.size())}});
  }
};

std::shared_ptr<Table> words(std::initializer_list<const char*> ws) {
  auto t = std::make_shared<Table>(word_schema());
  for (const char* w : ws) t->append({Value{w}});
  return t;
}

MRJobSpec word_count_spec() {
  MRJobSpec spec;
  spec.name = "wordcount";
  spec.inputs = {{"/in", 0}};
  spec.outputs = {{"/out", count_schema()}};
  spec.make_mapper = [] { return std::make_unique<WordMapper>(); };
  spec.make_reducer = [] { return std::make_unique<CountReducer>(); };
  return spec;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : dfs_(2, 64, 1), engine_(dfs_, ClusterConfig::small_local(1.0)) {}
  Dfs dfs_;
  Engine engine_;
};

TEST_F(EngineTest, WordCount) {
  dfs_.write("/in", words({"a", "b", "a", "c", "a", "b"}));
  auto m = engine_.run(word_count_spec());
  EXPECT_FALSE(m.failed);
  auto out = dfs_.file("/out").table;
  ASSERT_EQ(out->row_count(), 3u);
  std::map<std::string, std::int64_t> counts;
  for (const auto& r : out->rows()) counts[r[0].as_string()] = r[1].as_int();
  EXPECT_EQ(counts["a"], 3);
  EXPECT_EQ(counts["b"], 2);
  EXPECT_EQ(counts["c"], 1);
}

TEST_F(EngineTest, MetricsCountRecordsAndBytes) {
  dfs_.write("/in", words({"a", "b", "a"}));
  auto m = engine_.run(word_count_spec());
  EXPECT_EQ(m.map.input_records, 3u);
  EXPECT_EQ(m.map.output_records, 3u);
  EXPECT_GT(m.map.input_bytes, 0u);
  EXPECT_EQ(m.reduce.input_records, 3u);
  EXPECT_EQ(m.reduce.output_records, 2u);
  EXPECT_EQ(m.shuffle_bytes_raw, m.map.output_bytes);
  EXPECT_GT(m.map_time_s, 0);
  EXPECT_GT(m.reduce_time_s, 0);
  EXPECT_EQ(m.sched_delay_s, 0);  // no contention on the local preset
}

TEST_F(EngineTest, MultipleMapTasksFromBlocks) {
  auto t = std::make_shared<Table>(word_schema());
  for (int i = 0; i < 100; ++i) t->append({Value{"w" + std::to_string(i % 7)}});
  dfs_.write("/in", t);  // 64-byte blocks -> many tasks
  auto m = engine_.run(word_count_spec());
  EXPECT_GT(m.map.tasks, 10u);
  EXPECT_EQ(dfs_.file("/out").table->row_count(), 7u);
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  auto t = std::make_shared<Table>(word_schema());
  for (int i = 0; i < 500; ++i) t->append({Value{"w" + std::to_string(i % 31)}});
  dfs_.write("/in", t);
  auto m1 = engine_.run(word_count_spec());
  auto rows1 = dfs_.file("/out").table->rows();
  auto m2 = engine_.run(word_count_spec());
  auto rows2 = dfs_.file("/out").table->rows();
  ASSERT_EQ(rows1.size(), rows2.size());
  for (std::size_t i = 0; i < rows1.size(); ++i)
    EXPECT_EQ(compare_rows(rows1[i], rows2[i]), std::strong_ordering::equal);
  EXPECT_DOUBLE_EQ(m1.map_time_s, m2.map_time_s);
  EXPECT_DOUBLE_EQ(m1.reduce_time_s, m2.reduce_time_s);
}

// Input tags distinguish sources in multi-input jobs.
class TagMapper final : public Mapper {
 public:
  void map(ColumnBatch& batch, int tag, MapEmitter& out) override {
    for (std::size_t i = 0; i < batch.rows(); ++i)
      out.emit(Row{batch.source_row(i)[0]}, Row{Value{tag}},
               static_cast<std::uint8_t>(tag));
  }
};

class TagReducer final : public Reducer {
 public:
  void reduce(const Row& key, std::span<const KeyValue> values,
              ReduceEmitter& out) override {
    std::int64_t left = 0, right = 0;
    for (const auto& kv : values) (kv.source == 0 ? left : right)++;
    out.emit(Row{key[0], Value{left}, Value{right}});
  }
};

TEST_F(EngineTest, MultiInputTagging) {
  dfs_.write("/l", words({"a", "b"}));
  dfs_.write("/r", words({"b", "b"}));
  Schema out_schema;
  out_schema.add("word", ValueType::String);
  out_schema.add("l", ValueType::Int);
  out_schema.add("r", ValueType::Int);
  MRJobSpec spec;
  spec.name = "tagged";
  spec.inputs = {{"/l", 0}, {"/r", 1}};
  spec.outputs = {{"/out", out_schema}};
  spec.make_mapper = [] { return std::make_unique<TagMapper>(); };
  spec.make_reducer = [] { return std::make_unique<TagReducer>(); };
  engine_.run(spec);
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> res;
  for (const auto& r : dfs_.file("/out").table->rows())
    res[r[0].as_string()] = {r[1].as_int(), r[2].as_int()};
  EXPECT_EQ(res["a"], (std::pair<std::int64_t, std::int64_t>{1, 0}));
  EXPECT_EQ(res["b"], (std::pair<std::int64_t, std::int64_t>{1, 2}));
}

// Map-only job: values go straight to the output.
class PassMapper final : public Mapper {
 public:
  void map(ColumnBatch& batch, int /*tag*/, MapEmitter& out) override {
    for (std::size_t i = 0; i < batch.rows(); ++i) {
      const Value& w = batch.source_row(i)[0];
      if (w.as_string() != "drop") out.emit(Row{}, Row{w});
    }
  }
};

TEST_F(EngineTest, MapOnlyJob) {
  dfs_.write("/in", words({"keep", "drop", "keep2"}));
  MRJobSpec spec;
  spec.name = "maponly";
  spec.inputs = {{"/in", 0}};
  spec.outputs = {{"/out", word_schema()}};
  spec.make_mapper = [] { return std::make_unique<PassMapper>(); };
  auto m = engine_.run(spec);
  EXPECT_EQ(dfs_.file("/out").table->row_count(), 2u);
  // Map-only metrics convention (metrics.h): the final output is the map
  // phase's output; every reduce field stays zero.
  EXPECT_GT(m.map.tasks, 0u);
  EXPECT_EQ(m.map.output_records, 2u);
  EXPECT_EQ(m.reduce.tasks, 0u);
  EXPECT_EQ(m.reduce.output_records, 0u);
  EXPECT_EQ(m.reduce.output_bytes, 0u);
  EXPECT_EQ(m.reduce_time_s, 0.0);
  EXPECT_GT(m.dfs_write_bytes, 0u);
}

// A map-only job over one split that spans several column batches: the
// engine slices the split into kBatchRows chunks, and the output must be
// the input, row for row, in order — no row lost, duplicated or
// reordered at a batch boundary.
class IdentityMapper final : public Mapper {
 public:
  void map(ColumnBatch& batch, int /*tag*/, MapEmitter& out) override {
    for (std::size_t i = 0; i < batch.rows(); ++i)
      out.emit(Row{}, batch.source_row(i));
  }
};

TEST(EngineBatching, MapOnlySplitAcrossBatchBoundaries) {
  Schema schema;
  schema.add("i", ValueType::Int);
  schema.add("word", ValueType::String);
  auto t = std::make_shared<Table>(schema);
  const std::size_t n = 2 * ColumnBatch::kBatchRows + 5;
  for (std::size_t i = 0; i < n; ++i)
    t->append({Value{static_cast<std::int64_t>(i)},
               Value{"w" + std::to_string(i)}});
  Dfs dfs(2, std::uint64_t{1} << 30, 1);  // one block holds the whole input
  dfs.write("/in", t);
  ASSERT_EQ(dfs.file("/in").blocks.size(), 1u);
  Engine engine(dfs, ClusterConfig::small_local(1.0));
  MRJobSpec spec;
  spec.name = "identity";
  spec.inputs = {{"/in", 0}};
  spec.outputs = {{"/out", schema}};
  spec.make_mapper = [] { return std::make_unique<IdentityMapper>(); };
  const auto m = engine.run(spec);
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(m.map.tasks, 1u);
  const auto& in = t->rows();
  const auto& out = dfs.file("/out").table->rows();
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(compare_rows(out[i], in[i]), std::strong_ordering::equal)
        << "row " << i;
}

// Multi-output reducers write each tagged result to its own file.
class SplitReducer final : public Reducer {
 public:
  void reduce(const Row& key, std::span<const KeyValue> values,
              ReduceEmitter& out) override {
    const std::int64_t n = static_cast<std::int64_t>(values.size());
    out.emit_to(n > 1 ? 1 : 0, Row{key[0], Value{n}});
  }
};

TEST_F(EngineTest, MultipleOutputs) {
  dfs_.write("/in", words({"a", "b", "a"}));
  MRJobSpec spec;
  spec.name = "split";
  spec.inputs = {{"/in", 0}};
  spec.outputs = {{"/unique", count_schema()}, {"/dups", count_schema()}};
  spec.make_mapper = [] { return std::make_unique<WordMapper>(); };
  spec.make_reducer = [] { return std::make_unique<SplitReducer>(); };
  engine_.run(spec);
  EXPECT_EQ(dfs_.file("/unique").table->row_count(), 1u);
  EXPECT_EQ(dfs_.file("/dups").table->row_count(), 1u);
}

TEST_F(EngineTest, CompressionShrinksWireBytes) {
  auto t = std::make_shared<Table>(word_schema());
  for (int i = 0; i < 200; ++i) t->append({Value{"w" + std::to_string(i % 5)}});
  dfs_.write("/in", t);
  auto plain = engine_.run(word_count_spec());

  auto cfg = ClusterConfig::small_local(1.0);
  cfg.compression.enabled = true;
  Engine compressed_engine(dfs_, cfg);
  auto comp = compressed_engine.run(word_count_spec());
  EXPECT_LT(comp.shuffle_bytes_wire, plain.shuffle_bytes_wire);
  EXPECT_EQ(comp.shuffle_bytes_raw, plain.shuffle_bytes_raw);
}

TEST_F(EngineTest, ContentionAddsSchedulingDelay) {
  dfs_.write("/in", words({"a", "b"}));
  auto cfg = ClusterConfig::small_local(1.0);
  cfg.contention.enabled = true;
  cfg.contention.mean_sched_delay_s = 120;
  Engine busy(dfs_, cfg);
  auto m = busy.run(word_count_spec());
  EXPECT_GT(m.sched_delay_s, 0);
}

TEST_F(EngineTest, DiskCapacityOverflowFailsJob) {
  auto t = std::make_shared<Table>(word_schema());
  for (int i = 0; i < 100; ++i) t->append({Value{"wwwwwwwwww"}});
  dfs_.write("/in", t);
  auto cfg = ClusterConfig::small_local(1.0);
  cfg.local_disk_capacity_bytes = 10;  // absurdly small
  Engine tiny(dfs_, cfg);
  auto m = tiny.run(word_count_spec());
  EXPECT_TRUE(m.failed);
  EXPECT_NE(m.fail_reason.find("capacity"), std::string::npos);
}

TEST_F(EngineTest, TaskFailuresAddTimeNotErrors) {
  auto t = std::make_shared<Table>(word_schema());
  for (int i = 0; i < 300; ++i) t->append({Value{"w" + std::to_string(i % 9)}});
  dfs_.write("/in", t);
  auto baseline = engine_.run(word_count_spec());
  auto out_healthy = dfs_.file("/out").table;

  auto cfg = ClusterConfig::small_local(1.0);
  cfg.task_failure_rate = 0.3;
  cfg.contention.seed = 99;
  Engine flaky(dfs_, cfg);
  auto m = flaky.run(word_count_spec());
  EXPECT_FALSE(m.failed);
  // Re-executed attempts cost time but recompute identical results.
  EXPECT_GT(m.map_time_s + m.reduce_time_s,
            baseline.map_time_s + baseline.reduce_time_s);
  EXPECT_TRUE(same_rows_unordered(*out_healthy, *dfs_.file("/out").table));
}

TEST_F(EngineTest, EmptyInputProducesEmptyOutput) {
  dfs_.write("/in", std::make_shared<Table>(word_schema()));
  auto m = engine_.run(word_count_spec());
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(dfs_.file("/out").table->row_count(), 0u);
}

}  // namespace
}  // namespace ysmart
