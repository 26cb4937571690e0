// Unit tests for the cost model, cluster presets, tag encodings, and
// metrics aggregation.
#include <gtest/gtest.h>

#include "cmf/tags.h"
#include "mr/cost_model.h"
#include "mr/metrics.h"

namespace ysmart {
namespace {

TEST(Makespan, SingleSlotSums) {
  EXPECT_DOUBLE_EQ(CostModel::makespan({1, 2, 3}, 1), 6.0);
}

TEST(Makespan, PerfectSplit) {
  EXPECT_DOUBLE_EQ(CostModel::makespan({2, 2, 2, 2}, 2), 4.0);
}

TEST(Makespan, DominatedByLongestTask) {
  EXPECT_DOUBLE_EQ(CostModel::makespan({10, 1, 1, 1}, 4), 10.0);
}

TEST(Makespan, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(CostModel::makespan({}, 4), 0.0);
}

TEST(Makespan, MoreSlotsNeverSlower) {
  std::vector<double> tasks{3, 1, 4, 1, 5, 9, 2, 6};
  double prev = CostModel::makespan(tasks, 1);
  for (int slots = 2; slots <= 8; ++slots) {
    const double m = CostModel::makespan(tasks, slots);
    EXPECT_LE(m, prev);
    prev = m;
  }
}

TEST(CostModel, MapTaskScalesWithBytes) {
  auto cfg = ClusterConfig::small_local(1.0);
  CostModel cm(cfg);
  MapTaskWork small{1 << 20, 1000, 1000, 1 << 18, 1 << 18, true};
  MapTaskWork big{64 << 20, 64000, 64000, 16 << 20, 16 << 20, true};
  EXPECT_GT(cm.map_task_seconds(big, 1.0), cm.map_task_seconds(small, 1.0));
}

TEST(CostModel, RemoteReadSlowerThanLocal) {
  auto cfg = ClusterConfig::ec2(11, 1.0);
  CostModel cm(cfg);
  MapTaskWork local{64 << 20, 64000, 64000, 1 << 20, 1 << 20, true};
  MapTaskWork remote = local;
  remote.local_read = false;
  EXPECT_GT(cm.map_task_seconds(remote, 1.0), cm.map_task_seconds(local, 1.0));
}

TEST(CostModel, SimScaleMultipliesTime) {
  auto cfg1 = ClusterConfig::small_local(1.0);
  auto cfg100 = ClusterConfig::small_local(100.0);
  MapTaskWork w{1 << 20, 1000, 1000, 1 << 18, 1 << 18, true};
  // The variable part of the cost (everything beyond task startup) must
  // scale exactly linearly with sim_scale.
  const double t1 = CostModel(cfg1).map_task_seconds(w, 1.0) - cfg1.task_startup_s;
  const double t100 =
      CostModel(cfg100).map_task_seconds(w, 1.0) - cfg100.task_startup_s;
  EXPECT_NEAR(t100, t1 * 100, t1);
}

TEST(CostModel, CompressionAddsCpuButCutsWire) {
  auto cfg = ClusterConfig::ec2(11, 1.0);
  cfg.compression.enabled = true;
  CostModel cm(cfg);
  ReduceTaskWork w;
  w.shuffle_bytes_raw = 100 << 20;
  w.shuffle_bytes_wire = 35 << 20;
  w.input_records = 100000;
  w.output_bytes = 1 << 20;
  const double with_comp = cm.reduce_task_seconds(w, 1.0);

  auto cfg_nc = ClusterConfig::ec2(11, 1.0);
  ReduceTaskWork w_nc = w;
  w_nc.shuffle_bytes_wire = w.shuffle_bytes_raw;
  const double without = CostModel(cfg_nc).reduce_task_seconds(w_nc, 1.0);
  // On EC2's weak cores the codec CPU exceeds the network savings — the
  // paper's Fig. 11 observation.
  EXPECT_GT(with_comp, without);
}

TEST(CostModel, ReplicationAddsWriteCost) {
  auto cfg3 = ClusterConfig::ec2(11, 1.0);
  auto cfg1 = cfg3;
  cfg1.replication = 1;
  ReduceTaskWork w;
  w.output_bytes = 100 << 20;
  EXPECT_GT(CostModel(cfg3).reduce_task_seconds(w, 1.0),
            CostModel(cfg1).reduce_task_seconds(w, 1.0));
}

TEST(ClusterPresets, ShapesMatchPaper) {
  auto local = ClusterConfig::small_local(1.0);
  EXPECT_EQ(local.total_map_slots(), 4);  // one TaskTracker, 4 slots
  EXPECT_EQ(local.replication, 1);

  auto ec2 = ClusterConfig::ec2(101, 1.0);
  EXPECT_EQ(ec2.worker_nodes, 101);
  EXPECT_EQ(ec2.total_map_slots(), 101);  // 1 virtual core each

  auto fb = ClusterConfig::facebook(1.0, 1);
  EXPECT_EQ(fb.worker_nodes, 747);
  EXPECT_TRUE(fb.contention.enabled);
}

TEST(ClusterPresets, ScaledBlockBytes) {
  auto c = ClusterConfig::small_local(64.0);
  EXPECT_EQ(c.scaled_block_bytes(), (64ull << 20) / 64);
}

TEST(TagEncoding, ExcludeListCheaperWhenOverlapHigh) {
  // 5 merged jobs, pair visible to all -> exclude list names nobody.
  EXPECT_LT(tag_overhead_bytes(5, 0, TagEncoding::ExcludeList),
            tag_overhead_bytes(5, 0, TagEncoding::IncludeList));
  // Pair visible to one job only -> include list is cheaper.
  EXPECT_GT(tag_overhead_bytes(5, 4, TagEncoding::ExcludeList),
            tag_overhead_bytes(5, 4, TagEncoding::IncludeList));
}

TEST(TagEncoding, SingleJobPaysNothing) {
  EXPECT_EQ(tag_overhead_bytes(1, 0, TagEncoding::ExcludeList), 0u);
}

TEST(KeyValue, ByteSizeIncludesTags) {
  KeyValue kv{{Value{1}}, {Value{2}}, 0, 0, {}};
  const auto plain = kv_byte_size(kv, 1, TagEncoding::ExcludeList);
  const auto merged = kv_byte_size(kv, 4, TagEncoding::ExcludeList);
  EXPECT_GT(merged, plain);
  kv.exclude = 0b0110;
  EXPECT_GT(kv_byte_size(kv, 4, TagEncoding::ExcludeList), merged);
}

TEST(KeyValue, VisibleTo) {
  KeyValue kv;
  kv.exclude = 0b0101;
  EXPECT_FALSE(kv.visible_to(0));
  EXPECT_TRUE(kv.visible_to(1));
  EXPECT_FALSE(kv.visible_to(2));
  EXPECT_TRUE(kv.visible_to(3));
}

TEST(KeyValue, SortOrder) {
  KeyValue a{{Value{1}}, {}, 1, 0, {}};
  KeyValue b{{Value{1}}, {}, 0, 0, {}};
  KeyValue c{{Value{2}}, {}, 0, 0, {}};
  EXPECT_TRUE(kv_less(b, a));  // same key, lower source first
  EXPECT_TRUE(kv_less(a, c));
}

TEST(Metrics, BreakdownAndTotals) {
  QueryMetrics qm;
  JobMetrics j1;
  j1.job_name = "j1";
  j1.map_time_s = 5;
  j1.reduce_time_s = 3;
  JobMetrics j2;
  j2.job_name = "j2";
  j2.sched_delay_s = 2;
  j2.map_time_s = 1;
  qm.jobs = {j1, j2};
  EXPECT_DOUBLE_EQ(qm.total_time_s(), 11.0);
  EXPECT_EQ(qm.job_count(), 2);
  EXPECT_FALSE(qm.failed());
  EXPECT_NE(qm.breakdown().find("j1"), std::string::npos);

  qm.jobs[1].failed = true;
  qm.jobs[1].fail_reason = "disk";
  EXPECT_TRUE(qm.failed());
  EXPECT_NE(qm.fail_reason().find("disk"), std::string::npos);
}

}  // namespace
}  // namespace ysmart
