// Shuffle micro-benchmark: host wall-clock of the sort/merge/group path
// at three input sizes. The `raw` rows run the engine's primitives from
// mr/shuffle.h (memcmp over normalized keys — the RawComparator
// optimization this engine borrows from Hadoop); the `off` rows run the
// cell-by-cell reference over the same runs: std::stable_sort(kv_less),
// the same k-way heap merge ordered by kv_less, and compare_rows group
// detection. The difference isolates the comparator itself.
//
// The printed table breaks the time into the three phases a reduce-side
// shuffle performs on the host: map-side bucket sort, k-way merge of the
// per-map-task runs, and reduce key-group detection. --json records one
// schema-conforming record per (size, mode); wall_ms is the phase total,
// and the simulated metrics come from running the same workload through
// the engine.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <queue>
#include <span>
#include <vector>

#include "common.h"
#include "common/normkey.h"
#include "common/rng.h"
#include "mr/engine.h"
#include "mr/shuffle.h"
#include "report.h"

namespace {

using namespace ysmart;
using namespace ysmart::bench;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A shuffle-heavy pair stream modeled on a multi-column GROUP BY:
/// composite four-cell keys (two low-cardinality strings with a common
/// prefix, then two ints) with ~16 pairs per key group. Same-group and
/// near-group comparisons must walk several cells through Value::compare
/// on the slow path — the case the single-memcmp raw comparator wins.
std::vector<KeyValue> make_pairs(std::size_t n) {
  Rng rng(20110607 + static_cast<std::uint64_t>(n));
  std::vector<KeyValue> pairs;
  pairs.reserve(n);
  const std::int64_t groups = static_cast<std::int64_t>(n / 16 + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t g = rng.uniform(0, groups - 1);
    KeyValue kv;
    kv.key = {Value{"region-" + std::to_string(g % 8)},
              Value{"customer-" + std::to_string(g / 7 % 997)},
              Value{g % 64}, Value{g}};
    kv.value = {Value{static_cast<std::int64_t>(i)}};
    kv.source = static_cast<std::uint8_t>(rng.uniform(0, 1));
    pairs.push_back(std::move(kv));
  }
  return pairs;
}

struct PhaseTimes {
  double sort_ms = 0;
  double merge_ms = 0;
  double group_ms = 0;
  std::size_t groups = 0;
  double total_ms() const { return sort_ms + merge_ms + group_ms; }
};

/// The reference k-way merge: merge_sorted_runs's heap merge, ordered
/// by kv_less with ties broken by run index.
std::vector<KeyValue> reference_merge(std::vector<std::vector<KeyValue>>& runs) {
  struct Cursor {
    std::size_t run;
    std::size_t pos;
  };
  auto greater = [&](const Cursor& a, const Cursor& b) {
    const KeyValue& x = runs[a.run][a.pos];
    const KeyValue& y = runs[b.run][b.pos];
    if (kv_less(y, x)) return true;
    if (kv_less(x, y)) return false;
    return a.run > b.run;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
      greater);
  std::size_t total = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (!runs[r].empty()) heap.push(Cursor{r, 0});
  }
  std::vector<KeyValue> out;
  out.reserve(total);
  while (!heap.empty()) {
    const Cursor c = heap.top();
    heap.pop();
    out.push_back(std::move(runs[c.run][c.pos]));
    if (c.pos + 1 < runs[c.run].size()) heap.push(Cursor{c.run, c.pos + 1});
  }
  for (auto& run : runs) run.clear();
  return out;
}

/// Time the three shuffle phases over `pairs` split into `num_runs`
/// map-task runs, on the raw comparator (`raw`) or the reference.
PhaseTimes time_phases(const std::vector<KeyValue>& pairs,
                       std::size_t num_runs, bool raw) {
  // Distribute round-robin like blocks across map tasks, then finalize
  // each run the way the engine's PartitioningEmitter does.
  std::vector<std::vector<KeyValue>> runs(num_runs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    KeyValue kv = pairs[i];
    kv.norm_key = encode_norm_key(kv.key);
    auto& run = runs[i % num_runs];
    kv.seq = static_cast<std::uint32_t>(run.size());
    run.push_back(std::move(kv));
  }

  PhaseTimes t;
  double t0 = now_ms();
  for (auto& run : runs) {
    if (raw)
      sort_map_bucket(run);
    else
      std::stable_sort(run.begin(), run.end(), kv_less);
  }
  t.sort_ms = now_ms() - t0;

  std::vector<std::vector<KeyValue>*> run_ptrs;
  for (auto& run : runs) run_ptrs.push_back(&run);
  t0 = now_ms();
  std::vector<KeyValue> merged =
      raw ? merge_sorted_runs(run_ptrs) : reference_merge(runs);
  t.merge_ms = now_ms() - t0;

  auto same_key = [raw](const KeyValue& a, const KeyValue& b) {
    return raw ? same_shuffle_key(a, b) : compare_rows(a.key, b.key) == 0;
  };
  t0 = now_ms();
  std::size_t i = 0;
  while (i < merged.size()) {
    std::size_t j = i + 1;
    while (j < merged.size() && same_key(merged[i], merged[j])) ++j;
    ++t.groups;
    i = j;
  }
  t.group_ms = now_ms() - t0;
  return t;
}

/// Run the equivalent count-per-key job through the engine so the JSON
/// record carries honest simulated metrics.
QueryMetrics engine_metrics(std::size_t n) {
  Schema in;
  in.add("region", ValueType::String);
  in.add("customer", ValueType::String);
  in.add("c", ValueType::Int);
  in.add("g", ValueType::Int);
  auto t = std::make_shared<Table>(in);
  for (const KeyValue& kv : make_pairs(n))
    t->append(kv.key);

  auto cfg = ClusterConfig::small_local(1.0);
  Dfs dfs(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication);
  dfs.write("/in", t);
  Engine engine(dfs, cfg);

  MRJobSpec spec;
  spec.name = "shuffle-count";
  spec.inputs = {{"/in", 0}};
  Schema out = in;
  out.add("n", ValueType::Int);
  spec.outputs = {{"/out", out}};
  struct M final : Mapper {
    void map(ColumnBatch& b, int, MapEmitter& e) override {
      for (std::size_t i = 0; i < b.rows(); ++i)
        e.emit(b.source_row(i), Row{Value{1}});
    }
  };
  struct R final : Reducer {
    void reduce(const Row& k, std::span<const KeyValue> v,
                ReduceEmitter& e) override {
      e.emit(Row{k[0], k[1], k[2], k[3],
                 Value{static_cast<std::int64_t>(v.size())}});
    }
  };
  spec.make_mapper = [] { return std::make_unique<M>(); };
  spec.make_reducer = [] { return std::make_unique<R>(); };

  QueryMetrics m;
  m.jobs.push_back(engine.run(spec));
  m.wall_time_s = m.total_time_s();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Report report("bench_shuffle", argc, argv);
  print_header("Shuffle sort/merge/group: raw comparator vs the kv_less reference");

  constexpr std::size_t kSizes[] = {50'000, 200'000, 800'000};
  constexpr std::size_t kRuns = 16;  // simulated map tasks per size
  constexpr int kReps = 3;           // best-of to damp scheduler noise

  std::printf("%10s %6s %10s %10s %10s %10s %9s\n", "pairs", "mode",
              "sort ms", "merge ms", "group ms", "total ms", "groups");
  for (const std::size_t n : kSizes) {
    const auto pairs = make_pairs(n);
    const QueryMetrics sim = engine_metrics(n);
    PhaseTimes best[2];
    for (const bool raw : {true, false}) {
      PhaseTimes& t = best[raw ? 0 : 1];
      for (int rep = 0; rep < kReps; ++rep) {
        const PhaseTimes cur = time_phases(pairs, kRuns, raw);
        if (rep == 0 || cur.total_ms() < t.total_ms()) t = cur;
      }
      std::printf("%10zu %6s %10.2f %10.2f %10.2f %10.2f %9zu\n", n,
                  raw ? "raw" : "off", t.sort_ms, t.merge_ms, t.group_ms,
                  t.total_ms(), t.groups);
      report.record("shuffle-" + std::to_string(n), raw ? "raw" : "off", sim,
                    t.total_ms());
    }
    std::printf("%10s %6s speedup raw vs off: %.2fx\n", "", "",
                best[1].total_ms() / best[0].total_ms());
  }
  return 0;
}
