// Execution-kernel micro-benchmark: host wall-clock of the map/reduce
// inner loops — filter, project, grouped aggregate — at three input
// sizes. The `vec` rows run filter and project through the columnar
// batch kernels (exec/vector_kernels.h), the engine's only path; the
// `row` rows run the same prepared operator through its row-at-a-time
// reference, PreparedFilterProject::run_row, over identical rows, so
// the difference isolates the execution strategy itself. Aggregation
// has one implementation, so it is timed once per size and its time is
// part of both rows' totals.
//
// The reduce-stage case times the CMF common reducer alone on a merged
// job with many small key groups: a Q17-shaped self-join of lineitem with
// its per-order average quantity, which YSmart merges into one job whose
// reducer runs an Agg stage and then a Join stage reading the Agg's
// output (a post-job computation). The map output is produced and
// shuffle-sorted untimed; the timed loop is one reducer instance over
// every key group, as one reduce task runs it.
//
// The data and expressions are shaped like the fig09/fig10 map phases: a
// TPC-H lineitem-style table, a two-conjunct numeric filter, an
// arithmetic projection (price * (1 - discount)) and a grouped
// sum/avg/count. --json records one schema-conforming record per
// (size, mode); wall_ms is the phase total, and the simulated metrics
// come from running an equivalent workload through the engine.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "cmf/common_job.h"
#include "common.h"
#include "common/error.h"
#include "common/rng.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "mr/engine.h"
#include "plan/builder.h"
#include "report.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "translator/lowering.h"
#include "translator/ysmart_translator.h"

namespace {

using namespace ysmart;
using namespace ysmart::bench;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Schema lineitem_schema() {
  Schema s;
  s.add("l_orderkey", ValueType::Int);
  s.add("l_suppkey", ValueType::Int);
  s.add("l_quantity", ValueType::Double);
  s.add("l_extendedprice", ValueType::Double);
  s.add("l_discount", ValueType::Double);
  s.add("l_tax", ValueType::Double);
  return s;
}

std::vector<Row> make_rows(std::size_t n) {
  Rng rng(20110607 + static_cast<std::uint64_t>(n));
  std::vector<Row> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back(Row{
        Value{static_cast<std::int64_t>(i / 4)},
        Value{rng.uniform(0, 99)},
        Value{1.0 + static_cast<double>(rng.uniform(0, 49))},
        Value{901.0 + rng.uniform01() * 104'000.0},
        Value{0.01 * static_cast<double>(rng.uniform(0, 10))},
        Value{0.01 * static_cast<double>(rng.uniform(0, 8))},
    });
  }
  return rows;
}

struct PhaseTimes {
  double filter_ms = 0;
  double project_ms = 0;
  double agg_ms = 0;
  std::size_t check = 0;  // keeps the work observable
  double total_ms() const { return filter_ms + project_ms + agg_ms; }
};

/// Filter/project `rows` through the batched operator (`vec`) or through
/// its row-at-a-time reference.
std::vector<Row> run_filter_project(const PreparedFilterProject& fp,
                                    const std::vector<Row>& rows, bool vec) {
  if (vec) return filter_project(fp, rows);
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const Row& r : rows) fp.run_row(r, out);
  return out;
}

/// Time one pass of the filter and project shapes over `rows`.
PhaseTimes time_phases(const std::vector<Row>& rows,
                       const PreparedFilterProject& filter,
                       const PreparedFilterProject& project, bool vec) {
  PhaseTimes t;
  double t0 = now_ms();
  const auto filtered = run_filter_project(filter, rows, vec);
  t.filter_ms = now_ms() - t0;

  t0 = now_ms();
  const auto projected = run_filter_project(project, rows, vec);
  t.project_ms = now_ms() - t0;

  t.check = filtered.size() + projected.size();
  return t;
}

/// Run an equivalent filter + grouped-sum job through the engine so the
/// JSON record carries honest simulated metrics (mode-independent).
QueryMetrics engine_metrics(const std::vector<Row>& rows) {
  auto t = std::make_shared<Table>(lineitem_schema());
  for (const Row& r : rows) t->append(r);

  auto cfg = ClusterConfig::small_local(1.0);
  Dfs dfs(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication);
  dfs.write("/in", t);
  Engine engine(dfs, cfg);

  const Schema in = lineitem_schema();
  BoundExpr filter(parse_expression("l_quantity < 24.0 and l_discount >= 0.02"),
                   in);
  BoundExpr revenue(
      parse_expression("l_extendedprice * (1 - l_discount)"), in);

  MRJobSpec spec;
  spec.name = "exec-agg";
  spec.inputs = {{"/in", 0}};
  Schema out;
  out.add("l_suppkey", ValueType::Int);
  out.add("revenue", ValueType::Double);
  spec.outputs = {{"/out", out}};
  struct M final : Mapper {
    const BoundExpr* filter;
    const BoundExpr* revenue;
    void map(ColumnBatch& b, int, MapEmitter& e) override {
      for (std::size_t i = 0; i < b.rows(); ++i) {
        const Row& r = b.source_row(i);
        if (is_true(filter->eval(r))) e.emit(Row{r[1]}, Row{revenue->eval(r)});
      }
    }
  };
  struct R final : Reducer {
    void reduce(const Row& k, std::span<const KeyValue> v,
                ReduceEmitter& e) override {
      double sum = 0;
      for (const auto& kv : v) sum += kv.value[0].numeric();
      e.emit(Row{k[0], Value{sum}});
    }
  };
  spec.make_mapper = [&] {
    auto m = std::make_unique<M>();
    m->filter = &filter;
    m->revenue = &revenue;
    return m;
  };
  spec.make_reducer = [] { return std::make_unique<R>(); };

  QueryMetrics m;
  m.jobs.push_back(engine.run(spec));
  m.wall_time_s = m.total_time_s();
  return m;
}

/// The reduce-stage case: one merged CMF job, its map output shuffled
/// once up front, and the common reducer timed over every key group.
class ReduceCase {
 public:
  explicit ReduceCase(const std::vector<Row>& rows)
      : cfg_(ClusterConfig::small_local(1.0)),
        dfs_(cfg_.worker_nodes, cfg_.scaled_block_bytes(), cfg_.replication),
        engine_(dfs_, cfg_) {
    auto t = std::make_shared<Table>(lineitem_schema());
    for (const Row& r : rows) t->append(r);
    dfs_.write(LoweringContext::table_path("lineitem"), t);
    Catalog catalog;
    catalog.register_table("lineitem", lineitem_schema());
    const TranslatorProfile profile = TranslatorProfile::ysmart();
    query_ = translate(
        plan_query("SELECT lineitem.l_orderkey, lineitem.l_extendedprice "
                   "FROM (SELECT l_orderkey, avg(l_quantity) AS t1 "
                   "      FROM lineitem GROUP BY l_orderkey) AS inner_t, "
                   "     lineitem "
                   "WHERE lineitem.l_orderkey = inner_t.l_orderkey "
                   "  AND lineitem.l_quantity < inner_t.t1",
                   catalog),
        profile, "/tmp/bench_exec");
    check(query_.jobs.size() == 1 && query_.jobs[0].stages.size() == 2,
          "reduce case: expected one merged Agg+Join job");
    spec_ = build_common_job(query_.jobs[0], profile, dfs_);
    sim_.jobs.push_back(engine_.run(spec_));
    sim_.wall_time_s = sim_.total_time_s();

    // Map and shuffle-sort once, untimed: (key, source, emit order).
    struct Collect final : MapEmitter {
      std::vector<KeyValue> kvs;
      void emit(KeyValue kv) override { kvs.push_back(std::move(kv)); }
    } collect;
    auto mapper = spec_.make_mapper();
    const std::span<const Row> split(t->rows());
    for (std::size_t base = 0; base < split.size();
         base += ColumnBatch::kBatchRows) {
      ColumnBatch batch(split.subspan(
          base, std::min(ColumnBatch::kBatchRows, split.size() - base)));
      mapper->map(batch, 0, collect);
    }
    mapper->finish(collect);
    shuffled_ = std::move(collect.kvs);
    std::stable_sort(shuffled_.begin(), shuffled_.end(), kv_less);
    for (std::size_t i = 0; i < shuffled_.size();) {
      std::size_t j = i + 1;
      while (j < shuffled_.size() &&
             compare_rows(shuffled_[i].key, shuffled_[j].key) == 0)
        ++j;
      groups_.emplace_back(i, j - i);
      i = j;
    }
  }

  std::size_t key_groups() const { return groups_.size(); }
  const QueryMetrics& sim() const { return sim_; }

  /// One reduce task over every key group; returns the rows it wrote.
  std::size_t run() const {
    struct Count final : ReduceEmitter {
      std::size_t rows = 0;
      void emit_to(int, Row) override { ++rows; }
    } out;
    auto reducer = spec_.make_reducer();
    for (const auto& [first, n] : groups_)
      reducer->reduce(shuffled_[first].key,
                      std::span<const KeyValue>(shuffled_.data() + first, n),
                      out);
    return out.rows;
  }

 private:
  ClusterConfig cfg_;
  Dfs dfs_;
  Engine engine_;
  TranslatedQuery query_;
  MRJobSpec spec_;
  QueryMetrics sim_;
  std::vector<KeyValue> shuffled_;
  std::vector<std::pair<std::size_t, std::size_t>> groups_;
};

}  // namespace

int main(int argc, char** argv) {
  Report report("bench_exec", argc, argv);
  print_header("Exec kernels: columnar batches vs the row-at-a-time reference");

  constexpr std::size_t kSizes[] = {50'000, 200'000, 800'000};
  constexpr int kReps = 3;  // best-of to damp scheduler noise

  const Schema schema = lineitem_schema();
  PreparedFilterProject filter;
  filter.filter = BoundExpr(
      parse_expression("l_quantity < 24.0 and l_discount >= 0.02"), schema);
  PreparedFilterProject project = filter;
  project.projections = bind_all(
      {parse_expression("l_extendedprice * (1 - l_discount)"),
       parse_expression("l_orderkey + l_suppkey"),
       parse_expression("l_quantity * (1 + l_tax)")},
      schema);
  Catalog catalog;
  catalog.register_table("lineitem", schema);
  const PlanPtr agg_plan = plan_query(
      "SELECT l_suppkey, count(*) AS n, sum(l_extendedprice) AS s, "
      "avg(l_quantity) AS q FROM lineitem GROUP BY l_suppkey",
      catalog);
  const PlanNode* agg = agg_plan.get();
  // plan_query may wrap the Agg in a projection-only SP; unwrap to bench
  // the aggregation operator itself.
  while (agg->kind != PlanKind::Agg) agg = agg->children.at(0).get();

  std::printf("%10s %5s %10s %10s %10s %10s\n", "rows", "mode", "filter ms",
              "project ms", "agg ms", "total ms");
  for (const std::size_t n : kSizes) {
    const auto rows = make_rows(n);
    const QueryMetrics sim = engine_metrics(rows);
    double agg_ms = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double t0 = now_ms();
      const auto grouped = aggregate_rows(*agg, rows);
      const double ms = now_ms() - t0;
      if (rep == 0 || ms < agg_ms) agg_ms = ms;
    }
    PhaseTimes best[2];
    for (const bool vec : {true, false}) {
      PhaseTimes& t = best[vec ? 0 : 1];
      for (int rep = 0; rep < kReps; ++rep) {
        const PhaseTimes cur = time_phases(rows, filter, project, vec);
        if (rep == 0 || cur.total_ms() < t.total_ms()) t = cur;
      }
      t.agg_ms = agg_ms;  // one aggregation path, timed once
      std::printf("%10zu %5s %10.2f %10.2f %10.2f %10.2f\n", n,
                  vec ? "vec" : "row", t.filter_ms, t.project_ms, t.agg_ms,
                  t.total_ms());
      report.record("exec-" + std::to_string(n), vec ? "vec" : "row", sim,
                    t.total_ms());
    }
    if (best[0].check != best[1].check)
      std::printf("WARNING: mode outputs disagree (%zu vs %zu)\n",
                  best[0].check, best[1].check);
    std::printf("%10s %5s speedup vec vs row: %.2fx (filter %.2fx, project "
                "%.2fx)\n",
                "", "", best[1].total_ms() / best[0].total_ms(),
                best[1].filter_ms / best[0].filter_ms,
                best[1].project_ms / best[0].project_ms);
  }

  std::printf("\nCMF common reducer, merged Agg -> Join job (one reduce task)\n");
  std::printf("%10s %10s %10s %10s\n", "rows", "key groups", "reduce ms",
              "rows out");
  for (const std::size_t n : kSizes) {
    const ReduceCase rc(make_rows(n));
    std::size_t out_rows = 0;
    double best = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double t0 = now_ms();
      out_rows = rc.run();
      const double ms = now_ms() - t0;
      if (rep == 0 || ms < best) best = ms;
    }
    std::printf("%10zu %10zu %10.2f %10zu\n", n, rc.key_groups(), best,
                out_rows);
    report.record("reduce-" + std::to_string(n), "ysmart", rc.sim(), best);
  }
  return 0;
}
