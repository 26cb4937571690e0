// Golden oracle for the observability views of fig09's Q21 sub-tree.
//
// Runs the query under ysmart and hive at pool size 1 with every
// surface of one ObsContext attached, and once more with simulated task
// failures (retries, an exhausted task and a DNF), and compares
// each sim-axis view byte for byte with a file under tests/golden/:
//
//   chrome_json(TimeAxis::Simulated), events.jsonl(IncludeWall::No),
//   the registry JSON without pool.* (host scheduling), the final
//   progress render, the Prometheus text without ysmart_pool_ lines,
//   and the analyzer, cluster and plan JSON of every query.
//
// On a mismatch the fresh text is written next to the test binary (the
// build directory) under the golden file's name, and the failure message
// names it: diff the two to see what moved. There is no update switch —
// a view that changes on purpose is re-blessed by copying that file over
// the golden one in the same commit that changes it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "api/database.h"
#include "common/thread_pool.h"
#include "data/queries.h"
#include "data/tpch_gen.h"
#include "obs/analyzer.h"
#include "obs/cluster_view.h"
#include "obs/obs.h"
#include "obs/prom_export.h"

namespace ysmart {
namespace {

namespace fs = std::filesystem;

const fs::path& golden_dir() {
  static const fs::path dir = fs::path(__FILE__).parent_path() / "golden";
  return dir;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Compare `actual` with golden file `name`; on mismatch write the fresh
/// text into the working (build) directory and fail naming both files.
void expect_golden(const std::string& name, const std::string& actual) {
  const fs::path golden = golden_dir() / name;
  if (fs::exists(golden) && read_file(golden) == actual) return;
  const fs::path fresh = fs::absolute(fs::path("golden_actual") / name);
  fs::create_directories(fresh.parent_path());
  std::ofstream(fresh, std::ios::binary) << actual;
  ADD_FAILURE() << name << " differs from its golden file.\n  golden: "
                << golden.string() << "\n  actual: " << fresh.string();
}

/// The fig09 setup: default TPC-H data modeling 10 GB on the 2-node
/// local cluster, run on a single-worker pool.
struct Fig09 {
  TpchData data = generate_tpch(TpchConfig{});
  ThreadPool pool{1};

  ClusterConfig cluster() const {
    const std::uint64_t bytes =
        data.lineitem->byte_size() + data.orders->byte_size() +
        data.part->byte_size() + data.customer->byte_size() +
        data.supplier->byte_size() + data.nation->byte_size();
    const double kGB = 1024.0 * 1024.0 * 1024.0;
    return ClusterConfig::small_local(10 * kGB / static_cast<double>(bytes));
  }

  std::unique_ptr<Database> database(const ClusterConfig& cfg) {
    auto db = std::make_unique<Database>(cfg, &pool);
    db->create_table("lineitem", data.lineitem);
    db->create_table("orders", data.orders);
    db->create_table("part", data.part);
    db->create_table("customer", data.customer);
    db->create_table("supplier", data.supplier);
    db->create_table("nation", data.nation);
    return db;
  }
};

/// Run `profiles` in order on one observed database; compare every
/// per-query view after its run and the context-wide views at the end.
void check_views(Fig09& fig, const ClusterConfig& cfg,
                 const std::vector<TranslatorProfile>& profiles,
                 const std::string& prefix) {
  auto db = fig.database(cfg);
  obs::ObsContext ctx;
  ctx.plans.set_enabled(true);
  db->set_observer(&ctx);
  const std::string sql = queries::q21_subtree().sql;
  for (const auto& profile : profiles) {
    db->run(sql, profile);
    const std::string run = prefix + "." + profile.name;
    const obs::QueryTaskSamples q = ctx.samples.last_query();
    expect_golden(run + ".analyzer.json", obs::analyze_query(q).json() + "\n");
    expect_golden(run + ".cluster.json",
                  obs::build_cluster_view(q).json() + "\n");
    obs::PlanReport plan;
    ASSERT_TRUE(ctx.plans.last_report(&plan));
    expect_golden(run + ".plan.json", plan.json(/*full=*/true) + "\n");
  }
  ASSERT_TRUE(ctx.tracer.well_formed());
  expect_golden(prefix + ".chrome_sim.json",
                ctx.tracer.chrome_json(obs::TimeAxis::Simulated) + "\n");
  expect_golden(prefix + ".events.jsonl",
                ctx.events.jsonl(obs::EventLog::IncludeWall::No));
  // pool.* gauges reflect host scheduling, not the simulation.
  const std::regex pool_entry(R"(,?"pool\.[^"]*":[0-9]+)");
  expect_golden(prefix + ".registry.json",
                std::regex_replace(ctx.metrics.json(), pool_entry, "") + "\n");
  expect_golden(prefix + ".progress.txt", ctx.progress.snapshot().render());
  std::istringstream prom(obs::render_prometheus(ctx));
  std::string prom_sim;
  for (std::string line; std::getline(prom, line);)
    if (line.find("ysmart_pool_") == std::string::npos) prom_sim += line + "\n";
  expect_golden(prefix + ".prom.txt", prom_sim);
}

TEST(GoldenObs, Q21SubtreeYsmartAndHive) {
  Fig09 fig;
  check_views(fig, fig.cluster(),
              {TranslatorProfile::ysmart(), TranslatorProfile::hive()},
              "q21_subtree");
}

TEST(GoldenObs, Q21SubtreeWithTaskFailures) {
  // Failure injection on one engine RNG stream: the ysmart job exhausts
  // a map task's attempts and DNFs, then hive completes with map and
  // reduce retries, so retry, exhausted, job-failed and query-abort
  // events all appear next to completed jobs.
  Fig09 fig;
  ClusterConfig cfg = fig.cluster();
  cfg.task_failure_rate = 0.2;
  check_views(fig, cfg, {TranslatorProfile::ysmart(), TranslatorProfile::hive()},
              "q21_subtree_faults");
}

}  // namespace
}  // namespace ysmart
