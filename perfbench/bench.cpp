// Repository benchmark harness: the paper's queries driven through the
// library's public calls, every result checked against an oracle.
//
//   ysmart_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process, one closed-loop client: the next execution starts only when
// the previous one has finished. The run has kRounds rounds. Each round
// sets up afresh (datagen, load, oracle) and then repeats passes over the
// (query, profile) pairs for its share of --seconds. Before the first
// timed pass, an untimed warm-up executes every pair once. A pair's value
// of a quantity is its median within each round, averaged over the
// rounds; setup_s is the median of the rounds' setups. With --trace 0 no
// observer is attached and the end-to-end metrics are printed. With
// --trace 1 the passes alternate between untraced and traced (an
// obs::ObsContext with the host profiler attached), a pool-size-1 pass
// checks the deterministic counters, and the per-layer metrics are
// printed. The last stdout line is one JSON object; the exit code is
// non-zero if any execution failed a check. See perfbench/README.md for
// the workloads and the layer table.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/database.h"
#include "common/prof_counters.h"
#include "common/thread_pool.h"
#include "data/clicks_gen.h"
#include "data/queries.h"
#include "data/tpch_gen.h"
#include "obs/obs.h"
#include "translator/dag_executor.h"

namespace {

using namespace ysmart;
using Clock = std::chrono::steady_clock;

constexpr double kGB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMB = 1024.0 * 1024.0;
// Rounds per run. Each round generates and loads the data afresh, so
// setup_s is a median over kRounds setups, and the timed executions sample
// kRounds placements of the data in memory instead of one.
constexpr int kRounds = 6;
// query_ms_tail reads the highest percentile that has at least this many
// executions above it.
constexpr std::size_t kTailAbove = 10;

// ---------------------------------------------------------------- clocks

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Process CPU (user + system, all threads) in ms.
double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// CPUs this process may run on (what `nproc` prints).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ------------------------------------------------------------- workloads

enum class Data { Tpch, Clicks };

struct Pair {
  const queries::PaperQuery* query;
  TranslatorProfile profile;
  Data data;
  std::string label;  // "Q17/ysmart"

  int expected_jobs() const {
    return profile.correlation_aware ? query->ysmart_jobs
                                     : query->one_op_jobs;
  }
};

struct Workload {
  std::string name;
  std::vector<Pair> pairs;
};

std::vector<Workload> all_workloads() {
  using queries::q17, queries::q18, queries::q21, queries::q21_subtree,
      queries::qcsa, queries::qagg;
  const auto ys = TranslatorProfile::ysmart();
  const auto hive = TranslatorProfile::hive();
  const auto pig = TranslatorProfile::pig();
  std::vector<const queries::PaperQuery*> tpch = {&q17(), &q18(), &q21(),
                                                  &q21_subtree()};
  Workload tpch_ys{"tpch-ysmart", {}};
  Workload tpch_hive{"tpch-hive", {}};
  auto pair = [](const queries::PaperQuery* q, const TranslatorProfile& p,
                 Data d) { return Pair{q, p, d, q->id + "/" + p.name}; };
  for (const auto* q : tpch) {
    tpch_ys.pairs.push_back(pair(q, ys, Data::Tpch));
    tpch_hive.pairs.push_back(pair(q, hive, Data::Tpch));
  }
  Workload clicks{"clicks", {}};
  for (const auto* q : {&qcsa(), &qagg()})
    for (const auto& p : {ys, pig})
      clicks.pairs.push_back(pair(q, p, Data::Clicks));
  return {tpch_ys, tpch_hive, clicks};
}

// ----------------------------------------------------------------- setup

using NamedTables =
    std::vector<std::pair<std::string, std::shared_ptr<const Table>>>;

/// One generated data set loaded into a Database on the fig10 preset.
struct Dataset {
  ClusterConfig cluster;
  NamedTables tables;
  std::unique_ptr<Database> db;

  std::unique_ptr<Database> load(ThreadPool& pool) const {
    auto out = std::make_unique<Database>(cluster, &pool);
    for (const auto& [name, table] : tables) out->create_table(name, table);
    return out;
  }
  DbmsCostConfig dbms_config() const {
    DbmsCostConfig cfg;  // the ideal 4-way parallel DBMS of fig10
    cfg.sim_scale = cluster.sim_scale;
    return cfg;
  }
};

/// What refdb did to compute the oracle: Σ over the workload's queries of
/// one run_dbms each (the "ideal parallel DBMS" of fig10). Deterministic.
struct RefdbWork {
  std::uint64_t rows = 0, bytes = 0;  // rows processed, bytes scanned
  double sim_s = 0;                   // DbmsRunResult::sim_seconds

  bool operator==(const RefdbWork&) const = default;
};

struct Env {
  Dataset tpch, clicks;
  std::map<std::string, Table> expected;  // by query id
  RefdbWork refdb;
  double generate_ms = 0, create_table_ms = 0, oracle_ms = 0, total_ms = 0;

  Dataset& dataset(Data d) { return d == Data::Tpch ? tpch : clicks; }
};

/// Data set bytes -> ClusterConfig modelling `modeled_gb` on small_local.
ClusterConfig fig10_cluster(const NamedTables& tables, double modeled_gb) {
  std::uint64_t bytes = 0;
  for (const auto& t : tables) bytes += t.second->byte_size();
  return ClusterConfig::small_local(modeled_gb * kGB /
                                    static_cast<double>(bytes));
}

/// Generates, loads and computes the expected result of every query of
/// `w` with refdb (run_dbms).
Env setup(const Workload& w, std::uint64_t seed, ThreadPool& pool) {
  Env env;
  const auto t0 = Clock::now();
  bool need_tpch = false, need_clicks = false;
  for (const auto& p : w.pairs)
    (p.data == Data::Tpch ? need_tpch : need_clicks) = true;

  if (need_tpch) {
    TpchConfig cfg;
    cfg.seed = seed;
    const auto g0 = Clock::now();
    TpchData d = generate_tpch(cfg);
    env.generate_ms += ms_between(g0, Clock::now());
    env.tpch.tables = {{"lineitem", d.lineitem}, {"orders", d.orders},
                       {"part", d.part},         {"customer", d.customer},
                       {"supplier", d.supplier}, {"nation", d.nation}};
    env.tpch.cluster = fig10_cluster(env.tpch.tables, 10);
  }
  if (need_clicks) {
    ClicksConfig cfg;
    cfg.seed = seed;
    const auto g0 = Clock::now();
    auto clicks = generate_clicks(cfg);
    env.generate_ms += ms_between(g0, Clock::now());
    env.clicks.tables = {{"clicks", clicks}};
    env.clicks.cluster = fig10_cluster(env.clicks.tables, 20);
  }
  for (Dataset* ds : {&env.tpch, &env.clicks}) {
    if (ds->tables.empty()) continue;
    const auto l0 = Clock::now();
    ds->db = ds->load(pool);
    env.create_table_ms += ms_between(l0, Clock::now());
  }

  const auto o0 = Clock::now();
  for (const auto& p : w.pairs) {
    if (env.expected.count(p.query->id)) continue;
    Dataset& ds = env.dataset(p.data);
    DbmsRunResult r = ds.db->run_dbms(p.query->sql, ds.dbms_config());
    env.refdb.rows += r.rows_processed;
    env.refdb.bytes += r.bytes_scanned;
    env.refdb.sim_s += r.sim_seconds;
    env.expected[p.query->id] = std::move(r.result);
  }
  env.oracle_ms = ms_between(o0, Clock::now());
  env.total_ms = ms_between(t0, Clock::now());
  return env;
}

// ------------------------------------------------------------- execution

/// Every deterministic quantity of one execution; must be identical
/// across executions of a pair, across runs and across pool sizes.
struct Signature {
  int jobs = 0;
  int stages = 0;
  double sim_s = 0;  // QueryMetrics::wall_time_s
  double map_s = 0, reduce_s = 0, sched_s = 0;
  std::uint64_t map_input_bytes = 0, shuffle_wire_bytes = 0;
  std::uint64_t dfs_write_bytes = 0, remote_read_bytes = 0;

  bool operator==(const Signature&) const = default;
  Signature& operator+=(const Signature& o) {
    jobs += o.jobs;
    stages += o.stages;
    sim_s += o.sim_s;
    map_s += o.map_s;
    reduce_s += o.reduce_s;
    sched_s += o.sched_s;
    map_input_bytes += o.map_input_bytes;
    shuffle_wire_bytes += o.shuffle_wire_bytes;
    dfs_write_bytes += o.dfs_write_bytes;
    remote_read_bytes += o.remote_read_bytes;
    return *this;
  }
};

constexpr int kNumPhases = 4;
constexpr const char* kPhaseNames[kNumPhases] = {"map", "shuffle-sort",
                                                 "reduce", "post-job"};
constexpr const char* kPhaseMetric[kNumPhases] = {"map", "shuffle_sort",
                                                  "reduce", "post_job"};

/// Host profiler totals of one engine phase kind over one execution.
struct PhaseWork {
  double cpu_ms = 0, wall_ms = 0, busy_ms = 0;
  std::uint64_t allocs = 0, alloc_bytes = 0;
  std::uint64_t dispatch[prof::kNumCounters] = {};

  /// The deterministic part. alloc_bytes is left out: DFS paths embed the
  /// Database's run counter, so their length moves by a digit at a time.
  bool same_work(const PhaseWork& o) const {
    return allocs == o.allocs &&
           std::equal(std::begin(dispatch), std::end(dispatch),
                      std::begin(o.dispatch));
  }
};

/// Benchmark-side spans and profiler totals of one traced execution.
struct Layers {
  double plan_ms = 0, translate_ms = 0, run_ms = 0, run_cpu_ms = 0;
  PhaseWork phase[kNumPhases];
};

struct Outcome {
  double wall_ms = 0, cpu_ms = 0;
  Signature sig;
  Layers layers;
  std::string error;  // empty = result, job count and DNF checks passed
};

void add_phases(const obs::HostProfiler& profiler, Layers& out) {
  for (const auto& ph : profiler.snapshot()) {
    const auto* it = std::find(std::begin(kPhaseNames),
                               std::end(kPhaseNames), ph.phase);
    if (it == std::end(kPhaseNames)) continue;  // translate: own span
    PhaseWork& w = out.phase[it - std::begin(kPhaseNames)];
    w.cpu_ms += ph.cpu_ns / 1e6;
    w.wall_ms += ph.phase_wall_ns / 1e6;
    w.busy_ms += ph.busy_wall_ns / 1e6;
    w.allocs += ph.allocs;
    w.alloc_bytes += ph.alloc_bytes;
    for (int c = 0; c < prof::kNumCounters; ++c) w.dispatch[c] += ph.dispatch[c];
  }
}

/// Runs `p` once on `db`. With `obs` non-null the execution is traced:
/// a separate db.plan() call is timed and the observer is attached around
/// translate_query/run_translated. wall_ms/cpu_ms cover only the
/// execution itself (translate + run).
Outcome execute(Database& db, const Pair& p, const Table& expected,
                obs::ObsContext* obs) {
  Outcome out;
  const std::string& sql = p.query->sql;
  if (obs) {
    const auto t0 = Clock::now();
    PlanPtr plan = db.plan(sql);
    out.layers.plan_ms = ms_between(t0, Clock::now());
  }

  if (obs) {
    obs->profiler.set_enabled(true);
    db.set_observer(obs);
  }
  const double c0 = process_cpu_ms();
  const auto t0 = Clock::now();
  TranslatedQuery tq = db.translate_query(sql, p.profile);
  const double c1 = process_cpu_ms();
  const auto t1 = Clock::now();
  QueryRunResult r = run_translated(tq, db.engine(), p.profile);
  const auto t2 = Clock::now();
  const double c2 = process_cpu_ms();
  out.wall_ms = ms_between(t0, t2);
  out.cpu_ms = c2 - c0;
  if (obs) {
    db.set_observer(nullptr);
    obs->profiler.set_enabled(false);
    out.layers.translate_ms = ms_between(t0, t1);
    out.layers.run_ms = ms_between(t1, t2);
    out.layers.run_cpu_ms = c2 - c1;
    add_phases(obs->profiler, out.layers);
    obs->clear();
  }

  Signature& s = out.sig;
  s.jobs = r.metrics.job_count();
  for (const auto& job : tq.jobs) s.stages += static_cast<int>(job.stages.size());
  s.sim_s = r.metrics.wall_time_s;
  for (const auto& j : r.metrics.jobs) {
    s.map_s += j.map_time_s;
    s.reduce_s += j.reduce_time_s;
    s.sched_s += j.sched_delay_s;
    s.map_input_bytes += j.map.input_bytes;
    s.shuffle_wire_bytes += j.shuffle_bytes_wire;
    s.dfs_write_bytes += j.dfs_write_bytes;
    s.remote_read_bytes += j.remote_read_bytes;
  }
  if (r.metrics.failed() || !r.result)
    out.error = "DNF: " + r.metrics.fail_reason();
  else if (s.jobs != p.expected_jobs())
    out.error = std::to_string(s.jobs) + " jobs, expected " +
                std::to_string(p.expected_jobs());
  else if (!same_rows_unordered(*r.result, expected))
    out.error = "result differs from the refdb oracle";
  return out;
}

// -------------------------------------------------------------- metrics

/// The timed executions of one pair in one round.
struct RoundSamples {
  std::vector<double> wall_ms, cpu_ms;  // untraced
  std::vector<double> traced_wall_ms;
  std::vector<Layers> layers;           // traced
};

struct PairStats {
  std::vector<RoundSamples> rounds;
  Signature sig;  // from the warm-up
};

/// A pair's value of one quantity: the median of samples_of(round) within
/// each round, averaged over the rounds.
template <typename F>
double round_mean(const PairStats& ps, F samples_of) {
  double sum = 0;
  for (const auto& r : ps.rounds) sum += median(samples_of(r));
  return sum / static_cast<double>(ps.rounds.size());
}

/// Per-repetition setup times, ms.
struct SetupTimes {
  std::vector<double> total, generate, create_table, oracle, rest;

  void add(const Env& env) {
    total.push_back(env.total_ms);
    generate.push_back(env.generate_ms);
    create_table.push_back(env.create_table_ms);
    oracle.push_back(env.oracle_ms);
    rest.push_back(env.total_ms - env.generate_ms - env.create_table_ms -
                   env.oracle_ms);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Σ over pairs of the pair's round_mean of f(traced execution): per-layer
/// quantities are reported per pass, so they add up across layers.
template <typename F>
double per_pass(const std::vector<PairStats>& stats, F f) {
  double sum = 0;
  for (const auto& ps : stats)
    sum += round_mean(ps, [&](const RoundSamples& r) {
      std::vector<double> v;
      for (const auto& l : r.layers) v.push_back(f(l));
      return v;
    });
  return sum;
}

std::vector<Metric> layer_metrics(const Workload& w,
                                  const std::vector<PairStats>& stats,
                                  const SetupTimes& setup,
                                  const Signature& total,
                                  const RefdbWork& refdb, double untraced_p50) {
  auto layer = [&](double Layers::*field) {
    return per_pass(stats, [field](const Layers& l) { return l.*field; });
  };
  auto phase = [&](int k, auto f) {
    return per_pass(stats, [&](const Layers& l) { return f(l.phase[k]); });
  };
  int one_op_jobs = 0;
  std::vector<double> traced50;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    one_op_jobs += w.pairs[i].query->one_op_jobs;
    traced50.push_back(round_mean(
        stats[i], [](const RoundSamples& r) { return r.traced_wall_ms; }));
  }
  const double jobs = total.jobs;
  std::vector<Metric> m = {
      {"data.generate_ms", median(setup.generate), "ms"},
      {"storage.create_table_ms", median(setup.create_table), "ms"},
      {"refdb.oracle_ms", median(setup.oracle), "ms"},
      {"setup.unattributed_ms", median(setup.rest), "ms"},
      {"plan.plan_ms", layer(&Layers::plan_ms), "ms"},
      {"translator.translate_ms", layer(&Layers::translate_ms), "ms"},
      {"translator.jobs", jobs, "count"},
      {"translator.stages", static_cast<double>(total.stages), "count"},
      {"translator.merge_ratio", jobs / one_op_jobs, "ratio"},
      {"executor.run_ms", layer(&Layers::run_ms), "ms"},
      {"executor.run_cpu_ms", layer(&Layers::run_cpu_ms), "ms"},
  };
  double engine_cpu = 0;
  std::vector<double> phase_cpu;
  for (int k = 0; k < kNumPhases; ++k) {
    const std::string pre = std::string("mr.") + kPhaseMetric[k] + ".";
    const double cpu = phase(k, [](const PhaseWork& p) { return p.cpu_ms; });
    const double wall = phase(k, [](const PhaseWork& p) { return p.wall_ms; });
    const double busy = phase(k, [](const PhaseWork& p) { return p.busy_ms; });
    engine_cpu += cpu;
    phase_cpu.push_back(cpu);
    m.push_back({pre + "cpu_ms", cpu, "ms"});
    m.push_back({pre + "wall_ms", wall, "ms"});
    m.push_back({pre + "parallelism", wall > 0 ? busy / wall : 0, "ratio"});
    m.push_back({pre + "allocs",
                 phase(k, [](const PhaseWork& p) { return double(p.allocs); }),
                 "count"});
    m.push_back({pre + "alloc_mb",
                 phase(k, [](const PhaseWork& p) { return p.alloc_bytes / kMB; }),
                 "MB"});
  }
  const struct {
    const char* name;
    int phase;
    prof::Counter counter;
  } counters[] = {
      {"mr.map.rows_evaluated", 0, prof::kRowsEvaluated},
      {"mr.map.norm_key_encodes", 0, prof::kNormKeyEncodes},
      {"mr.map.cells_encoded", 0, prof::kCellsEncoded},
      {"mr.map.agg_updates", 0, prof::kAggUpdates},
      {"mr.shuffle_sort.raw_key_compares", 1, prof::kRawKeyCompares},
      {"mr.reduce.cell_compares", 2, prof::kCellCompares},
      {"mr.reduce.rows_evaluated", 2, prof::kRowsEvaluated},
      {"mr.reduce.agg_updates", 2, prof::kAggUpdates},
      {"mr.reduce.operator_rows", 2, prof::kOperatorRows},
  };
  for (const auto& c : counters)
    m.push_back({c.name, phase(c.phase, [&](const PhaseWork& p) {
                   return double(p.dispatch[c.counter]);
                 }),
                 "count"});
  // Run CPU the engine phases do not explain: CMF job building, DFS
  // bookkeeping, the executor itself.
  m.push_back({"executor.unattributed_cpu_ms", per_pass(stats, [](const Layers& l) {
                 double c = l.run_cpu_ms;
                 for (const auto& p : l.phase) c -= p.cpu_ms;
                 return c;
               }),
               "ms"});
  m.push_back({"sim.map_s", total.map_s, "sim-s"});
  m.push_back({"sim.reduce_s", total.reduce_s, "sim-s"});
  m.push_back({"sim.sched_s", total.sched_s, "sim-s"});
  m.push_back({"sim.map_input_mb", total.map_input_bytes / kMB, "MB"});
  m.push_back({"sim.shuffle_wire_mb", total.shuffle_wire_bytes / kMB, "MB"});
  m.push_back({"sim.dfs_write_mb", total.dfs_write_bytes / kMB, "MB"});
  m.push_back({"sim.remote_read_mb", total.remote_read_bytes / kMB, "MB"});
  m.push_back({"refdb.rows_processed", static_cast<double>(refdb.rows),
               "count"});
  m.push_back({"refdb.bytes_scanned_mb", refdb.bytes / kMB, "MB"});
  m.push_back({"refdb.sim_s", refdb.sim_s, "sim-s"});
  m.push_back({"trace.overhead_pct",
               100.0 * (geomean(traced50) / untraced_p50 - 1.0), "%"});

  std::printf("engine cpu per pass: %.3f ms (", engine_cpu);
  for (int k = 0; k < kNumPhases; ++k)
    std::printf("%s%s %.1f%%", k ? ", " : "", kPhaseMetric[k],
                engine_cpu > 0 ? 100.0 * phase_cpu[k] / engine_cpu : 0.0);
  std::printf(")\n");
  return m;
}

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           fmt_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: ysmart_perfbench --workload "
               "<tpch-ysmart|tpch-hive|clicks> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") workload_name = val;
    else if (flag == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(val);
    else if (flag == "--trace") trace = std::atoi(val);
    else usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) usage("flags take one value each");
  if (seconds <= 0 || (trace != 0 && trace != 1)) usage("bad --seconds/--trace");
  const auto workloads = all_workloads();
  auto wit = std::find_if(workloads.begin(), workloads.end(),
                          [&](const Workload& w) { return w.name == workload_name; });
  if (wit == workloads.end()) usage("unknown workload");
  const Workload& w = *wit;

  // Pool workers plus this orchestrating thread fit the usable CPUs.
  const int nproc = usable_cpus();
  const unsigned workers = static_cast<unsigned>(std::max(1, nproc - 1));
  ThreadPool pool(workers);
  std::printf("workload %s  seed %llu  seconds %g  trace %d  nproc %d  "
              "pool workers %u (+1 orchestrating thread)\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace, nproc, workers);

  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  auto record_failure = [&](const std::string& label, const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(label + ": " + why);
  };

  Env env;
  SetupTimes setup_times;
  std::map<std::string, Table> first_oracle;
  RefdbWork first_refdb;
  std::vector<PairStats> stats(w.pairs.size());
  // Executes pair i once and checks it; the warm-up execution sets the
  // signature every later execution must reproduce exactly.
  auto run_pair = [&](std::size_t i, Database& db, obs::ObsContext* obs,
                      bool warm_up) {
    const Pair& p = w.pairs[i];
    Outcome o = execute(db, p, env.expected.at(p.query->id), obs);
    ++attempted;
    if (warm_up) stats[i].sig = o.sig;
    if (!o.error.empty()) record_failure(p.label, o.error);
    else if (!(o.sig == stats[i].sig))
      record_failure(p.label, "deterministic metrics differ from the warm-up");
    return o;
  };

  obs::ObsContext obs;
  std::vector<Layers> pool1(w.pairs.size());
  std::uint64_t timed = 0;
  double timed_wall_ms = 0;
  for (int round = 0; round < kRounds; ++round) {
    // ---- setup; the previous round's data is released first.
    env = Env();
    env = setup(w, seed, pool);
    if (round == 0) {
      first_oracle = env.expected;
      first_refdb = env.refdb;
    }
    for (const auto& [id, table] : first_oracle)
      if (!same_rows_unordered(table, env.expected.at(id)))
        record_failure(id, "oracle differs between rounds");
    if (!(env.refdb == first_refdb))
      record_failure("refdb", "oracle work differs between rounds");
    setup_times.add(env);

    if (round == 0) {
      for (std::size_t i = 0; i < w.pairs.size(); ++i)
        run_pair(i, *env.dataset(w.pairs[i].data).db, nullptr, true);
      // ---- traced: one pass on a pool of size 1, whose deterministic
      // profiler counters the traced passes below must reproduce.
      if (trace) {
        ThreadPool single(1);
        std::unique_ptr<Database> db1[2];
        for (std::size_t i = 0; i < w.pairs.size(); ++i) {
          const Pair& p = w.pairs[i];
          auto& db = db1[p.data == Data::Tpch ? 0 : 1];
          if (!db) db = env.dataset(p.data).load(single);
          pool1[i] = run_pair(i, *db, &obs, false).layers;
        }
      }
    }

    // ---- timed closed loop: whole passes until the round's share of
    // --seconds has elapsed, at least one. Traced runs alternate untraced
    // and traced passes and end each round after a traced one, so both
    // kinds have samples in every round.
    for (auto& ps : stats) ps.rounds.emplace_back();
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(seconds / kRounds);
    for (int pass = 0;
         pass == 0 || Clock::now() < deadline || (trace && pass % 2 == 1);
         ++pass) {
      const bool traced_pass = trace && pass % 2 == 1;
      for (std::size_t i = 0; i < w.pairs.size(); ++i) {
        const Pair& p = w.pairs[i];
        Outcome o = run_pair(i, *env.dataset(p.data).db,
                             traced_pass ? &obs : nullptr, false);
        RoundSamples& rs = stats[i].rounds.back();
        if (traced_pass) {
          rs.traced_wall_ms.push_back(o.wall_ms);
          for (int k = 0; k < kNumPhases; ++k)
            if (!o.layers.phase[k].same_work(pool1[i].phase[k]))
              record_failure(p.label, std::string("host counters of phase ") +
                                          kPhaseNames[k] +
                                          " differ from the pool-1 pass");
          rs.layers.push_back(o.layers);
        } else {
          rs.wall_ms.push_back(o.wall_ms);
          rs.cpu_ms.push_back(o.cpu_ms);
          ++timed;
          timed_wall_ms += o.wall_ms;
        }
      }
    }
  }

  // ---- report
  std::vector<double> p50, cpu50;
  // Each untraced execution as a ratio to its pair's median in its round,
  // pooled over rounds and pairs: a pair alone has too few executions for
  // a tail percentile on the slow workloads.
  std::vector<double> ratios;
  Signature total;
  std::printf("%-18s %6s %10s %10s %12s\n", "pair", "n", "p50_ms",
              "cpu_p50_ms", "sim_s");
  for (std::size_t i = 0; i < w.pairs.size(); ++i) {
    const PairStats& ps = stats[i];
    p50.push_back(round_mean(ps, [](const RoundSamples& r) { return r.wall_ms; }));
    cpu50.push_back(round_mean(ps, [](const RoundSamples& r) { return r.cpu_ms; }));
    std::size_t n = 0;
    for (const auto& r : ps.rounds) {
      const double m = median(r.wall_ms);
      for (double x : r.wall_ms) ratios.push_back(x / m);
      n += r.wall_ms.size();
    }
    total += ps.sig;
    std::printf("%-18s %6zu %10.3f %10.3f %12.3f\n", w.pairs[i].label.c_str(),
                n, p50.back(), cpu50.back(), ps.sig.sim_s);
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t n_exec = ratios.size();
  const std::size_t tail_rank =
      n_exec > kTailAbove ? n_exec - kTailAbove - 1 : n_exec - 1;
  std::printf("query_ms_tail: p%.1f of %zu pooled executions (%zu above it) "
              "= %.4f x the pair's median in its round\n",
              100.0 * static_cast<double>(tail_rank + 1) /
                  static_cast<double>(n_exec),
              n_exec, n_exec - tail_rank - 1, ratios[tail_rank]);

  std::vector<Metric> metrics;
  if (trace) {
    metrics = layer_metrics(w, stats, setup_times, total, first_refdb,
                            geomean(p50));
  } else {
    metrics.push_back({"query_ms_p50", geomean(p50), "ms"});
    metrics.push_back({"query_ms_tail", geomean(p50) * ratios[tail_rank], "ms"});
    metrics.push_back({"queries_per_s", timed / (timed_wall_ms / 1e3), "1/s"});
    metrics.push_back({"query_cpu_ms_p50", geomean(cpu50), "ms"});
    metrics.push_back({"sim_s", total.sim_s, "sim-s"});
    metrics.push_back({"mr_jobs", static_cast<double>(total.jobs), "count"});
    metrics.push_back({"setup_s", median(setup_times.total) / 1e3, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    metrics.push_back(
        {"success_rate",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"});
  }
  for (const auto& m : metrics)
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& e : errors) std::fprintf(stderr, "FAILED %s\n", e.c_str());
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
