// Tests for the continuous-observability service: the structured event
// journal, the cross-query flight recorder, the live progress tracker,
// the Prometheus exposition renderer, the loopback HTTP listener, and
// the hardened write_text_file helper.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/http_listener.h"
#include "common/io.h"
#include "common/strings.h"
#include "mr/metrics.h"
#include "obs/http_endpoints.h"
#include "obs/obs.h"
#include "obs/prom_export.h"
#include "storage/table.h"

namespace ysmart {
namespace {

// ---- a strict mini JSON parser (same shape as tests/test_obs.cpp) ----
class MiniJson {
 public:
  explicit MiniJson(std::string_view s) : s_(s) {}
  bool parse() {
    skip_ws();
    return value() && (skip_ws(), pos_ == s_.size());
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!peek(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!peek(',')) return false;
    }
  }
  bool array() {
    ++pos_;
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!peek(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  std::string_view s_;
  std::size_t pos_ = 0;
};

std::shared_ptr<Table> tiny_clicks() {
  Schema cl;
  cl.add("uid", ValueType::Int);
  cl.add("page_id", ValueType::Int);
  cl.add("cid", ValueType::Int);
  cl.add("ts", ValueType::Int);
  auto t = std::make_shared<Table>(cl);
  for (int i = 0; i < 400; ++i)
    t->append({Value{i % 7}, Value{i % 13}, Value{i % 5}, Value{i}});
  return t;
}

std::unique_ptr<Database> fresh_db() {
  auto db = std::make_unique<Database>(ClusterConfig::small_local(50));
  db->create_table("clicks", tiny_clicks());
  return db;
}

constexpr const char* kSql =
    "SELECT cid, count(*) AS n FROM clicks GROUP BY cid";

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream iss(text);
  std::string line;
  while (std::getline(iss, line)) lines.push_back(line);
  return lines;
}

int count_occurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

// ---- event log ----

TEST(EventLog, EmitAssignsMonotonicSeqAndRendersJsonl) {
  obs::EventLog log;
  log.emit(obs::EventLevel::Info, obs::EventCategory::Map, "a", 1.0,
           {{"bytes", std::uint64_t{7}}, {"label", "x"}});
  log.emit(obs::EventLevel::Warn, obs::EventCategory::Fault, "b", 2.5,
           {{"attempts", 3}});
  ASSERT_EQ(log.size(), 2u);
  const auto evs = log.events();
  EXPECT_EQ(evs[0].seq, 0u);
  EXPECT_EQ(evs[1].seq, 1u);
  const std::string jsonl = log.jsonl();
  for (const auto& line : split_lines(jsonl)) {
    EXPECT_TRUE(MiniJson(line).parse()) << line;
    EXPECT_NE(line.find("\"wall_us\""), std::string::npos);
  }
  EXPECT_NE(jsonl.find("\"category\":\"fault\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"level\":\"warn\""), std::string::npos);
}

TEST(EventLog, SimOnlyRenderingOmitsWallClock) {
  obs::EventLog log;
  log.emit(obs::EventLevel::Info, obs::EventCategory::Reduce, "r", 3.0);
  const std::string sim_only = log.jsonl(obs::EventLog::IncludeWall::No);
  EXPECT_EQ(sim_only.find("wall_us"), std::string::npos);
  EXPECT_NE(sim_only.find("\"sim_s\":3"), std::string::npos);
}

TEST(EventLog, RingRetentionDropsOldestAndCounts) {
  obs::EventLog log;
  log.set_capacity(3);
  for (int i = 0; i < 10; ++i)
    log.emit(obs::EventLevel::Info, obs::EventCategory::Schedule,
             "e" + std::to_string(i), i);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_emitted(), 10u);
  EXPECT_EQ(log.dropped(), 7u);
  const auto evs = log.events();
  EXPECT_EQ(evs.front().name, "e7");  // oldest retained
  EXPECT_EQ(evs.back().name, "e9");
  EXPECT_EQ(evs.front().seq, 7u);  // seq survives eviction
}

TEST(EventLog, StreamingSinkWritesEveryEvent) {
  const std::string path = testing::TempDir() + "events_sink.jsonl";
  std::remove(path.c_str());
  obs::EventLog log;
  log.set_capacity(2);  // smaller than the emission count
  ASSERT_TRUE(log.open_sink(path));
  for (int i = 0; i < 5; ++i)
    log.emit(obs::EventLevel::Info, obs::EventCategory::Map,
             "e" + std::to_string(i), i);
  log.close_sink();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(MiniJson(line).parse()) << line;
    ++n;
  }
  // The sink streams everything, including events the ring evicted.
  EXPECT_EQ(n, 5);
  std::remove(path.c_str());
}

TEST(EventLog, SinkOpenFailureReportsAndReturnsFalse) {
  obs::EventLog log;
  EXPECT_FALSE(log.open_sink("/definitely-missing-dir/sub/events.jsonl"));
  EXPECT_FALSE(log.sink_open());
}

// ---- flight recorder ----

obs::QueryHistoryRecord rec(const std::string& sql, bool failed = false) {
  obs::QueryHistoryRecord r;
  r.sql = sql;
  r.profile = "ysmart";
  r.jobs = 2;
  r.waves = 2;
  r.sim_total_s = 10;
  r.sim_wall_s = 8;
  r.failed = failed;
  if (failed) r.fail_reason = "disk full";
  r.digest = failed ? "DNF" : "ok";
  r.analyzer_text = "== query doctor ==\n";
  return r;
}

TEST(QueryHistory, RingRetentionAndIds) {
  obs::QueryHistoryStore store;
  store.set_capacity(2);
  store.add(rec("q1"));
  store.add(rec("q2"));
  store.add(rec("q3"));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total_recorded(), 3u);
  obs::QueryHistoryRecord out;
  ASSERT_TRUE(store.at(0, &out));
  EXPECT_EQ(out.sql, "q3");
  EXPECT_EQ(out.id, 3u);  // ids keep counting across eviction
  ASSERT_TRUE(store.at(1, &out));
  EXPECT_EQ(out.sql, "q2");
  EXPECT_FALSE(store.at(2, &out));
  const auto recent = store.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].sql, "q3");  // most recent first
}

TEST(QueryHistory, JsonExportParsesAndTableRenders) {
  obs::QueryHistoryStore store;
  store.add(rec("SELECT 1"));
  store.add(rec("SELECT 2", /*failed=*/true));
  const std::string json = store.json();
  EXPECT_TRUE(MiniJson(json).parse()) << json;
  EXPECT_NE(json.find("\"total_recorded\":2"), std::string::npos);
  EXPECT_NE(json.find("disk full"), std::string::npos);
  const std::string table = store.table();
  EXPECT_NE(table.find("SELECT 1"), std::string::npos);
  EXPECT_NE(table.find("DNF"), std::string::npos);
}

// ---- progress tracker ----

/// A completed job's record: one map sample per entry of `map_s` and one
/// reduce partition sample per entry of `reduce_s` (none: map-only).
obs::JobRecord job_record(const std::string& name, std::vector<double> map_s,
                          std::vector<double> reduce_s, double total_s) {
  obs::JobRecord job;
  job.metrics.job_name = name;
  job.metrics.map_time_s = total_s;
  job.map_only = reduce_s.empty();
  for (double t : map_s) {
    obs::TaskSample s;
    s.index = static_cast<int>(job.map_tasks.size());
    s.sim_seconds = t;
    job.map_tasks.push_back(s);
  }
  for (double t : reduce_s) {
    obs::TaskSample s;
    s.index = static_cast<int>(job.reduce_tasks.size());
    s.sim_seconds = t;
    job.reduce_tasks.push_back(s);
  }
  return job;
}

TEST(Progress, TracksQueryLifecycleMonotonically) {
  obs::ProgressTracker tracker;
  std::vector<std::size_t> tasks_done_seen;
  tracker.set_callback([&](const obs::ProgressSnapshot& s) {
    tasks_done_seen.push_back(s.tasks_done());
  });
  tracker.begin_query("SELECT 1", "ysmart", 2);
  tracker.begin_wave(0);
  // Map task 2 runs above twice the lower median (1.0): one straggler.
  tracker.job_done(job_record("JOIN1", {1.0, 1.0, 5.0}, {3.5, 3.5}, 10.0));

  obs::ProgressSnapshot s = tracker.snapshot();
  EXPECT_TRUE(s.active);
  EXPECT_EQ(s.jobs_done, 1u);
  EXPECT_EQ(s.total_jobs, 2u);
  EXPECT_EQ(s.tasks_done(), 5u);
  ASSERT_EQ(s.jobs.size(), 1u);
  EXPECT_EQ(s.jobs[0].map.tasks, 3u);
  EXPECT_EQ(s.jobs[0].reduce.tasks, 2u);
  EXPECT_EQ(s.jobs[0].map.stragglers, 1);
  EXPECT_EQ(s.jobs[0].reduce.stragglers, 0);
  EXPECT_DOUBLE_EQ(s.sim_done_s, 14.0);
  EXPECT_DOUBLE_EQ(s.eta_s, 10.0);  // one job of two left, mean job 10 s

  tracker.begin_wave(1);
  tracker.job_done(job_record("AGG1", {2.0}, {}, 2.0));
  s = tracker.snapshot();
  EXPECT_EQ(s.jobs_done, 2u);
  EXPECT_EQ(s.tasks_done(), 6u);
  EXPECT_EQ(s.waves_done, 2);
  EXPECT_DOUBLE_EQ(s.eta_s, 0.0);

  tracker.end_query(false, 12.0);
  s = tracker.snapshot();
  EXPECT_FALSE(s.active);
  EXPECT_EQ(s.queries_finished, 1u);
  EXPECT_DOUBLE_EQ(s.sim_elapsed_s, 12.0);
  // Callbacks observed tasks_done never decreasing within the query.
  for (std::size_t i = 1; i < tasks_done_seen.size(); ++i)
    EXPECT_GE(tasks_done_seen[i], tasks_done_seen[i - 1]);
  EXPECT_EQ(tasks_done_seen.size(), 6u);  // query, 2 waves, 2 jobs, end
}

TEST(Progress, EtaStaysFiniteWithZeroCostTasksAndRendersClean) {
  // A completed job whose tasks all cost 0 simulated seconds (a legal
  // cost-model outcome for empty inputs). The mean-job estimate divides
  // by the job count, not the seconds, so eta must come out 0 — never
  // NaN/inf.
  obs::ProgressTracker tracker;
  tracker.begin_query("SELECT 1", "ysmart", 2);
  tracker.begin_wave(0);
  tracker.job_done(job_record("J1", {0.0, 0.0}, {0.0}, 0.0));
  const obs::ProgressSnapshot s = tracker.snapshot();
  ASSERT_TRUE(std::isfinite(s.eta_s)) << s.eta_s;
  EXPECT_DOUBLE_EQ(s.eta_s, 0.0);
  const std::string out = s.render();
  EXPECT_EQ(out.find("nan"), std::string::npos) << out;
  EXPECT_EQ(out.find("inf"), std::string::npos) << out;
}

TEST(Progress, EtaUnknownBeforeAnyJobCompletes) {
  // A running query with no completed job has no basis for an estimate:
  // eta stays at the "unknown" sentinel (-1) and the render shows neither
  // an eta line nor NaN garbage.
  obs::ProgressTracker tracker;
  tracker.begin_query("SELECT 1", "ysmart", 1);
  tracker.begin_wave(0);
  const obs::ProgressSnapshot s = tracker.snapshot();
  EXPECT_DOUBLE_EQ(s.eta_s, -1.0);
  const std::string out = s.render();
  EXPECT_EQ(out.find("eta"), std::string::npos) << out;
  EXPECT_EQ(out.find("nan"), std::string::npos) << out;
}

TEST(Progress, EtaRejectsNonFiniteSimSecondsInput) {
  // Defensive path: a poisoned simulated time (inf) must not leak into
  // eta_s or the rendered text — the snapshot keeps eta at "unknown".
  const double inf = std::numeric_limits<double>::infinity();
  obs::ProgressTracker tracker;
  tracker.begin_query("SELECT 1", "ysmart", 3);
  tracker.begin_wave(0);
  tracker.job_done(job_record("J1", {inf}, {1.0}, inf));
  const obs::ProgressSnapshot s = tracker.snapshot();
  EXPECT_FALSE(std::isfinite(s.eta_s) && s.eta_s >= 0)
      << "eta must not be a finite estimate built from inf input";
  EXPECT_DOUBLE_EQ(s.eta_s, -1.0);
  EXPECT_EQ(s.render().find("eta"), std::string::npos) << s.render();
}

TEST(Progress, RenderMentionsStateAndJobs) {
  obs::ProgressTracker tracker;
  EXPECT_NE(tracker.snapshot().render().find("no query"), std::string::npos);
  tracker.begin_query("SELECT x FROM t", "hive", 2);
  tracker.begin_wave(0);
  obs::JobRecord agg = job_record("AGG1", {1.0, 1.0}, {1.0}, 2.0);
  agg.metrics.failed = true;
  tracker.job_done(agg);
  tracker.begin_wave(1);
  tracker.job_done(job_record("SCAN1", {1.0}, {}, 1.0));
  EXPECT_EQ(tracker.snapshot().render(),
            "query: SELECT x FROM t  (profile hive)\n"
            "state: RUNNING  wave 1  jobs 2/2  tasks 4/4\n"
            "  [w0] AGG1                         map    2/2    reduce    1/1"
            "    FAILED\n"
            "  [w1] SCAN1                        map    1/1    done\n"
            "sim progress: 4.0s of completed tasks; eta ~0.0s simulated\n");
  tracker.end_query(true, 3.0);
  const std::string out = tracker.snapshot().render();
  EXPECT_NE(out.find("state: DNF  wave 2  jobs 2/2  tasks 4/4"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("modeled elapsed 3.0s"), std::string::npos) << out;
}

// ---- Prometheus exposition ----

TEST(PromExport, SanitizesMetricNames) {
  EXPECT_EQ(obs::prometheus_name("engine.map.tasks"),
            "ysmart_engine_map_tasks");
  EXPECT_EQ(obs::prometheus_name("pool.queue.peak-depth"),
            "ysmart_pool_queue_peak_depth");
}

TEST(PromExport, RendersTypesHelpAndCumulativeBuckets) {
  obs::MetricsRegistry reg;
  reg.add("engine.jobs.run", 2);
  reg.set("pool.workers.size", 8);
  reg.observe("engine.map.task_sim_seconds", 0.05);
  reg.observe("engine.map.task_sim_seconds", 2.0);
  reg.observe("engine.map.task_sim_seconds", 1e9);  // overflow bucket
  const std::string text = obs::render_prometheus(reg);

  EXPECT_NE(text.find("# HELP ysmart_engine_jobs_run_total"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ysmart_engine_jobs_run_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ysmart_engine_jobs_run_total 2"), std::string::npos);
  // Gauges keep their name unsuffixed and declare the gauge type.
  EXPECT_NE(text.find("# TYPE ysmart_pool_workers_size gauge"),
            std::string::npos);
  EXPECT_NE(text.find("ysmart_pool_workers_size 8"), std::string::npos);
  EXPECT_EQ(text.find("ysmart_pool_workers_size_total"), std::string::npos);
  // Histogram: cumulative buckets ending at +Inf, then _sum and _count.
  EXPECT_NE(text.find("# TYPE ysmart_engine_map_task_sim_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("ysmart_engine_map_task_sim_seconds_bucket{le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("ysmart_engine_map_task_sim_seconds_count 3"),
            std::string::npos);
  EXPECT_NE(text.find("ysmart_engine_map_task_sim_seconds_sum"),
            std::string::npos);

  // Buckets are cumulative: parse the bucket counts in order and check
  // they never decrease and end equal to _count.
  std::uint64_t prev = 0, last = 0;
  int buckets = 0;
  for (const auto& line : split_lines(text)) {
    const std::string prefix = "ysmart_engine_map_task_sim_seconds_bucket{";
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos);
    last = std::stoull(line.substr(sp + 1));
    EXPECT_GE(last, prev) << line;
    prev = last;
    ++buckets;
  }
  EXPECT_EQ(buckets,
            static_cast<int>(obs::MetricsRegistry::kBucketBounds.size()) + 1);
  EXPECT_EQ(last, 3u);
  // Every metric family declares HELP and TYPE exactly once.
  EXPECT_EQ(count_occurrences(text, "# TYPE ysmart_engine_jobs_run_total"), 1);
}

TEST(PromExport, EscapesLabelValuesPerTextFormat) {
  // Text format 0.0.4: inside a label value, backslash, double-quote and
  // newline must be escaped or the exposition line breaks apart.
  EXPECT_EQ(obs::prom_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prom_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::prom_escape_label("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(obs::prom_escape_label("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(obs::prom_escape_label(""), "");
}

TEST(PromExport, ClusterGaugesExportAggregatesAndTopNodesOnly) {
  auto db = fresh_db();
  obs::ObsContext ctx;
  db->set_observer(&ctx);
  auto run = db->run(kSql, TranslatorProfile::ysmart());
  ASSERT_FALSE(run.metrics.failed());
  const std::string text = obs::render_prometheus(ctx);

  EXPECT_NE(text.find("# TYPE ysmart_cluster_worker_nodes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ysmart_cluster_busy_seconds_cv gauge"),
            std::string::npos);
  EXPECT_NE(text.find("ysmart_cluster_shuffle_bytes"), std::string::npos);
  // Per-node series exist but stay bounded: at most the top 8 busiest
  // nodes, each with a quoted node label (cardinality guard for the
  // 747-node Facebook preset).
  const int node_series =
      count_occurrences(text, "ysmart_cluster_node_busy_seconds{node=\"");
  EXPECT_GE(node_series, 1);
  EXPECT_LE(node_series, 8);
  EXPECT_EQ(count_occurrences(text, "# TYPE ysmart_cluster_node_busy_seconds"),
            1);
}

TEST(PromExport, CountersReconcileWithQueryMetrics) {
  auto db = fresh_db();
  obs::ObsContext ctx;
  db->set_observer(&ctx);
  auto run = db->run(kSql, TranslatorProfile::ysmart());
  ASSERT_FALSE(run.metrics.failed());

  std::uint64_t map_tasks = 0, shuffle_wire = 0, dfs_write = 0;
  for (const auto& j : run.metrics.jobs) {
    map_tasks += j.map.tasks;
    shuffle_wire += j.shuffle_bytes_wire;
    dfs_write += j.dfs_write_bytes;
  }
  const std::string text = obs::render_prometheus(ctx);
  auto expect_line = [&](const std::string& name, std::uint64_t value) {
    const std::string line = strf("%s %llu", name.c_str(),
                                  static_cast<unsigned long long>(value));
    EXPECT_NE(text.find("\n" + line + "\n"), std::string::npos)
        << "missing: " << line;
  };
  expect_line("ysmart_engine_jobs_run_total",
              static_cast<std::uint64_t>(run.metrics.jobs.size()));
  expect_line("ysmart_engine_map_tasks_total", map_tasks);
  expect_line("ysmart_engine_shuffle_bytes_wire_total", shuffle_wire);
  expect_line("ysmart_engine_dfs_write_bytes_total", dfs_write);
  // The ObsContext overload also exports journal/flight-recorder gauges.
  expect_line("ysmart_history_recorded_total", 1);
  expect_line("ysmart_queries_finished_total", 1);
  EXPECT_NE(text.find("ysmart_events_emitted_total"), std::string::npos);
}

// ---- HTTP listener ----

std::string http_get(int port, const std::string& request_head) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed";
    return {};
  }
  (void)::send(fd, request_head.data(), request_head.size(), 0);
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST(HttpListener, ServesHandlerOnLoopback) {
  HttpListener listener;
  std::string error;
  ASSERT_TRUE(listener.start(
      0,
      [](const std::string& path) -> HttpResponse {
        if (path == "/metrics")
          return {200, "text/plain; version=0.0.4; charset=utf-8",
                  "ysmart_up 1\n"};
        return {404, "text/plain; charset=utf-8", "nope\n"};
      },
      &error))
      << error;
  ASSERT_GT(listener.port(), 0);

  const std::string ok = http_get(
      listener.port(), "GET /metrics?x=1 HTTP/1.0\r\nHost: l\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.0 200"), std::string::npos) << ok;
  EXPECT_NE(ok.find("ysmart_up 1"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length:"), std::string::npos);

  const std::string missing =
      http_get(listener.port(), "GET /other HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);

  const std::string post =
      http_get(listener.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.0 405"), std::string::npos);

  listener.stop();
  EXPECT_FALSE(listener.running());
  // A stopped listener can be started again.
  ASSERT_TRUE(listener.start(
      0, [](const std::string&) { return HttpResponse{200, "t", "x"}; },
      &error))
      << error;
  listener.stop();
}

TEST(HttpListener, UnknownPathGets404WithAccurateContentLength) {
  // The 404 path must be a complete HTTP response: status line, a
  // Content-Length that matches the body byte count exactly, and a
  // non-empty body even when the handler returns one empty (the
  // listener substitutes the status text so clients see something).
  HttpListener listener;
  std::string error;
  ASSERT_TRUE(listener.start(
      0,
      [](const std::string& path) -> HttpResponse {
        if (path == "/metrics")
          return {200, "text/plain; charset=utf-8", "ysmart_up 1\n"};
        if (path == "/empty404") return {404, "text/plain; charset=utf-8", ""};
        return {404, "text/plain; charset=utf-8",
                "try /metrics, /healthz, /history.json or /cluster.json\n"};
      },
      &error))
      << error;

  auto check_404 = [&](const std::string& path) -> std::string {
    const std::string resp =
        http_get(listener.port(), "GET " + path + " HTTP/1.0\r\n\r\n");
    EXPECT_NE(resp.find("HTTP/1.0 404 Not Found"), std::string::npos) << resp;
    const std::size_t cl = resp.find("Content-Length: ");
    const std::size_t body_at = resp.find("\r\n\r\n");
    if (cl == std::string::npos || body_at == std::string::npos) {
      ADD_FAILURE() << "incomplete response: " << resp;
      return {};
    }
    const std::size_t len =
        std::stoull(resp.substr(cl + std::strlen("Content-Length: ")));
    const std::string body = resp.substr(body_at + 4);
    EXPECT_EQ(body.size(), len) << resp;
    EXPECT_FALSE(body.empty()) << "404 body must not be empty";
    return body;
  };
  const std::string hint = check_404("/definitely-not-served");
  EXPECT_NE(hint.find("/metrics"), std::string::npos) << hint;
  // Handler returned an empty 404 body: the listener fills in the
  // status text instead of serving a blank page.
  EXPECT_EQ(check_404("/empty404"), "404 Not Found\n");
  listener.stop();
}

TEST(HttpListener, ServesObsEndpointLibraryIncludingHealthzAndPlan) {
  // The endpoint routing that the shell's \serve uses is a library
  // function (obs/http_endpoints.h), so every surface — including
  // /healthz and the plan axis — is testable through a real listener.
  obs::ObsContext ctx;
  HttpListener listener;
  std::string error;
  ASSERT_TRUE(listener.start(
      0,
      [&ctx](const std::string& path) {
        return obs::serve_obs_endpoint(ctx, path);
      },
      &error))
      << error;

  const std::string health =
      http_get(listener.port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos) << health;
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos) << health;

  // /plan.json serves the disabled-by-default plan store as valid JSON.
  const std::string plan =
      http_get(listener.port(), "GET /plan.json HTTP/1.0\r\n\r\n");
  EXPECT_NE(plan.find("HTTP/1.0 200"), std::string::npos) << plan;
  EXPECT_NE(plan.find("application/json"), std::string::npos);
  const std::size_t body_at = plan.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_TRUE(MiniJson(plan.substr(body_at + 4)).parse()) << plan;
  EXPECT_NE(plan.find("\"enabled\":false"), std::string::npos);

  // The 404 hint enumerates every served path, the plan axis included.
  const std::string missing =
      http_get(listener.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
  for (const char* p : {"/metrics", "/healthz", "/history.json",
                        "/cluster.json", "/plan.json"})
    EXPECT_NE(missing.find(p), std::string::npos) << "hint missing " << p;
  listener.stop();
}

TEST(HttpListener, RebindsTheSamePortImmediatelyAfterStop) {
  // Serving a request leaves the accepted connection in TIME_WAIT on the
  // listener side; SO_REUSEADDR must let the next start() take the same
  // port right away (shell sessions toggle \serve on a fixed port).
  HttpListener listener;
  std::string error;
  auto handler = [](const std::string&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  };
  ASSERT_TRUE(listener.start(0, handler, &error)) << error;
  const int port = listener.port();
  ASSERT_GT(port, 0);
  const std::string resp = http_get(port, "GET / HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos);
  listener.stop();

  HttpListener second;
  ASSERT_TRUE(second.start(port, handler, &error))
      << "rebinding port " << port << " failed: " << error;
  EXPECT_EQ(second.port(), port);
  const std::string again = http_get(port, "GET / HTTP/1.0\r\n\r\n");
  EXPECT_NE(again.find("HTTP/1.0 200"), std::string::npos);
  second.stop();
}

TEST(HttpListener, BindFailureNamesTheAddressAndErrno) {
  HttpListener first;
  std::string error;
  ASSERT_TRUE(first.start(
      0, [](const std::string&) { return HttpResponse{}; }, &error))
      << error;
  // A second listener on the occupied port must fail with a message that
  // names the address and the errno text, not just "bind failed".
  HttpListener second;
  EXPECT_FALSE(second.start(
      first.port(), [](const std::string&) { return HttpResponse{}; },
      &error));
  EXPECT_NE(error.find("127.0.0.1"), std::string::npos) << error;
  EXPECT_NE(error.find(std::to_string(first.port())), std::string::npos)
      << error;
  EXPECT_NE(error.find("bind"), std::string::npos) << error;
  first.stop();
}

// ---- write_text_file hardening ----

TEST(WriteTextFile, RoundTripsAndAppendsNewline) {
  const std::string path = testing::TempDir() + "io_roundtrip.txt";
  ASSERT_TRUE(write_text_file(path, "hello"));
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "hello\n");
  std::remove(path.c_str());
}

TEST(WriteTextFile, UnwritablePathReportsAndReturnsFalse) {
  // The parent directory does not exist, so the open fails even as root.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(
      write_text_file("/definitely-missing-dir/sub/file.txt", "body"));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("/definitely-missing-dir/sub/file.txt"),
            std::string::npos)
      << "stderr must name the target path, got: " << err;
}

}  // namespace
}  // namespace ysmart
