// ObsContext: the observability subsystem's front door.
//
// One ObsContext bundles every observability surface, attached (non-
// owning) to a Database/Engine via set_observer()/set_obs():
//
//   tracer    per-query span tree (Chrome trace / EXPLAIN ANALYZE)
//   metrics   session counters, gauges and histograms
//   samples   one JobRecord per job for the query-doctor analyzer
//   events    structured event journal (leveled, categorized JSONL)
//   progress  per-wave/per-job completion state (\top, --progress)
//   history   cross-query flight recorder (last N completed queries)
//   profiler  host-axis CPU/allocation/dispatch accounting (\hotspots)
//   plans     plan-axis predicted-vs-actual accountability (\explain)
//
// One record, many views: the engine hands each finished job over once,
// as a JobRecord, and the DAG executor and Database::run bracket waves
// and queries. These calls derive every sim-axis view (registry, journal,
// span placement, progress, history, the simulated cursor) on the
// orchestrating thread from values already computed, so they cannot
// perturb a result. Host-axis measurement cannot be derived after the
// fact: a PhaseScope per engine phase measures it where the work runs.
//
// Everything is off by default: an unattached engine carries a null
// pointer and every instrumentation site reduces to a branch on it, so
// simulated metrics are bit-identical with observability on or off
// (tests/test_robustness.cpp; tests/test_golden_obs.cpp pins the views).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/thread_pool.h"
#include "mr/metrics.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/metrics_registry.h"
#include "obs/plan_view.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/task_samples.h"
#include "obs/trace.h"

namespace ysmart::obs {

struct ObsContext {
  Tracer tracer;
  MetricsRegistry metrics;
  TaskSampleStore samples;
  EventLog events;
  ProgressTracker progress;
  QueryHistoryStore history;
  HostProfiler profiler;
  PlanViewStore plans;

  /// A query was translated into `jobs` jobs (the "translated" event).
  void translated(std::string_view profile, std::size_t jobs);

  /// Bracket one Database::run execution. end_query runs while the query
  /// span is still open; `host_wall_ms` goes to the history record.
  void begin_query(std::string sql, std::string profile, std::size_t jobs);
  void end_query(const QueryMetrics& m, double host_wall_ms);

  /// Bracket one dependency wave: its jobs all start at the wave's
  /// simulated start. end_wave runs while the wave span is still open;
  /// `jobs_left` counts the jobs a failure leaves unscheduled.
  void begin_wave(std::size_t wave, std::size_t jobs);
  void end_wave(double elapsed_s, bool failed, std::size_t jobs_left);

  /// Hand over one finished job while its job span is still open; `pool`
  /// feeds the pool.* gauges.
  void record_job(JobRecord job, const ThreadPool& pool);

  void clear();

 private:
  double query_sim0_ = 0;
  std::string query_sql_;
  std::string query_profile_;
  std::size_t wave_ = 0;
  std::size_t wave_jobs_ = 0;
  bool in_wave_ = false;
  double wave_sim0_ = 0;
};

/// RAII span: begins on construction (when `obs` is non-null), ends on
/// destruction. All methods are no-ops on a disabled span, so call sites
/// read linearly without null checks.
class ScopedSpan {
 public:
  ScopedSpan(ObsContext* obs, std::string name, std::string category)
      : tracer_(obs ? &obs->tracer : nullptr) {
    if (tracer_) id_ = tracer_->begin(std::move(name), std::move(category));
  }
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void arg(std::string key, std::uint64_t value) {
    if (tracer_) tracer_->arg(id_, std::move(key), value);
  }

 private:
  Tracer* tracer_ = nullptr;
  int id_ = -1;
};

/// One host-measured phase: its wall span in the tracer plus its CPU,
/// allocation and dispatch aggregate in the profiler. Work fanned out
/// through parallel_for() is clocked per worker chunk; with
/// `clock_caller` the constructing thread is clocked for the scope's
/// lifetime instead. Inert when `obs` is null.
class PhaseScope {
 public:
  PhaseScope(ObsContext* obs, std::string span_name, std::string category,
             std::string job, std::string phase, bool clock_caller = false)
      : span_(obs, std::move(span_name), std::move(category)),
        clock_(obs ? &obs->profiler : nullptr, span_.id(), std::move(job),
               std::move(phase)) {
    if (clock_caller) caller_.emplace(clock_.agg());
  }

  void arg(std::string key, std::uint64_t value) {
    span_.arg(std::move(key), value);
  }

  /// ThreadPool::parallel_for with each chunk clocked into this phase.
  template <class Body>
  void parallel_for(ThreadPool& pool, std::size_t n, std::size_t grain,
                    const Body& body) {
    pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
      TaskClock tc(clock_.agg());
      body(begin, end);
    });
  }

 private:
  ScopedSpan span_;
  PhaseClock clock_;
  std::optional<TaskClock> caller_;
};

}  // namespace ysmart::obs
