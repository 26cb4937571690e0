#include "obs/obs.h"

#include "obs/analyzer.h"

namespace ysmart::obs {

void ObsContext::translated(std::string_view profile, std::size_t jobs) {
  events.emit(EventLevel::Info, EventCategory::Translate, "translated",
              tracer.sim_now(),
              {{"profile", profile}, {"jobs", static_cast<std::uint64_t>(jobs)}});
}

void ObsContext::begin_query(std::string sql, std::string profile,
                             std::size_t jobs) {
  query_sim0_ = tracer.sim_now();
  samples.begin_query();
  events.emit(EventLevel::Info, EventCategory::Translate, "query-start",
              query_sim0_,
              {{"profile", std::string_view(profile)},
               {"jobs", static_cast<std::uint64_t>(jobs)}});
  progress.begin_query(sql, profile, jobs);
  query_sql_ = std::move(sql);
  query_profile_ = std::move(profile);
}

void ObsContext::end_query(const QueryMetrics& m, double host_wall_ms) {
  // wall_time_s is the modeled end-to-end elapsed time (waves overlap
  // under concurrent submission), which is where end_wave left the
  // simulated cursor; total_time_s is the serial sum.
  const int span = tracer.open_span();
  const auto jobs = static_cast<std::uint64_t>(m.jobs.size());
  tracer.set_sim(span, query_sim0_, m.wall_time_s);
  tracer.arg(span, "jobs", jobs);
  tracer.arg(span, "sim_total_s", m.total_time_s());
  if (m.failed()) tracer.arg(span, "failed", std::string_view("true"));
  events.emit(m.failed() ? EventLevel::Error : EventLevel::Info,
              EventCategory::Schedule, "query-done",
              query_sim0_ + m.wall_time_s,
              {{"profile", std::string_view(query_profile_)},
               {"jobs", jobs},
               {"sim_wall_s", m.wall_time_s},
               {"failed", m.failed() ? 1 : 0}});
  progress.end_query(m.failed(), m.wall_time_s);

  // Flight recorder: one record per completed query.
  const QueryTaskSamples qs = samples.last_query();
  const AnalyzerReport report = analyze_query(qs);
  QueryHistoryRecord rec;
  rec.sql = query_sql_;
  rec.profile = query_profile_;
  rec.jobs = static_cast<int>(m.jobs.size());
  rec.waves = static_cast<int>(report.waves.size());
  rec.sim_total_s = m.total_time_s();
  rec.sim_wall_s = m.wall_time_s;
  rec.host_wall_ms = host_wall_ms;
  rec.failed = m.failed();
  rec.fail_reason = m.fail_reason();
  rec.digest = report.diagnosis.empty() ? "ok" : report.diagnosis.front();
  rec.analyzer_text = report.text();
  history.add(std::move(rec));

  if (plans.enabled()) plans.attach_actuals(qs, m);
}

void ObsContext::begin_wave(std::size_t wave, std::size_t jobs) {
  wave_ = wave;
  wave_jobs_ = jobs;
  in_wave_ = true;
  wave_sim0_ = tracer.sim_now();
  // The analyzer regroups the stamped jobs by wave to reproduce the
  // executor's wall_time_s fold exactly.
  samples.set_current_wave(static_cast<int>(wave));
  progress.begin_wave(static_cast<int>(wave));
  events.emit(EventLevel::Info, EventCategory::Schedule, "wave-start",
              wave_sim0_,
              {{"wave", static_cast<std::uint64_t>(wave)},
               {"jobs", static_cast<std::uint64_t>(jobs)}});
}

void ObsContext::end_wave(double elapsed_s, bool failed,
                          std::size_t jobs_left) {
  const int span = tracer.open_span();
  tracer.set_sim(span, wave_sim0_, elapsed_s);
  tracer.arg(span, "jobs", static_cast<std::uint64_t>(wave_jobs_));
  tracer.set_sim_now(wave_sim0_ + elapsed_s);
  in_wave_ = false;
  events.emit(EventLevel::Info, EventCategory::Schedule, "wave-done",
              wave_sim0_ + elapsed_s,
              {{"wave", static_cast<std::uint64_t>(wave_)},
               {"jobs", static_cast<std::uint64_t>(wave_jobs_)},
               {"wave_sim_s", elapsed_s}});
  if (failed)
    events.emit(EventLevel::Error, EventCategory::Schedule, "query-abort",
                wave_sim0_ + elapsed_s,
                {{"pending_jobs", static_cast<std::uint64_t>(jobs_left)}});
}

void ObsContext::record_job(JobRecord job, const ThreadPool& pool) {
  const JobMetrics& m = job.metrics;
  const std::string& name = m.job_name;
  // Jobs of one wave all start at the wave's simulated start; a
  // standalone engine run starts at the cursor.
  const double sim0 = in_wave_ ? wave_sim0_ : tracer.sim_now();
  job.sim_start_s = sim0;
  tracer.set_sim_now(sim0 + m.total_time_s());

  // ---- spans: the job span and its phases, placed on the sim axis ----
  const int job_span = tracer.open_span();
  tracer.set_sim(job_span, sim0, m.total_time_s());
  tracer.arg(job_span, "sched_delay_s", m.sched_delay_s);
  tracer.arg(job_span, "map_time_s", m.map_time_s);
  tracer.arg(job_span, "reduce_time_s", m.reduce_time_s);
  tracer.arg(job_span, "shuffle_bytes_wire", m.shuffle_bytes_wire);
  tracer.arg(job_span, "dfs_write_bytes", m.dfs_write_bytes);
  if (m.failed) tracer.arg(job_span, "fail_reason", std::string_view(m.fail_reason));
  if (const int sched = tracer.child(job_span, "sched"); sched >= 0) {
    tracer.set_sim(sched, sim0, m.sched_delay_s);
    tracer.arg(sched, "slot_share", job.slot_share);
  }
  const int map_span = tracer.child(job_span, "map");
  tracer.set_sim(map_span, sim0 + m.sched_delay_s, m.map_time_s);
  tracer.arg(map_span, "tasks", m.map.tasks);
  tracer.arg(map_span, "input_bytes", m.map.input_bytes);
  tracer.arg(map_span, "output_bytes", m.map.output_bytes);
  if (!job.map_only) {
    // The simulated reduce time includes shuffle transfer and merge: the
    // cost model charges them per reduce task, like Hadoop's reduce-side
    // copy/sort phases being billed to the reduce task.
    const int reduce_span = tracer.child(job_span, "reduce");
    tracer.set_sim(reduce_span, sim0 + m.sched_delay_s + m.map_time_s,
                   m.reduce_time_s);
    tracer.arg(reduce_span, "tasks", m.reduce.tasks);
    tracer.arg(reduce_span, "shuffle_bytes_wire", m.shuffle_bytes_wire);
  }

  // ---- registry: counters mirror JobMetrics; histograms the samples ----
  const std::uint64_t retries = job.retries();
  metrics.add("engine.jobs.run", 1);
  metrics.add("engine.map.tasks", m.map.tasks);
  metrics.add("engine.map.input_bytes", m.map.input_bytes);
  metrics.add("engine.map.output_bytes", m.map.output_bytes);
  metrics.add("engine.map.remote_read_bytes", m.remote_read_bytes);
  metrics.add("engine.shuffle.bytes_raw", m.shuffle_bytes_raw);
  metrics.add("engine.shuffle.bytes_wire", m.shuffle_bytes_wire);
  metrics.add("engine.reduce.tasks", m.reduce.tasks);
  metrics.add("engine.reduce.output_bytes", m.reduce.output_bytes);
  metrics.add("engine.dfs.write_bytes", m.dfs_write_bytes);
  metrics.add("engine.tasks.retries", retries);
  if (m.failed) {
    metrics.add("engine.jobs.failed", 1);
    metrics.note("engine.last_fail_reason", name + ": " + m.fail_reason);
  }
  for (const auto& s : job.map_tasks)
    metrics.observe("engine.map.task_sim_seconds", s.sim_seconds);
  // One observation per *modeled* reduce task: task i reuses partition
  // sample i % partitions, exactly how the engine expanded the times.
  if (!job.reduce_tasks.empty())
    for (std::uint64_t i = 0; i < m.reduce.tasks; ++i)
      metrics.observe("engine.reduce.task_sim_seconds",
                      job.reduce_tasks[i % job.reduce_tasks.size()].sim_seconds);
  const ThreadPool::Stats ps = pool.stats();
  metrics.set("pool.tasks.submitted", ps.tasks_submitted);
  metrics.set_max("pool.queue.peak_depth", ps.peak_queue_depth);
  metrics.set_max("pool.workers.peak_busy", ps.peak_busy_workers);
  metrics.set("pool.workers.size", pool.size());

  // ---- journal: the job's events in simulated-time order ----
  // Every retried or exhausted task is journaled individually.
  auto task_faults = [&](const std::vector<TaskSample>& tasks,
                         std::string_view phase, double at) {
    for (const auto& t : tasks)
      if (t.attempts > 1)
        events.emit(t.exhausted ? EventLevel::Error : EventLevel::Warn,
                    EventCategory::Fault,
                    t.exhausted ? "task-exhausted" : "task-retry", at,
                    {{"job", std::string_view(name)}, {"phase", phase},
                     {"task", static_cast<std::uint64_t>(t.index)},
                     {"attempts", t.attempts}});
  };
  task_faults(job.map_tasks, "map", sim0 + m.sched_delay_s);
  events.emit(EventLevel::Info, EventCategory::Map, "map-phase-done",
              sim0 + m.sched_delay_s + m.map_time_s,
              {{"job", std::string_view(name)}, {"tasks", m.map.tasks},
               {"input_bytes", m.map.input_bytes},
               {"output_bytes", m.map.output_bytes},
               {"makespan_s", m.map_time_s}});
  if (!job.map_only) {
    task_faults(job.reduce_tasks, "reduce",
                sim0 + m.sched_delay_s + m.map_time_s);
    events.emit(EventLevel::Info, EventCategory::Shuffle, "shuffle-done",
                sim0 + m.sched_delay_s + m.map_time_s,
                {{"job", std::string_view(name)},
                 {"bytes_raw", m.shuffle_bytes_raw},
                 {"bytes_wire", m.shuffle_bytes_wire}});
    events.emit(EventLevel::Info, EventCategory::Reduce, "reduce-phase-done",
                sim0 + m.sched_delay_s + m.map_time_s + m.reduce_time_s,
                {{"job", std::string_view(name)}, {"tasks", m.reduce.tasks},
                 {"input_records", m.reduce.input_records},
                 {"makespan_s", m.reduce_time_s}});
  }
  if (m.failed)
    events.emit(EventLevel::Error, EventCategory::Fault, "job-failed",
                sim0 + m.total_time_s(),
                {{"job", std::string_view(name)},
                 {"reason", std::string_view(m.fail_reason)},
                 {"sim_total_s", m.total_time_s()}});
  else
    events.emit(EventLevel::Info, EventCategory::PostJob, "job-done",
                sim0 + m.total_time_s(),
                {{"job", std::string_view(name)}, {"retries", retries},
                 {"dfs_write_bytes", m.dfs_write_bytes},
                 {"sim_total_s", m.total_time_s()}});

  progress.job_done(job);
  samples.record_job(std::move(job));
}

void ObsContext::clear() {
  tracer.clear();
  metrics.clear();
  samples.clear();
  events.clear();
  progress.clear();
  history.clear();
  profiler.clear();  // keeps its enabled state, drops recorded phases
  plans.clear();     // likewise: keeps enabled, drops predictions/reports
  query_sim0_ = 0;
  query_sql_.clear();
  query_profile_.clear();
  in_wave_ = false;
}

}  // namespace ysmart::obs
