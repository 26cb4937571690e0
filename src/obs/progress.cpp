#include "obs/progress.h"

#include <cmath>

#include "common/strings.h"
#include "obs/analyzer.h"

namespace ysmart::obs {

std::size_t ProgressSnapshot::tasks_done() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.map.tasks + j.reduce.tasks;
  return n;
}

std::string ProgressSnapshot::render() const {
  if (queries_started == 0) return "top: no query observed yet\n";
  std::string out;
  std::string sql_line = sql;
  for (auto& c : sql_line)
    if (c == '\n' || c == '\t') c = ' ';
  if (sql_line.size() > 60) sql_line = sql_line.substr(0, 57) + "...";
  out += strf("query: %s  (profile %s)\n", sql_line.c_str(), profile.c_str());
  out += strf("state: %s  wave %d  jobs %zu/%zu  tasks %zu/%zu\n",
              active ? "RUNNING" : (failed ? "DNF" : "done"),
              current_wave < 0 ? waves_done : current_wave, jobs_done,
              total_jobs, tasks_done(), tasks_done());
  for (const auto& j : jobs) {
    const char* status = j.failed ? "FAILED" : "done";
    if (j.map_only) {
      out += strf("  [w%d] %-28s map %4zu/%-4zu %s%s\n", j.wave,
                  j.name.c_str(), j.map.tasks, j.map.tasks, status,
                  j.map.stragglers > 0
                      ? strf("  (%d straggler(s))", j.map.stragglers).c_str()
                      : "");
    } else {
      out += strf("  [w%d] %-28s map %4zu/%-4zu reduce %4zu/%-4zu %s", j.wave,
                  j.name.c_str(), j.map.tasks, j.map.tasks, j.reduce.tasks,
                  j.reduce.tasks, status);
      const int stragglers = j.map.stragglers + j.reduce.stragglers;
      if (stragglers > 0) out += strf("  (%d straggler(s))", stragglers);
      out += '\n';
    }
  }
  out += strf("sim progress: %.1fs of completed tasks", sim_done_s);
  if (!active && sim_elapsed_s >= 0)
    out += strf("; modeled elapsed %.1fs", sim_elapsed_s);
  else if (eta_s >= 0)
    out += strf("; eta ~%.1fs simulated", eta_s);
  out += '\n';
  return out;
}

void ProgressTracker::set_callback(Callback cb) {
  std::lock_guard<std::mutex> lock(mu_);
  callback_ = std::move(cb);
}

void ProgressTracker::notify() {
  Callback cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!callback_) return;
    cb = callback_;
  }
  cb(snapshot());
}

void ProgressTracker::begin_query(std::string sql, std::string profile,
                                  std::size_t total_jobs) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t started = state_.queries_started + 1;
    const std::uint64_t finished = state_.queries_finished;
    state_ = ProgressSnapshot{};
    state_.queries_started = started;
    state_.queries_finished = finished;
    state_.active = true;
    state_.sql = std::move(sql);
    state_.profile = std::move(profile);
    state_.total_jobs = total_jobs;
  }
  notify();
}

void ProgressTracker::begin_wave(int wave) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_.current_wave = wave;
  }
  notify();
}

void ProgressTracker::job_done(const JobRecord& job) {
  JobProgress j;
  j.name = job.metrics.job_name;
  j.map_only = job.map_only;
  j.failed = job.metrics.failed;
  j.map.tasks = job.map_tasks.size();
  j.map.stragglers = static_cast<int>(phase_stats(job.map_tasks).stragglers.size());
  j.reduce.tasks = job.reduce_tasks.size();
  j.reduce.stragglers =
      static_cast<int>(phase_stats(job.reduce_tasks).stragglers.size());
  j.sim_total_s = job.metrics.total_time_s();
  {
    std::lock_guard<std::mutex> lock(mu_);
    j.wave = state_.current_wave;
    // Task by task, in the order the engine costed them.
    for (const auto* tasks : {&job.map_tasks, &job.reduce_tasks})
      for (const auto& t : *tasks) state_.sim_done_s += t.sim_seconds;
    state_.jobs.push_back(std::move(j));
    ++state_.jobs_done;
    if (state_.current_wave >= state_.waves_done)
      state_.waves_done = state_.current_wave + 1;
  }
  notify();
}

void ProgressTracker::end_query(bool failed, double sim_elapsed_s) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_.active = false;
    state_.failed = failed;
    state_.sim_elapsed_s = sim_elapsed_s;
    state_.current_wave = -1;
    ++state_.queries_finished;
  }
  notify();
}

ProgressSnapshot ProgressTracker::snapshot() const {
  ProgressSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap = state_;
  }
  // Estimate the remaining simulated seconds from the completed jobs.
  if (!snap.active) {
    snap.eta_s = 0;
    return snap;
  }
  if (snap.jobs.empty()) return snap;  // nothing completed: eta unknown (-1)
  double done_job_s = 0;
  for (const auto& j : snap.jobs) done_job_s += j.sim_total_s;
  const std::size_t not_done =
      snap.total_jobs > snap.jobs.size() ? snap.total_jobs - snap.jobs.size()
                                         : 0;
  const double eta = done_job_s / static_cast<double>(snap.jobs.size()) *
                     static_cast<double>(not_done);
  // Defensive: a non-finite estimate (poisoned sim input) renders as
  // "nan"/"inf" in \top; keep eta at -1 ("unknown") instead.
  if (std::isfinite(eta)) snap.eta_s = eta;
  return snap;
}

void ProgressTracker::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = ProgressSnapshot{};
}

}  // namespace ysmart::obs
