#include "obs/task_samples.h"

namespace ysmart::obs {

std::uint64_t JobRecord::retries() const {
  std::uint64_t n = 0;
  for (const auto* tasks : {&map_tasks, &reduce_tasks})
    for (const auto& t : *tasks) n += static_cast<std::uint64_t>(t.attempts - 1);
  return n;
}

void TaskSampleStore::begin_query() {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.emplace_back();
  current_wave_ = -1;
}

void TaskSampleStore::set_current_wave(int wave) {
  std::lock_guard<std::mutex> lock(mu_);
  current_wave_ = wave;
}

void TaskSampleStore::record_job(JobRecord job) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queries_.empty()) queries_.emplace_back();
  job.wave = current_wave_;
  queries_.back().jobs.push_back(std::move(job));
}

std::size_t TaskSampleStore::query_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.size();
}

std::size_t TaskSampleStore::total_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& q : queries_) n += q.jobs.size();
  return n;
}

QueryTaskSamples TaskSampleStore::last_query() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.empty() ? QueryTaskSamples{} : queries_.back();
}

void TaskSampleStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.clear();
  current_wave_ = -1;
}

}  // namespace ysmart::obs
