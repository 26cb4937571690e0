// Progress reporting for an in-flight query DAG.
//
// The tracker is fed at query, wave and job granularity by ObsContext
// (obs/obs.h), always from the orchestrating thread. A job appears in
// the snapshot when it completes, built from its JobRecord; tasks in
// flight are not shown. The contents are deterministic for a fixed seed
// at any pool size; only *when* updates become visible depends on the
// host.
//
// Consumers take an immutable ProgressSnapshot: the shell renders the
// latest one as \top, and bench binaries install an on-update callback
// (--progress) that prints one line per completed job. The callback is
// invoked from the orchestrating thread after the tracker's lock is
// released; callbacks must not re-enter the tracker's mutators.
//
// ETA: the modeled remaining time is the mean simulated time of the
// completed jobs times the jobs not yet completed. It is an estimate on
// the *simulated* axis (how much modeled time is left, the quantity the
// paper's figures compare), not a host wall-clock forecast.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/task_samples.h"

namespace ysmart::obs {

struct PhaseProgress {
  std::size_t tasks = 0;
  int stragglers = 0;  // tasks > 2x the lower median (the analyzer's rule)
};

/// One completed job.
struct JobProgress {
  std::string name;
  int wave = -1;
  bool map_only = false;
  bool failed = false;
  PhaseProgress map;
  PhaseProgress reduce;  // simulated partitions (what actually executes)
  double sim_total_s = 0;
};

struct ProgressSnapshot {
  bool active = false;  // a query is currently executing
  std::uint64_t queries_started = 0;
  std::uint64_t queries_finished = 0;
  std::string sql;
  std::string profile;
  std::size_t total_jobs = 0;  // known up front from the translated DAG
  std::size_t jobs_done = 0;
  int current_wave = -1;
  int waves_done = 0;
  bool failed = false;
  std::vector<JobProgress> jobs;  // completed jobs, in completion order
  double sim_done_s = 0;  // completed-task sim seconds across the query
  double sim_elapsed_s = 0;  // final modeled elapsed; set at end_query
  double eta_s = -1;  // estimated remaining simulated seconds; <0 unknown

  std::size_t tasks_done() const;  // tasks of the completed jobs

  /// Multi-line rendering for the shell's \top.
  std::string render() const;
};

class ProgressTracker {
 public:
  using Callback = std::function<void(const ProgressSnapshot&)>;

  /// Install a callback invoked (from the orchestrating thread, outside
  /// the tracker's lock) after every update. Null disables.
  void set_callback(Callback cb);

  void begin_query(std::string sql, std::string profile,
                   std::size_t total_jobs);
  void begin_wave(int wave);
  /// One job of the current wave completed.
  void job_done(const JobRecord& job);
  void end_query(bool failed, double sim_elapsed_s);

  ProgressSnapshot snapshot() const;

  void clear();

 private:
  void notify();  // invoke the callback with a fresh snapshot, unlocked

  mutable std::mutex mu_;
  ProgressSnapshot state_;
  Callback callback_;
};

}  // namespace ysmart::obs
