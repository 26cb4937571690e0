#include "api/database.h"

#include <chrono>

#include "common/error.h"
#include "common/strings.h"
#include "obs/obs.h"
#include "plan/builder.h"
#include "plan/printer.h"
#include "plan/prune.h"
#include "sql/parser.h"
#include "translator/correlation.h"
#include "translator/lowering.h"
#include "translator/ysmart_translator.h"

namespace ysmart {

Database::Database(ClusterConfig cfg)
    : dfs_(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication),
      engine_(std::make_unique<Engine>(dfs_, cfg)) {}

Database::Database(ClusterConfig cfg, ThreadPool* pool)
    : dfs_(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication),
      engine_(std::make_unique<Engine>(dfs_, cfg, pool)) {}

void Database::create_table(const std::string& name,
                            std::shared_ptr<const Table> data) {
  check(data != nullptr, "create_table: null data");
  catalog_.register_table(name, data->schema());
  stats_.put(name, StatsCatalog::estimate(*data));
  tables_[to_lower(name)] = data;
  dfs_.write(LoweringContext::table_path(to_lower(name)), data);
}

PlanPtr Database::plan(const std::string& sql) const {
  return plan_query(sql, catalog_);
}

TranslatedQuery Database::translate_query(const std::string& sql,
                                          const TranslatorProfile& profile) {
  // Translation runs on the orchestrating thread; the phase clocks this
  // thread over the whole function to attribute its host CPU and
  // allocations.
  obs::PhaseScope translate_phase(obs_, "translate:" + profile.name,
                                  "translate", "translate:" + profile.name,
                                  "translate", /*clock_caller=*/true);
  PlanPtr p;
  {
    obs::ScopedSpan parse_span(obs_, "parse+plan", "translate");
    p = plan(sql);
  }
  const std::string scratch =
      "/scratch/" + profile.name + "/run" + std::to_string(run_counter_++);
  TranslatedQuery q = translate(p, profile, scratch, &stats_, obs_);
  // Plan axis: record the prediction at translate time, before any
  // execution, so the join against actuals is honest (obs/plan_view.h).
  if (obs_ && obs_->plans.enabled())
    obs_->plans.record_prediction(obs::predict_query(
        q, profile, stats_, dfs_, engine_->cluster(), sql));
  translate_phase.arg("jobs", static_cast<std::uint64_t>(q.jobs.size()));
  if (obs_) obs_->translated(profile.name, q.jobs.size());
  return q;
}

std::string Database::explain(const std::string& sql,
                              const TranslatorProfile& profile) {
  PlanPtr p = plan(sql);
  std::string out = "== plan ==\n" + print_plan(p);
  prune_plan(p);
  CorrelationAnalysis ca(p);
  out += "== correlations ==\n" + ca.report();
  const std::string scratch =
      "/scratch/" + profile.name + "/explain" + std::to_string(run_counter_++);
  TranslatedQuery q = translate(p, profile, scratch, &stats_);
  out += "== jobs (" + profile.name + ") ==\n" + q.describe();
  return out;
}

QueryRunResult Database::run(const std::string& sql,
                             const TranslatorProfile& profile) {
  obs::ScopedSpan query_span(obs_, "query:" + profile.name, "query");
  // Bracket the query's whole-process CPU so per-phase sums have a
  // coverage top line to reconcile against (host axis only).
  struct QueryCpuScope {
    obs::HostProfiler* prof;
    explicit QueryCpuScope(obs::HostProfiler* p) : prof(p) {
      if (prof) prof->query_begin();
    }
    ~QueryCpuScope() {
      if (prof) prof->query_end();
    }
  } query_cpu(obs_ ? &obs_->profiler : nullptr);
  // Host wall clock; it lands only in the history record's segregated
  // wall field.
  const auto host0 = std::chrono::steady_clock::now();
  TranslatedQuery q = translate_query(sql, profile);
  if (obs_) obs_->begin_query(sql, profile.name, q.jobs.size());
  QueryRunResult r = run_translated(q, *engine_, profile);
  if (obs_)
    obs_->end_query(r.metrics,
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - host0)
                        .count());
  return r;
}

TableSource Database::table_source() const {
  return [this](const std::string& name) -> std::shared_ptr<const Table> {
    auto it = tables_.find(to_lower(name));
    return it == tables_.end() ? nullptr : it->second;
  };
}

Table Database::run_reference(const std::string& sql) const {
  return execute_plan_ref(plan(sql), table_source());
}

DbmsRunResult Database::run_dbms(const std::string& sql,
                                 DbmsCostConfig cfg) const {
  return execute_plan_dbms(plan(sql), table_source(), cfg);
}

void Database::reconfigure_cluster(ClusterConfig cfg) {
  engine_.reset();
  dfs_ = Dfs(cfg.worker_nodes, cfg.scaled_block_bytes(), cfg.replication);
  engine_ = std::make_unique<Engine>(dfs_, std::move(cfg));
  engine_->set_obs(obs_);
  for (const auto& [name, data] : tables_)
    dfs_.write(LoweringContext::table_path(name), data);
}

void Database::set_observer(obs::ObsContext* obs) {
  obs_ = obs;
  engine_->set_obs(obs);
}

}  // namespace ysmart
