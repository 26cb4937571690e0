#include "cmf/common_job.h"

#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>

#include "common/error.h"
#include "common/normkey.h"
#include "common/strings.h"
#include "exec/aggregates.h"
#include "exec/batch.h"
#include "exec/expr_eval.h"
#include "exec/operators.h"
#include "exec/vector_kernels.h"

namespace ysmart {

namespace {

// ---------- compiled (bind-once) job state shared by all tasks ----------

struct CompiledConsumer {
  int bit = 0;
  BoundExpr filter;  // over the emission's input file schema; may be unbound
  bool has_filter = false;
};

struct CompiledEmission {
  int input_file = 0;
  int source_tag = 0;
  std::vector<BoundExpr> keys;
  std::vector<BoundExpr> values;
  std::vector<CompiledConsumer> consumers;
};

/// One merged operation or post-job computation, prepared once per job
/// (exec/operators.h); only the member matching op->kind is bound.
struct CompiledStage {
  const PlanNode* op = nullptr;
  std::vector<Stage::In> inputs;
  int output_index = -1;

  PreparedFilterProject sp;  // SP, and Scan in map-only jobs
  GroupJoinSpec join;
  PreparedAgg agg;
  PreparedSort sort;
};

struct CompiledJob {
  std::vector<CompiledEmission> emissions;   // grouped by input file below
  std::vector<std::vector<int>> emissions_by_file;
  std::vector<CompiledStage> stages;
  /// Consumer bit -> dense slot index (-1 = no consumer); the visibility
  /// mask bounds bits to [0, 32).
  std::array<int, 32> consumer_bit_to_slot;
  int num_consumers = 0;

  // CombineAgg state
  const PlanNode* combine_agg = nullptr;
  std::vector<BoundExpr> combine_group_exprs;
  std::vector<BoundExpr> combine_arg_exprs;    // unbound slot for star
  BoundExpr combine_filter;
  bool combine_has_filter = false;
  PreparedAgg combine_final;  // projections + HAVING of the reduce side

  CompiledJob() { consumer_bit_to_slot.fill(-1); }
};

// ------------------------------ mappers ------------------------------

class CommonMapper final : public Mapper {
 public:
  explicit CommonMapper(std::shared_ptr<const CompiledJob> cj) : cj_(std::move(cj)) {}

  // Emission-major: each emission runs its filters and key/value
  // expressions over the whole batch before the next emission starts.
  // Every emission has a unique source tag, so within one (key, source)
  // run of the map-side sort the records still keep record order.
  void map(ColumnBatch& batch, int input_tag, MapEmitter& out) override {
    const std::size_t n = batch.rows();
    for (int ei : cj_->emissions_by_file[static_cast<std::size_t>(input_tag)]) {
      const CompiledEmission& e = cj_->emissions[static_cast<std::size_t>(ei)];
      if (e.consumers.empty()) continue;  // nothing is ever visible
      // Consumer visibility over the whole batch: every consumer filter
      // is evaluated for every record (no short-circuit).
      exclude_.assign(n, 0);
      std::uint32_t full_mask = 0;
      for (const auto& c : e.consumers) {
        full_mask |= (1u << c.bit);
        if (!c.has_filter) continue;  // visible to this consumer everywhere
        BatchVector fv;
        if (eval_expr_batch(c.filter, batch, fv)) {
          for (std::size_t k = 0; k < n; ++k)
            if (!fv.truthy(k)) exclude_[k] |= (1u << c.bit);
        } else {
          for (std::size_t k = 0; k < n; ++k)
            if (!is_true(c.filter.eval(batch.source_row(k))))
              exclude_[k] |= (1u << c.bit);
        }
      }
      // A record is emitted iff at least one consumer sees it.
      sel_.clear();
      for (std::size_t k = 0; k < n; ++k)
        if (exclude_[k] != full_mask)
          sel_.push_back(static_cast<std::uint32_t>(k));
      if (sel_.empty()) continue;
      // Key/value expressions run only over the visible records.
      ColumnBatch selected = batch.select(sel_);
      key_cols_.resize(e.keys.size());
      key_ok_.resize(e.keys.size());
      for (std::size_t j = 0; j < e.keys.size(); ++j)
        key_ok_[j] = eval_expr_batch(e.keys[j], selected, key_cols_[j]);
      val_cols_.resize(e.values.size());
      val_ok_.resize(e.values.size());
      for (std::size_t j = 0; j < e.values.size(); ++j)
        val_ok_[j] = eval_expr_batch(e.values[j], selected, val_cols_[j]);
      for (std::size_t r = 0; r < selected.rows(); ++r) {
        Row key;
        key.reserve(e.keys.size());
        for (std::size_t j = 0; j < e.keys.size(); ++j)
          key.push_back(key_ok_[j] ? key_cols_[j].value_at(r)
                                   : e.keys[j].eval(selected.source_row(r)));
        Row value;
        value.reserve(e.values.size());
        for (std::size_t j = 0; j < e.values.size(); ++j)
          value.push_back(val_ok_[j]
                              ? val_cols_[j].value_at(r)
                              : e.values[j].eval(selected.source_row(r)));
        out.emit(std::move(key), std::move(value),
                 static_cast<std::uint8_t>(e.source_tag), exclude_[sel_[r]]);
      }
    }
  }

 private:
  std::shared_ptr<const CompiledJob> cj_;
  // Per-batch scratch (a mapper instance serves one map task, serially).
  std::vector<std::uint32_t> exclude_;
  std::vector<std::uint32_t> sel_;
  std::vector<BatchVector> key_cols_, val_cols_;
  std::vector<char> key_ok_, val_ok_;
};

/// Map-only SELECTION-PROJECTION job: emits the projected row as the
/// value; the engine writes values straight to the output file.
class SpMapper final : public Mapper {
 public:
  explicit SpMapper(std::shared_ptr<const CompiledJob> cj) : cj_(std::move(cj)) {}

  // Map-only output is written in emit order, so this stays record-major.
  void map(ColumnBatch& batch, int /*input_tag*/, MapEmitter& out) override {
    cj_->stages.at(0).sp.run_batch(batch, scratch_, rows_);
    for (auto& r : rows_) out.emit(Row{}, std::move(r));
    rows_.clear();
  }

 private:
  std::shared_ptr<const CompiledJob> cj_;
  // Per-batch scratch (a mapper instance serves one map task, serially).
  PreparedFilterProject::Scratch scratch_;
  std::vector<Row> rows_;
};

/// Hash-based map-side partial aggregation (CombineAgg jobs), keyed by
/// the normalized key bytes (common/normkey.h): one encode plus a string
/// hash per record instead of the O(log groups) cell-by-cell Row
/// comparisons the previous std::map paid, and the encoding is handed to
/// the emitter so the engine never re-encodes these keys.
class CombineAggMapper final : public Mapper {
 public:
  explicit CombineAggMapper(std::shared_ptr<const CompiledJob> cj)
      : cj_(std::move(cj)) {}

  // Filter, group-key and aggregate-argument expressions run as kernels
  // over the (selected) batch; the per-record loop only builds keys,
  // normalizes them (one append_norm_key per cell) and feeds the typed
  // aggregate adds. Emission happens in finish(), so record order is
  // irrelevant here beyond keep-first min/max tie-breaks, which the
  // typed adds preserve.
  void map(ColumnBatch& batch, int /*input_tag*/, MapEmitter& /*out*/) override {
    const std::size_t n = batch.rows();
    sel_.clear();
    if (cj_->combine_has_filter) {
      BatchVector fv;
      if (eval_expr_batch(cj_->combine_filter, batch, fv)) {
        collect_passing(fv, n, sel_);
      } else {
        for (std::size_t k = 0; k < n; ++k)
          if (is_true(cj_->combine_filter.eval(batch.source_row(k))))
            sel_.push_back(static_cast<std::uint32_t>(k));
      }
    } else {
      for (std::size_t k = 0; k < n; ++k)
        sel_.push_back(static_cast<std::uint32_t>(k));
    }
    if (sel_.empty()) return;
    ColumnBatch selected = batch.select(sel_);
    const auto& aggs = cj_->combine_agg->aggs;
    group_cols_.resize(cj_->combine_group_exprs.size());
    group_ok_.resize(cj_->combine_group_exprs.size());
    for (std::size_t j = 0; j < cj_->combine_group_exprs.size(); ++j)
      group_ok_[j] =
          eval_expr_batch(cj_->combine_group_exprs[j], selected, group_cols_[j]);
    arg_cols_.resize(aggs.size());
    arg_ok_.resize(aggs.size());
    for (std::size_t i = 0; i < aggs.size(); ++i)
      arg_ok_[i] = !aggs[i].star && eval_expr_batch(cj_->combine_arg_exprs[i],
                                                    selected, arg_cols_[i]);
    for (std::size_t r = 0; r < selected.rows(); ++r) {
      Row key;
      key.reserve(cj_->combine_group_exprs.size());
      for (std::size_t j = 0; j < cj_->combine_group_exprs.size(); ++j)
        key.push_back(group_ok_[j] ? group_cols_[j].value_at(r)
                                   : cj_->combine_group_exprs[j].eval(
                                         selected.source_row(r)));
      norm_scratch_.clear();
      for (const auto& v : key) append_norm_key(v, norm_scratch_);
      auto it = groups_.find(norm_scratch_);
      if (it == groups_.end()) {
        Group g;
        g.key = std::move(key);
        for (const auto& a : aggs) g.states.emplace_back(a);
        it = groups_.emplace(norm_scratch_, std::move(g)).first;
      }
      for (std::size_t i = 0; i < aggs.size(); ++i) {
        if (aggs[i].star)
          it->second.states[i].add(Value{std::int64_t{1}});
        else if (arg_ok_[i])
          add_to_agg(it->second.states[i], arg_cols_[i], r);
        else
          it->second.states[i].add(
              cj_->combine_arg_exprs[i].eval(selected.source_row(r)));
      }
    }
  }

  void finish(MapEmitter& out) override {
    // Emit in normalized-key byte order — the same order the previous
    // RowLess-sorted map iterated in (memcmp order over the encoding is
    // exactly compare_rows order), keeping map output deterministic
    // across standard-library hash-table implementations.
    std::vector<decltype(groups_)::value_type*> sorted;
    sorted.reserve(groups_.size());
    for (auto& entry : groups_) sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) {
                return norm_key_compare(a->first, b->first) < 0;
              });
    for (auto* entry : sorted) {
      Row partial;
      for (const auto& s : entry->second.states) s.to_partial(partial);
      KeyValue kv;
      kv.key = std::move(entry->second.key);
      kv.value = std::move(partial);
      kv.norm_key = entry->first;  // map key is const; one copy per group
      out.emit(std::move(kv));
    }
    groups_.clear();
  }

 private:
  struct Group {
    Row key;
    std::vector<AggState> states;
  };
  std::shared_ptr<const CompiledJob> cj_;
  std::unordered_map<std::string, Group> groups_;
  std::string norm_scratch_;
  // Per-batch scratch (a mapper instance serves one map task, serially).
  std::vector<std::uint32_t> sel_;
  std::vector<BatchVector> group_cols_, arg_cols_;
  std::vector<char> group_ok_, arg_ok_;
};

// ------------------------------ reducers ------------------------------

/// One instance per reduce task. Every stage is prepared in
/// build_common_job; the task owns only per-group scratch, cleared (not
/// reallocated) between key groups. Consumers read the shuffled values in
/// place through pointers.
class CommonReducer final : public Reducer {
 public:
  explicit CommonReducer(std::shared_ptr<const CompiledJob> cj)
      : cj_(std::move(cj)),
        consumer_rows_(static_cast<std::size_t>(cj_->num_consumers)),
        stage_rows_(cj_->stages.size()),
        scratch_(cj_->stages.size()) {}

  void reduce(const Row& /*key*/, std::span<const KeyValue> values,
              ReduceEmitter& out) override {
    // One pass over the value list, dispatching each value to the merged
    // reducers that can see it (paper Algorithm 1).
    for (auto& rows : consumer_rows_) rows.clear();
    for (const auto& kv : values) {
      const CompiledEmission& e =
          cj_->emissions[static_cast<std::size_t>(kv.source)];
      for (const auto& c : e.consumers)
        if (kv.visible_to(c.bit))
          consumer_rows_[slot(c.bit)].push_back(&kv.value);
    }
    // Evaluate merged operations and post-job computations in order.
    for (std::size_t s = 0; s < cj_->stages.size(); ++s) {
      const CompiledStage& st = cj_->stages[s];
      StageScratch& sc = scratch_[s];
      std::vector<Row>& rows = stage_rows_[s];
      rows.clear();
      switch (st.op->kind) {
        case PlanKind::Join:
          st.join.run(input(st.inputs[0]), input(st.inputs[1]), sc.join, rows);
          break;
        case PlanKind::Agg:
          st.agg.run(input(st.inputs[0]), sc.agg, rows);
          break;
        case PlanKind::SP:
          st.sp.run(input(st.inputs[0]), sc.sp, rows);
          break;
        case PlanKind::Sort:
          st.sort.run(input(st.inputs[0]), sc.sort, rows);
          break;
        case PlanKind::Scan:
          throw InternalError("scan cannot be a reduce stage");
      }
      if (st.output_index >= 0)
        for (auto& r : rows) out.emit_to(st.output_index, std::move(r));
    }
  }

 private:
  struct StageScratch {
    PreparedFilterProject::Scratch sp;
    GroupJoinSpec::Scratch join;
    PreparedAgg::Scratch agg;
    PreparedSort::Scratch sort;
  };

  std::size_t slot(int bit) const {
    return static_cast<std::size_t>(
        cj_->consumer_bit_to_slot[static_cast<std::size_t>(bit)]);
  }
  RowRefs input(const Stage::In& in) const {
    if (in.from_consumer) return consumer_rows_[slot(in.index)];
    return stage_rows_[static_cast<std::size_t>(in.index)];
  }

  std::shared_ptr<const CompiledJob> cj_;
  std::vector<std::vector<const Row*>> consumer_rows_;  // by dense slot
  std::vector<std::vector<Row>> stage_rows_;
  std::vector<StageScratch> scratch_;
};

class CombineAggReducer final : public Reducer {
 public:
  explicit CombineAggReducer(std::shared_ptr<const CompiledJob> cj)
      : cj_(std::move(cj)) {
    for (const auto& a : cj_->combine_final.aggs()) states_.emplace_back(a);
  }

  void reduce(const Row& key, std::span<const KeyValue> values,
              ReduceEmitter& out) override {
    for (auto& s : states_) s.reset();
    for (const auto& kv : values) {
      std::size_t pos = 0;
      for (auto& s : states_) {
        const std::size_t n = static_cast<std::size_t>(s.partial_arity());
        s.add_partial(std::span<const Value>(kv.value.data() + pos, n));
        pos += n;
      }
    }
    cj_->combine_final.finish_group(key, states_, internal_, rows_);
    for (auto& r : rows_) out.emit_to(0, std::move(r));
    rows_.clear();
  }

 private:
  std::shared_ptr<const CompiledJob> cj_;
  std::vector<AggState> states_;
  Row internal_;
  std::vector<Row> rows_;
};

}  // namespace

MRJobSpec build_common_job(const TranslatedJob& job,
                           const TranslatorProfile& profile, const Dfs& dfs) {
  auto cj = std::make_shared<CompiledJob>();
  MRJobSpec spec;
  spec.name = job.name;
  spec.outputs = job.outputs;
  spec.num_reduce_tasks = job.num_reduce_tasks;
  spec.map_cpu_multiplier = profile.map_cpu_multiplier;
  spec.reduce_cpu_multiplier = profile.reduce_cpu_multiplier;
  spec.intermediate_expansion = profile.intermediate_expansion;
  {
    // "Hive cannot efficiently execute join with temporarily-generated
    // inputs" (Section VII-F): joins fed only by intermediates pay the
    // profile's penalty in the reduce phase.
    const bool has_join = std::any_of(
        job.stages.begin(), job.stages.end(),
        [](const Stage& s) { return s.op->kind == PlanKind::Join; });
    const bool all_temp_inputs =
        !job.input_files.empty() &&
        std::none_of(job.input_files.begin(), job.input_files.end(),
                     [](const InputFile& f) {
                       return starts_with(f.path, "/tables/");
                     });
    if (has_join && all_temp_inputs)
      spec.reduce_cpu_multiplier *= profile.temp_input_join_penalty;
  }
  spec.tag_encoding = profile.tag_encoding;
  spec.num_merged_jobs = std::max(1, job.total_consumers());

  // Inputs and their runtime schemas.
  std::vector<Schema> file_schemas;
  for (std::size_t i = 0; i < job.input_files.size(); ++i) {
    spec.inputs.push_back(JobInput{job.input_files[i].path, static_cast<int>(i)});
    file_schemas.push_back(dfs.file(job.input_files[i].path).table->schema());
  }

  // ---- CombineAgg fast path ----
  if (job.kind == TranslatedJob::Kind::CombineAgg) {
    const PlanNode* agg = job.combine_agg_node;
    check(agg != nullptr, "CombineAgg job without agg node");
    cj->combine_agg = agg;
    const Schema& fs = file_schemas.at(0);
    const PlanNode* child = agg->children[0].get();
    if (child->kind == PlanKind::Scan && child->filter) {
      cj->combine_filter = BoundExpr(child->filter, fs);
      cj->combine_has_filter = true;
    }
    for (const auto& g : agg->group_cols) {
      cj->combine_group_exprs.emplace_back(Expr::make_column(g), fs);
      spec.key_column_names.push_back(g);
    }
    for (const auto& a : agg->aggs) {
      if (a.star)
        cj->combine_arg_exprs.emplace_back();
      else
        cj->combine_arg_exprs.emplace_back(a.arg, fs);
    }
    cj->combine_final = PreparedAgg(*agg);
    spec.make_mapper = [cj] { return std::make_unique<CombineAggMapper>(cj); };
    spec.make_reducer = [cj] { return std::make_unique<CombineAggReducer>(cj); };
    return spec;
  }

  // Reduce key names for observability: every emission shares one
  // partition-key shape, so the first emission's key expressions name it.
  if (!job.emissions.empty())
    for (const auto& k : job.emissions.front().key_exprs)
      spec.key_column_names.push_back(k->to_string());

  // ---- compile emissions ----
  cj->emissions_by_file.resize(job.input_files.size());
  for (const auto& e : job.emissions) {
    CompiledEmission ce;
    ce.input_file = e.input_file;
    ce.source_tag = e.source_tag;
    const Schema& fs = file_schemas.at(static_cast<std::size_t>(e.input_file));
    for (const auto& k : e.key_exprs) ce.keys.emplace_back(k, fs);
    for (const auto& v : e.value_exprs) ce.values.emplace_back(v, fs);
    for (const auto& c : e.consumers) {
      CompiledConsumer cc;
      // The visibility tag is a 32-bit exclude mask (KeyValue::exclude);
      // a consumer id outside [0, 32) would shift out of range at map
      // time, so reject it once here at job-compile time.
      check(c.consumer_id >= 0 && c.consumer_id < 32,
            "consumer id does not fit the 32-bit visibility mask");
      cc.bit = c.consumer_id;
      if (c.filter) {
        cc.filter = BoundExpr(c.filter, fs);
        cc.has_filter = true;
      }
      cj->consumer_bit_to_slot[c.consumer_id] = cj->num_consumers++;
      ce.consumers.push_back(std::move(cc));
    }
    cj->emissions_by_file[static_cast<std::size_t>(e.input_file)].push_back(
        static_cast<int>(cj->emissions.size()));
    // Note: the reducer indexes emissions by source_tag; lowering assigns
    // source tags equal to the emission's position in job.emissions.
    check(ce.source_tag == static_cast<int>(cj->emissions.size()),
          "emission source tags must be dense and ordered");
    cj->emissions.push_back(std::move(ce));
  }

  // ---- compile stages ----
  for (const auto& st : job.stages) {
    CompiledStage cs;
    cs.op = st.op;
    cs.inputs = st.inputs;
    cs.output_index = st.output_index;
    for (const auto& in : st.inputs)
      check(!in.from_consumer || job.kind == TranslatedJob::Kind::MapOnly ||
                (in.index >= 0 && in.index < 32 &&
                 cj->consumer_bit_to_slot[static_cast<std::size_t>(in.index)] >= 0),
            "stage reads a consumer no emission feeds");
    switch (st.op->kind) {
      case PlanKind::Join:
        cs.join = GroupJoinSpec(*st.op);
        break;
      case PlanKind::SP:
        cs.sp = PreparedFilterProject(*st.op, st.op->children[0]->output_schema);
        break;
      case PlanKind::Agg:
        cs.agg = PreparedAgg(*st.op);
        break;
      case PlanKind::Sort:
        cs.sort = PreparedSort(*st.op);
        break;
      case PlanKind::Scan:
        // Scan stages occur only in map-only scan jobs: selection and
        // projection bind against the base file's schema directly.
        check(job.kind == TranslatedJob::Kind::MapOnly,
              "scan stage outside a map-only job");
        cs.sp = PreparedFilterProject(*st.op, file_schemas.at(0));
        break;
    }
    cj->stages.push_back(std::move(cs));
  }

  if (job.kind == TranslatedJob::Kind::MapOnly) {
    check(cj->stages.size() == 1 && (cj->stages[0].op->kind == PlanKind::SP ||
                                     cj->stages[0].op->kind == PlanKind::Scan),
          "map-only jobs must be a single SP or scan stage");
    spec.make_mapper = [cj] { return std::make_unique<SpMapper>(cj); };
    spec.make_reducer = nullptr;
    return spec;
  }

  spec.make_mapper = [cj] { return std::make_unique<CommonMapper>(cj); };
  spec.make_reducer = [cj] { return std::make_unique<CommonReducer>(cj); };
  return spec;
}

}  // namespace ysmart
