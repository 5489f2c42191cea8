#include "decompose.h"

#include <map>
#include <vector>

#include "audit/accessed_state.h"
#include "audit/placement.h"
#include "binder/binder.h"
#include "common/mutex.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

namespace seltrig::bench {

namespace {

std::string DescribeIds(const std::vector<Value>& ids) {
  std::string out = "{";
  for (size_t i = 0; i < ids.size() && i < 8; ++i) {
    if (i > 0) out += ", ";
    out += ids[i].ToString();
  }
  if (ids.size() > 8) out += ", ...";
  return out + "}";
}

}  // namespace

Status DecomposeSelect(Database* db, const std::string& sql, const ExecOptions& options,
                       const StatementResult& expected, Tracer* tracer,
                       Tracer::Buffer* buffer, uint64_t parent, StageSample* sample) {
  // Stage timings; spans are added once the shared hold is released.
  struct Stage {
    const char* name;
    const char* layer;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Stage> stages;
  QueryResult rows;
  AccessedStateRegistry registry;
  {
    ReaderMutexLock read_lock(&db->storage_mutex());
    Clock::time_point t = Clock::now();
    auto mark = [&](const char* name, const char* layer) {
      const Clock::time_point now = Clock::now();
      stages.push_back({name, layer, t, now});
      t = now;
    };

    SELTRIG_ASSIGN_OR_RETURN(ast::StatementPtr stmt, ParseSql(sql));
    mark("ParseSql", "sql");
    if (stmt->kind != ast::StatementKind::kSelect) {
      return Status::InvalidArgument("not a SELECT: " + sql);
    }
    const ast::SelectStatement& select = *static_cast<ast::SelectWrapper&>(*stmt).select;

    Binder binder(db->catalog());
    SELTRIG_ASSIGN_OR_RETURN(PlanPtr plan, binder.BindSelect(select));
    mark("Binder::BindSelect", "binder");

    OptimizerOptions opt_options = options.optimizer;
    opt_options.catalog = db->catalog();
    for (const AuditExpressionDef* def : db->audit_manager()->All()) {
      opt_options.audit_keys.push_back(
          {def->sensitive_table(), def->partition_column(), def->partition_by()});
    }
    SELTRIG_ASSIGN_OR_RETURN(plan, OptimizePlan(std::move(plan), opt_options));
    mark("OptimizePlan", "optimizer");

    bool instrumented = false;
    if (options.enable_select_triggers) {
      for (const std::string& name : db->trigger_manager()->AuditedExpressionNames()) {
        const AuditExpressionDef* def = db->audit_manager()->Find(name);
        if (def == nullptr) continue;
        PlacementOptions placement;
        placement.heuristic = options.heuristic;
        placement.use_id_view = options.use_id_views;
        placement.use_bloom_filter = options.use_bloom_filters;
        placement.bloom_fp_rate = options.bloom_fp_rate;
        SELTRIG_ASSIGN_OR_RETURN(plan, InstrumentPlan(*plan, *def, placement));
        instrumented = true;
      }
    }
    mark("InstrumentPlan", "audit");

    if (instrumented && options.run_post_placement_rules) {
      SELTRIG_ASSIGN_OR_RETURN(plan,
                               OptimizeInstrumentedPlan(std::move(plan), opt_options));
    }
    mark("OptimizeInstrumentedPlan", "optimizer");

    SessionContext session;
    session.sql_text = sql;
    ExecContext ctx(db->catalog(), &session);
    ctx.set_batch_size(options.batch_size);
    ctx.set_columnar(options.columnar);
    ctx.set_num_threads(options.num_threads);
    ctx.set_accessed(&registry);
    Executor executor(&ctx);
    SELTRIG_ASSIGN_OR_RETURN(rows, executor.ExecuteQuery(*plan, options.max_rows));
    mark("Executor::ExecuteQuery", "exec");
  }

  if (sample != nullptr) {
    double* fields[] = {&sample->parse_us,      &sample->bind_us,
                        &sample->optimize_us,   &sample->place_us,
                        &sample->post_place_us, &sample->execute_us};
    for (size_t i = 0; i < stages.size() && i < 6; ++i) {
      *fields[i] = Micros(stages[i].end - stages[i].start);
    }
  }
  if (buffer != nullptr && tracer != nullptr) {
    for (const Stage& s : stages) {
      buffer->Add({s.name, s.layer, s.start, s.end, tracer->NextId(), parent});
    }
  }

  // Parity with the Session call: same rows, same ACCESSED per expression.
  if (rows.rows != expected.result.rows) {
    return Status::Internal("decomposition parity: " + std::to_string(rows.rows.size()) +
                            " rows vs " + std::to_string(expected.result.rows.size()) +
                            " from the session for: " + sql);
  }
  std::map<std::string, std::vector<Value>> accessed;
  for (const auto& [name, state] : registry.states()) {
    if (state.size() > 0) accessed[name] = state.SortedIds();
  }
  for (const auto& [name, ids] : expected.accessed) {
    auto it = accessed.find(name);
    const std::vector<Value> empty;
    const std::vector<Value>& mine = it == accessed.end() ? empty : it->second;
    if (mine != ids) {
      return Status::Internal("decomposition parity: ACCESSED(" + name + ") " +
                              DescribeIds(mine) + " vs " + DescribeIds(ids) +
                              " from the session for: " + sql);
    }
    if (it != accessed.end()) accessed.erase(it);
  }
  if (!accessed.empty()) {
    return Status::Internal("decomposition parity: ACCESSED(" + accessed.begin()->first +
                            ") recorded only by the decomposition for: " + sql);
  }
  return Status::OK();
}

}  // namespace seltrig::bench
