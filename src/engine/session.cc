#include "engine/session.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "common/fault_injector.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "expr/evaluator.h"
#include "sql/parser.h"

namespace seltrig {

namespace {

// The engine's one implicit conversion rule: a value of type `from` may be
// stored as `to` when the types match or both are numeric (INT <-> DOUBLE;
// DOUBLE -> INT truncates). When `v` is given it is converted in place.
bool Coerce(TypeId from, TypeId to, Value* v = nullptr) {
  if (from == to) return true;
  auto numeric = [](TypeId t) { return t == TypeId::kInt || t == TypeId::kDouble; };
  if (!numeric(from) || !numeric(to)) return false;
  if (v != nullptr) {
    *v = to == TypeId::kDouble ? Value::Double(static_cast<double>(v->AsInt()))
                               : Value::Int(static_cast<int64_t>(v->AsDouble()));
  }
  return true;
}

Status CoerceRowToSchema(const Schema& schema, Row* row, const std::string& what) {
  for (size_t i = 0; i < row->size(); ++i) {
    Value& v = (*row)[i];
    if (v.is_null() || Coerce(v.type(), schema.column(i).type, &v)) continue;
    return Status::ExecutionError(what + ": cannot store " +
                                  std::string(TypeName(v.type())) + " into column '" +
                                  schema.column(i).name + "' of type " +
                                  TypeName(schema.column(i).type));
  }
  return Status::OK();
}

// Phase 1 of UPDATE and DELETE: the ids of the live rows passing `filter`
// (every live row when null), collected before anything mutates.
Result<std::vector<size_t>> MatchRows(const Table& table, const Expr* filter,
                                      EvalContext ec) {
  std::vector<size_t> ids;
  for (size_t id = 0; id < table.slot_count(); ++id) {
    if (!table.IsLive(id)) continue;
    if (filter != nullptr) {
      const Row row = table.GetRow(id);
      ec.row = &row;
      SELTRIG_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*filter, ec));
      if (!pass) continue;
    }
    ids.push_back(id);
  }
  return ids;
}

}  // namespace

Session::Session(Database* db)
    : db_(db), engine_mutex_(&db->storage_mutex()) {}

Session::~Session() = default;

Result<QueryResult> Session::Execute(const std::string& sql) {
  ExecOptions options;
  SELTRIG_ASSIGN_OR_RETURN(StatementResult result, ExecuteWithOptions(sql, options));
  return std::move(result.result);
}

Result<StatementResult> Session::ExecuteWithOptions(const std::string& sql,
                                                    const ExecOptions& options) {
  SELTRIG_ASSIGN_OR_RETURN(ast::StatementPtr stmt, ParseSql(sql));
  ctx_.sql_text = sql;
  return ExecuteStatement(*stmt, options, /*depth=*/0, /*action=*/nullptr);
}

Status Session::ExecuteScript(const std::string& sql) {
  SELTRIG_ASSIGN_OR_RETURN(std::vector<ast::StatementPtr> stmts, ParseSqlScript(sql));
  ExecOptions options;
  for (auto& stmt : stmts) {
    ctx_.sql_text = stmt->source;
    Result<StatementResult> result =
        ExecuteStatement(*stmt, options, /*depth=*/0, /*action=*/nullptr);
    SELTRIG_RETURN_IF_ERROR(result.status());
  }
  return Status::OK();
}

void Session::ConfigureBinder(Binder* binder, const ActionContext* action) const {
  if (action == nullptr) return;
  if (action->accessed != nullptr) {
    binder->AddVirtualTable("accessed", *action->accessed);
  }
  if (action->row_schema != nullptr) {
    binder->SetTriggerRowSchema(action->row_schema);
  }
}

Result<StatementResult> Session::ExecuteStatement(ast::Statement& stmt,
                                                  const ExecOptions& options, int depth,
                                                  const ActionContext* action) {
  if (depth > options.guards.max_cascade_depth) {
    return Status::ResourceExhausted(
        "trigger cascade depth limit (" +
        std::to_string(options.guards.max_cascade_depth) + ") exceeded");
  }
  // Top-level = a statement arriving from the client, which owns the locking
  // for everything it cascades into. Nested statements (trigger actions, IF
  // branches) run lock-free under the top-level statement's lock and journal
  // into the top-level statement's buffer.
  const bool top_level = IsTopLevel(depth, action);
  if (!top_level) return DispatchStatement(stmt, options, depth, action);

  // SELECT and EXPLAIN manage the (shared) lock themselves; a SELECT's write
  // phase journals and rolls back inside ExecuteSelect, where the writer lock
  // lives. Every other statement kind can write shared state and is framed
  // here: writer lock + statement undo scope + one journal record.
  if (stmt.kind == ast::StatementKind::kSelect ||
      stmt.kind == ast::StatementKind::kExplain) {
    return FinishTopLevel(DispatchStatement(stmt, options, depth, action));
  }

  Result<StatementResult> result = StatementResult{};
  {
    WriterMutexLock write_lock(engine_mutex_);
    Status committed = CommitUnit(/*journal=*/true, [&] {
      result = DispatchStatement(stmt, options, depth, action);
      return result.status();
    });
    if (!committed.ok()) result = std::move(committed);
  }
  return FinishTopLevel(std::move(result));
}

Status Session::CommitUnit(bool journal, const std::function<Status()>& body) {
  // The whole unit — the statement's own writes plus everything its triggers
  // cascade into — runs in one undo scope, so any failure (including a
  // failed journal append: fail closed) rolls it back completely. Memory
  // state visible after a statement is therefore exactly the state journal
  // replay reproduces: failed statements leave no trace in either.
  TriggerTxnScope txn(this);
  const size_t undo_sp = trigger_undo_.Savepoint();
  const size_t wal_sp = wal_buffer_.size();  // 0 in a top-level unit
  Status status = body();
  // Journal before the writer lock is released so append order matches
  // commit order; the durability wait happens lock-free in FinishTopLevel.
  if (status.ok() && journal) status = WalAppendLocked();
  if (status.ok()) return status;
  SELTRIG_RETURN_IF_ERROR(RollbackTriggerWrites(undo_sp, wal_sp));
  // The rollback keeps what memory keeps: loss-accounting rows, irreversible
  // DDL and quarantine transitions stay buffered. Journal them best-effort:
  // the unit is already failing with `status`, and a second journal error
  // must not mask it.
  if (journal && wal_buffer_.size() > wal_sp) (void)WalAppendLocked();
  return status;
}

Result<StatementResult> Session::FinishTopLevel(Result<StatementResult> result) {
  wal_buffer_.clear();
  const uint64_t pending = wal_pending_commit_;
  const WalPosition pending_pos = wal_pending_pos_;
  wal_pending_commit_ = 0;
  wal_pending_pos_ = WalPosition{};
  if (pending != 0 && WalEnabled()) {
    // No lock held here: group commit batches concurrent sessions' fsyncs.
    Status durable = db_->wal_->WaitDurable(pending);
    // A statement is acknowledged only once its record is on disk; surface a
    // durability failure even when the statement itself succeeded.
    if (result.ok() && !durable.ok()) return durable;
    // Synchronous replication: after the record is locally durable, wait for
    // follower acks up to its position (the shipper's ack mode and follower
    // health decide how long that is; a failure withholds the statement's
    // acknowledgement, never its local durability).
    ReplicationWaiter* waiter = db_->replication_waiter();
    if (result.ok() && waiter != nullptr) {
      Status replicated = waiter->WaitReplicated(pending_pos);
      if (!replicated.ok()) return replicated;
    }
  }
  return result;
}

Result<StatementResult> Session::DispatchStatement(ast::Statement& stmt,
                                                   const ExecOptions& options,
                                                   int depth,
                                                   const ActionContext* action) {
  const bool top_level = IsTopLevel(depth, action);
  switch (stmt.kind) {
    case ast::StatementKind::kSelect:
      return ExecuteSelect(*static_cast<ast::SelectWrapper&>(stmt).select, options,
                           depth, action);
    case ast::StatementKind::kInsert:
      return ExecuteInsert(static_cast<const ast::InsertStatement&>(stmt), options,
                           depth, action);
    case ast::StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const ast::UpdateStatement&>(stmt), options,
                           depth, action);
    case ast::StatementKind::kDelete:
      return ExecuteDelete(static_cast<const ast::DeleteStatement&>(stmt), options,
                           depth, action);
    case ast::StatementKind::kCreateTable:
      return ExecuteDdl(stmt, [&] {
        return ExecuteCreateTable(static_cast<const ast::CreateTableStatement&>(stmt));
      });
    case ast::StatementKind::kCreateAuditExpression:
      return ExecuteDdl(stmt, [&] {
        auto& create = static_cast<ast::CreateAuditExpressionStatement&>(stmt);
        ast::CreateAuditExpressionStatement moved;
        moved.name = std::move(create.name);
        moved.select = std::move(create.select);
        moved.sensitive_table = std::move(create.sensitive_table);
        moved.partition_by = std::move(create.partition_by);
        moved.source = create.source;  // definition_sql for snapshots/replay
        return db_->audit_.CreateAuditExpression(std::move(moved));
      });
    case ast::StatementKind::kCreateTrigger:
      return ExecuteDdl(stmt, [&] {
        return ExecuteCreateTrigger(static_cast<ast::CreateTriggerStatement&>(stmt));
      });
    case ast::StatementKind::kDropTable:
      return ExecuteDdl(stmt, [&] {
        return db_->catalog_.DropTable(static_cast<const ast::DropStatement&>(stmt).name);
      });
    case ast::StatementKind::kDropTrigger:
      return ExecuteDdl(stmt, [&] {
        return db_->triggers_.DropTrigger(
            static_cast<const ast::DropStatement&>(stmt).name);
      });
    case ast::StatementKind::kDropAuditExpression:
      return ExecuteDdl(stmt, [&] {
        return db_->audit_.DropAuditExpression(
            static_cast<const ast::DropStatement&>(stmt).name);
      });
    case ast::StatementKind::kAlterTable:
      return ExecuteDdl(stmt, [&] {
        return ExecuteAlterTable(static_cast<const ast::AlterTableStatement&>(stmt),
                                 options, depth);
      });
    case ast::StatementKind::kIf: {
      auto& if_stmt = static_cast<ast::IfStatement&>(stmt);
      SELTRIG_ASSIGN_OR_RETURN(Value v, EvalStandalone(*if_stmt.condition, options,
                                                       depth, action));
      if (v.is_null() || v.type() != TypeId::kBool || !v.AsBool()) {
        return StatementResult{};
      }
      // A top-level IF already holds the writer lock (taken in the frame), so
      // its branch must run as a nested statement — re-locking the
      // non-recursive mutex from the same thread would deadlock.
      return ExecuteStatement(*if_stmt.then_branch, options, depth == 0 ? 1 : depth,
                              action);
    }
    case ast::StatementKind::kNotify: {
      const auto& notify = static_cast<const ast::NotifyStatement&>(stmt);
      SELTRIG_ASSIGN_OR_RETURN(Value v, EvalStandalone(*notify.message, options, depth,
                                                       action));
      notifications_.push_back(v.type() == TypeId::kString ? v.AsString() : v.ToString());
      return StatementResult{};
    }
    case ast::StatementKind::kRaise: {
      const auto& raise = static_cast<const ast::RaiseStatement&>(stmt);
      SELTRIG_ASSIGN_OR_RETURN(Value v, EvalStandalone(*raise.message, options, depth,
                                                       action));
      return Status::ExecutionError(v.type() == TypeId::kString ? v.AsString()
                                                                : v.ToString());
    }
    case ast::StatementKind::kExplain: {
      const auto& explain = static_cast<const ast::ExplainStatement&>(stmt);
      if (top_level) {
        ReaderMutexLock read_lock(engine_mutex_);
        return ExecuteExplain(explain, options, action);
      }
      // Nested EXPLAIN runs under the top-level statement's lock.
      return ExecuteExplain(explain, options, action);
    }
  }
  return Status::Internal("unhandled statement kind");
}

// --- Journal plumbing ---------------------------------------------------------

bool Session::WalEnabled() const { return db_->wal_ != nullptr; }

Result<StatementResult> Session::ExecuteDdl(const ast::Statement& stmt,
                                            const std::function<Status()>& apply) {
  if (WalEnabled() && stmt.source.empty()) {
    return Status::Unsupported(
        "cannot journal DDL without source text: durable databases require "
        "SQL-driven DDL");
  }
  SELTRIG_RETURN_IF_ERROR(apply());
  // ALTER journals its own WalOp::Ddl record, stamped with the resulting
  // schema version.
  if (WalEnabled() && stmt.kind != ast::StatementKind::kAlterTable) {
    wal_buffer_.push_back(WalOp::Statement(stmt.source));
  }
  return StatementResult{};
}

Status Session::WalAppendLocked() {
  if (!WalEnabled() || wal_buffer_.empty()) return Status::OK();
  uint64_t seq = 0;
  WalPosition pos;
  SELTRIG_RETURN_IF_ERROR(db_->wal_->Append(wal_buffer_, &seq, &pos));
  wal_buffer_.clear();
  // Later appends of the same statement (loss records journaled on the
  // failure path) supersede earlier ones; durability is monotonic in seq.
  wal_pending_commit_ = seq;
  wal_pending_pos_ = pos;
  return Status::OK();
}

// --- SELECT -----------------------------------------------------------------

Result<PlanPtr> Session::PrepareSelectPlan(const ast::SelectStatement& stmt,
                                           const ExecOptions& options,
                                           const ActionContext* action,
                                           PlanValidation* validation) {
  Binder binder(&db_->catalog_);
  ConfigureBinder(&binder, action);
  SELTRIG_ASSIGN_OR_RETURN(PlanPtr plan, binder.BindSelect(stmt));

  const OptimizerOptions opt_options = db_->AuditAwareOptimizerOptions(options.optimizer);
  SELTRIG_ASSIGN_OR_RETURN(plan, OptimizePlan(std::move(plan), opt_options));

  // Audit-operator placement (Section IV-B: after logical optimization).
  std::vector<std::string> audit_names;
  if (options.enable_select_triggers) {
    audit_names = db_->triggers_.AuditedExpressionNames();
  }
  if (options.instrument_all_audit_expressions) {
    for (const AuditExpressionDef* def : db_->audit_.All()) {
      bool present = false;
      for (const std::string& n : audit_names) present = present || n == def->name();
      if (!present) audit_names.push_back(def->name());
    }
  }
  bool instrumented = false;
  for (const std::string& name : audit_names) {
    const AuditExpressionDef* def = db_->audit_.Find(name);
    if (def == nullptr) continue;
    PlacementOptions popts;
    popts.heuristic = options.heuristic;
    popts.use_id_view = options.use_id_views;
    popts.use_bloom_filter = options.use_bloom_filters;
    popts.bloom_fp_rate = options.bloom_fp_rate;
    SELTRIG_ASSIGN_OR_RETURN(plan, InstrumentPlan(*plan, *def, popts));
    instrumented = true;
    if (validation != nullptr) {
      validation->expected.push_back({def->name(), def->sensitive_table()});
    }
  }
  if (validation != nullptr) {
    // kHighestNode is the ablation that deliberately places above
    // non-commutative nodes and may drop the audit when no node exposes the
    // partition key; the linter's placement checks only hold elsewhere.
    const bool ablation = options.heuristic == PlacementHeuristic::kHighestNode;
    validation->check_domination = !ablation;
    validation->check_commutativity = !ablation;
  }
  if (instrumented && options.run_post_placement_rules) {
    SELTRIG_ASSIGN_OR_RETURN(plan,
                             OptimizeInstrumentedPlan(std::move(plan), opt_options));
  }
  return plan;
}

Result<StatementResult> Session::ExecuteExplain(const ast::ExplainStatement& stmt,
                                                const ExecOptions& options,
                                                const ActionContext* action) {
  SELTRIG_ASSIGN_OR_RETURN(
      PlanPtr plan,
      PrepareSelectPlan(*stmt.select, options, action, /*validation=*/nullptr));
  StatementResult result;
  result.plan_text = PlanToString(*plan);
  Column col;
  col.name = "plan";
  col.type = TypeId::kString;
  result.result.schema.AddColumn(col);
  std::string line;
  for (char c : result.plan_text) {
    if (c == '\n') {
      result.result.rows.push_back({Value::String(line)});
      line.clear();
    } else {
      line += c;
    }
  }
  if (!line.empty()) result.result.rows.push_back({Value::String(line)});
  return result;
}

Result<StatementResult> Session::RunSelectQuery(const ast::SelectStatement& stmt,
                                                const ExecOptions& options,
                                                bool top_level,
                                                const ActionContext* action,
                                                AccessedStateRegistry* registry) {
  PlanValidation validation;
  SELTRIG_ASSIGN_OR_RETURN(PlanPtr plan,
                           PrepareSelectPlan(stmt, options, action, &validation));

  ExecContext exec = MakeExecContext(options, top_level);
  exec.set_plan_validation(&validation, plan.get());
  registry->set_limits(
      options.guards.max_accessed_ids > 0
          ? static_cast<size_t>(options.guards.max_accessed_ids)
          : 0,
      options.guards.overflow_policy);
  exec.set_accessed(registry);
  Executor executor(&exec);
  // max_rows models the client reading a prefix of the result, so only the
  // client's own SELECT stops early; trigger-action SELECTs run with the
  // pseudo-row visible.
  StatementResult result;
  SELTRIG_ASSIGN_OR_RETURN(result.result,
                           executor.ExecuteQuery(*plan, top_level ? options.max_rows : -1,
                                                 OuterRows(action)));
  result.stats = exec.stats();
  result.plan_text = PlanToString(*plan);
  result.profile_text = std::move(exec.profile_text());
  for (const auto& [name, state] : registry->states()) {
    result.accessed[name] = state.SortedIds();
  }
  return result;
}

Result<StatementResult> Session::ExecuteSelect(const ast::SelectStatement& stmt,
                                               const ExecOptions& options, int depth,
                                               const ActionContext* action) {
  const bool top_level = IsTopLevel(depth, action);

  // Read phase: plan + execute under the shared lock (top level only; nested
  // SELECTs run under the top-level statement's lock).
  AccessedStateRegistry registry;
  Result<StatementResult> executed = [&]() -> Result<StatementResult> {
    if (!top_level) return RunSelectQuery(stmt, options, top_level, action, &registry);
    ReaderMutexLock read_lock(engine_mutex_);
    return RunSelectQuery(stmt, options, top_level, action, &registry);
  }();
  SELTRIG_RETURN_IF_ERROR(executed.status());
  StatementResult result = std::move(executed).value();

  bool any_overflow = false;
  for (const auto& [name, state] : registry.states()) {
    any_overflow = any_overflow || state.overflowed();
  }
  const bool fire_triggers =
      options.enable_select_triggers &&
      !db_->triggers_.AuditedExpressionNames().empty();
  if (!any_overflow && !fire_triggers) return result;

  // Write phase: loss accounting and trigger actions mutate shared state, so
  // re-acquire the lock exclusively (top level; a nested SELECT inherits the
  // top-level statement's writer lock). The window between the phases is
  // benign: ACCESSED is already fixed, and trigger actions observe the
  // database state current at their own execution (same as any cascading
  // statement). The phase is the SELECT's commit unit; only a top-level
  // SELECT's unit appends a journal record.
  auto write_phase = [&]() -> Status {
    AssertWriterHeld();
    // An ACCESSED set truncated under AccessedOverflowPolicy::kTruncate is a
    // (deliberate, bounded) audit loss; account for it before triggers fire.
    RecordAccessedOverflows(registry);
    if (!fire_triggers) return Status::OK();
    // BEFORE triggers run first: an error in their actions (RAISE) denies
    // the query and the result never reaches the client. AFTER triggers then
    // run; per Section II they execute even when the client read only a
    // prefix of the result.
    SELTRIG_RETURN_IF_ERROR(
        FireSelectTriggers(registry, options, depth, /*before_phase=*/true));
    return FireSelectTriggers(registry, options, depth, /*before_phase=*/false);
  };
  Status phase;
  if (top_level) {
    WriterMutexLock write_lock(engine_mutex_);
    phase = CommitUnit(/*journal=*/true, write_phase);
  } else {
    AssertWriterHeld();
    phase = CommitUnit(/*journal=*/false, write_phase);
  }
  SELTRIG_RETURN_IF_ERROR(phase);
  return result;
}

Status Session::FireSelectTriggers(const AccessedStateRegistry& registry,
                                   const ExecOptions& options, int depth,
                                   bool before_phase) {
  for (const std::string& name : db_->triggers_.AuditedExpressionNames()) {
    const AuditExpressionDef* def = db_->audit_.Find(name);
    if (def == nullptr) continue;
    const AccessedState* state = registry.Find(name);

    // Bind ACCESSED: a single-column relation named after the partition key.
    std::vector<Row> accessed_rows = state == nullptr ? std::vector<Row>{} : state->ToRows();
    Result<Table*> table = db_->catalog_.GetTable(def->sensitive_table());
    SELTRIG_RETURN_IF_ERROR(table.status());
    VirtualTable accessed;
    Column key_col = (*table)->schema().column(def->partition_column());
    key_col.qualifier = "accessed";
    accessed.schema.AddColumn(key_col);
    accessed.rows = &accessed_rows;

    ActionContext action;
    action.accessed = &accessed;

    for (TriggerDef* trigger : db_->triggers_.SelectTriggersFor(name)) {
      if (trigger->before != before_phase) continue;
      SELTRIG_RETURN_IF_ERROR(RunTriggerGuarded(trigger, options, depth, &action));
    }
  }
  return Status::OK();
}

// --- Guarded trigger execution ------------------------------------------------

Session::TriggerTxnScope::TriggerTxnScope(Session* session) : session_(session) {
  if (session_->trigger_txn_depth_++ > 0) return;  // nested scopes share the log
  for (const std::string& name : session_->db_->catalog_.TableNames()) {
    // The loss-accounting table stays outside the transactional scope: its
    // rows must survive any rollback.
    if (name == Database::kAuditErrorsTable) continue;
    Result<Table*> table = session_->db_->catalog_.GetTable(name);
    if (table.ok()) (*table)->set_undo_log(&session_->trigger_undo_);
  }
}

Session::TriggerTxnScope::~TriggerTxnScope() {
  if (--session_->trigger_txn_depth_ > 0) return;
  for (const std::string& name : session_->db_->catalog_.TableNames()) {
    Result<Table*> table = session_->db_->catalog_.GetTable(name);
    if (table.ok()) (*table)->set_undo_log(nullptr);
  }
  session_->trigger_undo_.Clear();
}

Status Session::RunTriggerActions(TriggerDef* trigger, const ExecOptions& options,
                                  int depth, const ActionContext* action) {
  for (ast::StatementPtr& stmt : trigger->actions) {
    SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kTriggerAction));
    Result<StatementResult> result = ExecuteStatement(*stmt, options, depth + 1, action);
    SELTRIG_RETURN_IF_ERROR(result.status());
  }
  return Status::OK();
}

Status Session::RollbackTriggerWrites(size_t savepoint, size_t wal_savepoint) {
  // Rollback and view rebuilds must not themselves hit fault points, or a
  // single injected failure could corrupt the engine instead of isolating
  // the trigger.
  fault::ScopedSuspend suspend;
  // Journal parity: drop the undone physical ops from the pending record but
  // keep what memory keeps — loss-accounting rows (their table is excluded
  // from the undo scope), DDL, and quarantine transitions.
  if (wal_buffer_.size() > wal_savepoint) {
    std::vector<WalOp> kept;
    for (size_t i = wal_savepoint; i < wal_buffer_.size(); ++i) {
      WalOp& op = wal_buffer_[i];
      const bool physical = op.kind == WalOp::Kind::kInsert ||
                            op.kind == WalOp::Kind::kDelete ||
                            op.kind == WalOp::Kind::kUpdate;
      if (!physical || op.table == Database::kAuditErrorsTable) {
        kept.push_back(std::move(op));
      }
    }
    wal_buffer_.resize(wal_savepoint);
    for (WalOp& op : kept) wal_buffer_.push_back(std::move(op));
  }
  std::vector<std::string> touched;
  SELTRIG_RETURN_IF_ERROR(trigger_undo_.RollbackTo(savepoint, &touched));
  if (touched.empty()) return Status::OK();
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  // Sensitive-ID views were maintained incrementally while the now-undone
  // rows were written; rebuild every view over a touched table.
  for (const AuditExpressionDef* def : db_->audit_.All()) {
    bool affected = false;
    for (const std::string& table : def->referenced_tables()) {
      affected = affected || std::binary_search(touched.begin(), touched.end(), table);
    }
    if (!affected) continue;
    SELTRIG_RETURN_IF_ERROR(
        db_->audit_.RebuildView(db_->audit_.FindMutable(def->name())));
  }
  return Status::OK();
}

Status Session::RunTriggerGuarded(TriggerDef* trigger, const ExecOptions& options,
                                  int depth, const ActionContext* action) {
  // BEFORE-phase triggers always fail closed: erroring (RAISE) is how they
  // deny a query, so their failures propagate untouched -- but only after
  // their partial writes are rolled back.
  bool fail_open = !trigger->before &&
                   options.audit_failure_policy == AuditFailurePolicy::kFailOpen;
  int attempts = 1 + (fail_open ? std::max(0, options.guards.fail_open_retries) : 0);

  TriggerTxnScope txn(this);
  Status last;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    size_t savepoint = trigger_undo_.Savepoint();
    size_t wal_savepoint = wal_buffer_.size();
    last = RunTriggerActions(trigger, options, depth, action);
    if (last.ok()) {
      db_->triggers_.RecordSuccess(trigger->name);
      return Status::OK();
    }
    // The audit log must never hold a partial action list: undo this run
    // before retrying or reporting. A failed rollback is an engine-invariant
    // violation and always aborts the statement.
    SELTRIG_RETURN_IF_ERROR(RollbackTriggerWrites(savepoint, wal_savepoint));
  }
  if (trigger->before) return last;

  int failures = db_->triggers_.RecordFailure(trigger->name);
  bool quarantined = false;
  if (fail_open && options.guards.quarantine_after > 0 &&
      failures >= options.guards.quarantine_after) {
    // Cannot fail: `trigger` was just looked up and DROP TRIGGER is
    // serialized behind the engine writer lock this phase holds, so the
    // NotFound arm is unreachable here.
    (void)db_->triggers_.Quarantine(trigger->name);
    quarantined = true;
    // Quarantine is durable state: replay restores the circuit breaker so a
    // crashed-and-recovered database does not silently re-enable a trigger
    // that was being isolated.
    if (WalEnabled()) {
      wal_buffer_.push_back(WalOp::TriggerState(trigger->name, /*quarantined=*/true,
                                                failures));
    }
    notifications_.push_back(
        "trigger '" + trigger->name + "' quarantined after " +
        std::to_string(failures) +
        " consecutive failures: " + last.ToString());
  }
  RecordAuditError(trigger->name, last, attempts, quarantined);
  return fail_open ? Status::OK() : last;
}

void Session::RecordAuditError(const std::string& trigger_name, const Status& error,
                               int attempts, bool quarantined) {
  // Loss accounting must be as reliable as we can make it: no fault points,
  // no undo scope (the table is excluded in TriggerTxnScope), best-effort
  // otherwise.
  fault::ScopedSuspend suspend;
  Table* table = nullptr;
  if (db_->catalog_.HasTable(Database::kAuditErrorsTable)) {
    Result<Table*> found = db_->catalog_.GetTable(Database::kAuditErrorsTable);
    if (!found.ok()) return;
    table = *found;
  } else {
    Schema schema;
    auto add_col = [&schema](const char* name, TypeId type) {
      Column col;
      col.name = name;
      col.type = type;
      schema.AddColumn(col);
    };
    add_col("ts", TypeId::kString);
    add_col("userid", TypeId::kString);
    add_col("trigger_name", TypeId::kString);
    add_col("sql", TypeId::kString);
    add_col("error", TypeId::kString);
    add_col("attempts", TypeId::kInt);
    add_col("quarantined", TypeId::kBool);
    Result<Table*> created =
        db_->catalog_.CreateTable(Database::kAuditErrorsTable, std::move(schema));
    if (!created.ok()) return;
    table = *created;
    // The table is created outside any SQL statement, so journal a
    // synthesized DDL op: replay must recreate it before the loss rows.
    if (WalEnabled()) {
      wal_buffer_.push_back(WalOp::Statement(
          std::string("CREATE TABLE ") + Database::kAuditErrorsTable +
          " (ts VARCHAR, userid VARCHAR, trigger_name VARCHAR, sql VARCHAR, "
          "error VARCHAR, attempts INT, quarantined BOOLEAN)"));
    }
  }
  Row row = {Value::String(ctx_.now),          Value::String(ctx_.user),
             Value::String(trigger_name),      Value::String(ctx_.sql_text),
             Value::String(error.ToString()),  Value::Int(attempts),
             Value::Bool(quarantined)};
  Result<size_t> inserted = table->Insert(row);
  // Loss accounting is itself audit state: journal it so a crash between the
  // failed trigger and the statement's completion cannot erase the evidence
  // that audit records were lost.
  if (inserted.ok() && WalEnabled()) {
    wal_buffer_.push_back(
        WalOp::Insert(Database::kAuditErrorsTable, std::move(row)));
  }
}

void Session::RecordAccessedOverflows(const AccessedStateRegistry& registry) {
  for (const auto& [name, state] : registry.states()) {
    if (!state.overflowed()) continue;
    RecordAuditError("accessed:" + name,
                     Status::ResourceExhausted(
                         "ACCESSED cardinality cap reached; audit trail truncated"),
                     /*attempts=*/1, /*quarantined=*/false);
  }
}

// --- Statement frame ----------------------------------------------------------

ExecContext Session::MakeExecContext(const ExecOptions& options, bool top_level) {
  ExecContext ctx(&db_->catalog_, &ctx_);
  ctx.set_batch_size(options.batch_size);
  ctx.set_columnar(options.columnar);
  ctx.set_collect_profile(options.collect_profile);
  ctx.set_validate_plans(options.validate_plans);
  // Morsel parallelism is a top-level affair: trigger actions and other
  // nested statements always run serially (docs/CONCURRENCY.md).
  ctx.set_num_threads(top_level ? options.num_threads : 1);
  return ctx;
}

Result<Value> Session::EvalStandalone(const ast::Expression& expr,
                                      const ExecOptions& options, int depth,
                                      const ActionContext* action) {
  Binder binder(&db_->catalog_);
  ConfigureBinder(&binder, action);
  Schema empty;
  SELTRIG_ASSIGN_OR_RETURN(ExprPtr bound, binder.BindStandaloneExpr(expr, empty));
  ExecContext exec = MakeExecContext(options, IsTopLevel(depth, action));
  Executor executor(&exec);  // installs the subquery runner
  EvalContext ec;
  ec.exec = &exec;
  ec.outer_rows = OuterRows(action);
  return EvalExpr(*bound, ec);
}

// --- DML ----------------------------------------------------------------------

Result<StatementResult> Session::ExecuteInsert(const ast::InsertStatement& stmt,
                                               const ExecOptions& options, int depth,
                                               const ActionContext* action) {
  // Writer lock taken by the top-level statement's frame (ExecuteStatement or
  // a SELECT write phase); DML never runs outside it.
  AssertWriterHeld();
  Binder binder(&db_->catalog_);
  ConfigureBinder(&binder, action);
  SELTRIG_ASSIGN_OR_RETURN(BoundInsert bound, binder.BindInsert(stmt));
  SELTRIG_ASSIGN_OR_RETURN(Table * table, db_->catalog_.GetTable(bound.table));

  // Produce source rows (visible columns only).
  ExecContext exec = MakeExecContext(options, IsTopLevel(depth, action));
  Executor executor(&exec);
  SELTRIG_ASSIGN_OR_RETURN(
      QueryResult source, executor.ExecuteQuery(*bound.source, -1, OuterRows(action)));

  std::vector<Row> inserted;
  for (Row& src : source.rows) {
    Row row(table->schema().size(), Value::Null());
    for (size_t i = 0; i < bound.column_map.size(); ++i) {
      row[bound.column_map[i]] = std::move(src[i]);
    }
    SELTRIG_RETURN_IF_ERROR(
        CoerceRowToSchema(table->schema(), &row, "insert into " + bound.table));
    Result<size_t> row_id = table->Insert(row);
    SELTRIG_RETURN_IF_ERROR(row_id.status());
    SELTRIG_RETURN_IF_ERROR(db_->audit_.OnInsert(bound.table, row));
    if (WalEnabled()) wal_buffer_.push_back(WalOp::Insert(bound.table, row));
    inserted.push_back(std::move(row));
  }

  SELTRIG_RETURN_IF_ERROR(FireDmlTriggers(bound.table, ast::DmlEvent::kInsert,
                                          /*old_rows=*/{}, inserted, options, depth));

  StatementResult result;
  result.result.affected_rows = static_cast<int64_t>(inserted.size());
  return result;
}

Result<StatementResult> Session::ExecuteUpdate(const ast::UpdateStatement& stmt,
                                               const ExecOptions& options, int depth,
                                               const ActionContext* action) {
  AssertWriterHeld();  // see ExecuteInsert
  Binder binder(&db_->catalog_);
  ConfigureBinder(&binder, action);
  SELTRIG_ASSIGN_OR_RETURN(BoundUpdate bound, binder.BindUpdate(stmt));
  SELTRIG_ASSIGN_OR_RETURN(Table * table, db_->catalog_.GetTable(bound.table));

  ExecContext exec = MakeExecContext(options, IsTopLevel(depth, action));
  Executor executor(&exec);  // installs the subquery runner for predicates
  EvalContext ec;
  ec.exec = &exec;
  ec.outer_rows = OuterRows(action);
  SELTRIG_ASSIGN_OR_RETURN(std::vector<size_t> row_ids,
                           MatchRows(*table, bound.filter.get(), ec));

  // Phase 2: apply assignments (all reading the OLD row, per SQL semantics).
  std::vector<Row> old_rows, new_rows;
  for (size_t id : row_ids) {
    Row old_row = table->GetRow(id);
    Row new_row = old_row;
    ec.row = &old_row;
    for (const auto& [col, expr] : bound.assignments) {
      SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, ec));
      new_row[col] = std::move(v);
    }
    SELTRIG_RETURN_IF_ERROR(
        CoerceRowToSchema(table->schema(), &new_row, "update " + bound.table));
    SELTRIG_RETURN_IF_ERROR(table->Update(id, new_row));
    SELTRIG_RETURN_IF_ERROR(db_->audit_.OnUpdate(bound.table, old_row, new_row));
    if (WalEnabled()) {
      wal_buffer_.push_back(WalOp::Update(bound.table, old_row, new_row));
    }
    old_rows.push_back(std::move(old_row));
    new_rows.push_back(std::move(new_row));
  }

  SELTRIG_RETURN_IF_ERROR(FireDmlTriggers(bound.table, ast::DmlEvent::kUpdate,
                                          old_rows, new_rows, options, depth));

  StatementResult result;
  result.result.affected_rows = static_cast<int64_t>(row_ids.size());
  return result;
}

Result<StatementResult> Session::ExecuteDelete(const ast::DeleteStatement& stmt,
                                               const ExecOptions& options, int depth,
                                               const ActionContext* action) {
  AssertWriterHeld();  // see ExecuteInsert
  Binder binder(&db_->catalog_);
  ConfigureBinder(&binder, action);
  SELTRIG_ASSIGN_OR_RETURN(BoundDelete bound, binder.BindDelete(stmt));
  SELTRIG_ASSIGN_OR_RETURN(Table * table, db_->catalog_.GetTable(bound.table));

  ExecContext exec = MakeExecContext(options, IsTopLevel(depth, action));
  Executor executor(&exec);
  EvalContext ec;
  ec.exec = &exec;
  ec.outer_rows = OuterRows(action);
  SELTRIG_ASSIGN_OR_RETURN(std::vector<size_t> row_ids,
                           MatchRows(*table, bound.filter.get(), ec));

  std::vector<Row> deleted;
  for (size_t id : row_ids) {
    Row row = table->GetRow(id);
    SELTRIG_RETURN_IF_ERROR(table->Delete(id));
    SELTRIG_RETURN_IF_ERROR(db_->audit_.OnDelete(bound.table, row));
    if (WalEnabled()) wal_buffer_.push_back(WalOp::Delete(bound.table, row));
    deleted.push_back(std::move(row));
  }

  SELTRIG_RETURN_IF_ERROR(FireDmlTriggers(bound.table, ast::DmlEvent::kDelete, deleted,
                                          /*new_rows=*/{}, options, depth));

  StatementResult result;
  result.result.affected_rows = static_cast<int64_t>(row_ids.size());
  return result;
}

Status Session::FireDmlTriggers(const std::string& table, ast::DmlEvent event,
                                const std::vector<Row>& old_rows,
                                const std::vector<Row>& new_rows,
                                const ExecOptions& options, int depth) {
  std::vector<TriggerDef*> triggers = db_->triggers_.DmlTriggersFor(table, event);
  if (triggers.empty()) return Status::OK();

  SELTRIG_ASSIGN_OR_RETURN(const Table* t, db_->catalog_.GetTable(table));

  // Pseudo-row schema: OLD-qualified columns, then NEW-qualified columns
  // (only the sides meaningful for the event).
  Schema row_schema;
  bool has_old = event != ast::DmlEvent::kInsert;
  bool has_new = event != ast::DmlEvent::kDelete;
  auto add_side = [&](const char* qualifier) {
    for (size_t i = 0; i < t->schema().size(); ++i) {
      Column col = t->schema().column(i);
      col.qualifier = qualifier;
      row_schema.AddColumn(col);
    }
  };
  if (has_old) add_side("old");
  if (has_new) add_side("new");

  size_t count = has_old ? old_rows.size() : new_rows.size();
  for (size_t r = 0; r < count; ++r) {
    Row pseudo;
    if (has_old) pseudo.insert(pseudo.end(), old_rows[r].begin(), old_rows[r].end());
    if (has_new) pseudo.insert(pseudo.end(), new_rows[r].begin(), new_rows[r].end());

    ActionContext action;
    action.row_schema = &row_schema;
    action.row = &pseudo;
    for (TriggerDef* trigger : triggers) {
      if (!trigger->enabled) continue;  // quarantined mid-statement
      SELTRIG_RETURN_IF_ERROR(RunTriggerGuarded(trigger, options, depth, &action));
    }
  }
  return Status::OK();
}

// --- DDL / control ------------------------------------------------------------

Status Session::ExecuteCreateTable(const ast::CreateTableStatement& stmt) {
  Schema schema;
  int pk = -1;
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    const ast::ColumnDef& def = stmt.columns[i];
    if (def.primary_key) {
      if (pk >= 0) {
        return Status::BindError("multiple PRIMARY KEY columns in " + stmt.table);
      }
      pk = static_cast<int>(i);
    }
    Column col;
    col.name = ToLower(def.name);
    col.type = def.type;
    schema.AddColumn(col);
  }
  return db_->catalog_.CreateTable(stmt.table, std::move(schema), pk).status();
}

Status Session::ExecuteAlterTable(const ast::AlterTableStatement& stmt,
                                  const ExecOptions& options, int depth) {
  AssertWriterHeld();
  using Action = ast::AlterTableStatement::Action;
  Result<Table*> found = db_->catalog_.GetTable(ToLower(stmt.table));
  SELTRIG_RETURN_IF_ERROR(found.status());
  Table* table = *found;
  const std::string table_name = table->name();
  const std::string what = "alter table " + table_name;

  // --- Phase 1: metadata prevalidation --------------------------------------
  // The whole chain is simulated against a copy of the schema before anything
  // mutates, so every error below leaves the engine untouched.
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kCatalogAlterValidate));
  struct SimColumn {
    std::string name;
    TypeId type;
    std::string original;  // pre-ALTER name; empty for columns the chain adds
  };
  std::vector<SimColumn> sim;
  for (size_t i = 0; i < table->schema().size(); ++i) {
    const Column& col = table->schema().column(i);
    sim.push_back({col.name, col.type, col.name});
  }
  int pk_sim = table->primary_key_column();
  auto find_sim = [&sim](const std::string& name) -> int {
    for (size_t i = 0; i < sim.size(); ++i) {
      if (sim[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };

  struct NormalizedAction {
    Action::Kind kind = Action::Kind::kAdd;
    std::string name;
    std::string new_name;
    TypeId type = TypeId::kNull;
    Value default_value;  // kAdd: evaluated once, here
  };
  std::vector<NormalizedAction> acts;
  for (const Action& a : stmt.actions) {
    NormalizedAction act;
    act.kind = a.kind;
    act.name = ToLower(a.name);
    act.new_name = ToLower(a.new_name);
    act.type = a.type;
    switch (a.kind) {
      case Action::Kind::kAdd: {
        if (find_sim(act.name) >= 0) {
          return Status::BindError(what + ": column '" + act.name +
                                   "' already exists");
        }
        if (a.default_value != nullptr) {
          // DEFAULT must be a constant: evaluate it now, with no row in
          // scope, before any storage mutation.
          SELTRIG_ASSIGN_OR_RETURN(
              act.default_value,
              EvalStandalone(*a.default_value, options, depth, /*action=*/nullptr));
          Value& dv = act.default_value;
          if (!dv.is_null() && !Coerce(dv.type(), act.type, &dv)) {
            return Status::ExecutionError(
                what + ": DEFAULT of type " + std::string(TypeName(dv.type())) +
                " cannot initialize column '" + act.name + "' of type " +
                TypeName(act.type));
          }
        }
        sim.push_back({act.name, act.type, ""});
        break;
      }
      case Action::Kind::kDrop: {
        int idx = find_sim(act.name);
        if (idx < 0) return Status::BindError(what + ": no such column: " + act.name);
        if (idx == pk_sim) {
          return Status::ExecutionError(what + ": cannot drop primary key column '" +
                                        act.name + "'");
        }
        sim.erase(sim.begin() + idx);
        if (pk_sim > idx) --pk_sim;
        break;
      }
      case Action::Kind::kRename: {
        int idx = find_sim(act.name);
        if (idx < 0) return Status::BindError(what + ": no such column: " + act.name);
        int clash = find_sim(act.new_name);
        if (clash >= 0 && clash != idx) {
          return Status::BindError(what + ": column '" + act.new_name +
                                   "' already exists");
        }
        sim[idx].name = act.new_name;
        break;
      }
      case Action::Kind::kRetype: {
        int idx = find_sim(act.name);
        if (idx < 0) return Status::BindError(what + ": no such column: " + act.name);
        sim[idx].type = act.type;
        break;
      }
    }
    acts.push_back(std::move(act));
  }

  // Cumulative old-name -> final-name map, for rebinding audit definitions.
  AuditManager::ColumnRenames renames;
  for (const SimColumn& col : sim) {
    if (!col.original.empty() && col.original != col.name) {
      renames.push_back({col.original, col.name});
    }
  }

  // Fail-closed policy (still nothing mutated): an audit expression whose
  // partition key the chain drops or incompatibly retypes cannot be rebound.
  // With a live SELECT trigger the ALTER is rejected outright; without one
  // the expression and its view are cascade-dropped, never orphaned.
  std::vector<std::string> doomed;
  for (const AuditExpressionDef* def : db_->audit_.All()) {
    if (def->sensitive_table() != table_name) continue;
    const SimColumn* survived = nullptr;
    for (const SimColumn& col : sim) {
      if (col.original == def->partition_by()) survived = &col;
    }
    const TypeId old_type =
        table->schema().column(static_cast<size_t>(def->partition_column())).type;
    std::string reason;
    if (survived == nullptr) {
      reason = "drops its partition key '" + def->partition_by() + "'";
    } else if (!Coerce(old_type, survived->type)) {
      reason = "retypes its partition key '" + def->partition_by() + "' from " +
               std::string(TypeName(old_type)) + " to " + TypeName(survived->type);
    }
    if (reason.empty()) continue;
    if (!db_->triggers_.SelectTriggersFor(def->name()).empty()) {
      return Status::FailedPrecondition(
          what + ": " + reason + "; audit expression '" + def->name() +
          "' has live SELECT triggers bound to it -- drop the triggers (and "
          "the expression) first");
    }
    doomed.push_back(def->name());
  }

  // --- Phase 2: apply to storage under an inverse stack ----------------------
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kCatalogAlterApply));
  std::vector<std::function<void()>> inverses;
  auto rollback_storage = [&inverses]() {
    // Inverse application must not hit fault points: a second injected
    // failure here would corrupt the engine instead of failing the ALTER.
    fault::ScopedSuspend suspend;
    for (auto it = inverses.rbegin(); it != inverses.rend(); ++it) (*it)();
  };
  Status applied = Status::OK();
  for (const NormalizedAction& act : acts) {
    bool ambiguous = false;
    const int live = table->schema().TryResolve("", act.name, &ambiguous);
    switch (act.kind) {
      case Action::Kind::kAdd: {
        applied = table->AlterAddColumn(act.name, act.type, act.default_value);
        if (applied.ok()) {
          inverses.push_back([table]() { table->AlterDropLastColumn(); });
        }
        break;
      }
      case Action::Kind::kDrop: {
        Result<Table::DroppedColumn> dropped =
            table->AlterDropColumn(static_cast<size_t>(live));
        applied = dropped.status();
        if (applied.ok()) {
          // TableColumn is move-only; std::function requires copyable
          // captures, so the moved payload rides in a shared_ptr holder.
          auto holder = std::make_shared<Table::DroppedColumn>(std::move(*dropped));
          inverses.push_back(
              [table, holder]() { table->AlterRestoreColumn(std::move(*holder)); });
        }
        break;
      }
      case Action::Kind::kRename: {
        applied = table->AlterRenameColumn(static_cast<size_t>(live), act.new_name);
        if (applied.ok()) {
          const std::string old_name = act.name;
          const size_t idx = static_cast<size_t>(live);
          inverses.push_back([table, idx, old_name]() {
            // Renaming back to the name just vacated cannot collide, and a
            // rollback must run every inverse regardless.
            (void)table->AlterRenameColumn(idx, old_name);
          });
        }
        break;
      }
      case Action::Kind::kRetype: {
        const TypeId old_type =
            table->schema().column(static_cast<size_t>(live)).type;
        Result<TableColumn> old_data =
            table->AlterRetypeColumn(static_cast<size_t>(live), act.type);
        applied = old_data.status();
        if (applied.ok()) {
          auto holder = std::make_shared<TableColumn>(std::move(*old_data));
          const size_t idx = static_cast<size_t>(live);
          inverses.push_back([table, idx, holder, old_type]() {
            table->AlterRestoreColumnData(idx, std::move(*holder), old_type);
          });
        }
        break;
      }
    }
    if (!applied.ok()) {
      rollback_storage();
      return applied;
    }
  }
  // One committed ALTER = exactly one schema version step, regardless of how
  // many actions the chain holds: recovery replay and the replication applier
  // both rely on the resulting version being old + 1.
  const uint64_t old_version = table->schema_version();
  table->set_schema_version(old_version + 1);
  inverses.push_back(
      [table, old_version]() { table->set_schema_version(old_version); });

  // --- Phase 3: cascade-drop doomed definitions, rebind the rest -------------
  Status rebind = fault::Maybe(fault_points::kCatalogAlterRebind);
  std::vector<std::unique_ptr<AuditExpressionDef>> detached;
  if (rebind.ok()) {
    for (const std::string& name : doomed) {
      std::unique_ptr<AuditExpressionDef> def = db_->audit_.DetachForAlter(name);
      if (def != nullptr) detached.push_back(std::move(def));
    }
    rebind = db_->audit_.RebindAfterAlter(table_name, renames);
  }
  if (!rebind.ok()) {
    fault::ScopedSuspend suspend;
    for (auto& def : detached) db_->audit_.RestoreDetached(std::move(def));
    rollback_storage();
    // Storage is back on the old schema; recompute the views of every
    // definition referencing the table (partial rebinds already reverted
    // their own state, but views may have been rebuilt against the new
    // schema before the failure).
    for (const AuditExpressionDef* def : db_->audit_.All()) {
      for (const std::string& ref : def->referenced_tables()) {
        if (ref == table_name) {
          // Best-effort during rollback: a rebuild failure leaves the view
          // quarantined by its own error handling, never silently stale.
          (void)db_->audit_.RebuildView(db_->audit_.FindMutable(def->name()));
          break;
        }
      }
    }
    return rebind;
  }
  // Success: `detached` going out of scope destroys the cascade-dropped
  // definitions and their views — no orphans survive the statement.

  // --- Phase 4: stamp live trigger bindings, journal --------------------------
  const uint64_t new_version = table->schema_version();
  for (const AuditExpressionDef* def : db_->audit_.All()) {
    if (def->sensitive_table() != table_name) continue;
    // SelectTriggersFor returns enabled triggers only, so quarantined ones
    // keep their stale bound version until Rearm re-validates them.
    for (TriggerDef* t : db_->triggers_.SelectTriggersFor(def->name())) {
      t->bound_schema_version = def->bound_schema_version();
    }
  }
  for (ast::DmlEvent event :
       {ast::DmlEvent::kInsert, ast::DmlEvent::kUpdate, ast::DmlEvent::kDelete}) {
    for (TriggerDef* t : db_->triggers_.DmlTriggersFor(table_name, event)) {
      t->bound_schema_version = new_version;
    }
  }
  if (WalEnabled()) {
    // Logical DDL record stamped with the resulting version: replay
    // re-executes the statement and the replication applier NAKs any gap.
    wal_buffer_.push_back(WalOp::Ddl(table_name, stmt.source, new_version));
  }
  return Status::OK();
}

Status Session::ExecuteCreateTrigger(ast::CreateTriggerStatement& stmt) {
  auto def = std::make_unique<TriggerDef>();
  def->name = ToLower(stmt.name);
  def->is_select_trigger = stmt.is_select_trigger;
  def->before = stmt.before;
  if (stmt.is_select_trigger) {
    def->audit_expression = ToLower(stmt.audit_expression);
    const AuditExpressionDef* expr = db_->audit_.Find(def->audit_expression);
    if (expr == nullptr) {
      return Status::BindError("audit expression not found: " + def->audit_expression);
    }
    def->bound_schema_version = expr->bound_schema_version();
  } else {
    def->table = ToLower(stmt.table);
    Result<Table*> table = db_->catalog_.GetTable(def->table);
    if (!table.ok()) {
      return Status::BindError("table not found: " + def->table);
    }
    def->event = stmt.event;
    def->bound_schema_version = (*table)->schema_version();
  }
  def->actions = std::move(stmt.actions);
  def->definition_sql = stmt.source;
  return db_->triggers_.CreateTrigger(std::move(def));
}

}  // namespace seltrig
