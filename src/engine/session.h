// Session: one connection's execution state over the shared Database core.
// Each session carries its own SessionContext (user / SQL_TEXT / clock),
// notification list, trigger undo log, and per-statement ExecOptions;
// catalog, table storage, audit subsystem, and trigger registry live in the
// Database and are shared by every session.
//
// Locking (docs/CONCURRENCY.md): a top-level SELECT plans and executes under
// the Database's shared (reader) lock — many sessions read concurrently and
// eligible scan spines additionally fan out to morsel workers. The lock is
// then released and, only if audit state must be recorded or SELECT triggers
// must fire, re-acquired exclusively for the write phase. Every other
// top-level statement (DML, DDL, IF/NOTIFY/RAISE) runs under the exclusive
// (writer) lock, which also serializes incremental ID-view maintenance and
// trigger-action writes. Nested statements (trigger actions, IF branches)
// never touch the lock: the top-level statement already holds it.
//
// The discipline is checked by Clang Thread Safety Analysis
// (docs/STATIC_ANALYSIS.md): the session keeps a pointer to the Database''s
// reader–writer lock (engine_mutex_) so the write-phase helpers below can be
// annotated SELTRIG_REQUIRES against it, and the nested-statement re-entry
// points — where the lock was taken frames above, invisibly to the static
// analysis — re-establish the capability with AssertWriterHeld().
//
// Statement pipeline for SELECT (mirroring Section IV):
//   parse -> bind -> logical optimization -> audit-operator placement ->
//   post-placement rule pass -> execute -> fire SELECT triggers.

#ifndef SELTRIG_ENGINE_SESSION_H_
#define SELTRIG_ENGINE_SESSION_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/accessed_state.h"
#include "audit/placement.h"
#include "audit/trigger.h"
#include "binder/binder.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"
#include "exec/plan_validator.h"
#include "optimizer/optimizer.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"
#include "storage/undo_log.h"
#include "storage/wal.h"

namespace seltrig {

class Database;

// What a failed *audit* action does to the audited statement. Applies to
// AFTER-phase SELECT triggers and to DML triggers; BEFORE-phase SELECT
// triggers always fail closed (erroring is how they deny a query).
enum class AuditFailurePolicy {
  // Abort the whole statement: no result (or DML effect) is released without
  // its audit record. The compliance default.
  kFailClosed,
  // Let the statement succeed; the failed trigger run is rolled back,
  // retried up to `TriggerGuards::fail_open_retries` times, and on giving up
  // the loss is recorded in the `seltrig_audit_errors` side table.
  kFailOpen,
};

// Runaway and failure-isolation guards for the trigger pipeline.
struct TriggerGuards {
  // Maximum trigger-cascade depth; deeper recursion returns
  // kResourceExhausted instead of recursing unboundedly.
  int max_cascade_depth = 16;
  // Per-expression cap on the ACCESSED set's distinct IDs; 0 = unlimited.
  // Overflow behavior is `overflow_policy` (see AccessedOverflowPolicy).
  int64_t max_accessed_ids = 0;
  AccessedOverflowPolicy overflow_policy = AccessedOverflowPolicy::kFail;
  // Extra attempts for a failed trigger run under kFailOpen (each attempt
  // rolls back before retrying). 0 = no retries.
  int fail_open_retries = 2;
  // Circuit breaker: quarantine (disable + record) a trigger after this many
  // consecutive failed runs under kFailOpen. 0 = never quarantine.
  int quarantine_after = 3;
};

// Per-statement execution options. The defaults give the paper's recommended
// configuration: hcn placement, ID-view probing, audit-aware optimizer.
struct ExecOptions {
  PlacementHeuristic heuristic = PlacementHeuristic::kHighestCommutativeNode;
  // Fire SELECT-trigger actions after queries (instrumenting for every audit
  // expression that has an enabled SELECT trigger).
  bool enable_select_triggers = true;
  // Additionally instrument for every registered audit expression, even ones
  // without triggers. Used by benchmarks and the examples to observe
  // ACCESSED state directly.
  bool instrument_all_audit_expressions = false;
  // Probe materialized ID views (Section IV-A); false = evaluate the audit
  // predicate per row (ablation).
  bool use_id_views = true;
  // Probe Bloom summaries of the ID views instead of exact hash sets
  // (Section IV-A2's large-set fallback).
  bool use_bloom_filters = false;
  double bloom_fp_rate = 0.01;
  // Read at most this many result rows, then stop -- models a client that
  // aborts after a prefix; triggers still fire (Section II). Bounds only the
  // top-level SELECT: nested SELECTs read their whole input.
  int64_t max_rows = -1;
  // Optimizer toggles, including the audit-awareness guard (Section IV-B).
  OptimizerOptions optimizer;
  // Run the post-placement rule pass (contradiction detection + IN-subquery
  // simplification over the instrumented plan).
  bool run_post_placement_rules = true;
  // Failure handling for the audit pipeline (trigger actions run inside an
  // undo-logged scope and commit or roll back atomically either way).
  AuditFailurePolicy audit_failure_policy = AuditFailurePolicy::kFailClosed;
  TriggerGuards guards;
  // Logical rows per batch in the vectorized executor (clamped to >= 1).
  // The executor pins individual operators to capacity 1 where exact
  // row-at-a-time flow is observable (audit ops below an early stop).
  size_t batch_size = 1024;
  // Columnar execution (default): scans bind zero-copy views over table
  // storage and predicates run typed column kernels. false = row-pipeline
  // escape hatch (scans materialize generic batches). Results, ACCESSED, and
  // all ExecStats are identical in both modes; this only changes the layout
  // data flows through.
  bool columnar = true;
  // Worker threads for eligible scan spines of top-level statements (morsel
  // parallelism; see exec/gather.h). 1 = serial. Results, ACCESSED, and
  // rows_scanned are identical at every setting; nested statements (trigger
  // actions) and capped/LIMIT-audited spines always run serially.
  int num_threads = 1;
  // Sample per-operator runtime counters and return an EXPLAIN-ANALYZE-style
  // annotated tree in StatementResult::profile_text (shell: `.profile on`).
  bool collect_profile = false;
  // Run the plan-invariant linter (exec/plan_validator.h) over every built
  // physical plan in release builds too; debug builds always validate. A
  // violated invariant fails the statement with kInternal (fail-closed).
  bool validate_plans = false;
};

struct StatementResult {
  QueryResult result;
  // ACCESSED state per audit expression (sorted IDs), for instrumented
  // SELECTs.
  std::map<std::string, std::vector<Value>> accessed;
  ExecStats stats;
  // EXPLAIN text of the plan that actually executed (instrumented for
  // SELECTs).
  std::string plan_text;
  // Per-operator runtime counter tree (ExecOptions::collect_profile).
  std::string profile_text;
};

class Session {
 public:
  explicit Session(Database* db);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Executes one SQL statement with default options.
  Result<QueryResult> Execute(const std::string& sql);

  // Executes one SQL statement with explicit options.
  Result<StatementResult> ExecuteWithOptions(const std::string& sql,
                                             const ExecOptions& options);

  // Executes a semicolon-separated script (DDL batches, fixtures). Stops at
  // the first error.
  Status ExecuteScript(const std::string& sql);

  // This session's user / SQL_TEXT / clock state.
  SessionContext* context() { return &ctx_; }

  // Messages emitted by NOTIFY actions (the stand-in for "SEND EMAIL").
  const std::vector<std::string>& notifications() const { return notifications_; }
  void ClearNotifications() { notifications_.clear(); }

 private:
  friend class Database;

  // Extra binding context for trigger actions: the ACCESSED relation (SELECT
  // triggers) and/or the NEW/OLD pseudo-row (DML triggers).
  struct ActionContext {
    const VirtualTable* accessed = nullptr;  // bound under table name ACCESSED
    const Schema* row_schema = nullptr;      // NEW/OLD columns
    const Row* row = nullptr;
  };
  // A statement a client sent, as opposed to a trigger action or IF branch.
  static bool IsTopLevel(int depth, const ActionContext* action) {
    return depth == 0 && action == nullptr;
  }
  // The correlation stack of an action statement: its NEW/OLD pseudo-row.
  static std::vector<const Row*> OuterRows(const ActionContext* action) {
    if (action == nullptr || action->row == nullptr) return {};
    return {action->row};
  }

  Result<StatementResult> ExecuteStatement(ast::Statement& stmt,
                                           const ExecOptions& options, int depth,
                                           const ActionContext* action);
  // The statement-kind dispatch switch. ExecuteStatement owns top-level
  // concerns (locking, the statement undo scope, journaling, durability).
  Result<StatementResult> DispatchStatement(ast::Statement& stmt,
                                            const ExecOptions& options, int depth,
                                            const ActionContext* action);
  // Clears the journal buffer and, when the statement journaled a commit
  // record, blocks until it is durable (WalSyncMode::kCommit). Runs after
  // every top-level statement, with no engine lock held.
  Result<StatementResult> FinishTopLevel(Result<StatementResult> result);
  // Binds, optimizes and (when applicable) instruments a SELECT -- the
  // Section IV pipeline up to execution. When `validation` is non-null it is
  // filled with the placement promises of the returned plan for the
  // plan-invariant linter (EXPLAIN passes null: nothing executes).
  Result<PlanPtr> PrepareSelectPlan(const ast::SelectStatement& stmt,
                                    const ExecOptions& options,
                                    const ActionContext* action,
                                    PlanValidation* validation);
  Result<StatementResult> ExecuteSelect(const ast::SelectStatement& stmt,
                                        const ExecOptions& options, int depth,
                                        const ActionContext* action);
  // Plan + execute only (the read phase; runs under the shared lock when top
  // level). ACCESSED lands in *registry for the post-release trigger phase.
  Result<StatementResult> RunSelectQuery(const ast::SelectStatement& stmt,
                                         const ExecOptions& options, bool top_level,
                                         const ActionContext* action,
                                         AccessedStateRegistry* registry);
  // Runs `body` in one undo scope and, when `journal`, appends the
  // statement's journal record; any failure rolls the scope back. The frame
  // of every top-level writer statement and of every SELECT's write phase.
  Status CommitUnit(bool journal, const std::function<Status()>& body)
      SELTRIG_REQUIRES(engine_mutex_);
  // The executor context of every statement: all of `options`' execution
  // settings, with num_threads forced to 1 below the top level.
  ExecContext MakeExecContext(const ExecOptions& options, bool top_level);
  // Binds and evaluates an expression with no row in scope (IF, NOTIFY,
  // RAISE, ALTER ... DEFAULT); ACCESSED and NEW/OLD stay visible.
  Result<Value> EvalStandalone(const ast::Expression& expr, const ExecOptions& options,
                               int depth, const ActionContext* action);
  Result<StatementResult> ExecuteExplain(const ast::ExplainStatement& stmt,
                                         const ExecOptions& options,
                                         const ActionContext* action);
  Result<StatementResult> ExecuteInsert(const ast::InsertStatement& stmt,
                                        const ExecOptions& options, int depth,
                                        const ActionContext* action);
  Result<StatementResult> ExecuteUpdate(const ast::UpdateStatement& stmt,
                                        const ExecOptions& options, int depth,
                                        const ActionContext* action);
  Result<StatementResult> ExecuteDelete(const ast::DeleteStatement& stmt,
                                        const ExecOptions& options, int depth,
                                        const ActionContext* action);
  // DDL frame: runs `apply` and journals the statement's SQL. Replay needs
  // that text, so on a journaled database DDL without it (hand-built ASTs)
  // is rejected up front rather than leaving an unreplayable gap.
  Result<StatementResult> ExecuteDdl(const ast::Statement& stmt,
                                     const std::function<Status()>& apply);
  Status ExecuteCreateTable(const ast::CreateTableStatement& stmt);
  // Online schema change (docs/SCHEMA_CHANGE.md). Runs under the writer lock
  // like all DDL; phases: metadata prevalidation + fail-closed audit policy
  // check (nothing mutated), storage apply with an inverse stack, audit
  // rebind + view rebuild, then version stamp + journal. Any failure after
  // mutation began rolls the whole chain back via the inverses.
  Status ExecuteAlterTable(const ast::AlterTableStatement& stmt,
                           const ExecOptions& options, int depth);
  Status ExecuteCreateTrigger(ast::CreateTriggerStatement& stmt);

  // Configures a binder with the action context (virtual tables, NEW/OLD).
  void ConfigureBinder(Binder* binder, const ActionContext* action) const;

  // Fires the SELECT triggers of one phase (`before_phase`: BEFORE-return
  // triggers; otherwise the ordinary AFTER triggers).
  Status FireSelectTriggers(const AccessedStateRegistry& registry,
                            const ExecOptions& options, int depth,
                            bool before_phase) SELTRIG_REQUIRES(engine_mutex_);
  Status FireDmlTriggers(const std::string& table, ast::DmlEvent event,
                         const std::vector<Row>& old_rows,
                         const std::vector<Row>& new_rows, const ExecOptions& options,
                         int depth) SELTRIG_REQUIRES(engine_mutex_);

  // Runs one trigger's action list inside an undo-logged scope: on any
  // failure the scope's writes are rolled back, then the failure policy
  // decides between abort (fail-closed / BEFORE phase), bounded retry, and
  // loss accounting + quarantine (fail-open).
  Status RunTriggerGuarded(TriggerDef* trigger, const ExecOptions& options, int depth,
                           const ActionContext* action)
      SELTRIG_REQUIRES(engine_mutex_);
  // The action list itself (one undo savepoint's worth of work).
  Status RunTriggerActions(TriggerDef* trigger, const ExecOptions& options, int depth,
                           const ActionContext* action)
      SELTRIG_REQUIRES(engine_mutex_);
  // Undoes trigger writes back to `savepoint` and rebuilds the sensitive-ID
  // views of audit expressions over the touched tables. Journal parity:
  // physical ops buffered past `wal_savepoint` are dropped with their undone
  // rows, except ops the rollback cannot undo in memory either (loss-table
  // rows, DDL, quarantine transitions), which stay buffered.
  Status RollbackTriggerWrites(size_t savepoint, size_t wal_savepoint)
      SELTRIG_REQUIRES(engine_mutex_);
  // Appends a row to seltrig_audit_errors (durable: bypasses the undo scope
  // and fault injection). Best-effort by design.
  void RecordAuditError(const std::string& trigger_name, const Status& error,
                        int attempts, bool quarantined)
      SELTRIG_REQUIRES(engine_mutex_);
  // Records ACCESSED-cap truncations (AccessedOverflowPolicy::kTruncate) for
  // every overflowed state in `registry`.
  void RecordAccessedOverflows(const AccessedStateRegistry& registry)
      SELTRIG_REQUIRES(engine_mutex_);

  // --- Journal plumbing (storage/wal.h; docs/DURABILITY.md) -----------------
  // Ops accumulate in wal_buffer_ while a top-level statement runs and are
  // appended as ONE record at commit: a statement — including every write its
  // triggers cascade into — is the unit of atomicity across crashes.
  bool WalEnabled() const;
  // Appends wal_buffer_ as one commit record. Caller must hold the exclusive
  // writer lock: append order under that lock IS the commit order replay
  // reproduces. On success the buffer is cleared and wal_pending_commit_
  // holds the sequence FinishTopLevel must wait on; on failure the buffer is
  // left intact (rollback then filters it).
  Status WalAppendLocked() SELTRIG_REQUIRES(engine_mutex_);

  // Tells the analysis the engine's exclusive writer lock is held. The seam
  // for dynamically-established holds it cannot see statically: nested
  // statements (trigger actions, IF branches, nested SELECT write phases)
  // run under the lock taken by the top-level statement frames above, and
  // commit-unit bodies are lambdas analyzed apart from their caller.
  void AssertWriterHeld() const SELTRIG_ASSERT_CAPABILITY(engine_mutex_) {}

  // RAII scope that attaches this session's trigger undo log to every table
  // while any guarded trigger run is active (scopes nest via savepoints).
  // Trigger runs only happen while the session holds the exclusive writer
  // lock, so at most one session's log is attached at a time.
  class TriggerTxnScope {
   public:
    explicit TriggerTxnScope(Session* session);
    ~TriggerTxnScope();

   private:
    Session* session_;
  };

  Database* db_;
  // The Database's storage_mutex(), cached so lock annotations in this header
  // can name the capability (Database is only forward-declared here).
  SharedMutex* const engine_mutex_;
  SessionContext ctx_;
  std::vector<std::string> notifications_;
  UndoLog trigger_undo_;
  int trigger_txn_depth_ = 0;
  // Pending journal ops of the statement currently executing (see
  // WalAppendLocked). Always empty between top-level statements.
  std::vector<WalOp> wal_buffer_;
  // Commit sequence of this statement's appended record; FinishTopLevel
  // waits on it before acknowledging, then resets it to 0.
  uint64_t wal_pending_commit_ = 0;
  // Journal position just past that record, handed to the replication
  // waiter (when installed) after the local durability wait.
  WalPosition wal_pending_pos_;
};

}  // namespace seltrig

#endif  // SELTRIG_ENGINE_SESSION_H_
