// ExecContext: per-statement execution state shared by all operators of a
// query, including operators of nested subquery plans.

#ifndef SELTRIG_EXEC_EXEC_CONTEXT_H_
#define SELTRIG_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "types/key_index.h"
#include "types/value.h"

namespace seltrig {

class Catalog;
class Expr;
class LogicalOperator;
class AccessedStateRegistry;  // audit/accessed_state.h
struct PlanValidation;        // exec/plan_validator.h

// Who is running the statement, what the statement text is, and what "now"
// is. The clock is injectable so tests and examples get deterministic logs.
struct SessionContext {
  std::string user = "dba";
  // The SQL text reported by SQL_TEXT(). During trigger-action execution this
  // remains the *audited* statement's text, not the action's.
  std::string sql_text;
  // Wall-clock string reported by NOW().
  std::string now = "2026-01-01 00:00:00";
  // Date reported by CURRENT_DATE(), days since epoch.
  int32_t current_date = 0;
};

// Hides one row from a table scan: rows of `table` whose column `column`
// equals `value` are skipped. Used by the offline auditor to evaluate
// Q(D - t) without mutating the database (Definition 2.5).
struct ScanExclusion {
  std::string table;  // lower-case table name
  int column = -1;    // column index in the table schema
  Value value;
};

// Result of materializing a subquery once; cached for uncorrelated
// subqueries. For IN probes a value set over the first output column's
// non-NULL values is built lazily.
struct MaterializedSubquery {
  std::vector<Row> rows;
  bool set_built = false;
  bool has_null = false;
  KeyIndex value_set;
};

// Execution statistics, used by benchmarks and tests.
struct ExecStats {
  uint64_t rows_scanned = 0;
  uint64_t rows_through_audit_ops = 0;
  uint64_t audit_probe_hits = 0;
  uint64_t subquery_executions = 0;
  // Batches whose exact audit probes were skipped because the ID view's
  // Bloom pre-screen proved no row could contain a sensitive ID.
  uint64_t audit_batches_prescreened = 0;
};

class ExecContext {
 public:
  ExecContext(Catalog* catalog, SessionContext* session)
      : catalog_(catalog), session_(session) {}

  Catalog* catalog() const { return catalog_; }
  SessionContext* session() const { return session_; }

  // --- Offline-auditor exclusions ------------------------------------------
  const std::vector<ScanExclusion>& exclusions() const { return exclusions_; }
  void AddExclusion(ScanExclusion e) { exclusions_.push_back(std::move(e)); }

  // --- Audit state ----------------------------------------------------------
  // Registry the physical audit operators write accessed IDs into. Owned by
  // the caller (Database); may be null when no audit instrumentation is
  // active.
  AccessedStateRegistry* accessed() const { return accessed_; }
  void set_accessed(AccessedStateRegistry* registry) { accessed_ = registry; }

  // --- Subquery execution -----------------------------------------------
  // Installed by the Executor: runs `plan` to completion with the given outer
  // row stack and returns the produced rows. The indirection breaks the
  // dependency cycle between the evaluator and the executor.
  using SubqueryRunner = std::function<Result<std::vector<Row>>(
      const LogicalOperator& plan, const std::vector<const Row*>& outer_rows)>;

  void set_subquery_runner(SubqueryRunner runner) { subquery_runner_ = std::move(runner); }
  const SubqueryRunner& subquery_runner() const { return subquery_runner_; }

  // Cache for uncorrelated subqueries, keyed by expression identity.
  std::unordered_map<const Expr*, MaterializedSubquery>& subquery_cache() {
    return subquery_cache_;
  }

  ExecStats& stats() { return stats_; }

  // --- Vectorized execution -------------------------------------------------
  // Logical rows per batch flowing through the operator pipeline
  // (ExecOptions::batch_size). The executor pins individual operators to
  // capacity 1 where exact row-at-a-time flow is required.
  size_t batch_size() const { return batch_size_; }
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }

  // Columnar execution (ExecOptions::columnar, default on): scans bind
  // zero-copy views over table storage and predicates run typed column
  // kernels. Off = the row-pipeline escape hatch: scans materialize generic
  // owned batches, every operator downstream behaves identically either way.
  bool columnar() const { return columnar_; }
  void set_columnar(bool on) { columnar_ = on; }

  // --- Intra-query parallelism ----------------------------------------------
  // Worker threads for eligible scan spines (ExecOptions::num_threads). 1 =
  // serial. The executor decides eligibility per spine (see
  // ParallelSpineScan in exec/gather.h); ineligible plans run serially at any
  // setting.
  int num_threads() const { return num_threads_; }
  void set_num_threads(int n) { num_threads_ = n < 1 ? 1 : n; }

  // --- Plan validation ------------------------------------------------------
  // Placement expectations for the statement's top-level plan and the plan
  // node they describe (exec/plan_validator.h). Subquery plans executed
  // through this context get only the validator's universal checks. Owned by
  // the caller (Session::RunSelectQuery); may be null.
  const PlanValidation* plan_validation() const { return plan_validation_; }
  const LogicalOperator* validation_root() const { return validation_root_; }
  void set_plan_validation(const PlanValidation* validation,
                           const LogicalOperator* root) {
    plan_validation_ = validation;
    validation_root_ = root;
  }

  // Run the plan validator in release builds too (ExecOptions::validate_plans;
  // debug builds always validate).
  bool validate_plans() const { return validate_plans_; }
  void set_validate_plans(bool on) { validate_plans_ = on; }

  // --- Profiling ------------------------------------------------------------
  // When enabled, operators sample wall-clock time per Init/NextBatch and the
  // executor appends an annotated operator tree to profile_text() after each
  // top-level query.
  bool collect_profile() const { return collect_profile_; }
  void set_collect_profile(bool on) { collect_profile_ = on; }
  std::string& profile_text() { return profile_text_; }

 private:
  Catalog* catalog_;
  SessionContext* session_;
  std::vector<ScanExclusion> exclusions_;
  AccessedStateRegistry* accessed_ = nullptr;
  SubqueryRunner subquery_runner_;
  std::unordered_map<const Expr*, MaterializedSubquery> subquery_cache_;
  ExecStats stats_;
  size_t batch_size_ = 1024;
  bool columnar_ = true;
  int num_threads_ = 1;
  const PlanValidation* plan_validation_ = nullptr;
  const LogicalOperator* validation_root_ = nullptr;
  bool validate_plans_ = false;
  bool collect_profile_ = false;
  std::string profile_text_;
};

}  // namespace seltrig

#endif  // SELTRIG_EXEC_EXEC_CONTEXT_H_
