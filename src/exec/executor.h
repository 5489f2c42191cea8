// Executor: lowers logical plans to physical operators and runs them.

#ifndef SELTRIG_EXEC_EXECUTOR_H_
#define SELTRIG_EXEC_EXECUTOR_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "exec/operators.h"
#include "plan/logical_plan.h"
#include "types/schema.h"
#include "types/value.h"

namespace seltrig {

// Materialized result of a statement. `schema`/`rows` contain only visible
// columns (hidden helper columns are stripped).
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  int64_t affected_rows = 0;

  // Rendering helper for examples and debugging.
  std::string ToString(size_t max_rows = 50) const;
};

class Executor {
 public:
  // Installs itself as the context's subquery runner for the duration of its
  // lifetime (subquery expressions re-enter the executor).
  explicit Executor(ExecContext* ctx);

  // Runs `plan` to completion and returns all rows (hidden columns included).
  // `outer_rows` is the correlation stack for subquery plans.
  Result<std::vector<Row>> ExecutePlan(const LogicalOperator& plan,
                                       const std::vector<const Row*>& outer_rows);

  // Runs a query, stripping hidden columns. If `max_rows` >= 0, stops after
  // that many rows — modeling a client that reads a result prefix and aborts
  // (SELECT triggers still see everything that flowed through the plan up to
  // that point). `outer_rows` is the correlation stack, as for ExecutePlan.
  Result<QueryResult> ExecuteQuery(const LogicalOperator& plan, int64_t max_rows = -1,
                                   const std::vector<const Row*>& outer_rows = {});

  // Builds the physical operator tree without running it (benchmarks).
  Result<OperatorPtr> Build(const LogicalOperator& node,
                            const std::vector<const Row*>& outer_rows);

 private:
  // `spine_cap` caps the batch capacity of the created operator and its
  // lazy-spine descendants (0 = uncapped). Early-stopping consumers (LIMIT,
  // max_rows) cap their subtree's spine at the row budget so scans stay lazy,
  // and pin it to 1 when an audit operator on the spine must observe exact
  // row-at-a-time flow. See LazySpineHasAudit in the .cc.
  Result<OperatorPtr> BuildNode(const LogicalOperator& node,
                                const std::vector<const Row*>& outer_rows,
                                size_t spine_cap);

  // Runs the plan-invariant linter (exec/plan_validator.h) over the built
  // tree: always in debug builds, behind ExecContext::validate_plans() in
  // release. Placement checks apply when `plan` is the context's validation
  // root; other plans (subqueries) get the universal checks only.
  Status MaybeValidatePlan(const PhysicalOperator& root,
                           const LogicalOperator& plan, int64_t max_rows,
                           const std::vector<const Row*>& outer_rows);

  ExecContext* ctx_;
};

}  // namespace seltrig

#endif  // SELTRIG_EXEC_EXECUTOR_H_
