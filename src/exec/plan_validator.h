// Plan-invariant linter (docs/STATIC_ANALYSIS.md): a post-build pass over the
// physical operator tree that re-checks what the Algorithm 1 placement pass
// and the executor's lowering promised. The placement heuristics, the
// audit-aware optimizer, and the spine-capacity machinery each maintain these
// invariants locally; the validator is the global, fail-closed backstop — a
// violated invariant means the statement would run with silently broken
// auditing, so it returns kInternal and the statement aborts instead.
//
// Invariants checked against an instrumented plan (PlanValidation present):
//   1. Audit domination — every scan of a sensitive table is dominated by an
//      audit operator for its expression on the root-to-leaf path.
//   2. Audit commutativity — no audit operator sits above a non-commutative
//      operator (aggregate, LIMIT, DISTINCT, the null-supplying side of a
//      left outer join) on the path down to its sensitive scan. Audits never
//      cross subquery boundaries by construction (each subquery plan is
//      instrumented separately), so paths here are within one plan tree.
// Both are skipped under PlacementHeuristic::kHighestNode, the ablation that
// deliberately places above non-commutative nodes and may legally drop the
// audit when no node exposes the partition key.
//
// Invariants checked on every plan (subquery plans included):
//   3. Exact-spine capacity — below an early-stopping consumer (a finite
//      LIMIT, or the root under a max_rows prefix-abort) whose lazy spine
//      contains an audit operator, every operator on the streaming spine has
//      batch capacity 1, reproducing row-at-a-time flow bit for bit.
//   4. Gather safety — the morsel-parallel gather is never mounted for a
//      correlated execution, with a capped ACCESSED registry, or anywhere
//      inside a capacity-1 exact spine.
//
// The Executor runs the validator on every plan it executes in debug builds,
// and behind ExecOptions::validate_plans in release builds.

#ifndef SELTRIG_EXEC_PLAN_VALIDATOR_H_
#define SELTRIG_EXEC_PLAN_VALIDATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace seltrig {

class Catalog;
class PhysicalOperator;

// One audit expression the session instrumented the plan for.
struct AuditExpectation {
  std::string audit_name;
  std::string sensitive_table;  // lower-case catalog name
};

// What the planning pipeline promised about an instrumented plan. Filled by
// Session::PrepareSelectPlan and installed on the ExecContext for the
// top-level plan; subquery plans executed through the same context get only
// the universal checks (their audit operators are placed independently).
struct PlanValidation {
  std::vector<AuditExpectation> expected;
  // Invariants 1 and 2 above; off under the kHighestNode ablation.
  bool check_domination = true;
  bool check_commutativity = true;
};

// Per-execution facts the universal checks depend on.
struct PlanExecutionInfo {
  // Client prefix-abort budget (ExecOptions::max_rows); -1 = unlimited.
  int64_t max_rows = -1;
  // Executing with a non-empty outer-row correlation stack.
  bool correlated = false;
  // ACCESSED cardinality cap of the attached registry; 0 = uncapped or none.
  size_t accessed_capacity = 0;
  // Live catalog for the schema-version staleness check (invariant 5): every
  // catalog scan's bind-time schema_version must still match the table's
  // current version, or the plan predates an ALTER TABLE and its column
  // indexes are wrong. Null skips the check (hand-built test plans).
  const Catalog* catalog = nullptr;
};

// Validates the built physical tree `root`. `validation` carries the
// placement expectations for this plan, or null to run only the universal
// checks. Returns OK or a kInternal status naming the violated invariant.
Status ValidatePhysicalPlan(const PhysicalOperator& root,
                            const PlanValidation* validation,
                            const PlanExecutionInfo& info);

}  // namespace seltrig

#endif  // SELTRIG_EXEC_PLAN_VALIDATOR_H_
