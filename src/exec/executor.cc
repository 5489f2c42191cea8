#include "exec/executor.h"

#include <algorithm>
#include <utility>

#include "audit/accessed_state.h"
#include "catalog/catalog.h"
#include "common/fault_injector.h"
#include "exec/gather.h"
#include "exec/plan_validator.h"
#include "expr/analysis.h"

namespace seltrig {

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out += " | ";
    out += schema.column(i).name;
  }
  out += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += " | ";
      out += rows[r][c].ToString();
    }
    out += "\n";
  }
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

Executor::Executor(ExecContext* ctx) : ctx_(ctx) {
  ctx_->set_subquery_runner(
      [this](const LogicalOperator& plan, const std::vector<const Row*>& outer_rows) {
        return ExecutePlan(plan, outer_rows);
      });
}

namespace {

// Extracts hash-join equi-keys from a join condition: conjuncts of the form
// `left_expr = right_expr` where each side references exactly one input.
// Returns remaining conjuncts combined as the residual.
void ExtractEquiKeys(const Expr& condition, int left_width, int total_width,
                     std::vector<ExprPtr>* left_keys, std::vector<ExprPtr>* right_keys,
                     ExprPtr* residual) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(condition.Clone(), &conjuncts);
  std::vector<ExprPtr> rest;
  for (auto& c : conjuncts) {
    bool used = false;
    if (c->kind == ExprKind::kComparison && c->cmp_op == CompareOp::kEq) {
      Expr* l = c->children[0].get();
      Expr* r = c->children[1].get();
      bool l_left = ExprReferencesOnlyRange(*l, 0, left_width);
      bool l_right = ExprReferencesOnlyRange(*l, left_width, total_width);
      bool r_left = ExprReferencesOnlyRange(*r, 0, left_width);
      bool r_right = ExprReferencesOnlyRange(*r, left_width, total_width);
      if (l_left && r_right) {
        left_keys->push_back(std::move(c->children[0]));
        ShiftColumnRefs(r, -left_width);
        right_keys->push_back(std::move(c->children[1]));
        used = true;
      } else if (l_right && r_left) {
        left_keys->push_back(std::move(c->children[1]));
        ShiftColumnRefs(l, -left_width);
        right_keys->push_back(std::move(c->children[0]));
        used = true;
      }
    }
    if (!used) rest.push_back(std::move(c));
  }
  *residual = CombineConjuncts(std::move(rest));
}

// Whether an audit operator sits on the *lazy spine* of `node`: the chain of
// operators whose pull granularity is observable from above. Pipeline
// breakers (Sort, Aggregate, a join's build side) consume their inputs to
// exhaustion during Init, so everything below them sees the same rows no
// matter how the top of the tree is paced — only audit operators reachable
// through purely streaming edges can observe batch-size differences when an
// early-stopping consumer (LIMIT, or a client's max_rows prefix-abort) stops
// pulling. Those spines get batch capacity 1 ("exact mode"), making the flow
// bit-for-bit identical to the row-at-a-time engine; audit-free spines below
// an early stop are merely capped at the row budget so scans stay lazy.
bool LazySpineHasAudit(const LogicalOperator& node) {
  switch (node.kind()) {
    case PlanKind::kAudit:
      return true;
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kDistinct:
    case PlanKind::kLimit:
      return LazySpineHasAudit(*node.children[0]);
    case PlanKind::kJoin:
      // Only the probe (left) side streams; the build side materializes.
      return LazySpineHasAudit(*node.children[0]);
    default:
      // Scan, Values, Sort, Aggregate: no audit below a streaming edge.
      return false;
  }
}

// Combines two spine capacity caps (0 = uncapped).
size_t CombineCaps(size_t a, size_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return std::min(a, b);
}

}  // namespace

Result<OperatorPtr> Executor::Build(const LogicalOperator& node,
                                    const std::vector<const Row*>& outer_rows) {
  return BuildNode(node, outer_rows, /*spine_cap=*/0);
}

Result<OperatorPtr> Executor::BuildNode(const LogicalOperator& node,
                                        const std::vector<const Row*>& outer_rows,
                                        size_t spine_cap) {
  // Morsel-parallel path: an eligible scan spine becomes a single gather
  // operator instead of the serial chain. Requires an uncapped spine (a cap
  // means an early-stopping consumer observes pull pacing), no correlation
  // stack, and no ACCESSED cardinality cap (a cap makes ACCESSED depend on
  // arrival order, which the deterministic merge cannot replay).
  if (ctx_->num_threads() > 1 && spine_cap == 0 && outer_rows.empty()) {
    AccessedStateRegistry* registry = ctx_->accessed();
    if (registry == nullptr || registry->capacity() == 0) {
      const LogicalScan* scan = ParallelSpineScan(node);
      if (scan != nullptr) {
        Result<Table*> table = ctx_->catalog()->GetTable(scan->table_name);
        if (table.ok()) {
          auto gather = std::make_unique<PhysicalGatherOp>(ctx_, node, *scan, *table);
          gather->set_logical_node(&node);
          return OperatorPtr(std::move(gather));
        }
      }
    }
  }
  OperatorPtr op;
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      Table* table = nullptr;
      if (scan.virtual_rows == nullptr) {
        SELTRIG_ASSIGN_OR_RETURN(table, ctx_->catalog()->GetTable(scan.table_name));
      }
      op = std::make_unique<SeqScanOp>(ctx_, outer_rows, scan, table);
      break;
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const LogicalFilter&>(node);
      SELTRIG_ASSIGN_OR_RETURN(OperatorPtr child,
                               BuildNode(*node.children[0], outer_rows, spine_cap));
      op = std::make_unique<FilterOp>(ctx_, outer_rows, filter, std::move(child));
      break;
    }
    case PlanKind::kProject: {
      const auto& project = static_cast<const LogicalProject&>(node);
      SELTRIG_ASSIGN_OR_RETURN(OperatorPtr child,
                               BuildNode(*node.children[0], outer_rows, spine_cap));
      op = std::make_unique<ProjectOp>(ctx_, outer_rows, project, std::move(child));
      break;
    }
    case PlanKind::kJoin: {
      const auto& join = static_cast<const LogicalJoin&>(node);
      // The probe side streams (inherits the spine cap); the build side is
      // consumed to exhaustion during Init, so it always runs fully batched.
      SELTRIG_ASSIGN_OR_RETURN(OperatorPtr left,
                               BuildNode(*node.children[0], outer_rows, spine_cap));
      SELTRIG_ASSIGN_OR_RETURN(
          OperatorPtr right, BuildNode(*node.children[1], outer_rows, /*spine_cap=*/0));
      bool built_hash = false;
      if (join.condition != nullptr) {
        int left_width = static_cast<int>(node.children[0]->schema.size());
        int total_width = left_width + static_cast<int>(node.children[1]->schema.size());
        std::vector<ExprPtr> left_keys, right_keys;
        ExprPtr residual;
        ExtractEquiKeys(*join.condition, left_width, total_width, &left_keys,
                        &right_keys, &residual);
        if (!left_keys.empty()) {
          op = std::make_unique<HashJoinOp>(
              ctx_, outer_rows, join, std::move(left), std::move(right),
              std::move(left_keys), std::move(right_keys), std::move(residual));
          built_hash = true;
        }
      }
      if (!built_hash) {
        op = std::make_unique<NLJoinOp>(ctx_, outer_rows, join, std::move(left),
                                        std::move(right));
      }
      break;
    }
    case PlanKind::kAggregate: {
      const auto& agg = static_cast<const LogicalAggregate&>(node);
      SELTRIG_ASSIGN_OR_RETURN(
          OperatorPtr child, BuildNode(*node.children[0], outer_rows, /*spine_cap=*/0));
      op = std::make_unique<HashAggregateOp>(ctx_, outer_rows, agg, std::move(child));
      break;
    }
    case PlanKind::kSort: {
      const auto& sort = static_cast<const LogicalSort&>(node);
      SELTRIG_ASSIGN_OR_RETURN(
          OperatorPtr child, BuildNode(*node.children[0], outer_rows, /*spine_cap=*/0));
      op = std::make_unique<SortOp>(ctx_, outer_rows, sort, std::move(child));
      break;
    }
    case PlanKind::kLimit: {
      const auto& limit = static_cast<const LogicalLimit&>(node);
      size_t child_cap = spine_cap;
      if (limit.limit >= 0) {
        if (LazySpineHasAudit(*node.children[0])) {
          // An audit op below an early-stopping LIMIT must see the exact
          // row-at-a-time flow: ACCESSED depends on which tuples are pulled.
          child_cap = 1;
        } else {
          size_t budget = static_cast<size_t>(limit.limit + limit.offset);
          child_cap = CombineCaps(child_cap, budget == 0 ? 1 : budget);
        }
      }
      SELTRIG_ASSIGN_OR_RETURN(OperatorPtr child,
                               BuildNode(*node.children[0], outer_rows, child_cap));
      op = std::make_unique<LimitOp>(ctx_, outer_rows, limit, std::move(child));
      break;
    }
    case PlanKind::kDistinct: {
      SELTRIG_ASSIGN_OR_RETURN(OperatorPtr child,
                               BuildNode(*node.children[0], outer_rows, spine_cap));
      op = std::make_unique<DistinctOp>(ctx_, outer_rows, std::move(child));
      break;
    }
    case PlanKind::kValues: {
      const auto& values = static_cast<const LogicalValues&>(node);
      op = std::make_unique<ValuesOp>(ctx_, outer_rows, values);
      break;
    }
    case PlanKind::kAudit: {
      const auto& audit = static_cast<const LogicalAudit&>(node);
      SELTRIG_ASSIGN_OR_RETURN(OperatorPtr child,
                               BuildNode(*node.children[0], outer_rows, spine_cap));
      op = std::make_unique<PhysicalAuditOp>(ctx_, outer_rows, audit, std::move(child));
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unknown plan node kind");
  op->set_logical_node(&node);
  if (spine_cap != 0 && spine_cap < op->batch_capacity()) {
    op->set_batch_capacity(spine_cap);
  }
  return op;
}

Status Executor::MaybeValidatePlan(const PhysicalOperator& root,
                                   const LogicalOperator& plan, int64_t max_rows,
                                   const std::vector<const Row*>& outer_rows) {
#ifdef NDEBUG
  if (!ctx_->validate_plans()) return Status::OK();
#endif
  PlanExecutionInfo info;
  info.max_rows = max_rows;
  info.correlated = !outer_rows.empty();
  info.catalog = ctx_->catalog();
  AccessedStateRegistry* registry = ctx_->accessed();
  info.accessed_capacity = registry == nullptr ? 0 : registry->capacity();
  const PlanValidation* validation =
      ctx_->validation_root() == &plan ? ctx_->plan_validation() : nullptr;
  return ValidatePhysicalPlan(root, validation, info);
}

Result<std::vector<Row>> Executor::ExecutePlan(
    const LogicalOperator& plan, const std::vector<const Row*>& outer_rows) {
  // Plans run here always run to completion (subqueries, trigger conditions,
  // the offline auditor), so the flow through every operator is independent
  // of batch size — no exact-mode pinning needed.
  SELTRIG_ASSIGN_OR_RETURN(OperatorPtr root, BuildNode(plan, outer_rows, 0));
  SELTRIG_RETURN_IF_ERROR(
      MaybeValidatePlan(*root, plan, /*max_rows=*/-1, outer_rows));
  SELTRIG_RETURN_IF_ERROR(root->Init());
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kExecutorBatch));
  std::vector<Row> rows;
  ColumnBatch batch;
  while (true) {
    Result<bool> has = root->NextBatch(&batch);
    SELTRIG_RETURN_IF_ERROR(has.status());
    if (!*has) break;
    for (size_t i = 0; i < batch.size(); ++i) batch.MaterializeRow(i, &rows.emplace_back());
    SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kExecutorBatch));
  }
  return rows;
}

Result<QueryResult> Executor::ExecuteQuery(const LogicalOperator& plan,
                                           int64_t max_rows,
                                           const std::vector<const Row*>& outer_rows) {
  // A max_rows prefix-abort stops pulling mid-stream. If an audit operator
  // would observe that pacing, pin the streaming spine to capacity 1 so
  // ACCESSED reflects exactly the tuples the row-at-a-time engine would have
  // flowed; otherwise just cap the spine at the row budget so the scan stays
  // lazy (Volcano semantics: only the rows needed are pulled).
  size_t spine_cap = 0;
  if (max_rows >= 0) {
    spine_cap = LazySpineHasAudit(plan)
                    ? 1
                    : std::max<size_t>(1, static_cast<size_t>(max_rows));
  }
  SELTRIG_ASSIGN_OR_RETURN(OperatorPtr root, BuildNode(plan, outer_rows, spine_cap));
  SELTRIG_RETURN_IF_ERROR(MaybeValidatePlan(*root, plan, max_rows, outer_rows));
  SELTRIG_RETURN_IF_ERROR(root->Init());
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kExecutorBatch));

  QueryResult result;
  std::vector<int> visible;
  for (size_t i = 0; i < plan.schema.size(); ++i) {
    if (!plan.schema.column(i).hidden) {
      visible.push_back(static_cast<int>(i));
      result.schema.AddColumn(plan.schema.column(i));
    }
  }
  bool any_hidden = visible.size() != plan.schema.size();

  ColumnBatch batch;
  while (max_rows < 0 || static_cast<int64_t>(result.rows.size()) < max_rows) {
    Result<bool> has = root->NextBatch(&batch);
    SELTRIG_RETURN_IF_ERROR(has.status());
    if (!*has) break;
    size_t take = batch.size();
    if (max_rows >= 0) {
      int64_t remaining = max_rows - static_cast<int64_t>(result.rows.size());
      take = std::min(take, static_cast<size_t>(remaining));
    }
    for (size_t r = 0; r < take; ++r) {
      Row& row = result.rows.emplace_back();
      if (any_hidden) {
        row.reserve(visible.size());
        for (int c : visible) row.push_back(batch.GetValue(static_cast<size_t>(c), r));
      } else {
        batch.MaterializeRow(r, &row);
      }
    }
    SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kExecutorBatch));
  }

  if (ctx_->collect_profile()) {
    ctx_->profile_text() += FormatOperatorProfile(*root);
  }
  return result;
}

}  // namespace seltrig
