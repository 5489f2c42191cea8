#include "exec/plan_validator.h"

#include <utility>

#include "catalog/catalog.h"
#include "exec/gather.h"
#include "exec/operators.h"
#include "plan/logical_plan.h"
#include "storage/table.h"

namespace seltrig {

namespace {

Status Violation(const char* invariant, const std::string& detail) {
  return Status::Internal(std::string("plan validator [") + invariant +
                          "]: " + detail + " (failing closed)");
}

// An audit operator on the current root-to-leaf path, plus whether the path
// below it has crossed an operator it does not commute with. Descent copies
// the vector per child, so sibling branches track their crossings
// independently (plans are small; clarity over allocation counts here).
struct ActiveAudit {
  const std::string* name;
  bool crossed = false;
  const char* crossed_what = "";
};

void MarkCrossed(std::vector<ActiveAudit>* actives, const char* what) {
  for (ActiveAudit& a : *actives) {
    if (!a.crossed) {
      a.crossed = true;
      a.crossed_what = what;
    }
  }
}

class Validator {
 public:
  Validator(const PlanValidation* validation, const PlanExecutionInfo& info)
      : validation_(validation), info_(info) {}

  Status Run(const PhysicalOperator& root) {
    SELTRIG_RETURN_IF_ERROR(WalkPlacement(root, {}));
    if (info_.max_rows >= 0 && SpineHasAudit(root)) {
      SELTRIG_RETURN_IF_ERROR(
          CheckExactSpine(root, "the max_rows prefix-abort"));
    }
    return WalkLimits(root);
  }

 private:
  // --- Invariants 1 + 2 + gather mounting --------------------------------

  Status WalkPlacement(const PhysicalOperator& op,
                       std::vector<ActiveAudit> actives) {
    const LogicalOperator* node = op.logical_node();
    if (node == nullptr) {
      return Violation("introspection", "physical operator '" + op.DebugName() +
                                            "' carries no logical node");
    }
    if (const auto* gather = dynamic_cast<const PhysicalGatherOp*>(&op)) {
      SELTRIG_RETURN_IF_ERROR(CheckGatherMount());
      return WalkGatherSpine(gather->spine(), std::move(actives));
    }
    switch (node->kind()) {
      case PlanKind::kAudit:
        actives.push_back(
            {&static_cast<const LogicalAudit&>(*node).audit_name});
        break;
      case PlanKind::kScan:
        return CheckScan(static_cast<const LogicalScan&>(*node), actives);
      case PlanKind::kAggregate:
        MarkCrossed(&actives, "an aggregate");
        break;
      case PlanKind::kLimit:
        MarkCrossed(&actives, "a LIMIT");
        break;
      case PlanKind::kDistinct:
        MarkCrossed(&actives, "a DISTINCT");
        break;
      default:
        break;
    }
    const auto& children = op.profile_children();
    for (size_t i = 0; i < children.size(); ++i) {
      std::vector<ActiveAudit> child_actives = actives;
      // An audit above a left outer join does not observe the null-supplying
      // side's unmatched rows (their key is null-extended away), so it does
      // not commute into that branch.
      if (node->kind() == PlanKind::kJoin && i == 1 &&
          static_cast<const LogicalJoin&>(*node).join_type == JoinType::kLeft) {
        MarkCrossed(&child_actives,
                    "the null-supplying side of a left outer join");
      }
      SELTRIG_RETURN_IF_ERROR(
          WalkPlacement(*children[i], std::move(child_actives)));
    }
    return Status::OK();
  }

  // Worker pipelines are private to the gather's InitImpl, so the placement
  // walk continues over its logical spine, which lowers 1:1.
  Status WalkGatherSpine(const LogicalOperator& node,
                         std::vector<ActiveAudit> actives) {
    switch (node.kind()) {
      case PlanKind::kAudit:
        actives.push_back({&static_cast<const LogicalAudit&>(node).audit_name});
        break;
      case PlanKind::kFilter:
      case PlanKind::kProject:
        break;
      case PlanKind::kScan:
        return CheckScan(static_cast<const LogicalScan&>(node), actives);
      default:
        return Violation("gather-safety",
                         "parallel spine contains non-streaming operator '" +
                             node.Describe() + "'");
    }
    return WalkGatherSpine(*node.children[0], std::move(actives));
  }

  Status CheckScan(const LogicalScan& scan,
                   const std::vector<ActiveAudit>& actives) const {
    if (scan.virtual_rows != nullptr) return Status::OK();
    // Invariant 5 (universal): a plan bound before an ALTER TABLE carries
    // column indexes of the old schema; executing it would read the wrong
    // columns without any error. Stale plans fail closed.
    if (info_.catalog != nullptr && scan.schema_version != 0) {
      Result<Table*> table = info_.catalog->GetTable(scan.table_name);
      if (!table.ok()) {
        return Violation("schema-version",
                         "scan of table '" + scan.table_name +
                             "' which no longer exists in the catalog");
      }
      if ((*table)->schema_version() != scan.schema_version) {
        return Violation(
            "schema-version",
            "scan of table '" + scan.table_name + "' was bound at schema "
            "version " + std::to_string(scan.schema_version) +
                " but the catalog is at version " +
                std::to_string((*table)->schema_version()) +
                " (plan is stale; re-bind the statement)");
      }
    }
    if (validation_ == nullptr) return Status::OK();
    for (const AuditExpectation& expected : validation_->expected) {
      if (expected.sensitive_table != scan.table_name) continue;
      // The innermost (nearest-ancestor) audit for this expression is the one
      // covering this scan; outer same-name audits cover other branches.
      const ActiveAudit* nearest = nullptr;
      for (auto it = actives.rbegin(); it != actives.rend(); ++it) {
        if (*it->name == expected.audit_name) {
          nearest = &*it;
          break;
        }
      }
      if (nearest == nullptr) {
        if (validation_->check_domination) {
          return Violation("audit-domination",
                           "scan of sensitive table '" + scan.table_name +
                               "' is not dominated by an audit operator for "
                               "expression '" +
                               expected.audit_name + "'");
        }
        continue;
      }
      if (nearest->crossed && validation_->check_commutativity) {
        return Violation(
            "audit-commutativity",
            "audit operator '" + expected.audit_name + "' sits above " +
                nearest->crossed_what +
                " on the path to its sensitive scan of '" + scan.table_name +
                "'");
      }
    }
    return Status::OK();
  }

  Status CheckGatherMount() const {
    if (info_.correlated) {
      return Violation("gather-safety",
                       "parallel gather mounted for a correlated execution");
    }
    if (info_.accessed_capacity > 0) {
      return Violation("gather-safety",
                       "parallel gather mounted under a capped ACCESSED "
                       "registry (merge order would decide what overflows)");
    }
    return Status::OK();
  }

  // --- Invariant 3: exact-spine capacity ---------------------------------

  // Mirrors the executor's LazySpineHasAudit over the built physical tree.
  bool SpineHasAudit(const PhysicalOperator& op) const {
    if (const auto* gather = dynamic_cast<const PhysicalGatherOp*>(&op)) {
      const LogicalOperator* node = &gather->spine();
      while (node != nullptr) {
        if (node->kind() == PlanKind::kAudit) return true;
        node = node->children.empty() ? nullptr : node->children[0].get();
      }
      return false;
    }
    const LogicalOperator* node = op.logical_node();
    if (node == nullptr) return false;
    switch (node->kind()) {
      case PlanKind::kAudit:
        return true;
      case PlanKind::kFilter:
      case PlanKind::kProject:
      case PlanKind::kDistinct:
      case PlanKind::kLimit:
      case PlanKind::kJoin:  // only the probe side streams
        return !op.profile_children().empty() &&
               SpineHasAudit(*op.profile_children()[0]);
      default:
        return false;
    }
  }

  // Every operator on the streaming spine of an audited early stop must run
  // at batch capacity 1 — including the terminal producer (scan, or a
  // pipeline breaker whose output pacing the audit observes). Descent stops
  // below breakers: their subtrees run to exhaustion during Init and never
  // observe pull pacing.
  Status CheckExactSpine(const PhysicalOperator& op, const char* why) const {
    if (dynamic_cast<const PhysicalGatherOp*>(&op) != nullptr) {
      return Violation("exact-spine-cap",
                       std::string("parallel gather mounted on the audited "
                                   "spine below ") +
                           why);
    }
    if (op.batch_capacity() != 1) {
      return Violation(
          "exact-spine-cap",
          "operator '" + op.DebugName() + "' has batch capacity " +
              std::to_string(op.batch_capacity()) +
              " on an audited spine below " + why + " (must be 1)");
    }
    const LogicalOperator* node = op.logical_node();
    if (node == nullptr) return Status::OK();  // rejected by WalkPlacement
    switch (node->kind()) {
      case PlanKind::kFilter:
      case PlanKind::kProject:
      case PlanKind::kDistinct:
      case PlanKind::kLimit:
      case PlanKind::kAudit:
      case PlanKind::kJoin:
        if (!op.profile_children().empty()) {
          return CheckExactSpine(*op.profile_children()[0], why);
        }
        return Status::OK();
      default:
        return Status::OK();
    }
  }

  Status WalkLimits(const PhysicalOperator& op) const {
    const LogicalOperator* node = op.logical_node();
    if (node != nullptr && node->kind() == PlanKind::kLimit &&
        static_cast<const LogicalLimit&>(*node).limit >= 0 &&
        !op.profile_children().empty() &&
        SpineHasAudit(*op.profile_children()[0])) {
      SELTRIG_RETURN_IF_ERROR(
          CheckExactSpine(*op.profile_children()[0], "an audited LIMIT"));
    }
    for (const PhysicalOperator* child : op.profile_children()) {
      SELTRIG_RETURN_IF_ERROR(WalkLimits(*child));
    }
    return Status::OK();
  }

  const PlanValidation* validation_;
  const PlanExecutionInfo& info_;
};

}  // namespace

Status ValidatePhysicalPlan(const PhysicalOperator& root,
                            const PlanValidation* validation,
                            const PlanExecutionInfo& info) {
  return Validator(validation, info).Run(root);
}

}  // namespace seltrig
