#include "optimizer/optimizer.h"

#include <utility>
#include <vector>

#include "expr/analysis.h"
#include "storage/sensitive_id_view.h"

namespace seltrig {

namespace {

// --- generic plan walking (including nested subquery plans) -----------------

void WalkExprSubqueries(Expr& e, const std::function<void(PlanPtr&)>& fn) {
  if (e.kind == ExprKind::kSubquery && e.subquery_plan != nullptr) {
    fn(e.subquery_plan);
  }
  for (auto& c : e.children) WalkExprSubqueries(*c, fn);
}

// Applies `fn` to `plan` and to every nested subquery plan, bottom-up.
void ForEachPlanIncludingSubqueries(PlanPtr& plan,
                                    const std::function<void(PlanPtr&)>& fn) {
  for (auto& child : plan->children) ForEachPlanIncludingSubqueries(child, fn);
  VisitNodeExprs(*plan, [&fn](ExprPtr& e) {
    WalkExprSubqueries(*e, [&fn](PlanPtr& sub) {
      ForEachPlanIncludingSubqueries(sub, fn);
    });
  });
  fn(plan);
}

// --- constant folding ---------------------------------------------------------

void FoldNode(PlanPtr& plan) {
  VisitNodeExprs(*plan, [](ExprPtr& e) { e = FoldConstants(std::move(e)); });
}

// --- filter pushdown ----------------------------------------------------------

bool IsAlwaysTrue(const Expr& e) {
  return e.kind == ExprKind::kLiteral && e.literal.type() == TypeId::kBool &&
         e.literal.AsBool();
}

// Pushes the conjuncts of a filter predicate into/through `child` where
// possible. Returns the remaining conjuncts that must stay above `child`.
std::vector<ExprPtr> PushConjunctsInto(PlanPtr& child, std::vector<ExprPtr> conjuncts);

// Wraps `plan` in a filter holding `conjuncts` (no-op if empty).
PlanPtr WrapInFilter(PlanPtr plan, std::vector<ExprPtr> conjuncts) {
  ExprPtr pred = CombineConjuncts(std::move(conjuncts));
  if (pred == nullptr) return plan;
  auto filter = std::make_shared<LogicalFilter>();
  filter->schema = plan->schema;
  filter->predicate = std::move(pred);
  filter->children = {std::move(plan)};
  return filter;
}

std::vector<ExprPtr> PushConjunctsInto(PlanPtr& child, std::vector<ExprPtr> conjuncts) {
  std::vector<ExprPtr> keep;
  switch (child->kind()) {
    case PlanKind::kScan: {
      auto& scan = static_cast<LogicalScan&>(*child);
      for (auto& c : conjuncts) {
        if (IsAlwaysTrue(*c)) continue;
        scan.filter = scan.filter == nullptr
                          ? std::move(c)
                          : MakeAnd(std::move(scan.filter), std::move(c));
      }
      return keep;
    }
    case PlanKind::kFilter: {
      auto& filter = static_cast<LogicalFilter&>(*child);
      if (filter.audit_derived) break;  // opaque: keep everything above
      std::vector<ExprPtr> merged;
      SplitConjuncts(std::move(filter.predicate), &merged);
      for (auto& c : conjuncts) merged.push_back(std::move(c));
      // Re-push the merged set into the filter's child; the filter node
      // dissolves if everything sinks.
      std::vector<ExprPtr> rest = PushConjunctsInto(filter.children[0], std::move(merged));
      if (rest.empty()) {
        child = filter.children[0];
        return keep;
      }
      filter.predicate = CombineConjuncts(std::move(rest));
      return keep;
    }
    case PlanKind::kJoin: {
      auto& join = static_cast<LogicalJoin&>(*child);
      int left_width = static_cast<int>(join.children[0]->schema.size());
      int total_width = static_cast<int>(join.schema.size());
      std::vector<ExprPtr> to_left, to_right, to_condition;
      for (auto& c : conjuncts) {
        if (IsAlwaysTrue(*c)) continue;
        if (ExprReferencesOnlyRange(*c, 0, left_width)) {
          to_left.push_back(std::move(c));
        } else if (ExprReferencesOnlyRange(*c, left_width, total_width) &&
                   join.join_type != JoinType::kLeft) {
          // Above a LEFT join, right-side predicates filter null-padded rows
          // and must stay above.
          ShiftColumnRefs(c.get(), -left_width);
          to_right.push_back(std::move(c));
        } else if (join.join_type == JoinType::kInner ||
                   join.join_type == JoinType::kCross) {
          to_condition.push_back(std::move(c));
        } else {
          keep.push_back(std::move(c));
        }
      }
      if (!to_condition.empty()) {
        if (join.condition != nullptr) to_condition.push_back(std::move(join.condition));
        join.condition = CombineConjuncts(std::move(to_condition));
        if (join.join_type == JoinType::kCross) join.join_type = JoinType::kInner;
      }
      if (!to_left.empty()) {
        std::vector<ExprPtr> rest = PushConjunctsInto(join.children[0], std::move(to_left));
        join.children[0] = WrapInFilter(join.children[0], std::move(rest));
      }
      if (!to_right.empty()) {
        std::vector<ExprPtr> rest = PushConjunctsInto(join.children[1], std::move(to_right));
        join.children[1] = WrapInFilter(join.children[1], std::move(rest));
      }
      return keep;
    }
    case PlanKind::kSort:
    case PlanKind::kDistinct: {
      // Filters commute with sorting and duplicate elimination.
      std::vector<ExprPtr> rest = PushConjunctsInto(child->children[0], std::move(conjuncts));
      child->children[0] = WrapInFilter(child->children[0], std::move(rest));
      return keep;
    }
    default:
      break;
  }
  return conjuncts;  // everything stays above
}

// Recursively applies pushdown over the whole plan.
void PushDownFilters(PlanPtr& plan) {
  // Push ON-condition single-side conjuncts of inner joins into the inputs.
  if (plan->kind() == PlanKind::kJoin) {
    auto& join = static_cast<LogicalJoin&>(*plan);
    if (join.join_type == JoinType::kInner && join.condition != nullptr) {
      int left_width = static_cast<int>(join.children[0]->schema.size());
      int total_width = static_cast<int>(join.schema.size());
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(std::move(join.condition), &conjuncts);
      std::vector<ExprPtr> remain;
      std::vector<ExprPtr> to_left, to_right;
      for (auto& c : conjuncts) {
        if (ExprReferencesOnlyRange(*c, 0, left_width)) {
          to_left.push_back(std::move(c));
        } else if (ExprReferencesOnlyRange(*c, left_width, total_width)) {
          ShiftColumnRefs(c.get(), -left_width);
          to_right.push_back(std::move(c));
        } else {
          remain.push_back(std::move(c));
        }
      }
      join.condition = CombineConjuncts(std::move(remain));
      if (!to_left.empty()) {
        std::vector<ExprPtr> rest = PushConjunctsInto(join.children[0], std::move(to_left));
        join.children[0] = WrapInFilter(join.children[0], std::move(rest));
      }
      if (!to_right.empty()) {
        std::vector<ExprPtr> rest = PushConjunctsInto(join.children[1], std::move(to_right));
        join.children[1] = WrapInFilter(join.children[1], std::move(rest));
      }
    }
  }
  if (plan->kind() == PlanKind::kFilter &&
      !static_cast<LogicalFilter&>(*plan).audit_derived) {
    auto& filter = static_cast<LogicalFilter&>(*plan);
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(std::move(filter.predicate), &conjuncts);
    std::vector<ExprPtr> rest = PushConjunctsInto(filter.children[0], std::move(conjuncts));
    if (rest.empty()) {
      plan = filter.children[0];
      PushDownFilters(plan);
      return;
    }
    filter.predicate = CombineConjuncts(std::move(rest));
  }
  for (auto& child : plan->children) PushDownFilters(child);
}

// --- contradiction detection ---------------------------------------------

// Gathers per-column constraints along a chain of schema-preserving nodes
// (Filter, Audit) ending at an optional Scan, all sharing one schema. When
// `include_audit_pins` is set, an audit operator whose ID view holds exactly
// one ID contributes `key = id` -- the audit-unaware behavior of Example 4.1.
bool ChainUnsatisfiable(const LogicalOperator& node, bool include_audit_pins) {
  std::map<int, ValueInterval> intervals;
  bool found = false;
  const LogicalOperator* cur = &node;
  while (true) {
    switch (cur->kind()) {
      case PlanKind::kFilter: {
        const auto& f = static_cast<const LogicalFilter&>(*cur);
        found |= AnalyzeConjunction(*f.predicate, &intervals);
        cur = cur->children[0].get();
        continue;
      }
      case PlanKind::kProject: {
        // Descend through pure column permutations, remapping accumulated
        // constraints into the child's column space; constraints on computed
        // columns are dropped (sound: the region only grows).
        const auto& p = static_cast<const LogicalProject&>(*cur);
        std::map<int, ValueInterval> remapped;
        for (auto& [col, interval] : intervals) {
          if (col < static_cast<int>(p.exprs.size()) &&
              p.exprs[col]->kind == ExprKind::kColumnRef) {
            remapped[p.exprs[col]->column_index] = interval;
          }
        }
        intervals = std::move(remapped);
        cur = cur->children[0].get();
        continue;
      }
      case PlanKind::kSort:
      case PlanKind::kDistinct:
      case PlanKind::kLimit:
        // Schema-preserving; constraints carry through unchanged. (An empty
        // input stays empty through these operators.)
        cur = cur->children[0].get();
        continue;
      case PlanKind::kAudit: {
        const auto& a = static_cast<const LogicalAudit&>(*cur);
        if (include_audit_pins) {
          if (a.id_view != nullptr && a.id_view->size() == 1) {
            intervals[a.key_column].ApplyCompare(CompareOp::kEq,
                                                 *a.id_view->ids().begin());
            found = true;
          } else if (a.fallback_predicate != nullptr) {
            found |= AnalyzeConjunction(*a.fallback_predicate, &intervals);
          }
        }
        cur = cur->children[0].get();
        continue;
      }
      case PlanKind::kScan: {
        const auto& s = static_cast<const LogicalScan&>(*cur);
        // The scan filter is bound against the base schema; remap the
        // constraints accumulated in output space through the projection.
        std::map<int, ValueInterval> base_intervals;
        for (auto& [col, interval] : intervals) {
          base_intervals[s.BaseColumn(col)] = interval;
        }
        intervals = std::move(base_intervals);
        if (s.filter != nullptr) found |= AnalyzeConjunction(*s.filter, &intervals);
        break;
      }
      default:
        break;
    }
    break;
  }
  if (!found) return false;
  for (const auto& [col, interval] : intervals) {
    if (interval.empty) return true;
  }
  return false;
}

void DetectContradictions(PlanPtr& plan, bool include_audit_pins) {
  if ((plan->kind() == PlanKind::kFilter || plan->kind() == PlanKind::kScan ||
       plan->kind() == PlanKind::kAudit) &&
      ChainUnsatisfiable(*plan, include_audit_pins)) {
    auto empty = std::make_shared<LogicalValues>();
    empty->schema = plan->schema;
    plan = std::move(empty);
    return;
  }
  for (auto& child : plan->children) DetectContradictions(child, include_audit_pins);
}

// --- IN-subquery single-value simplification ----------------------------------

// Returns true when the plan's output column 0 is provably pinned to a single
// constant by equality predicates along the spine of the plan. When
// `include_audit_pins` is set, single-ID audit operators count as pins
// (the audit-unaware mistake of Example 4.2).
bool OutputColumnPinned(const LogicalOperator& plan, int tracked_col,
                        bool include_audit_pins) {
  switch (plan.kind()) {
    case PlanKind::kProject: {
      const auto& p = static_cast<const LogicalProject&>(plan);
      if (tracked_col >= static_cast<int>(p.exprs.size())) return false;
      const Expr& e = *p.exprs[tracked_col];
      if (e.kind == ExprKind::kLiteral) return true;
      if (e.kind != ExprKind::kColumnRef) return false;
      return OutputColumnPinned(*plan.children[0], e.column_index, include_audit_pins);
    }
    case PlanKind::kFilter: {
      const auto& f = static_cast<const LogicalFilter&>(plan);
      std::map<int, ValueInterval> intervals;
      if (AnalyzeConjunction(*f.predicate, &intervals)) {
        auto it = intervals.find(tracked_col);
        if (it != intervals.end() && it->second.eq.has_value()) return true;
      }
      return OutputColumnPinned(*plan.children[0], tracked_col, include_audit_pins);
    }
    case PlanKind::kScan: {
      const auto& s = static_cast<const LogicalScan&>(plan);
      if (s.filter == nullptr) return false;
      std::map<int, ValueInterval> intervals;
      if (!AnalyzeConjunction(*s.filter, &intervals)) return false;
      auto it = intervals.find(s.BaseColumn(tracked_col));
      return it != intervals.end() && it->second.eq.has_value();
    }
    case PlanKind::kAudit: {
      const auto& a = static_cast<const LogicalAudit&>(plan);
      if (include_audit_pins && a.key_column == tracked_col &&
          a.id_view != nullptr && a.id_view->size() == 1) {
        return true;
      }
      return OutputColumnPinned(*plan.children[0], tracked_col, include_audit_pins);
    }
    case PlanKind::kSort:
    case PlanKind::kDistinct:
    case PlanKind::kLimit:
      return OutputColumnPinned(*plan.children[0], tracked_col, include_audit_pins);
    default:
      return false;
  }
}

void SimplifySubqueryExpr(Expr& e, bool include_audit_pins) {
  for (auto& c : e.children) SimplifySubqueryExpr(*c, include_audit_pins);
  if (e.kind != ExprKind::kSubquery || e.subquery_kind != SubqueryKind::kIn) return;
  if (e.subquery_plan == nullptr || e.subquery_plan->kind() == PlanKind::kLimit) return;
  if (!OutputColumnPinned(*e.subquery_plan, 0, include_audit_pins)) return;
  auto limit = std::make_shared<LogicalLimit>();
  limit->limit = 1;
  limit->schema = e.subquery_plan->schema;
  limit->children = {e.subquery_plan};
  e.subquery_plan = std::move(limit);
}

void SimplifyInSubqueries(PlanPtr& plan, bool include_audit_pins) {
  VisitNodeExprs(*plan, [include_audit_pins](ExprPtr& e) {
    SimplifySubqueryExpr(*e, include_audit_pins);
  });
  for (auto& child : plan->children) SimplifyInSubqueries(child, include_audit_pins);
}

}  // namespace

Result<PlanPtr> OptimizePlan(PlanPtr plan, const OptimizerOptions& options) {
  if (options.enable_constant_folding) {
    ForEachPlanIncludingSubqueries(plan, FoldNode);
  }
  if (options.enable_filter_pushdown) {
    ForEachPlanIncludingSubqueries(plan, [](PlanPtr& p) {
      // Pushdown is applied once per (sub)plan root; it recurses internally.
      if (p->children.empty() && p->kind() != PlanKind::kFilter) return;
      PushDownFilters(p);
    });
  }
  if (options.enable_join_reordering && options.catalog != nullptr) {
    // ReorderJoins recurses through nested subquery plans itself.
    SELTRIG_ASSIGN_OR_RETURN(plan, ReorderJoins(std::move(plan), options.catalog));
  }
  if (options.enable_column_pruning) {
    ColumnPruningOptions prune_options;
    prune_options.audit_keys = options.audit_keys;
    prune_options.propagate_ids = options.propagate_ids;
    // PruneColumns prunes nested subquery plans itself.
    SELTRIG_ASSIGN_OR_RETURN(plan, PruneColumns(std::move(plan), prune_options));
  }
  if (options.enable_contradiction_detection) {
    ForEachPlanIncludingSubqueries(plan, [](PlanPtr& p) {
      DetectContradictions(p, /*include_audit_pins=*/false);
    });
  }
  return plan;
}

Result<PlanPtr> OptimizeInstrumentedPlan(PlanPtr plan, const OptimizerOptions& options) {
  bool include_audit_pins = !options.audit_aware;
  if (options.enable_contradiction_detection) {
    ForEachPlanIncludingSubqueries(plan, [include_audit_pins](PlanPtr& p) {
      DetectContradictions(p, include_audit_pins);
    });
  }
  if (options.enable_in_subquery_single_value) {
    SimplifyInSubqueries(plan, include_audit_pins);
  }
  return plan;
}

}  // namespace seltrig
