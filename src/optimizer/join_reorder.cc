#include "optimizer/join_reorder.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "expr/analysis.h"

namespace seltrig {

namespace {

// Selectivity guess for one predicate conjunct (classic System-R defaults).
double ConjunctSelectivity(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kComparison:
      return e.cmp_op == CompareOp::kEq ? 0.05 : 0.33;
    case ExprKind::kLike:
      return 0.25;
    case ExprKind::kInList:
      return 0.1 * static_cast<double>(e.children.size() - 1);
    case ExprKind::kLogical:
      if (e.logical_op == LogicalOp::kAnd) {
        return ConjunctSelectivity(*e.children[0]) * ConjunctSelectivity(*e.children[1]);
      }
      if (e.logical_op == LogicalOp::kOr) {
        double a = ConjunctSelectivity(*e.children[0]);
        double b = ConjunctSelectivity(*e.children[1]);
        return std::min(1.0, a + b);
      }
      return 0.5;  // NOT
    default:
      return 0.5;
  }
}

// Calls `fn` on each top-level AND-conjunct of `e` (non-destructive
// counterpart of SplitConjuncts).
void ForEachConjunct(const Expr& e, const std::function<void(const Expr&)>& fn) {
  if (e.kind == ExprKind::kLogical && e.logical_op == LogicalOp::kAnd) {
    ForEachConjunct(*e.children[0], fn);
    ForEachConjunct(*e.children[1], fn);
    return;
  }
  fn(e);
}

// The catalog scan whose base column output column `col` of `node` passes
// through unchanged (filters, join concatenation, column-ref projections),
// or null when the column is computed or comes from a virtual relation.
const LogicalScan* ResolveScanColumn(const LogicalOperator& node, int col,
                                     int* base_col) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      if (scan.virtual_rows != nullptr) return nullptr;
      *base_col = scan.BaseColumn(col);
      return &scan;
    }
    case PlanKind::kFilter:
      return ResolveScanColumn(*node.children[0], col, base_col);
    case PlanKind::kJoin: {
      int left_width = static_cast<int>(node.children[0]->schema.size());
      if (col < left_width) return ResolveScanColumn(*node.children[0], col, base_col);
      return ResolveScanColumn(*node.children[1], col - left_width, base_col);
    }
    case PlanKind::kProject: {
      const Expr& e = *static_cast<const LogicalProject&>(node).exprs[static_cast<size_t>(col)];
      if (e.kind != ExprKind::kColumnRef) return nullptr;
      return ResolveScanColumn(*node.children[0], e.column_index, base_col);
    }
    default:
      return nullptr;
  }
}

// Maps a column reference of a join conjunct to the scan column it reads.
using ColumnResolver = std::function<const LogicalScan*(int col, int* base_col)>;

// Fraction of the cross product a join on `conjuncts` keeps. An equi conjunct
// that equates table T's primary key lets each row of the other side meet at
// most one T row, so the join keeps 1/rows(T) of the product (the smallest
// such fraction when several keys are equated, as in a two-key join); any
// other condition keeps the flat 0.01 guess, and no condition keeps it all.
double JoinFraction(const std::vector<const Expr*>& conjuncts,
                    const ColumnResolver& resolve, const Catalog* catalog) {
  if (conjuncts.empty()) return 1.0;
  double fraction = 0.0;
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kComparison || c->cmp_op != CompareOp::kEq) continue;
    for (const auto& side : c->children) {
      if (side->kind != ExprKind::kColumnRef || catalog == nullptr) continue;
      int base_col = -1;
      const LogicalScan* scan = resolve(side->column_index, &base_col);
      if (scan == nullptr) continue;
      Result<Table*> table = catalog->GetTable(scan->table_name);
      if (!table.ok() || (*table)->primary_key_column() != base_col) continue;
      double keyed = 1.0 / std::max(1.0, static_cast<double>((*table)->live_row_count()));
      if (fraction == 0.0 || keyed < fraction) fraction = keyed;
    }
  }
  return fraction == 0.0 ? 0.01 : fraction;
}

double JoinEstimate(double left, double right, double fraction) {
  return std::max(1.0, left * right * fraction);
}

}  // namespace

double EstimateCardinality(const LogicalOperator& plan, const Catalog* catalog) {
  switch (plan.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(plan);
      double rows = 1000.0;
      if (scan.virtual_rows != nullptr) {
        rows = static_cast<double>(scan.virtual_rows->size());
      } else if (catalog != nullptr) {
        Result<Table*> table = catalog->GetTable(scan.table_name);
        if (table.ok()) rows = static_cast<double>((*table)->live_row_count());
      }
      if (scan.filter != nullptr) rows *= ConjunctSelectivity(*scan.filter);
      return std::max(1.0, rows);
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const LogicalFilter&>(plan);
      return std::max(1.0, EstimateCardinality(*plan.children[0], catalog) *
                               ConjunctSelectivity(*filter.predicate));
    }
    case PlanKind::kJoin: {
      double l = EstimateCardinality(*plan.children[0], catalog);
      double r = EstimateCardinality(*plan.children[1], catalog);
      const auto& join = static_cast<const LogicalJoin&>(plan);
      std::vector<const Expr*> conjuncts;
      if (join.condition != nullptr) {
        ForEachConjunct(*join.condition, [&](const Expr& c) { conjuncts.push_back(&c); });
      }
      ColumnResolver resolve = [&plan](int col, int* base_col) {
        return ResolveScanColumn(plan, col, base_col);
      };
      return JoinEstimate(l, r, JoinFraction(conjuncts, resolve, catalog));
    }
    case PlanKind::kAggregate: {
      double child = EstimateCardinality(*plan.children[0], catalog);
      const auto& agg = static_cast<const LogicalAggregate&>(plan);
      if (agg.group_exprs.empty()) return 1.0;
      return std::max(1.0, child * 0.1);
    }
    case PlanKind::kLimit: {
      const auto& limit = static_cast<const LogicalLimit&>(plan);
      double child = EstimateCardinality(*plan.children[0], catalog);
      if (limit.limit < 0) return child;
      return std::min(child, static_cast<double>(limit.limit));
    }
    case PlanKind::kDistinct:
      return std::max(1.0, EstimateCardinality(*plan.children[0], catalog) * 0.5);
    case PlanKind::kValues:
      return static_cast<double>(static_cast<const LogicalValues&>(plan).rows.size());
    default:
      if (!plan.children.empty()) {
        return EstimateCardinality(*plan.children[0], catalog);
      }
      return 1000.0;
  }
}

namespace {

bool IsReorderableJoin(const LogicalOperator& node) {
  if (node.kind() != PlanKind::kJoin) return false;
  const auto& join = static_cast<const LogicalJoin&>(node);
  return join.join_type == JoinType::kInner || join.join_type == JoinType::kCross;
}

struct ChainLeaf {
  PlanPtr plan;
  int old_offset = 0;  // column offset in the original in-order concatenation
  double cardinality = 0.0;
};

// Flattens a maximal inner/cross chain: in-order leaves + all conjuncts,
// with every conjunct's column references rebased into the chain-global
// in-order numbering. A join node's condition is expressed in its own
// subtree's concatenation space; since the subtree's in-order leaves occupy
// a contiguous global slice starting at the subtree's entry offset, rebasing
// is a uniform shift (this matters for bushy shapes such as
// `FROM a, b JOIN c ON ...`, where the inner join is a right subtree).
void CollectChain(const PlanPtr& node, std::vector<PlanPtr>* leaves,
                  std::vector<ExprPtr>* conjuncts, int* width_so_far) {
  if (IsReorderableJoin(*node)) {
    int entry_offset = *width_so_far;
    auto& join = static_cast<LogicalJoin&>(*node);
    CollectChain(join.children[0], leaves, conjuncts, width_so_far);
    CollectChain(join.children[1], leaves, conjuncts, width_so_far);
    if (join.condition != nullptr) {
      std::vector<ExprPtr> here;
      SplitConjuncts(std::move(join.condition), &here);
      for (auto& c : here) {
        if (entry_offset != 0) {
          VisitScopeColumnRefs(*c, [entry_offset](int& idx) { idx += entry_offset; });
        }
        conjuncts->push_back(std::move(c));
      }
    }
    return;
  }
  leaves->push_back(node);
  *width_so_far += static_cast<int>(node->schema.size());
}

// The leaves a conjunct touches, given per-leaf [offset, offset+width) spans.
std::vector<int> TouchedLeaves(Expr& conjunct, const std::vector<ChainLeaf>& leaves) {
  std::vector<int> touched;
  VisitScopeColumnRefs(conjunct, [&](int& idx) {
    for (size_t l = 0; l < leaves.size(); ++l) {
      int width = static_cast<int>(leaves[l].plan->schema.size());
      if (idx >= leaves[l].old_offset && idx < leaves[l].old_offset + width) {
        if (std::find(touched.begin(), touched.end(), static_cast<int>(l)) ==
            touched.end()) {
          touched.push_back(static_cast<int>(l));
        }
        return;
      }
    }
  });
  return touched;
}

PlanPtr ReorderChain(PlanPtr root, const Catalog* catalog) {
  Schema original_schema = root->schema;
  std::vector<PlanPtr> leaf_plans;
  std::vector<ExprPtr> conjuncts;
  int width = 0;
  CollectChain(root, &leaf_plans, &conjuncts, &width);

  std::vector<ChainLeaf> leaves;
  int offset = 0;
  for (PlanPtr& plan : leaf_plans) {
    ChainLeaf leaf;
    leaf.plan = std::move(plan);
    leaf.old_offset = offset;
    offset += static_cast<int>(leaf.plan->schema.size());
    leaf.cardinality = EstimateCardinality(*leaf.plan, catalog);
    leaves.push_back(std::move(leaf));
  }
  int total_width = offset;

  // Which leaves each conjunct touches (by original numbering).
  std::vector<std::vector<int>> touched;
  touched.reserve(conjuncts.size());
  for (auto& c : conjuncts) touched.push_back(TouchedLeaves(*c, leaves));
  // Conjuncts are in the original numbering until attached to a join.
  ColumnResolver resolve = [&leaves](int col, int* base_col) -> const LogicalScan* {
    for (const ChainLeaf& leaf : leaves) {
      int leaf_width = static_cast<int>(leaf.plan->schema.size());
      if (col >= leaf.old_offset && col < leaf.old_offset + leaf_width) {
        return ResolveScanColumn(*leaf.plan, col - leaf.old_offset, base_col);
      }
    }
    return nullptr;
  };

  size_t n = leaves.size();
  std::vector<bool> placed(n, false);
  std::vector<bool> used(conjuncts.size(), false);
  auto connected = [&](int candidate) {
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      bool touches_candidate = false;
      bool touches_placed = false;
      for (int l : touched[c]) {
        if (l == candidate) touches_candidate = true;
        if (placed[l]) touches_placed = true;
      }
      if (touches_candidate && touches_placed) return true;
    }
    return false;
  };
  // The unattached conjuncts evaluable once `candidate` joins the tree.
  auto attachable = [&](int candidate) {
    std::vector<size_t> ready;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (used[c]) continue;
      bool all = true;
      for (int t : touched[c]) all = all && (placed[t] || t == candidate);
      if (all) ready.push_back(c);
    }
    return ready;
  };
  auto join_estimate = [&](double tree_card, int candidate,
                           const std::vector<size_t>& here) {
    std::vector<const Expr*> conds;
    for (size_t c : here) conds.push_back(conjuncts[c].get());
    return JoinEstimate(tree_card, leaves[candidate].cardinality,
                        JoinFraction(conds, resolve, catalog));
  };

  // where[old global column] = that column's index in `tree`.
  std::vector<int> where(static_cast<size_t>(total_width), -1);
  auto place = [&](int l, int at) {
    int leaf_width = static_cast<int>(leaves[l].plan->schema.size());
    for (int i = 0; i < leaf_width; ++i) where[leaves[l].old_offset + i] = at + i;
    placed[l] = true;
  };

  // Start from the smallest relation.
  int first = 0;
  for (size_t i = 1; i < n; ++i) {
    if (leaves[i].cardinality < leaves[first].cardinality) first = static_cast<int>(i);
  }
  place(first, 0);
  PlanPtr tree = leaves[first].plan;
  double tree_card = leaves[first].cardinality;

  for (size_t step = 1; step < n; ++step) {
    // Attach the connected leaf with the smallest estimated join result
    // (any leaf when none is connected: a cross product).
    int next = -1;
    double next_card = 0.0;
    for (bool require_connection : {true, false}) {
      for (size_t i = 0; i < n; ++i) {
        int candidate = static_cast<int>(i);
        if (placed[i] || (require_connection && !connected(candidate))) continue;
        double card = join_estimate(tree_card, candidate, attachable(candidate));
        if (next < 0 || card < next_card) {
          next = candidate;
          next_card = card;
        }
      }
      if (next >= 0) break;
    }
    std::vector<size_t> here = attachable(next);

    // HashJoinOp builds on its right input: the smaller side goes there.
    PlanPtr leaf = leaves[next].plan;
    const bool leaf_builds = leaves[next].cardinality <= tree_card;
    if (leaf_builds) {
      place(next, static_cast<int>(tree->schema.size()));
    } else {
      const int leaf_width = static_cast<int>(leaf->schema.size());
      for (int& w : where) {
        if (w >= 0) w += leaf_width;
      }
      place(next, 0);
    }
    auto join = std::make_shared<LogicalJoin>();
    join->children = leaf_builds ? std::vector<PlanPtr>{tree, leaf}
                                 : std::vector<PlanPtr>{leaf, tree};
    join->schema = Schema::Concat(join->children[0]->schema, join->children[1]->schema);
    std::vector<ExprPtr> conds;
    for (size_t c : here) {
      VisitScopeColumnRefs(*conjuncts[c], [&](int& idx) { idx = where[idx]; });
      conds.push_back(std::move(conjuncts[c]));
      used[c] = true;
    }
    join->condition = CombineConjuncts(std::move(conds));
    join->join_type = join->condition == nullptr ? JoinType::kCross : JoinType::kInner;
    tree = std::move(join);
    tree_card = next_card;
  }

  // Restore the original column order so nothing above needs rewriting.
  auto restore = std::make_shared<LogicalProject>();
  restore->schema = original_schema;
  restore->exprs.reserve(static_cast<size_t>(total_width));
  for (int i = 0; i < total_width; ++i) {
    restore->exprs.push_back(MakeColumnRef(where[i],
                                           original_schema.column(i).type,
                                           original_schema.column(i).name));
  }
  restore->children = {tree};
  return restore;
}

void ReorderNode(PlanPtr& slot, const Catalog* catalog);

void ReorderSubqueryPlans(LogicalOperator& node, const Catalog* catalog) {
  VisitNodeExprs(node, [catalog](ExprPtr& e) {
    std::function<void(Expr&)> walk = [catalog, &walk](Expr& x) {
      if (x.kind == ExprKind::kSubquery && x.subquery_plan != nullptr) {
        ReorderNode(x.subquery_plan, catalog);
      }
      for (auto& c : x.children) walk(*c);
    };
    walk(*e);
  });
}

void ReorderNode(PlanPtr& slot, const Catalog* catalog) {
  if (IsReorderableJoin(*slot)) {
    // Chain root: count leaves first; only rewrite chains of 3+ relations
    // (a 2-way join has nothing to reorder -- build/probe choice is the
    // executor's).
    int leaf_count = 0;
    std::function<void(const LogicalOperator&)> count =
        [&](const LogicalOperator& node) {
          if (IsReorderableJoin(node)) {
            count(*node.children[0]);
            count(*node.children[1]);
          } else {
            ++leaf_count;
          }
        };
    count(*slot);
    if (leaf_count >= 3) {
      slot = ReorderChain(slot, catalog);
      // The restore projection's child tree is final; recurse into the new
      // leaves for nested chains (e.g. derived tables).
      for (auto& child : slot->children) {
        std::function<void(PlanPtr&)> into_leaves = [&](PlanPtr& p) {
          if (IsReorderableJoin(*p)) {
            for (auto& c : p->children) into_leaves(c);
          } else {
            for (auto& c : p->children) ReorderNode(c, catalog);
            ReorderSubqueryPlans(*p, catalog);
          }
        };
        into_leaves(child);
      }
      return;
    }
  }
  for (auto& child : slot->children) ReorderNode(child, catalog);
  ReorderSubqueryPlans(*slot, catalog);
}

}  // namespace

Result<PlanPtr> ReorderJoins(PlanPtr plan, const Catalog* catalog) {
  if (catalog == nullptr) return plan;
  ReorderNode(plan, catalog);
  return plan;
}

}  // namespace seltrig
