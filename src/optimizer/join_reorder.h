// Greedy cardinality-based join reordering.
//
// The binder produces join trees in textual FROM order; TPC-H-style queries
// join six or more tables, where a poor order is catastrophic. This pass
// collects maximal chains of inner/cross joins (3+ relations; LEFT joins end
// a chain and are never reordered or swapped), estimates the cardinality of
// each input relation (table statistics x simple predicate-selectivity
// heuristics), and rebuilds the chain greedily: start from the smallest
// relation, then repeatedly attach the connected relation whose join with
// the tree built so far has the smallest estimated result (falling back to
// the smallest unconnected one). Join estimates are key-aware: a conjunct
// equating a table's primary key keeps 1/rows(table) of the cross product,
// any other condition the flat 0.01 guess.
//
// HashJoinOp builds its hash table on the right child, so each join puts
// the smaller of (tree so far, new relation) on the right: the large fact
// table streams through as the probe side instead of being hashed.
//
// The rebuilt chain is wrapped in a column-permutation projection restoring
// the original output order, so nothing above the chain needs rewriting; the
// later column-pruning pass dissolves unused permutation columns. The pass
// runs before audit placement, so hcn still places one audit operator above
// the whole chain, where ACCESSED does not depend on join order.

#ifndef SELTRIG_OPTIMIZER_JOIN_REORDER_H_
#define SELTRIG_OPTIMIZER_JOIN_REORDER_H_

#include "catalog/catalog.h"
#include "common/status.h"
#include "plan/logical_plan.h"

namespace seltrig {

// Reorders all inner/cross join chains in `plan` (including nested subquery
// plans). `catalog` supplies table cardinalities; when null the pass is a
// no-op.
Result<PlanPtr> ReorderJoins(PlanPtr plan, const Catalog* catalog);

// Rough output-cardinality estimate for a (sub)plan; exposed for tests.
double EstimateCardinality(const LogicalOperator& plan, const Catalog* catalog);

}  // namespace seltrig

#endif  // SELTRIG_OPTIMIZER_JOIN_REORDER_H_
