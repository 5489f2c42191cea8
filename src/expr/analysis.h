// Static analysis over bound expressions: conjunct manipulation, column
// usage, constant folding, and a sound interval-based satisfiability check.
//
// The satisfiability machinery serves two consumers from the paper:
//  * the optimizer's contradiction-detection rule (Example 4.1) — a filter
//    whose conjunction is provably unsatisfiable is replaced by an empty
//    result, which is exactly the rewrite that must NOT fire on
//    audit-derived predicates;
//  * the Oracle-FGA-style static auditor (Example 6.1) — a query is flagged
//    unless its predicate on the sensitive table is provably disjoint from
//    the audit expression's predicate.

#ifndef SELTRIG_EXPR_ANALYSIS_H_
#define SELTRIG_EXPR_ANALYSIS_H_

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"

namespace seltrig {

// Splits an AND-tree into its conjuncts (ownership transferred to `out`).
void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out);

// Rebuilds a conjunction; returns nullptr for an empty list.
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

// Collects the indexes of all kColumnRef nodes (not outer refs) reachable
// without crossing a subquery boundary.
void CollectColumnRefs(const Expr& expr, std::set<int>* out);

// True when every column reference of `expr` lies in [lo, hi) and the
// expression contains no outer refs or subqueries (i.e. it can be evaluated
// against that column slice alone).
bool ExprReferencesOnlyRange(const Expr& expr, int lo, int hi);

// Adds `delta` to every kColumnRef index (used when pushing predicates to the
// right side of a join, whose columns are offset in the concatenated row).
void ShiftColumnRefs(Expr* expr, int delta);

// True if the expression contains a subquery anywhere (without crossing into
// subquery plans themselves).
bool ContainsSubquery(const Expr& expr);

// True when the expression's value cannot depend on the current row: it
// contains no kColumnRef and no subquery (outer references are fine — they
// are fixed for the duration of a batch). The batch evaluator hoists such
// expressions out of per-row loops; the scan uses them as index-probe keys.
bool ExprIsRowInvariant(const Expr& expr);

// Bottom-up constant folding for pure operators over literal operands.
// Session functions (NOW, USER_ID, ...) and subqueries are never folded.
// Expressions whose evaluation errors (e.g. division by zero) are left
// unfolded so the error surfaces at execution time.
ExprPtr FoldConstants(ExprPtr expr);

// A per-column constraint extracted from a conjunction: bounds, a pinned
// equality, and excluded points. Used for sound emptiness/disjointness
// reasoning; inequalities over discrete domains are treated conservatively.
struct ValueInterval {
  std::optional<Value> lo;
  bool lo_strict = false;
  std::optional<Value> hi;
  bool hi_strict = false;
  std::optional<Value> eq;
  std::vector<Value> neq;
  bool empty = false;

  // Narrows the interval with `col op value`; sets `empty` when the
  // constraint set is provably unsatisfiable.
  void ApplyCompare(CompareOp op, const Value& value);

  // Intersects with another interval (for disjointness checks).
  void Intersect(const ValueInterval& other);
};

// Extracts per-column intervals from the comparison conjuncts of `expr`
// (column-vs-literal in either order). Conjuncts of any other shape are
// ignored, which only enlarges the described region — so emptiness and
// disjointness conclusions drawn from the result remain sound. Returns false
// if nothing analyzable was found.
bool AnalyzeConjunction(const Expr& expr, std::map<int, ValueInterval>* out);

// True when the conjunction is provably unsatisfiable (some column interval
// is empty). False means "unknown / possibly satisfiable".
bool ConjunctionUnsatisfiable(const Expr& expr);

// True when `a AND b` is provably unsatisfiable — i.e. the two predicates
// (bound against the same schema) select provably disjoint row sets. False
// means they may overlap.
bool PredicatesDisjoint(const Expr& a, const Expr& b);

}  // namespace seltrig

#endif  // SELTRIG_EXPR_ANALYSIS_H_
