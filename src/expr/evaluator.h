// Expression evaluation with SQL three-valued logic.

#ifndef SELTRIG_EXPR_EVALUATOR_H_
#define SELTRIG_EXPR_EVALUATOR_H_

#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "expr/expr.h"
#include "types/value.h"

namespace seltrig {

class ColumnBatch;  // exec/column_batch.h
class TableColumn;  // storage/column_store.h

// Evaluation context: the current row binding, the stack of enclosing query
// rows (for correlated subqueries; back() is the innermost enclosing query),
// and the statement-wide ExecContext.
//
// The current row is bound one of two ways: `row` points at a materialized
// Row, or (`batch`, `batch_row`) name a logical row of a ColumnBatch — the
// columnar pipeline's binding, letting column refs read table storage
// directly with no row materialization. `row` wins when both are set; use
// BindRow/BindBatch to repoint so the other binding is cleared.
struct EvalContext {
  const Row* row = nullptr;
  const ColumnBatch* batch = nullptr;
  size_t batch_row = 0;
  std::vector<const Row*> outer_rows;
  ExecContext* exec = nullptr;

  void BindRow(const Row* r) {
    row = r;
    batch = nullptr;
  }
  void BindBatch(const ColumnBatch* b, size_t i) {
    row = nullptr;
    batch = b;
    batch_row = i;
  }
};

// Evaluates `expr` under `ctx`. Comparison and logical operators follow SQL
// three-valued logic; the result of a predicate used in WHERE/HAVING/ON is
// "passes" only when the Value is non-null true (see EvalPredicate).
Result<Value> EvalExpr(const Expr& expr, EvalContext& ctx);

// Evaluates a predicate: NULL and false both reject the row.
Result<bool> EvalPredicate(const Expr& expr, EvalContext& ctx);

// --- Batch entry points (exec/column_batch.h) --------------------------------
// Both take a caller-owned EvalContext so the correlation-stack copy happens
// once per operator, not once per row; the context's row binding is repointed
// internally and left dangling on return. Row-invariant expressions (no
// column refs, no subqueries — see ExprIsRowInvariant) are evaluated once per
// batch and the result is broadcast, hoisting constant subtrees out of the
// per-row loop.

// Narrows `batch`'s selection in place to the rows where `pred` evaluates to
// non-null true.
Status EvalPredicateBatch(const Expr& pred, EvalContext& ctx, ColumnBatch* batch);

// Appends one value per selected row of `batch` to `out`, in logical order.
Status EvalExprBatch(const Expr& expr, EvalContext& ctx, const ColumnBatch& batch,
                     TableColumn* out);

// A predicate of the shape `column <cmp> constant` (either operand order), or
// an AND of such terms (a two-sided range, BETWEEN), pre-analyzed at operator
// Init so the per-row test needs no expression-tree walk and no Value
// temporaries. Matches() is exactly equivalent to EvalPredicate on the
// original expression: a row passes iff every term passes, a NULL column
// value rejects its term, and each comparison goes through the same
// Value::Compare. FilterBatch narrows the selection term by term, each term
// compiled to a tight per-type loop over its batch column's typed storage
// (a table binding or an owned column alike) — same decisions, no Value
// construction. Only a degraded (Rep::kValue) column decides per Value.
class SimplePredicate {
 public:
  // Returns the compiled form when `pred` matches the shape (every literal
  // non-NULL); nullopt otherwise.
  static std::optional<SimplePredicate> Compile(const Expr& pred);

  bool Matches(const Row& row) const {
    for (const Term& t : terms_) {
      if (!t.Decide(row[t.column])) return false;
    }
    return true;
  }

  // Narrows `batch`'s selection in place to the matching rows, like
  // EvalPredicateBatch.
  void FilterBatch(ColumnBatch* batch) const {
    for (const Term& t : terms_) t.FilterBatch(batch);
  }

 private:
  // One `column <cmp> constant` conjunct.
  struct Term {
    int column;
    CompareOp op;  // normalized so the column is the left operand
    Value constant;

    // The per-row decision both paths reduce to.
    bool Decide(const Value& v) const {
      if (v.is_null()) return false;
      return DecideCmp(Value::Compare(v, constant));
    }
    bool DecideCmp(int c) const {
      switch (op) {
        case CompareOp::kEq:
          return c == 0;
        case CompareOp::kNe:
          return c != 0;
        case CompareOp::kLt:
          return c < 0;
        case CompareOp::kLe:
          return c <= 0;
        case CompareOp::kGt:
          return c > 0;
        case CompareOp::kGe:
          return c >= 0;
      }
      return false;
    }
    void FilterBatch(ColumnBatch* batch) const;
  };

  explicit SimplePredicate(std::vector<Term> terms) : terms_(std::move(terms)) {}

  // Appends `pred`'s terms; false when some conjunct has another shape.
  static bool CompileTerms(const Expr& pred, std::vector<Term>* terms);

  std::vector<Term> terms_;
};

}  // namespace seltrig

#endif  // SELTRIG_EXPR_EVALUATOR_H_
