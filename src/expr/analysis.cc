#include "expr/analysis.h"

#include <utility>

#include "expr/evaluator.h"

namespace seltrig {

void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kLogical && expr->logical_op == LogicalOp::kAnd) {
    SplitConjuncts(std::move(expr->children[0]), out);
    SplitConjuncts(std::move(expr->children[1]), out);
    return;
  }
  out->push_back(std::move(expr));
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr result;
  for (auto& c : conjuncts) {
    if (result == nullptr) {
      result = std::move(c);
    } else {
      result = MakeAnd(std::move(result), std::move(c));
    }
  }
  return result;
}

void CollectColumnRefs(const Expr& expr, std::set<int>* out) {
  if (expr.kind == ExprKind::kColumnRef) {
    out->insert(expr.column_index);
  }
  for (const auto& c : expr.children) CollectColumnRefs(*c, out);
}

bool ExprReferencesOnlyRange(const Expr& expr, int lo, int hi) {
  if (expr.kind == ExprKind::kColumnRef) {
    return expr.column_index >= lo && expr.column_index < hi;
  }
  if (expr.kind == ExprKind::kOuterColumnRef || expr.kind == ExprKind::kSubquery) {
    return false;
  }
  for (const auto& c : expr.children) {
    if (!ExprReferencesOnlyRange(*c, lo, hi)) return false;
  }
  return true;
}

void ShiftColumnRefs(Expr* expr, int delta) {
  if (expr->kind == ExprKind::kColumnRef) {
    expr->column_index += delta;
  }
  for (auto& c : expr->children) ShiftColumnRefs(c.get(), delta);
}

bool ContainsSubquery(const Expr& expr) {
  if (expr.kind == ExprKind::kSubquery) return true;
  for (const auto& c : expr.children) {
    if (ContainsSubquery(*c)) return true;
  }
  return false;
}

namespace {

bool IsPureFoldableKind(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kComparison:
    case ExprKind::kArith:
    case ExprKind::kLogical:
    case ExprKind::kIsNull:
    case ExprKind::kLike:
    case ExprKind::kInList:
    case ExprKind::kCase:
      return true;
    case ExprKind::kFunction:
      switch (e.function_id) {
        case FunctionId::kNow:
        case FunctionId::kCurrentDate:
        case FunctionId::kUserId:
        case FunctionId::kSqlText:
          return false;  // session-dependent
        default:
          return true;
      }
    default:
      return false;
  }
}

bool AllChildrenLiteral(const Expr& e) {
  for (const auto& c : e.children) {
    if (c->kind != ExprKind::kLiteral) return false;
  }
  return !e.children.empty();
}

}  // namespace

ExprPtr FoldConstants(ExprPtr expr) {
  for (auto& c : expr->children) {
    c = FoldConstants(std::move(c));
  }
  if (!IsPureFoldableKind(*expr) || !AllChildrenLiteral(*expr)) return expr;
  EvalContext ctx;  // no row, no exec: pure operators only
  Result<Value> folded = EvalExpr(*expr, ctx);
  if (!folded.ok()) return expr;  // surfaces at execution time
  TypeId t = expr->result_type;
  ExprPtr lit = MakeLiteral(std::move(folded).value());
  if (lit->literal.is_null()) lit->result_type = t;
  return lit;
}

void ValueInterval::ApplyCompare(CompareOp op, const Value& v) {
  if (empty) return;
  switch (op) {
    case CompareOp::kEq: {
      if (eq.has_value() && *eq != v) {
        empty = true;
        return;
      }
      eq = v;
      break;
    }
    case CompareOp::kNe:
      neq.push_back(v);
      break;
    case CompareOp::kLt:
    case CompareOp::kLe: {
      bool strict = op == CompareOp::kLt;
      if (!hi.has_value() || Value::Compare(v, *hi) < 0 ||
          (Value::Compare(v, *hi) == 0 && strict)) {
        hi = v;
        hi_strict = strict;
      }
      break;
    }
    case CompareOp::kGt:
    case CompareOp::kGe: {
      bool strict = op == CompareOp::kGt;
      if (!lo.has_value() || Value::Compare(v, *lo) > 0 ||
          (Value::Compare(v, *lo) == 0 && strict)) {
        lo = v;
        lo_strict = strict;
      }
      break;
    }
  }
  // Re-derive emptiness.
  if (eq.has_value()) {
    if (lo.has_value()) {
      int c = Value::Compare(*eq, *lo);
      if (c < 0 || (c == 0 && lo_strict)) empty = true;
    }
    if (hi.has_value()) {
      int c = Value::Compare(*eq, *hi);
      if (c > 0 || (c == 0 && hi_strict)) empty = true;
    }
    for (const Value& n : neq) {
      if (*eq == n) empty = true;
    }
  }
  if (lo.has_value() && hi.has_value()) {
    int c = Value::Compare(*lo, *hi);
    if (c > 0 || (c == 0 && (lo_strict || hi_strict))) empty = true;
  }
}

void ValueInterval::Intersect(const ValueInterval& other) {
  if (other.empty) {
    empty = true;
    return;
  }
  if (other.eq.has_value()) ApplyCompare(CompareOp::kEq, *other.eq);
  if (other.lo.has_value()) {
    ApplyCompare(other.lo_strict ? CompareOp::kGt : CompareOp::kGe, *other.lo);
  }
  if (other.hi.has_value()) {
    ApplyCompare(other.hi_strict ? CompareOp::kLt : CompareOp::kLe, *other.hi);
  }
  for (const Value& n : other.neq) ApplyCompare(CompareOp::kNe, n);
}

namespace {

CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and <> are symmetric
  }
}

void AnalyzeNode(const Expr& e, std::map<int, ValueInterval>* out, bool* found) {
  if (e.kind == ExprKind::kLogical && e.logical_op == LogicalOp::kAnd) {
    AnalyzeNode(*e.children[0], out, found);
    AnalyzeNode(*e.children[1], out, found);
    return;
  }
  if (e.kind == ExprKind::kComparison) {
    const Expr& l = *e.children[0];
    const Expr& r = *e.children[1];
    if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kLiteral &&
        !r.literal.is_null()) {
      (*out)[l.column_index].ApplyCompare(e.cmp_op, r.literal);
      *found = true;
    } else if (r.kind == ExprKind::kColumnRef && l.kind == ExprKind::kLiteral &&
               !l.literal.is_null()) {
      (*out)[r.column_index].ApplyCompare(FlipCompare(e.cmp_op), l.literal);
      *found = true;
    }
    return;
  }
  // IN-lists over a single column with literal members pin the column to a
  // finite set; model the single-member case as equality (the form audit
  // predicates take in Example 4.1).
  if (e.kind == ExprKind::kInList && !e.negated && e.children.size() == 2 &&
      e.children[0]->kind == ExprKind::kColumnRef &&
      e.children[1]->kind == ExprKind::kLiteral &&
      !e.children[1]->literal.is_null()) {
    (*out)[e.children[0]->column_index].ApplyCompare(CompareOp::kEq,
                                                     e.children[1]->literal);
    *found = true;
  }
  // All other shapes are ignored: the described region only grows, so
  // emptiness/disjointness conclusions stay sound.
}

}  // namespace

bool AnalyzeConjunction(const Expr& expr, std::map<int, ValueInterval>* out) {
  bool found = false;
  AnalyzeNode(expr, out, &found);
  return found;
}

bool ExprIsRowInvariant(const Expr& expr) {
  if (expr.kind == ExprKind::kColumnRef || expr.kind == ExprKind::kSubquery) {
    return false;
  }
  for (const auto& child : expr.children) {
    if (!ExprIsRowInvariant(*child)) return false;
  }
  return true;
}

bool ConjunctionUnsatisfiable(const Expr& expr) {
  std::map<int, ValueInterval> intervals;
  if (!AnalyzeConjunction(expr, &intervals)) return false;
  for (const auto& [col, interval] : intervals) {
    if (interval.empty) return true;
  }
  return false;
}

bool PredicatesDisjoint(const Expr& a, const Expr& b) {
  std::map<int, ValueInterval> ia, ib;
  bool fa = AnalyzeConjunction(a, &ia);
  bool fb = AnalyzeConjunction(b, &ib);
  if (!fa || !fb) return false;
  for (auto& [col, interval] : ia) {
    if (interval.empty) return true;  // `a` alone selects nothing
    auto it = ib.find(col);
    if (it == ib.end()) continue;
    ValueInterval merged = interval;
    merged.Intersect(it->second);
    if (merged.empty) return true;
  }
  for (const auto& [col, interval] : ib) {
    if (interval.empty) return true;
  }
  return false;
}

}  // namespace seltrig
