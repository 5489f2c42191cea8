#include "expr/evaluator.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/string_util.h"
#include "exec/column_batch.h"
#include "expr/analysis.h"
#include "types/date.h"
#include "types/key_index.h"

namespace seltrig {

namespace {

Status IntegerOutOfRange() { return Status::ExecutionError("integer out of range"); }

Result<Value> EvalComparison(const Expr& e, EvalContext& ctx) {
  SELTRIG_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*e.children[0], ctx));
  SELTRIG_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*e.children[1], ctx));
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  int c = Value::Compare(lhs, rhs);
  switch (e.cmp_op) {
    case CompareOp::kEq:
      return Value::Bool(c == 0);
    case CompareOp::kNe:
      return Value::Bool(c != 0);
    case CompareOp::kLt:
      return Value::Bool(c < 0);
    case CompareOp::kLe:
      return Value::Bool(c <= 0);
    case CompareOp::kGt:
      return Value::Bool(c > 0);
    case CompareOp::kGe:
      return Value::Bool(c >= 0);
  }
  return Status::Internal("bad compare op");
}

Result<Value> EvalArith(const Expr& e, EvalContext& ctx) {
  if (e.arith_op == ArithOp::kNeg) {
    SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.children[0], ctx));
    if (v.is_null()) return Value::Null();
    if (v.type() == TypeId::kInt) {
      int64_t r = 0;
      if (__builtin_sub_overflow(int64_t{0}, v.AsInt(), &r)) return IntegerOutOfRange();
      return Value::Int(r);
    }
    if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
    return Status::ExecutionError("cannot negate " + v.ToString());
  }
  SELTRIG_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*e.children[0], ctx));
  SELTRIG_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*e.children[1], ctx));
  if (lhs.is_null() || rhs.is_null()) return Value::Null();

  // Date arithmetic: date +/- int days, date - date. All of it runs in int64;
  // a resulting date outside Value::Date's int32 day range is an error, as
  // integer overflow is.
  if (lhs.type() == TypeId::kDate || rhs.type() == TypeId::kDate) {
    const bool lhs_date = lhs.type() == TypeId::kDate;
    const bool rhs_date = rhs.type() == TypeId::kDate;
    if (e.arith_op == ArithOp::kSub && lhs_date && rhs_date) {
      return Value::Int(int64_t{lhs.AsDate()} - int64_t{rhs.AsDate()});
    }
    int64_t days = 0;
    int64_t delta = 0;
    if (lhs_date && rhs.type() == TypeId::kInt &&
        (e.arith_op == ArithOp::kAdd || e.arith_op == ArithOp::kSub)) {
      days = lhs.AsDate();
      delta = rhs.AsInt();
    } else if (e.arith_op == ArithOp::kAdd && lhs.type() == TypeId::kInt && rhs_date) {
      days = rhs.AsDate();
      delta = lhs.AsInt();
    } else {
      return Status::ExecutionError("unsupported date arithmetic");
    }
    int64_t r = 0;
    const bool overflow = e.arith_op == ArithOp::kAdd
                              ? __builtin_add_overflow(days, delta, &r)
                              : __builtin_sub_overflow(days, delta, &r);
    if (overflow || r < INT32_MIN || r > INT32_MAX) {
      return Status::ExecutionError("date out of range");
    }
    return Value::Date(static_cast<int32_t>(r));
  }

  if (!IsNumeric(lhs.type()) || !IsNumeric(rhs.type())) {
    return Status::ExecutionError("arithmetic on non-numeric operands: " +
                                  lhs.ToString() + ", " + rhs.ToString());
  }

  // Division always yields double; other ops stay integral for int operands.
  if (e.arith_op == ArithOp::kDiv) {
    double d = rhs.NumericAsDouble();
    if (d == 0.0) return Status::ExecutionError("division by zero");
    return Value::Double(lhs.NumericAsDouble() / d);
  }
  if (lhs.type() == TypeId::kInt && rhs.type() == TypeId::kInt) {
    int64_t a = lhs.AsInt(), b = rhs.AsInt(), r = 0;
    bool overflow = false;
    switch (e.arith_op) {
      case ArithOp::kAdd:
        overflow = __builtin_add_overflow(a, b, &r);
        break;
      case ArithOp::kSub:
        overflow = __builtin_sub_overflow(a, b, &r);
        break;
      case ArithOp::kMul:
        overflow = __builtin_mul_overflow(a, b, &r);
        break;
      default:
        return Status::Internal("bad arith op");
    }
    if (overflow) return IntegerOutOfRange();
    return Value::Int(r);
  }
  double a = lhs.NumericAsDouble(), b = rhs.NumericAsDouble();
  switch (e.arith_op) {
    case ArithOp::kAdd:
      return Value::Double(a + b);
    case ArithOp::kSub:
      return Value::Double(a - b);
    case ArithOp::kMul:
      return Value::Double(a * b);
    default:
      break;
  }
  return Status::Internal("bad arith op");
}

Result<Value> EvalLogical(const Expr& e, EvalContext& ctx) {
  if (e.logical_op == LogicalOp::kNot) {
    SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.children[0], ctx));
    if (v.is_null()) return Value::Null();
    return Value::Bool(!v.AsBool());
  }
  SELTRIG_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*e.children[0], ctx));
  // Kleene logic with short-circuit where sound.
  if (e.logical_op == LogicalOp::kAnd) {
    if (!lhs.is_null() && !lhs.AsBool()) return Value::Bool(false);
    SELTRIG_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*e.children[1], ctx));
    if (!rhs.is_null() && !rhs.AsBool()) return Value::Bool(false);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Bool(true);
  }
  // OR
  if (!lhs.is_null() && lhs.AsBool()) return Value::Bool(true);
  SELTRIG_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*e.children[1], ctx));
  if (!rhs.is_null() && rhs.AsBool()) return Value::Bool(true);
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  return Value::Bool(false);
}

Result<Value> EvalInList(const Expr& e, EvalContext& ctx) {
  SELTRIG_ASSIGN_OR_RETURN(Value probe, EvalExpr(*e.children[0], ctx));
  if (probe.is_null()) return Value::Null();
  bool saw_null = false;
  for (size_t i = 1; i < e.children.size(); ++i) {
    SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.children[i], ctx));
    if (v.is_null()) {
      saw_null = true;
      continue;
    }
    if (Value::Compare(probe, v) == 0) {
      return Value::Bool(!e.negated);
    }
  }
  if (saw_null) return Value::Null();
  return Value::Bool(e.negated);
}

Result<Value> EvalCase(const Expr& e, EvalContext& ctx) {
  size_t pairs = e.children.size() / 2;
  for (size_t i = 0; i < pairs; ++i) {
    SELTRIG_ASSIGN_OR_RETURN(Value cond, EvalExpr(*e.children[2 * i], ctx));
    if (!cond.is_null() && cond.AsBool()) {
      return EvalExpr(*e.children[2 * i + 1], ctx);
    }
  }
  if (e.has_else) return EvalExpr(*e.children.back(), ctx);
  return Value::Null();
}

Result<Value> EvalFunction(const Expr& e, EvalContext& ctx) {
  switch (e.function_id) {
    case FunctionId::kYear:
    case FunctionId::kMonth:
    case FunctionId::kDay: {
      SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.children[0], ctx));
      if (v.is_null()) return Value::Null();
      if (v.type() != TypeId::kDate) {
        return Status::ExecutionError("YEAR/MONTH/DAY expects a date");
      }
      int32_t d = v.AsDate();
      if (e.function_id == FunctionId::kYear) return Value::Int(DateYear(d));
      if (e.function_id == FunctionId::kMonth) return Value::Int(DateMonth(d));
      return Value::Int(DateDay(d));
    }
    case FunctionId::kSubstring: {
      SELTRIG_ASSIGN_OR_RETURN(Value s, EvalExpr(*e.children[0], ctx));
      SELTRIG_ASSIGN_OR_RETURN(Value start, EvalExpr(*e.children[1], ctx));
      SELTRIG_ASSIGN_OR_RETURN(Value len, EvalExpr(*e.children[2], ctx));
      if (s.is_null() || start.is_null() || len.is_null()) return Value::Null();
      const std::string& str = s.AsString();
      int64_t from = start.AsInt() - 1;  // SQL SUBSTRING is 1-based
      int64_t n = len.AsInt();
      if (from < 0) from = 0;
      if (from >= static_cast<int64_t>(str.size()) || n <= 0) {
        return Value::String("");
      }
      return Value::String(str.substr(static_cast<size_t>(from),
                                      static_cast<size_t>(n)));
    }
    case FunctionId::kAbs: {
      SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.children[0], ctx));
      if (v.is_null()) return Value::Null();
      if (v.type() == TypeId::kInt) {
        if (v.AsInt() == INT64_MIN) return IntegerOutOfRange();
        return Value::Int(std::llabs(v.AsInt()));
      }
      if (v.type() == TypeId::kDouble) return Value::Double(std::fabs(v.AsDouble()));
      return Status::ExecutionError("ABS expects a number");
    }
    case FunctionId::kUpper:
    case FunctionId::kLower: {
      SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.children[0], ctx));
      if (v.is_null()) return Value::Null();
      if (v.type() != TypeId::kString) {
        return Status::ExecutionError("UPPER/LOWER expects a string");
      }
      return Value::String(e.function_id == FunctionId::kUpper ? ToUpper(v.AsString())
                                                               : ToLower(v.AsString()));
    }
    case FunctionId::kNow:
      return Value::String(ctx.exec->session()->now);
    case FunctionId::kCurrentDate:
      return Value::Date(ctx.exec->session()->current_date);
    case FunctionId::kUserId:
      return Value::String(ctx.exec->session()->user);
    case FunctionId::kSqlText:
      return Value::String(ctx.exec->session()->sql_text);
    case FunctionId::kCoalesce: {
      for (const auto& arg : e.children) {
        SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*arg, ctx));
        if (!v.is_null()) return v;
      }
      return Value::Null();
    }
  }
  return Status::Internal("bad function id");
}

Result<Value> EvalSubquery(const Expr& e, EvalContext& ctx) {
  ExecContext* exec = ctx.exec;
  if (exec == nullptr || !exec->subquery_runner()) {
    return Status::ExecutionError("subquery evaluated without an executor");
  }
  exec->stats().subquery_executions++;

  MaterializedSubquery local;
  MaterializedSubquery* mat = nullptr;
  if (!e.subquery_correlated) {
    auto [it, inserted] = exec->subquery_cache().try_emplace(&e);
    mat = &it->second;
    if (inserted) {
      SELTRIG_ASSIGN_OR_RETURN(mat->rows,
                               exec->subquery_runner()(*e.subquery_plan, {}));
    }
  } else {
    // Correlated: the current row becomes visible to the subquery as the
    // innermost enclosing scope. Under a columnar binding the row is
    // materialized first — the correlation stack carries Row pointers.
    Row scratch;
    const Row* current = ctx.row;
    if (current == nullptr && ctx.batch != nullptr) {
      ctx.batch->MaterializeRow(ctx.batch_row, &scratch);
      current = &scratch;
    }
    std::vector<const Row*> outer = ctx.outer_rows;
    outer.push_back(current);
    SELTRIG_ASSIGN_OR_RETURN(local.rows,
                             exec->subquery_runner()(*e.subquery_plan, outer));
    mat = &local;
  }

  switch (e.subquery_kind) {
    case SubqueryKind::kExists: {
      bool exists = !mat->rows.empty();
      return Value::Bool(e.negated ? !exists : exists);
    }
    case SubqueryKind::kIn: {
      SELTRIG_ASSIGN_OR_RETURN(Value probe, EvalExpr(*e.children[0], ctx));
      if (probe.is_null()) return Value::Null();
      if (!mat->set_built) {
        mat->value_set.Reset(mat->rows.size());
        for (const Row& r : mat->rows) {
          if (r[0].is_null()) {
            mat->has_null = true;
          } else {
            mat->value_set.FindOrInsert({&r[0], 1});
          }
        }
        mat->set_built = true;
      }
      if (mat->value_set.Find({&probe, 1}) != KeyIndex::kNone) {
        return Value::Bool(!e.negated);
      }
      if (mat->has_null) return Value::Null();
      return Value::Bool(e.negated);
    }
    case SubqueryKind::kScalar: {
      if (mat->rows.empty()) return Value::Null();
      if (mat->rows.size() > 1) {
        return Status::ExecutionError("scalar subquery returned more than one row");
      }
      return mat->rows[0][0];
    }
  }
  return Status::Internal("bad subquery kind");
}

}  // namespace

Result<Value> EvalExpr(const Expr& e, EvalContext& ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumnRef: {
      if (ctx.row != nullptr) {
        if (e.column_index >= static_cast<int>(ctx.row->size())) {
          return Status::Internal("column reference out of range: " + e.ToString());
        }
        return (*ctx.row)[e.column_index];
      }
      if (ctx.batch != nullptr) {
        if (e.column_index >= static_cast<int>(ctx.batch->num_columns())) {
          return Status::Internal("column reference out of range: " + e.ToString());
        }
        return ctx.batch->GetValue(static_cast<size_t>(e.column_index),
                                   ctx.batch_row);
      }
      return Status::Internal("column reference out of range: " + e.ToString());
    }
    case ExprKind::kOuterColumnRef: {
      int depth = static_cast<int>(ctx.outer_rows.size());
      if (e.levels_up < 1 || e.levels_up > depth) {
        return Status::Internal("outer reference beyond correlation depth");
      }
      const Row* outer = ctx.outer_rows[depth - e.levels_up];
      if (e.column_index >= static_cast<int>(outer->size())) {
        return Status::Internal("outer column reference out of range");
      }
      return (*outer)[e.column_index];
    }
    case ExprKind::kComparison:
      return EvalComparison(e, ctx);
    case ExprKind::kArith:
      return EvalArith(e, ctx);
    case ExprKind::kLogical:
      return EvalLogical(e, ctx);
    case ExprKind::kIsNull: {
      SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.children[0], ctx));
      bool is_null = v.is_null();
      return Value::Bool(e.negated ? !is_null : is_null);
    }
    case ExprKind::kLike: {
      SELTRIG_ASSIGN_OR_RETURN(Value text, EvalExpr(*e.children[0], ctx));
      SELTRIG_ASSIGN_OR_RETURN(Value pattern, EvalExpr(*e.children[1], ctx));
      if (text.is_null() || pattern.is_null()) return Value::Null();
      if (text.type() != TypeId::kString || pattern.type() != TypeId::kString) {
        return Status::ExecutionError("LIKE expects string operands");
      }
      bool m = LikeMatch(text.AsString(), pattern.AsString());
      return Value::Bool(e.negated ? !m : m);
    }
    case ExprKind::kInList:
      return EvalInList(e, ctx);
    case ExprKind::kCase:
      return EvalCase(e, ctx);
    case ExprKind::kFunction:
      return EvalFunction(e, ctx);
    case ExprKind::kSubquery:
      return EvalSubquery(e, ctx);
  }
  return Status::Internal("bad expression kind");
}

Result<bool> EvalPredicate(const Expr& e, EvalContext& ctx) {
  SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(e, ctx));
  if (v.is_null()) return false;
  if (v.type() != TypeId::kBool) {
    return Status::ExecutionError("predicate did not evaluate to a boolean: " +
                                  e.ToString());
  }
  return v.AsBool();
}

Status EvalPredicateBatch(const Expr& pred, EvalContext& ctx, ColumnBatch* batch) {
  size_t n = batch->size();
  if (n == 0) return Status::OK();

  if (ExprIsRowInvariant(pred)) {
    // One evaluation decides the whole batch.
    ctx.BindRow(nullptr);
    SELTRIG_ASSIGN_OR_RETURN(bool pass, EvalPredicate(pred, ctx));
    if (!pass) batch->TruncateLogical(0);
    return Status::OK();
  }

  std::vector<uint32_t> keep;
  keep.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ctx.BindBatch(batch, i);
    SELTRIG_ASSIGN_OR_RETURN(bool pass, EvalPredicate(pred, ctx));
    if (pass) keep.push_back(static_cast<uint32_t>(batch->PhysicalIndex(i)));
  }
  if (keep.size() != n) batch->SetSelection(std::move(keep));
  return Status::OK();
}

std::optional<SimplePredicate> SimplePredicate::Compile(const Expr& pred) {
  std::vector<Term> terms;
  if (!CompileTerms(pred, &terms)) return std::nullopt;
  return SimplePredicate(std::move(terms));
}

bool SimplePredicate::CompileTerms(const Expr& pred, std::vector<Term>* terms) {
  // In a WHERE, `a AND b` passes iff both pass; a NULL or false conjunct
  // rejects the row either way, so the terms can be decided one by one.
  if (pred.kind == ExprKind::kLogical && pred.logical_op == LogicalOp::kAnd) {
    return CompileTerms(*pred.children[0], terms) &&
           CompileTerms(*pred.children[1], terms);
  }
  if (pred.kind != ExprKind::kComparison) return false;
  const Expr& lhs = *pred.children[0];
  const Expr& rhs = *pred.children[1];
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  CompareOp op = pred.cmp_op;
  if (lhs.kind == ExprKind::kColumnRef && rhs.kind == ExprKind::kLiteral) {
    col = &lhs;
    lit = &rhs;
  } else if (lhs.kind == ExprKind::kLiteral && rhs.kind == ExprKind::kColumnRef) {
    col = &rhs;
    lit = &lhs;
    switch (op) {  // mirror so the column sits on the left
      case CompareOp::kLt:
        op = CompareOp::kGt;
        break;
      case CompareOp::kLe:
        op = CompareOp::kGe;
        break;
      case CompareOp::kGt:
        op = CompareOp::kLt;
        break;
      case CompareOp::kGe:
        op = CompareOp::kLe;
        break;
      default:
        break;
    }
  } else {
    return false;
  }
  // A NULL literal never passes through EvalComparison; leave that (and any
  // unbound column) to the generic path.
  if (lit->literal.is_null() || col->column_index < 0) return false;
  terms->push_back(Term{col->column_index, op, lit->literal});
  return true;
}

namespace {

// Typed filter kernels: for each logical row of `batch`, reads column data
// straight from contiguous table storage and appends the physical index of
// every passing row to `keep`. Each kernel makes exactly the decisions
// SimplePredicate::Term::Decide would — NULL rejects, then Value::Compare
// semantics for the (column type, constant type) pair — without constructing
// a Value.

template <typename DecideFn, typename CmpFn>
void FilterTyped(const ColumnBatch& batch, const TableColumn& col,
                 const DecideFn& decide, const CmpFn& cmp,
                 std::vector<uint32_t>* keep) {
  const size_t n = batch.size();
  const NullBits& nulls = col.nulls();
  if (nulls.any()) {
    for (size_t i = 0; i < n; ++i) {
      const size_t phys = batch.PhysicalIndex(i);
      if (!nulls.Test(phys) && decide(cmp(phys))) {
        keep->push_back(static_cast<uint32_t>(phys));
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const size_t phys = batch.PhysicalIndex(i);
      if (decide(cmp(phys))) keep->push_back(static_cast<uint32_t>(phys));
    }
  }
}

int Sign3(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }
int Sign3(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

}  // namespace

void SimplePredicate::Term::FilterBatch(ColumnBatch* batch) const {
  size_t n = batch->size();
  if (n == 0) return;
  std::vector<uint32_t> keep;
  keep.reserve(n);

  const TableColumn& col = batch->column(static_cast<size_t>(column)).data();
  auto decide = [this](int c) { return DecideCmp(c); };
  const TypeId col_type = col.type();
  const TypeId const_type = constant.type();
  if (col.rep() == TableColumn::Rep::kValue) {
    // Degraded columns hold the exact stored Values inline — decide per cell
    // with no construction.
    const Value* vals = col.values();
    for (size_t i = 0; i < n; ++i) {
      const size_t phys = batch->PhysicalIndex(i);
      if (Decide(vals[phys])) keep.push_back(static_cast<uint32_t>(phys));
    }
  } else if (col.rep() == TableColumn::Rep::kInt64 && col_type == TypeId::kInt &&
             const_type == TypeId::kInt) {
    // Int vs int: exact 64-bit compare.
    const int64_t* data = col.ints();
    const int64_t c = constant.AsInt();
    FilterTyped(*batch, col, decide, [&](size_t p) { return Sign3(data[p], c); },
                &keep);
  } else if (col.rep() == TableColumn::Rep::kInt64 && col_type == TypeId::kInt &&
             const_type == TypeId::kDouble) {
    // Cross-type numeric: both widened to double (Value::Compare).
    const int64_t* data = col.ints();
    const double c = constant.AsDouble();
    FilterTyped(*batch, col, decide,
                [&](size_t p) { return Sign3(static_cast<double>(data[p]) - c); },
                &keep);
  } else if (col.rep() == TableColumn::Rep::kDouble &&
             (const_type == TypeId::kDouble || const_type == TypeId::kInt)) {
    const double* data = col.doubles();
    const double c = constant.NumericAsDouble();
    FilterTyped(*batch, col, decide, [&](size_t p) { return Sign3(data[p] - c); },
                &keep);
  } else if (col.rep() == TableColumn::Rep::kInt64 && col_type == const_type) {
    // Same-type bool/date: raw int64 compare (Value::Compare's same-type arm
    // for int64-backed types).
    const int64_t* data = col.ints();
    const int64_t c = const_type == TypeId::kBool
                          ? (constant.AsBool() ? 1 : 0)
                          : static_cast<int64_t>(constant.AsDate());
    FilterTyped(*batch, col, decide, [&](size_t p) { return Sign3(data[p], c); },
                &keep);
  } else if (col.rep() == TableColumn::Rep::kString &&
             const_type == TypeId::kString &&
             (op == CompareOp::kEq || op == CompareOp::kNe)) {
    // Dictionary equality: one string lookup decides via codes. A constant
    // absent from the dictionary matches no stored string.
    const uint32_t* codes = col.codes();
    const int64_t code = col.dict()->Find(constant.AsString());
    const bool want_eq = op == CompareOp::kEq;
    FilterTyped(*batch, col, [](int c) { return c != 0; },
                [&](size_t p) {
                  bool eq = code >= 0 && codes[p] == static_cast<uint32_t>(code);
                  return (eq == want_eq) ? 1 : 0;
                },
                &keep);
  } else if (col.rep() == TableColumn::Rep::kString &&
             const_type == TypeId::kString) {
    // Ordered string compare: the dictionary is tiny next to the row count,
    // so compare each distinct string against the constant ONCE into a
    // per-code sign table, then the per-row loop is a byte lookup instead of
    // a string comparison.
    const uint32_t* codes = col.codes();
    const StringDict* dict = col.dict();
    const std::string& c = constant.AsString();
    std::vector<int8_t> sign(dict->size());
    for (size_t code = 0; code < sign.size(); ++code) {
      const int r = dict->At(static_cast<uint32_t>(code)).compare(c);
      sign[code] = static_cast<int8_t>(r < 0 ? -1 : (r > 0 ? 1 : 0));
    }
    FilterTyped(*batch, col, decide,
                [&](size_t p) { return static_cast<int>(sign[codes[p]]); }, &keep);
  } else {
    // Mixed incomparable types: Value::Compare orders by type id, which is
    // constant across the column's non-null rows.
    const int c = static_cast<int>(col_type) < static_cast<int>(const_type)
                      ? -1
                      : (static_cast<int>(col_type) > static_cast<int>(const_type)
                             ? 1
                             : 0);
    FilterTyped(*batch, col, decide, [&](size_t) { return c; }, &keep);
  }
  if (keep.size() != n) batch->SetSelection(std::move(keep));
}

Status EvalExprBatch(const Expr& expr, EvalContext& ctx, const ColumnBatch& batch,
                     TableColumn* out) {
  size_t n = batch.size();
  if (n == 0) return Status::OK();
  out->Reserve(out->size() + n);
  if (ExprIsRowInvariant(expr)) {
    ctx.BindRow(nullptr);
    SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, ctx));
    for (size_t i = 0; i < n; ++i) out->Append(v);
    return Status::OK();
  }
  // Bare column ref: a straight gather from the column, no tree walk.
  if (expr.kind == ExprKind::kColumnRef && expr.column_index >= 0 &&
      expr.column_index < static_cast<int>(batch.num_columns())) {
    const TableColumn& col =
        batch.column(static_cast<size_t>(expr.column_index)).data();
    for (size_t i = 0; i < n; ++i) out->AppendFrom(col, batch.PhysicalIndex(i));
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    ctx.BindBatch(&batch, i);
    SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, ctx));
    out->Append(std::move(v));
  }
  return Status::OK();
}

}  // namespace seltrig
