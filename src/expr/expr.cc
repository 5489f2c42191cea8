#include "expr/expr.h"

namespace seltrig {

Expr::~Expr() = default;

std::unique_ptr<Expr> Expr::Clone() const {
  auto copy = std::make_unique<Expr>(kind);
  copy->result_type = result_type;
  copy->literal = literal;
  copy->column_index = column_index;
  copy->levels_up = levels_up;
  copy->column_name = column_name;
  copy->cmp_op = cmp_op;
  copy->arith_op = arith_op;
  copy->logical_op = logical_op;
  copy->negated = negated;
  copy->has_else = has_else;
  copy->function_id = function_id;
  copy->subquery_kind = subquery_kind;
  copy->subquery_plan = subquery_plan;  // shared
  copy->subquery_correlated = subquery_correlated;
  copy->children.reserve(children.size());
  for (const auto& c : children) copy->children.push_back(c->Clone());
  return copy;
}

namespace {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* FunctionName(FunctionId id) {
  switch (id) {
    case FunctionId::kYear:
      return "YEAR";
    case FunctionId::kMonth:
      return "MONTH";
    case FunctionId::kDay:
      return "DAY";
    case FunctionId::kSubstring:
      return "SUBSTRING";
    case FunctionId::kAbs:
      return "ABS";
    case FunctionId::kUpper:
      return "UPPER";
    case FunctionId::kLower:
      return "LOWER";
    case FunctionId::kNow:
      return "NOW";
    case FunctionId::kCurrentDate:
      return "CURRENT_DATE";
    case FunctionId::kUserId:
      return "USER_ID";
    case FunctionId::kSqlText:
      return "SQL_TEXT";
    case FunctionId::kCoalesce:
      return "COALESCE";
  }
  return "?";
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kColumnRef:
      return column_name.empty() ? "#" + std::to_string(column_index) : column_name;
    case ExprKind::kOuterColumnRef:
      return "outer(" + std::to_string(levels_up) + ")." +
             (column_name.empty() ? "#" + std::to_string(column_index) : column_name);
    case ExprKind::kComparison:
      return "(" + children[0]->ToString() + " " + CompareOpName(cmp_op) + " " +
             children[1]->ToString() + ")";
    case ExprKind::kArith: {
      if (arith_op == ArithOp::kNeg) return "(-" + children[0]->ToString() + ")";
      const char* op = arith_op == ArithOp::kAdd   ? "+"
                       : arith_op == ArithOp::kSub ? "-"
                       : arith_op == ArithOp::kMul ? "*"
                                                   : "/";
      return "(" + children[0]->ToString() + " " + op + " " + children[1]->ToString() + ")";
    }
    case ExprKind::kLogical: {
      if (logical_op == LogicalOp::kNot) return "(NOT " + children[0]->ToString() + ")";
      const char* op = logical_op == LogicalOp::kAnd ? " AND " : " OR ";
      return "(" + children[0]->ToString() + op + children[1]->ToString() + ")";
    }
    case ExprKind::kIsNull:
      return "(" + children[0]->ToString() + (negated ? " IS NOT NULL)" : " IS NULL)");
    case ExprKind::kLike:
      return std::string("(")
          .append(children[0]->ToString())
          .append(negated ? " NOT LIKE " : " LIKE ")
          .append(children[1]->ToString())
          .append(")");
    case ExprKind::kInList: {
      std::string out = "(" + children[0]->ToString() + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += children[i]->ToString();
      }
      return out + "))";
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t pairs = children.size() / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " WHEN " + children[2 * i]->ToString() + " THEN " +
               children[2 * i + 1]->ToString();
      }
      if (has_else) out += " ELSE " + children.back()->ToString();
      return out + " END";
    }
    case ExprKind::kFunction: {
      std::string out = FunctionName(function_id);
      out += "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kSubquery: {
      switch (subquery_kind) {
        case SubqueryKind::kExists:
          return negated ? "NOT EXISTS(<subquery>)" : "EXISTS(<subquery>)";
        case SubqueryKind::kIn:
          return "(" + children[0]->ToString() +
                 (negated ? " NOT IN <subquery>)" : " IN <subquery>)");
        case SubqueryKind::kScalar:
          return "(<scalar subquery>)";
      }
      return "<subquery>";
    }
  }
  return "?";
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>(ExprKind::kLiteral);
  e->result_type = v.type();
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(int index, TypeId type, std::string name) {
  auto e = std::make_unique<Expr>(ExprKind::kColumnRef);
  e->column_index = index;
  e->result_type = type;
  e->column_name = std::move(name);
  return e;
}

ExprPtr MakeOuterColumnRef(int index, int levels_up, TypeId type, std::string name) {
  auto e = std::make_unique<Expr>(ExprKind::kOuterColumnRef);
  e->column_index = index;
  e->levels_up = levels_up;
  e->result_type = type;
  e->column_name = std::move(name);
  return e;
}

ExprPtr MakeComparison(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>(ExprKind::kComparison);
  e->cmp_op = op;
  e->result_type = TypeId::kBool;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>(ExprKind::kArith);
  e->arith_op = op;
  TypeId lt = lhs->result_type;
  e->children.push_back(std::move(lhs));
  if (rhs != nullptr) {
    TypeId rt = rhs->result_type;
    e->children.push_back(std::move(rhs));
    if (lt == TypeId::kDate || rt == TypeId::kDate) {
      e->result_type = (lt == TypeId::kDate && rt == TypeId::kDate) ? TypeId::kInt : TypeId::kDate;
    } else if (op == ArithOp::kDiv) {
      e->result_type = TypeId::kDouble;
    } else {
      e->result_type = CommonType(lt, rt);
      if (e->result_type == TypeId::kNull) e->result_type = TypeId::kDouble;
    }
  } else {
    e->result_type = lt;
  }
  return e;
}

ExprPtr MakeNot(ExprPtr operand) {
  auto e = std::make_unique<Expr>(ExprKind::kLogical);
  e->logical_op = LogicalOp::kNot;
  e->result_type = TypeId::kBool;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>(ExprKind::kLogical);
  e->logical_op = LogicalOp::kAnd;
  e->result_type = TypeId::kBool;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>(ExprKind::kLogical);
  e->logical_op = LogicalOp::kOr;
  e->result_type = TypeId::kBool;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeIsNull(ExprPtr operand, bool negated) {
  auto e = std::make_unique<Expr>(ExprKind::kIsNull);
  e->negated = negated;
  e->result_type = TypeId::kBool;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr MakeFunction(FunctionId id, std::vector<ExprPtr> args, TypeId result_type) {
  auto e = std::make_unique<Expr>(ExprKind::kFunction);
  e->function_id = id;
  e->result_type = result_type;
  e->children = std::move(args);
  return e;
}

}  // namespace seltrig
