#include "expr/evaluator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/column_batch.h"
#include "expr/expr.h"
#include "storage/column_store.h"
#include "types/date.h"

namespace seltrig {
namespace {

Value Eval(ExprPtr e) {
  EvalContext ctx;
  auto r = EvalExpr(*e, ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : Value::Null();
}

Value EvalOnRow(const Expr& e, const Row& row) {
  EvalContext ctx;
  ctx.row = &row;
  auto r = EvalExpr(e, ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : Value::Null();
}

TEST(EvaluatorTest, Literals) {
  EXPECT_EQ(Eval(MakeLiteral(Value::Int(3))).AsInt(), 3);
  EXPECT_TRUE(Eval(MakeLiteral(Value::Null())).is_null());
}

TEST(EvaluatorTest, ColumnRef) {
  Row row = {Value::Int(10), Value::String("x")};
  auto e = MakeColumnRef(1, TypeId::kString);
  EXPECT_EQ(EvalOnRow(*e, row).AsString(), "x");
}

TEST(EvaluatorTest, ColumnRefOutOfRangeErrors) {
  Row row = {Value::Int(10)};
  auto e = MakeColumnRef(3, TypeId::kInt);
  EvalContext ctx;
  ctx.row = &row;
  EXPECT_FALSE(EvalExpr(*e, ctx).ok());
}

TEST(EvaluatorTest, IntegerArithmetic) {
  auto add = MakeArith(ArithOp::kAdd, MakeLiteral(Value::Int(2)), MakeLiteral(Value::Int(3)));
  EXPECT_EQ(Eval(std::move(add)).AsInt(), 5);
  auto mul = MakeArith(ArithOp::kMul, MakeLiteral(Value::Int(4)), MakeLiteral(Value::Int(5)));
  EXPECT_EQ(Eval(std::move(mul)).AsInt(), 20);
}

// Integer +, -, * and unary minus fail instead of wrapping: the boundary
// result is exact, one step past it is an "integer out of range" error.
void ExpectOutOfRange(ExprPtr e) {
  EvalContext ctx;
  auto r = EvalExpr(*e, ctx);
  ASSERT_FALSE(r.ok()) << e->ToString();
  EXPECT_EQ(r.status().code(), ErrorCode::kExecutionError);
  EXPECT_NE(r.status().message().find("integer out of range"), std::string::npos);
}

ExprPtr IntArith(ArithOp op, int64_t a, int64_t b) {
  return MakeArith(op, MakeLiteral(Value::Int(a)), MakeLiteral(Value::Int(b)));
}

TEST(EvaluatorTest, IntegerAddOverflowErrors) {
  EXPECT_EQ(Eval(IntArith(ArithOp::kAdd, INT64_MAX - 1, 1)).AsInt(), INT64_MAX);
  ExpectOutOfRange(IntArith(ArithOp::kAdd, INT64_MAX, 1));
  ExpectOutOfRange(IntArith(ArithOp::kAdd, INT64_MIN, -1));
}

TEST(EvaluatorTest, IntegerSubtractOverflowErrors) {
  EXPECT_EQ(Eval(IntArith(ArithOp::kSub, INT64_MIN + 1, 1)).AsInt(), INT64_MIN);
  ExpectOutOfRange(IntArith(ArithOp::kSub, INT64_MIN, 1));
  ExpectOutOfRange(IntArith(ArithOp::kSub, 0, INT64_MIN));
}

TEST(EvaluatorTest, IntegerMultiplyOverflowErrors) {
  EXPECT_EQ(Eval(IntArith(ArithOp::kMul, INT64_MIN / 2, 2)).AsInt(), INT64_MIN);
  ExpectOutOfRange(IntArith(ArithOp::kMul, INT64_MAX / 2 + 1, 2));
  ExpectOutOfRange(IntArith(ArithOp::kMul, INT64_MIN, -1));
}

TEST(EvaluatorTest, IntegerNegateOverflowErrors) {
  EXPECT_EQ(Eval(MakeArith(ArithOp::kNeg, MakeLiteral(Value::Int(INT64_MAX)), nullptr))
                .AsInt(),
            -INT64_MAX);
  ExpectOutOfRange(MakeArith(ArithOp::kNeg, MakeLiteral(Value::Int(INT64_MIN)), nullptr));
  // ABS negates too.
  std::vector<ExprPtr> args;
  args.push_back(MakeLiteral(Value::Int(INT64_MIN)));
  ExpectOutOfRange(MakeFunction(FunctionId::kAbs, std::move(args), TypeId::kInt));
}

TEST(EvaluatorTest, DivisionAlwaysDouble) {
  auto div = MakeArith(ArithOp::kDiv, MakeLiteral(Value::Int(7)), MakeLiteral(Value::Int(2)));
  Value v = Eval(std::move(div));
  EXPECT_EQ(v.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.5);
}

TEST(EvaluatorTest, DivisionByZeroErrors) {
  auto div = MakeArith(ArithOp::kDiv, MakeLiteral(Value::Int(1)), MakeLiteral(Value::Int(0)));
  EvalContext ctx;
  EXPECT_FALSE(EvalExpr(*div, ctx).ok());
}

TEST(EvaluatorTest, MixedArithmeticWidens) {
  auto add = MakeArith(ArithOp::kAdd, MakeLiteral(Value::Int(1)),
                       MakeLiteral(Value::Double(0.5)));
  Value v = Eval(std::move(add));
  EXPECT_EQ(v.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 1.5);
}

TEST(EvaluatorTest, DateArithmetic) {
  int32_t d = CivilToDays(1995, 3, 15);
  auto plus = MakeArith(ArithOp::kAdd, MakeLiteral(Value::Date(d)), MakeLiteral(Value::Int(10)));
  EXPECT_EQ(Eval(std::move(plus)).AsDate(), d + 10);
  auto diff = MakeArith(ArithOp::kSub, MakeLiteral(Value::Date(d + 30)),
                        MakeLiteral(Value::Date(d)));
  EXPECT_EQ(Eval(std::move(diff)).AsInt(), 30);
}

TEST(EvaluatorTest, NullPropagationArithmetic) {
  auto add = MakeArith(ArithOp::kAdd, MakeLiteral(Value::Null()), MakeLiteral(Value::Int(1)));
  EXPECT_TRUE(Eval(std::move(add)).is_null());
}

TEST(EvaluatorTest, Comparisons) {
  auto lt = MakeComparison(CompareOp::kLt, MakeLiteral(Value::Int(1)),
                           MakeLiteral(Value::Int(2)));
  EXPECT_TRUE(Eval(std::move(lt)).AsBool());
  auto ge = MakeComparison(CompareOp::kGe, MakeLiteral(Value::String("b")),
                           MakeLiteral(Value::String("a")));
  EXPECT_TRUE(Eval(std::move(ge)).AsBool());
}

TEST(EvaluatorTest, ComparisonWithNullIsNull) {
  auto eq = MakeComparison(CompareOp::kEq, MakeLiteral(Value::Null()),
                           MakeLiteral(Value::Null()));
  EXPECT_TRUE(Eval(std::move(eq)).is_null());  // SQL: NULL = NULL is UNKNOWN
}

TEST(EvaluatorTest, ThreeValuedAnd) {
  // false AND NULL = false; true AND NULL = NULL.
  auto f_and_null = MakeAnd(MakeLiteral(Value::Bool(false)), MakeLiteral(Value::Null()));
  Value v1 = Eval(std::move(f_and_null));
  ASSERT_FALSE(v1.is_null());
  EXPECT_FALSE(v1.AsBool());

  auto t_and_null = MakeAnd(MakeLiteral(Value::Bool(true)), MakeLiteral(Value::Null()));
  EXPECT_TRUE(Eval(std::move(t_and_null)).is_null());
}

TEST(EvaluatorTest, ThreeValuedOr) {
  auto t_or_null = MakeOr(MakeLiteral(Value::Bool(true)), MakeLiteral(Value::Null()));
  Value v1 = Eval(std::move(t_or_null));
  ASSERT_FALSE(v1.is_null());
  EXPECT_TRUE(v1.AsBool());

  auto f_or_null = MakeOr(MakeLiteral(Value::Bool(false)), MakeLiteral(Value::Null()));
  EXPECT_TRUE(Eval(std::move(f_or_null)).is_null());
}

TEST(EvaluatorTest, NotOfNullIsNull) {
  EXPECT_TRUE(Eval(MakeNot(MakeLiteral(Value::Null()))).is_null());
  EXPECT_FALSE(Eval(MakeNot(MakeLiteral(Value::Bool(true)))).AsBool());
}

TEST(EvaluatorTest, IsNull) {
  EXPECT_TRUE(Eval(MakeIsNull(MakeLiteral(Value::Null()), false)).AsBool());
  EXPECT_FALSE(Eval(MakeIsNull(MakeLiteral(Value::Int(1)), false)).AsBool());
  EXPECT_TRUE(Eval(MakeIsNull(MakeLiteral(Value::Int(1)), true)).AsBool());
}

TEST(EvaluatorTest, PredicateTreatsNullAsFalse) {
  auto null_pred = MakeComparison(CompareOp::kEq, MakeLiteral(Value::Null()),
                                  MakeLiteral(Value::Int(1)));
  EvalContext ctx;
  auto r = EvalPredicate(*null_pred, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(EvaluatorTest, InListSemantics) {
  auto in = std::make_unique<Expr>(ExprKind::kInList);
  in->result_type = TypeId::kBool;
  in->children.push_back(MakeLiteral(Value::Int(2)));
  in->children.push_back(MakeLiteral(Value::Int(1)));
  in->children.push_back(MakeLiteral(Value::Int(2)));
  EXPECT_TRUE(Eval(std::move(in)).AsBool());
}

TEST(EvaluatorTest, NotInWithNullMemberIsNull) {
  // 3 NOT IN (1, NULL) is UNKNOWN (3 might equal the NULL).
  auto in = std::make_unique<Expr>(ExprKind::kInList);
  in->result_type = TypeId::kBool;
  in->negated = true;
  in->children.push_back(MakeLiteral(Value::Int(3)));
  in->children.push_back(MakeLiteral(Value::Int(1)));
  in->children.push_back(MakeLiteral(Value::Null()));
  EXPECT_TRUE(Eval(std::move(in)).is_null());
}

TEST(EvaluatorTest, InWithNullMemberButMatchIsTrue) {
  auto in = std::make_unique<Expr>(ExprKind::kInList);
  in->result_type = TypeId::kBool;
  in->children.push_back(MakeLiteral(Value::Int(1)));
  in->children.push_back(MakeLiteral(Value::Null()));
  in->children.push_back(MakeLiteral(Value::Int(1)));
  EXPECT_TRUE(Eval(std::move(in)).AsBool());
}

TEST(EvaluatorTest, Functions) {
  int32_t d = CivilToDays(1996, 7, 4);
  auto year = MakeFunction(FunctionId::kYear, {}, TypeId::kInt);
  year->children.push_back(MakeLiteral(Value::Date(d)));
  EXPECT_EQ(Eval(std::move(year)).AsInt(), 1996);

  std::vector<ExprPtr> args;
  args.push_back(MakeLiteral(Value::String("13-555-0000")));
  args.push_back(MakeLiteral(Value::Int(1)));
  args.push_back(MakeLiteral(Value::Int(2)));
  auto sub = MakeFunction(FunctionId::kSubstring, std::move(args), TypeId::kString);
  EXPECT_EQ(Eval(std::move(sub)).AsString(), "13");
}

TEST(EvaluatorTest, SubstringEdgeCases) {
  auto make_sub = [](const std::string& s, int64_t from, int64_t len) {
    std::vector<ExprPtr> args;
    args.push_back(MakeLiteral(Value::String(s)));
    args.push_back(MakeLiteral(Value::Int(from)));
    args.push_back(MakeLiteral(Value::Int(len)));
    return MakeFunction(FunctionId::kSubstring, std::move(args), TypeId::kString);
  };
  EXPECT_EQ(Eval(make_sub("abc", 2, 10)).AsString(), "bc");
  EXPECT_EQ(Eval(make_sub("abc", 10, 2)).AsString(), "");
  EXPECT_EQ(Eval(make_sub("abc", 1, 0)).AsString(), "");
}

TEST(EvaluatorTest, SessionFunctions) {
  Catalog catalog;
  SessionContext session;
  session.user = "mallory";
  session.sql_text = "SELECT secret";
  session.now = "2026-07-07 12:00:00";
  ExecContext exec(&catalog, &session);
  EvalContext ctx;
  ctx.exec = &exec;

  auto user = MakeFunction(FunctionId::kUserId, {}, TypeId::kString);
  auto r = EvalExpr(*user, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsString(), "mallory");

  auto sql = MakeFunction(FunctionId::kSqlText, {}, TypeId::kString);
  EXPECT_EQ(EvalExpr(*sql, ctx)->AsString(), "SELECT secret");

  auto now = MakeFunction(FunctionId::kNow, {}, TypeId::kString);
  EXPECT_EQ(EvalExpr(*now, ctx)->AsString(), "2026-07-07 12:00:00");
}

TEST(EvaluatorTest, OuterColumnRef) {
  Row outer = {Value::Int(99)};
  Row inner = {Value::Int(1)};
  EvalContext ctx;
  ctx.row = &inner;
  ctx.outer_rows = {&outer};
  auto e = MakeOuterColumnRef(0, 1, TypeId::kInt);
  auto r = EvalExpr(*e, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsInt(), 99);
}

TEST(EvaluatorTest, OuterColumnRefBeyondDepthErrors) {
  EvalContext ctx;
  auto e = MakeOuterColumnRef(0, 1, TypeId::kInt);
  EXPECT_FALSE(EvalExpr(*e, ctx).ok());
}

TEST(EvaluatorTest, CloneProducesIndependentEqualTree) {
  auto original = MakeAnd(
      MakeComparison(CompareOp::kGt, MakeColumnRef(0, TypeId::kInt, "a"),
                     MakeLiteral(Value::Int(5))),
      MakeIsNull(MakeColumnRef(1, TypeId::kString, "b"), true));
  auto copy = original->Clone();
  EXPECT_EQ(original->ToString(), copy->ToString());
  // Mutating the copy leaves the original untouched.
  copy->children[0]->cmp_op = CompareOp::kLt;
  EXPECT_NE(original->ToString(), copy->ToString());
}

// --- SimplePredicate conjunctions --------------------------------------------
//
// A compiled AND of `column <cmp> constant` terms must keep exactly the rows
// EvalPredicateBatch keeps, over typed table views (int, double, date and
// dictionary-string kernels), over owned columns typed by a schema (the same
// kernels), and over owned columns that a last cell of another type degraded
// (the generic path), with NULLs in every column and constants of other
// types than their column.

class ConjunctionTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 60;

  void SetUp() override {
    const int32_t base = CivilToDays(1995, 1, 1);
    for (size_t r = 0; r < kRows; ++r) {
      const int64_t i = static_cast<int64_t>(r);
      const bool null = r % 7 == 3;
      ints_.Append(null ? Value::Null() : Value::Int(i));
      doubles_.Append(r % 11 == 5 ? Value::Null() : Value::Double(0.5 * i));
      dates_.Append(r % 13 == 2 ? Value::Null()
                                : Value::Date(base + static_cast<int32_t>(i)));
      strings_.Append(r % 9 == 4 ? Value::Null()
                                 : Value::String(std::string(1, 'a' + r % 5) +
                                                 std::to_string(r % 3)));
      // Every other slot is live, so the view batch carries a selection.
      if (r % 2 == 0) live_.push_back(static_cast<uint32_t>(r));
    }
  }

  const TableColumn* column(size_t c) const {
    const TableColumn* cols[] = {&ints_, &doubles_, &dates_, &strings_};
    return cols[c];
  }

  void BindViews(ColumnBatch* batch) const {
    batch->BeginViews(4);
    for (size_t c = 0; c < 4; ++c) batch->BindViewColumn(c, column(c));
    std::vector<uint32_t> slots = live_;
    batch->AdoptSelection(&slots);
  }

  // Owned copies of the live rows; `degraded` appends one more row whose
  // every cell has another type than its column (an int-valued double in
  // the int column), so every typed column degrades to Rep::kValue (the
  // string column is generic in a batch from the start).
  void FillOwned(ColumnBatch* batch, bool degraded) const {
    Schema schema;
    for (size_t c = 0; c < 4; ++c) schema.AddColumn(Column{"", "", column(c)->type(), false});
    batch->ResetOwned(schema);
    for (uint32_t slot : live_) {
      Row row;
      for (size_t c = 0; c < 4; ++c) row.push_back(column(c)->Get(slot));
      batch->AppendRow(row);
    }
    if (degraded) {
      batch->AppendRow(
          Row{Value::Double(12.0), Value::Int(9), Value::Int(30), Value::Int(4)});
    }
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(batch->column(c).data().rep() == TableColumn::Rep::kValue, degraded);
    }
  }

  static std::vector<Row> Rows(const ColumnBatch& batch) {
    std::vector<Row> rows(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) batch.MaterializeRow(i, &rows[i]);
    return rows;
  }

  // Compiles `pred` and checks FilterBatch and Matches against the evaluator.
  void ExpectSameAsEvaluator(const Expr& pred) const {
    std::optional<SimplePredicate> simple = SimplePredicate::Compile(pred);
    ASSERT_TRUE(simple.has_value()) << pred.ToString();
    enum class Layout { kViews, kOwned, kDegraded };
    for (Layout layout : {Layout::kViews, Layout::kOwned, Layout::kDegraded}) {
      const bool views = layout == Layout::kViews;
      ColumnBatch expected;
      ColumnBatch actual;
      if (views) {
        BindViews(&expected);
        BindViews(&actual);
      } else {
        FillOwned(&expected, layout == Layout::kDegraded);
        FillOwned(&actual, layout == Layout::kDegraded);
      }
      EvalContext ctx;
      ASSERT_TRUE(EvalPredicateBatch(pred, ctx, &expected).ok());
      simple->FilterBatch(&actual);
      EXPECT_EQ(Rows(actual), Rows(expected))
          << pred.ToString() << " (layout " << static_cast<int>(layout) << ")";
      if (views) {
        // The batch is narrowed; the row test must agree on every live row.
        ColumnBatch all;
        BindViews(&all);
        for (const Row& row : Rows(all)) {
          EvalContext row_ctx;
          row_ctx.row = &row;
          auto pass = EvalPredicate(pred, row_ctx);
          ASSERT_TRUE(pass.ok());
          EXPECT_EQ(simple->Matches(row), *pass) << pred.ToString();
        }
      }
    }
  }

  TableColumn ints_{TypeId::kInt};
  TableColumn doubles_{TypeId::kDouble};
  TableColumn dates_{TypeId::kDate};
  TableColumn strings_{TypeId::kString};
  std::vector<uint32_t> live_;
};

ExprPtr Cmp(CompareOp op, int col, TypeId type, Value constant) {
  return MakeComparison(op, MakeColumnRef(col, type), MakeLiteral(std::move(constant)));
}

TEST_F(ConjunctionTest, TwoSidedRangesMatchEvaluator) {
  const int32_t base = CivilToDays(1995, 1, 1);
  // Int column, int and double constants (cross-type widening).
  ExpectSameAsEvaluator(*MakeAnd(Cmp(CompareOp::kGe, 0, TypeId::kInt, Value::Int(10)),
                                 Cmp(CompareOp::kLt, 0, TypeId::kInt, Value::Double(40.5))));
  // Double column, int and double constants.
  ExpectSameAsEvaluator(*MakeAnd(Cmp(CompareOp::kGt, 1, TypeId::kDouble, Value::Int(3)),
                                 Cmp(CompareOp::kLe, 1, TypeId::kDouble, Value::Double(21.5))));
  // Date BETWEEN, as the binder lowers it.
  ExpectSameAsEvaluator(
      *MakeAnd(Cmp(CompareOp::kGe, 2, TypeId::kDate, Value::Date(base + 5)),
               Cmp(CompareOp::kLe, 2, TypeId::kDate, Value::Date(base + 44))));
  // Dictionary strings: ordered compare and inequality; a constant absent
  // from the dictionary.
  ExpectSameAsEvaluator(
      *MakeAnd(Cmp(CompareOp::kGe, 3, TypeId::kString, Value::String("b")),
               Cmp(CompareOp::kNe, 3, TypeId::kString, Value::String("c1"))));
  ExpectSameAsEvaluator(
      *MakeAnd(Cmp(CompareOp::kNe, 3, TypeId::kString, Value::String("zz")),
               Cmp(CompareOp::kEq, 3, TypeId::kString, Value::String("d0"))));
}

TEST_F(ConjunctionTest, MixedColumnsAndOperandOrdersMatchEvaluator) {
  // Constant on the left, three terms over three columns.
  ExpectSameAsEvaluator(*MakeAnd(
      MakeAnd(MakeComparison(CompareOp::kLt, MakeLiteral(Value::Int(4)),
                             MakeColumnRef(0, TypeId::kInt)),
              Cmp(CompareOp::kLt, 1, TypeId::kDouble, Value::Double(25.0))),
      Cmp(CompareOp::kNe, 3, TypeId::kString, Value::String("a1"))));
  // Incomparable constant types: Value::Compare orders by type id.
  ExpectSameAsEvaluator(*MakeAnd(Cmp(CompareOp::kLt, 0, TypeId::kInt, Value::String("x")),
                                 Cmp(CompareOp::kGt, 2, TypeId::kDate, Value::Int(7))));
  // Contradictory range: nothing passes.
  ExpectSameAsEvaluator(*MakeAnd(Cmp(CompareOp::kGt, 0, TypeId::kInt, Value::Int(30)),
                                 Cmp(CompareOp::kLt, 0, TypeId::kInt, Value::Int(20))));
}

TEST_F(ConjunctionTest, OtherShapesStayOnTheGenericPath) {
  // A computed operand, an OR, and a NULL literal anywhere in the AND.
  EXPECT_FALSE(SimplePredicate::Compile(*MakeAnd(
      Cmp(CompareOp::kGt, 0, TypeId::kInt, Value::Int(1)),
      MakeComparison(CompareOp::kLt,
                     MakeArith(ArithOp::kAdd, MakeColumnRef(0, TypeId::kInt),
                               MakeLiteral(Value::Int(1))),
                     MakeLiteral(Value::Int(9))))));
  EXPECT_FALSE(SimplePredicate::Compile(
      *MakeOr(Cmp(CompareOp::kGt, 0, TypeId::kInt, Value::Int(1)),
              Cmp(CompareOp::kLt, 0, TypeId::kInt, Value::Int(9)))));
  EXPECT_FALSE(SimplePredicate::Compile(
      *MakeAnd(Cmp(CompareOp::kGt, 0, TypeId::kInt, Value::Int(1)),
               Cmp(CompareOp::kLt, 0, TypeId::kInt, Value::Null()))));
}

}  // namespace
}  // namespace seltrig
