#include "expr/analysis.h"

#include <gtest/gtest.h>

#include "expr/expr.h"

namespace seltrig {
namespace {

ExprPtr Col(int i) {
  return MakeColumnRef(i, TypeId::kInt, std::string("c").append(std::to_string(i)));
}
ExprPtr Lit(int64_t v) { return MakeLiteral(Value::Int(v)); }
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return MakeComparison(op, std::move(l), std::move(r));
}

TEST(AnalysisTest, SplitAndCombineConjuncts) {
  ExprPtr e = MakeAnd(MakeAnd(Cmp(CompareOp::kEq, Col(0), Lit(1)),
                              Cmp(CompareOp::kGt, Col(1), Lit(2))),
                      Cmp(CompareOp::kLt, Col(2), Lit(3)));
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(std::move(e), &conjuncts);
  EXPECT_EQ(conjuncts.size(), 3u);

  ExprPtr combined = CombineConjuncts(std::move(conjuncts));
  std::vector<ExprPtr> again;
  SplitConjuncts(std::move(combined), &again);
  EXPECT_EQ(again.size(), 3u);
}

TEST(AnalysisTest, CombineEmptyIsNull) {
  EXPECT_EQ(CombineConjuncts({}), nullptr);
}

TEST(AnalysisTest, CollectColumnRefs) {
  ExprPtr e = MakeAnd(Cmp(CompareOp::kEq, Col(0), Col(3)),
                      Cmp(CompareOp::kGt, Col(1), Lit(2)));
  std::set<int> cols;
  CollectColumnRefs(*e, &cols);
  EXPECT_EQ(cols, (std::set<int>{0, 1, 3}));
}

TEST(AnalysisTest, ExprReferencesOnlyRange) {
  ExprPtr e = Cmp(CompareOp::kEq, Col(2), Col(4));
  EXPECT_TRUE(ExprReferencesOnlyRange(*e, 0, 5));
  EXPECT_TRUE(ExprReferencesOnlyRange(*e, 2, 5));
  EXPECT_FALSE(ExprReferencesOnlyRange(*e, 0, 4));
  EXPECT_FALSE(ExprReferencesOnlyRange(*e, 3, 5));
}

TEST(AnalysisTest, OuterRefsBlockRangeCheck) {
  ExprPtr e = Cmp(CompareOp::kEq, Col(0), MakeOuterColumnRef(1, 1, TypeId::kInt));
  EXPECT_FALSE(ExprReferencesOnlyRange(*e, 0, 5));
}

TEST(AnalysisTest, ShiftColumnRefs) {
  ExprPtr e = Cmp(CompareOp::kEq, Col(5), Col(7));
  ShiftColumnRefs(e.get(), -5);
  std::set<int> cols;
  CollectColumnRefs(*e, &cols);
  EXPECT_EQ(cols, (std::set<int>{0, 2}));
}

TEST(AnalysisTest, FoldConstantsArithmetic) {
  ExprPtr e = MakeArith(ArithOp::kAdd, Lit(2), MakeArith(ArithOp::kMul, Lit(3), Lit(4)));
  e = FoldConstants(std::move(e));
  ASSERT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_EQ(e->literal.AsInt(), 14);
}

TEST(AnalysisTest, FoldConstantsComparison) {
  ExprPtr e = Cmp(CompareOp::kLt, Lit(1), Lit(2));
  e = FoldConstants(std::move(e));
  ASSERT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_TRUE(e->literal.AsBool());
}

TEST(AnalysisTest, FoldLeavesColumnRefs) {
  ExprPtr e = Cmp(CompareOp::kLt, Col(0), MakeArith(ArithOp::kAdd, Lit(1), Lit(2)));
  e = FoldConstants(std::move(e));
  EXPECT_EQ(e->kind, ExprKind::kComparison);
  EXPECT_EQ(e->children[1]->kind, ExprKind::kLiteral);
  EXPECT_EQ(e->children[1]->literal.AsInt(), 3);
}

TEST(AnalysisTest, FoldLeavesDivisionByZero) {
  ExprPtr e = MakeArith(ArithOp::kDiv, Lit(1), Lit(0));
  e = FoldConstants(std::move(e));
  EXPECT_EQ(e->kind, ExprKind::kArith);  // surfaces at execution
}

TEST(AnalysisTest, FoldDoesNotTouchSessionFunctions) {
  ExprPtr e = MakeFunction(FunctionId::kUserId, {}, TypeId::kString);
  e = FoldConstants(std::move(e));
  EXPECT_EQ(e->kind, ExprKind::kFunction);
}

TEST(IntervalTest, EqualityContradiction) {
  // Example 4.1's shape: col = 7777 AND col = 1234.
  ValueInterval iv;
  iv.ApplyCompare(CompareOp::kEq, Value::Int(7777));
  EXPECT_FALSE(iv.empty);
  iv.ApplyCompare(CompareOp::kEq, Value::Int(1234));
  EXPECT_TRUE(iv.empty);
}

TEST(IntervalTest, RangeContradiction) {
  ValueInterval iv;
  iv.ApplyCompare(CompareOp::kGt, Value::Int(10));
  iv.ApplyCompare(CompareOp::kLt, Value::Int(5));
  EXPECT_TRUE(iv.empty);
}

TEST(IntervalTest, EqOutsideRange) {
  ValueInterval iv;
  iv.ApplyCompare(CompareOp::kGe, Value::Int(10));
  iv.ApplyCompare(CompareOp::kEq, Value::Int(3));
  EXPECT_TRUE(iv.empty);
}

TEST(IntervalTest, EqVersusNe) {
  ValueInterval iv;
  iv.ApplyCompare(CompareOp::kNe, Value::Int(5));
  iv.ApplyCompare(CompareOp::kEq, Value::Int(5));
  EXPECT_TRUE(iv.empty);
}

TEST(IntervalTest, SatisfiableStaysOpen) {
  ValueInterval iv;
  iv.ApplyCompare(CompareOp::kGt, Value::Int(1));
  iv.ApplyCompare(CompareOp::kLe, Value::Int(10));
  iv.ApplyCompare(CompareOp::kNe, Value::Int(5));
  EXPECT_FALSE(iv.empty);
}

TEST(IntervalTest, BoundaryStrictness) {
  ValueInterval iv;
  iv.ApplyCompare(CompareOp::kGe, Value::Int(5));
  iv.ApplyCompare(CompareOp::kLe, Value::Int(5));
  EXPECT_FALSE(iv.empty);  // exactly 5
  iv.ApplyCompare(CompareOp::kLt, Value::Int(5));
  EXPECT_TRUE(iv.empty);
}

TEST(AnalysisTest, ConjunctionUnsatisfiable) {
  ExprPtr contradiction = MakeAnd(Cmp(CompareOp::kEq, Col(0), Lit(7777)),
                                  Cmp(CompareOp::kEq, Col(0), Lit(1234)));
  EXPECT_TRUE(ConjunctionUnsatisfiable(*contradiction));

  ExprPtr fine = MakeAnd(Cmp(CompareOp::kEq, Col(0), Lit(7777)),
                         Cmp(CompareOp::kEq, Col(1), Lit(1234)));
  EXPECT_FALSE(ConjunctionUnsatisfiable(*fine));
}

TEST(AnalysisTest, ReversedOperandOrder) {
  // 5 < col means col > 5.
  ExprPtr e = MakeAnd(Cmp(CompareOp::kLt, Lit(5), Col(0)),
                      Cmp(CompareOp::kLt, Col(0), Lit(3)));
  EXPECT_TRUE(ConjunctionUnsatisfiable(*e));
}

TEST(AnalysisTest, PredicatesDisjointSameColumn) {
  // Example 6.1: deptname = 'Oncology' vs deptname = 'Dermatology'.
  ExprPtr q = Cmp(CompareOp::kEq, MakeColumnRef(1, TypeId::kString, "deptname"),
                  MakeLiteral(Value::String("Oncology")));
  ExprPtr audit = Cmp(CompareOp::kEq, MakeColumnRef(1, TypeId::kString, "deptname"),
                      MakeLiteral(Value::String("Dermatology")));
  EXPECT_TRUE(PredicatesDisjoint(*q, *audit));
}

TEST(AnalysisTest, PredicatesNotProvablyDisjointDifferentColumns) {
  // Example 6.1's second query: deptid = 10 cannot be proven disjoint from
  // deptname = 'Dermatology' -- the static auditor's false positive.
  ExprPtr q = Cmp(CompareOp::kEq, MakeColumnRef(0, TypeId::kInt, "deptid"),
                  MakeLiteral(Value::Int(10)));
  ExprPtr audit = Cmp(CompareOp::kEq, MakeColumnRef(1, TypeId::kString, "deptname"),
                      MakeLiteral(Value::String("Dermatology")));
  EXPECT_FALSE(PredicatesDisjoint(*q, *audit));
}

TEST(AnalysisTest, DisjointRanges) {
  ExprPtr a = Cmp(CompareOp::kLt, Col(0), Lit(10));
  ExprPtr b = Cmp(CompareOp::kGt, Col(0), Lit(20));
  EXPECT_TRUE(PredicatesDisjoint(*a, *b));
  ExprPtr c = Cmp(CompareOp::kGt, Col(0), Lit(5));
  EXPECT_FALSE(PredicatesDisjoint(*a, *c));
}

TEST(AnalysisTest, UnanalyzableConjunctsAreSound) {
  // A LIKE conjunct is ignored; disjointness can still be proven from the
  // analyzable part.
  auto like = std::make_unique<Expr>(ExprKind::kLike);
  like->result_type = TypeId::kBool;
  like->children.push_back(MakeColumnRef(2, TypeId::kString, "s"));
  like->children.push_back(MakeLiteral(Value::String("%x%")));
  ExprPtr a = MakeAnd(Cmp(CompareOp::kEq, Col(0), Lit(1)), std::move(like));
  ExprPtr b = Cmp(CompareOp::kEq, Col(0), Lit(2));
  EXPECT_TRUE(PredicatesDisjoint(*a, *b));
}

TEST(AnalysisTest, InListSingletonPinsColumn) {
  auto in = std::make_unique<Expr>(ExprKind::kInList);
  in->result_type = TypeId::kBool;
  in->children.push_back(Col(0));
  in->children.push_back(Lit(1234));
  ExprPtr conj = MakeAnd(std::move(in), Cmp(CompareOp::kEq, Col(0), Lit(7777)));
  EXPECT_TRUE(ConjunctionUnsatisfiable(*conj));
}

TEST(AnalysisTest, ContainsSubquery) {
  ExprPtr plain = Cmp(CompareOp::kEq, Col(0), Lit(1));
  EXPECT_FALSE(ContainsSubquery(*plain));
  auto sub = std::make_unique<Expr>(ExprKind::kSubquery);
  EXPECT_TRUE(ContainsSubquery(*sub));
}

}  // namespace
}  // namespace seltrig
