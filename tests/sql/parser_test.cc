#include "sql/parser.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace seltrig {
namespace {

using ast::ExprType;
using ast::StatementKind;

ast::StatementPtr MustParse(const std::string& sql) {
  auto r = ParseSql(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(*r) : nullptr;
}

const ast::SelectStatement& AsSelect(const ast::StatementPtr& stmt) {
  EXPECT_EQ(stmt->kind, StatementKind::kSelect);
  return *static_cast<const ast::SelectWrapper&>(*stmt).select;
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = MustParse("SELECT name, age FROM patients WHERE age > 30");
  const auto& select = AsSelect(stmt);
  ASSERT_EQ(select.items.size(), 2u);
  EXPECT_EQ(select.items[0].expr->name, "name");
  ASSERT_EQ(select.from.size(), 1u);
  EXPECT_EQ(select.from[0].base.table, "patients");
  ASSERT_NE(select.where, nullptr);
  EXPECT_EQ(select.where->op, ">");
}

TEST(ParserTest, SelectStar) {
  auto stmt = MustParse("SELECT * FROM t");
  const auto& select = AsSelect(stmt);
  ASSERT_EQ(select.items.size(), 1u);
  EXPECT_TRUE(select.items[0].is_star);
}

TEST(ParserTest, QualifiedStar) {
  auto stmt = MustParse("SELECT p.* FROM patients p");
  const auto& select = AsSelect(stmt);
  EXPECT_TRUE(select.items[0].is_star);
  EXPECT_EQ(select.items[0].star_qualifier, "p");
  EXPECT_EQ(select.from[0].base.alias, "p");
}

TEST(ParserTest, Aliases) {
  auto stmt = MustParse("SELECT a AS x, b y FROM t AS u");
  const auto& select = AsSelect(stmt);
  EXPECT_EQ(select.items[0].alias, "x");
  EXPECT_EQ(select.items[1].alias, "y");
  EXPECT_EQ(select.from[0].base.alias, "u");
}

TEST(ParserTest, CommaJoinAndExplicitJoin) {
  auto stmt = MustParse(
      "SELECT 1 FROM a, b JOIN c ON b.x = c.x LEFT OUTER JOIN d ON c.y = d.y");
  const auto& select = AsSelect(stmt);
  ASSERT_EQ(select.from.size(), 2u);
  ASSERT_EQ(select.from[1].joins.size(), 2u);
  EXPECT_EQ(select.from[1].joins[0].kind, ast::JoinClause::Kind::kInner);
  EXPECT_EQ(select.from[1].joins[1].kind, ast::JoinClause::Kind::kLeft);
}

TEST(ParserTest, GroupByHavingOrderByLimit) {
  auto stmt = MustParse(
      "SELECT age, COUNT(*) FROM patients GROUP BY age HAVING COUNT(*) > 2 "
      "ORDER BY age DESC LIMIT 5");
  const auto& select = AsSelect(stmt);
  EXPECT_EQ(select.group_by.size(), 1u);
  ASSERT_NE(select.having, nullptr);
  ASSERT_EQ(select.order_by.size(), 1u);
  EXPECT_FALSE(select.order_by[0].ascending);
  EXPECT_EQ(select.limit, 5);
}

TEST(ParserTest, TopSyntax) {
  auto stmt = MustParse("SELECT TOP 2 * FROM patients ORDER BY age");
  EXPECT_EQ(AsSelect(stmt).limit, 2);
}

TEST(ParserTest, TopAndLimitConflict) {
  EXPECT_FALSE(ParseSql("SELECT TOP 2 * FROM t LIMIT 3").ok());
}

TEST(ParserTest, Distinct) {
  EXPECT_TRUE(AsSelect(MustParse("SELECT DISTINCT name FROM t")).distinct);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto stmt = MustParse("SELECT 1 FROM t WHERE a + b * c = d AND NOT e OR f");
  // ((a + (b*c)) = d AND (NOT e)) OR f
  const auto& where = *AsSelect(stmt).where;
  EXPECT_EQ(where.op, "or");
  EXPECT_EQ(where.children[0]->op, "and");
  const auto& eq = *where.children[0]->children[0];
  EXPECT_EQ(eq.op, "=");
  EXPECT_EQ(eq.children[0]->op, "+");
  EXPECT_EQ(eq.children[0]->children[1]->op, "*");
}

TEST(ParserTest, IntegerLiteralRange) {
  // -9223372036854775808 parses as one literal, INT64_MIN exactly.
  auto min_stmt = MustParse("SELECT -9223372036854775808");
  const ast::Expression& min_lit = *AsSelect(min_stmt).items[0].expr;
  EXPECT_EQ(min_lit.type, ExprType::kIntLiteral);
  EXPECT_EQ(min_lit.int_value, INT64_MIN);
  // Any other negation stays a unary minus over its operand.
  auto max_stmt = MustParse("SELECT -9223372036854775807");
  const ast::Expression& neg = *AsSelect(max_stmt).items[0].expr;
  EXPECT_EQ(neg.type, ExprType::kUnaryOp);
  EXPECT_EQ(neg.children[0]->int_value, INT64_MAX);
  // 2^63 is out of range anywhere but directly under a unary minus.
  for (const char* sql :
       {"SELECT 9223372036854775808", "SELECT 1 - 9223372036854775808",
        "SELECT -(9223372036854775808)", "SELECT * FROM t LIMIT 9223372036854775808",
        "SELECT TOP 9223372036854775808 * FROM t", "SELECT -99999999999999999999"}) {
    auto r = ParseSql(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), ErrorCode::kParseError) << sql;
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos) << sql;
  }
}

TEST(ParserTest, BetweenInLike) {
  auto stmt = MustParse(
      "SELECT 1 FROM t WHERE a BETWEEN 1 AND 2 AND b IN (1, 2, 3) "
      "AND c LIKE '%x%' AND d NOT IN (4) AND e NOT LIKE 'y' "
      "AND f NOT BETWEEN 5 AND 6 AND g IS NULL AND h IS NOT NULL");
  EXPECT_NE(AsSelect(stmt).where, nullptr);
}

TEST(ParserTest, DateLiteral) {
  auto stmt = MustParse("SELECT 1 FROM t WHERE d > DATE '1995-03-15'");
  const auto& where = *AsSelect(stmt).where;
  EXPECT_EQ(where.children[1]->type, ExprType::kDateLiteral);
}

TEST(ParserTest, DateAsColumnName) {
  // "date" is a soft keyword: usable as an identifier.
  auto stmt = MustParse("SELECT date FROM log WHERE date = other_date");
  EXPECT_EQ(AsSelect(stmt).items[0].expr->name, "date");
}

TEST(ParserTest, BadDateLiteral) {
  EXPECT_FALSE(ParseSql("SELECT DATE '1995-13-40'").ok());
}

TEST(ParserTest, Subqueries) {
  auto stmt = MustParse(
      "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u) "
      "AND x IN (SELECT y FROM v) AND z > (SELECT MAX(w) FROM q)");
  const auto& where = *AsSelect(stmt).where;
  EXPECT_EQ(where.op, "and");
}

TEST(ParserTest, NotExists) {
  auto stmt = MustParse("SELECT 1 FROM t WHERE NOT EXISTS (SELECT 1 FROM u)");
  // NOT EXISTS parses as a negated exists, not a NOT wrapper.
  const auto& where = *AsSelect(stmt).where;
  EXPECT_EQ(where.type, ExprType::kExists);
  EXPECT_TRUE(where.negated);
}

TEST(ParserTest, CaseExpression) {
  auto stmt = MustParse(
      "SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END FROM t");
  const auto& item = *AsSelect(stmt).items[0].expr;
  EXPECT_EQ(item.type, ExprType::kCase);
  EXPECT_TRUE(item.has_else);
  EXPECT_EQ(item.children.size(), 5u);
}

TEST(ParserTest, FunctionCalls) {
  auto stmt = MustParse(
      "SELECT COUNT(*), COUNT(DISTINCT x), SUM(y), YEAR(d), SUBSTRING(s, 1, 2) FROM t");
  const auto& select = AsSelect(stmt);
  EXPECT_EQ(select.items[0].expr->type, ExprType::kFunctionCall);
  EXPECT_EQ(select.items[0].expr->children[0]->type, ExprType::kStar);
  EXPECT_TRUE(select.items[1].expr->distinct);
  EXPECT_EQ(select.items[4].expr->children.size(), 3u);
}

TEST(ParserTest, InsertValues) {
  auto stmt = MustParse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  const auto& insert = static_cast<const ast::InsertStatement&>(*stmt);
  EXPECT_EQ(insert.table, "t");
  EXPECT_EQ(insert.columns.size(), 2u);
  EXPECT_EQ(insert.values_rows.size(), 2u);
}

TEST(ParserTest, InsertSelect) {
  auto stmt = MustParse("INSERT INTO log SELECT now(), user_id() FROM accessed");
  const auto& insert = static_cast<const ast::InsertStatement&>(*stmt);
  ASSERT_NE(insert.select, nullptr);
  EXPECT_TRUE(insert.values_rows.empty());
}

TEST(ParserTest, UpdateDelete) {
  auto upd = MustParse("UPDATE t SET a = a + 1, b = 'x' WHERE c = 2");
  const auto& update = static_cast<const ast::UpdateStatement&>(*upd);
  EXPECT_EQ(update.assignments.size(), 2u);
  ASSERT_NE(update.where, nullptr);

  auto del = MustParse("DELETE FROM t WHERE a = 1");
  EXPECT_EQ(static_cast<const ast::DeleteStatement&>(*del).table, "t");
}

TEST(ParserTest, CreateTable) {
  auto stmt = MustParse(
      "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR(25), "
      "zip INT, bal DECIMAL(12,2), dob DATE, active BOOLEAN)");
  const auto& create = static_cast<const ast::CreateTableStatement&>(*stmt);
  ASSERT_EQ(create.columns.size(), 6u);
  EXPECT_TRUE(create.columns[0].primary_key);
  EXPECT_EQ(create.columns[0].type, TypeId::kInt);
  EXPECT_EQ(create.columns[1].type, TypeId::kString);
  EXPECT_EQ(create.columns[3].type, TypeId::kDouble);
  EXPECT_EQ(create.columns[4].type, TypeId::kDate);
  EXPECT_EQ(create.columns[5].type, TypeId::kBool);
}

TEST(ParserTest, CreateAuditExpression) {
  auto stmt = MustParse(
      "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients "
      "WHERE name = 'Alice' FOR SENSITIVE TABLE patients, PARTITION BY patientid");
  const auto& create = static_cast<const ast::CreateAuditExpressionStatement&>(*stmt);
  EXPECT_EQ(create.name, "audit_alice");
  EXPECT_EQ(create.sensitive_table, "patients");
  EXPECT_EQ(create.partition_by, "patientid");
  ASSERT_NE(create.select, nullptr);
}

TEST(ParserTest, CreateSelectTrigger) {
  auto stmt = MustParse(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid FROM accessed");
  const auto& create = static_cast<const ast::CreateTriggerStatement&>(*stmt);
  EXPECT_TRUE(create.is_select_trigger);
  EXPECT_EQ(create.audit_expression, "audit_alice");
  ASSERT_EQ(create.actions.size(), 1u);
  EXPECT_EQ(create.actions[0]->kind, StatementKind::kInsert);
}

TEST(ParserTest, CreateDmlTriggerWithIfAndNotify) {
  auto stmt = MustParse(
      "CREATE TRIGGER notify ON log AFTER INSERT AS "
      "IF ((SELECT COUNT(DISTINCT patientid) FROM log WHERE userid = new.userid) > 10) "
      "NOTIFY 'excessive access'");
  const auto& create = static_cast<const ast::CreateTriggerStatement&>(*stmt);
  EXPECT_FALSE(create.is_select_trigger);
  EXPECT_EQ(create.table, "log");
  EXPECT_EQ(create.event, ast::DmlEvent::kInsert);
  ASSERT_EQ(create.actions.size(), 1u);
  EXPECT_EQ(create.actions[0]->kind, StatementKind::kIf);
}

TEST(ParserTest, TriggerWithBeginEndBlock) {
  auto stmt = MustParse(
      "CREATE TRIGGER t1 ON ACCESS TO e AS BEGIN "
      "INSERT INTO a VALUES (1); INSERT INTO b VALUES (2); END");
  const auto& create = static_cast<const ast::CreateTriggerStatement&>(*stmt);
  EXPECT_EQ(create.actions.size(), 2u);
}

TEST(ParserTest, AlterTableSingleActions) {
  {
    auto stmt = MustParse("ALTER TABLE t ADD COLUMN score INT DEFAULT 10");
    const auto& alter = static_cast<const ast::AlterTableStatement&>(*stmt);
    EXPECT_EQ(alter.table, "t");
    ASSERT_EQ(alter.actions.size(), 1u);
    EXPECT_EQ(alter.actions[0].kind, ast::AlterTableStatement::Action::Kind::kAdd);
    EXPECT_EQ(alter.actions[0].name, "score");
    EXPECT_EQ(alter.actions[0].type, TypeId::kInt);
    EXPECT_NE(alter.actions[0].default_value, nullptr);
  }
  {
    auto stmt = MustParse("ALTER TABLE t ADD bare VARCHAR");
    const auto& alter = static_cast<const ast::AlterTableStatement&>(*stmt);
    ASSERT_EQ(alter.actions.size(), 1u);
    EXPECT_EQ(alter.actions[0].default_value, nullptr);
  }
  {
    auto stmt = MustParse("ALTER TABLE t DROP COLUMN score");
    const auto& alter = static_cast<const ast::AlterTableStatement&>(*stmt);
    ASSERT_EQ(alter.actions.size(), 1u);
    EXPECT_EQ(alter.actions[0].kind, ast::AlterTableStatement::Action::Kind::kDrop);
  }
  {
    auto stmt = MustParse("ALTER TABLE t RENAME COLUMN a TO b");
    const auto& alter = static_cast<const ast::AlterTableStatement&>(*stmt);
    ASSERT_EQ(alter.actions.size(), 1u);
    EXPECT_EQ(alter.actions[0].kind,
              ast::AlterTableStatement::Action::Kind::kRename);
    EXPECT_EQ(alter.actions[0].name, "a");
    EXPECT_EQ(alter.actions[0].new_name, "b");
  }
  {
    auto stmt = MustParse("ALTER TABLE t RETYPE COLUMN a TO DOUBLE");
    const auto& alter = static_cast<const ast::AlterTableStatement&>(*stmt);
    ASSERT_EQ(alter.actions.size(), 1u);
    EXPECT_EQ(alter.actions[0].kind,
              ast::AlterTableStatement::Action::Kind::kRetype);
    EXPECT_EQ(alter.actions[0].type, TypeId::kDouble);
  }
  // TO is optional in RETYPE, COLUMN is optional everywhere.
  EXPECT_EQ(MustParse("ALTER TABLE t RETYPE a DOUBLE")->kind,
            StatementKind::kAlterTable);
}

TEST(ParserTest, AlterTableChainedActions) {
  auto stmt = MustParse(
      "ALTER TABLE t ADD COLUMN s INT DEFAULT 0, RENAME COLUMN s TO v, "
      "RETYPE COLUMN v DOUBLE, DROP COLUMN v");
  const auto& alter = static_cast<const ast::AlterTableStatement&>(*stmt);
  ASSERT_EQ(alter.actions.size(), 4u);
  EXPECT_EQ(alter.actions[0].kind, ast::AlterTableStatement::Action::Kind::kAdd);
  EXPECT_EQ(alter.actions[1].kind, ast::AlterTableStatement::Action::Kind::kRename);
  EXPECT_EQ(alter.actions[2].kind, ast::AlterTableStatement::Action::Kind::kRetype);
  EXPECT_EQ(alter.actions[3].kind, ast::AlterTableStatement::Action::Kind::kDrop);
}

TEST(ParserTest, AlterTableRejectsMalformedActions) {
  EXPECT_FALSE(ParseSql("ALTER TABLE t").ok());
  EXPECT_FALSE(ParseSql("ALTER TABLE t FROB COLUMN x").ok());
  EXPECT_FALSE(ParseSql("ALTER TABLE t RENAME COLUMN a b").ok());
  EXPECT_FALSE(ParseSql("ALTER TABLE t ADD COLUMN x").ok());
  EXPECT_FALSE(ParseSql("ALTER TABLE t ADD COLUMN x INT,").ok());
  // `alter` stays usable as an ordinary identifier.
  EXPECT_EQ(MustParse("SELECT alter FROM t")->kind, StatementKind::kSelect);
}

TEST(ParserTest, DropStatements) {
  EXPECT_EQ(MustParse("DROP TABLE t")->kind, StatementKind::kDropTable);
  EXPECT_EQ(MustParse("DROP TRIGGER tr")->kind, StatementKind::kDropTrigger);
  EXPECT_EQ(MustParse("DROP AUDIT EXPRESSION e")->kind,
            StatementKind::kDropAuditExpression);
}

TEST(ParserTest, Script) {
  auto r = ParseSqlScript("SELECT 1; SELECT 2; ; SELECT 3;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 3u);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseSql("SELECT 1 FROM t garbage garbage").ok());
}

TEST(ParserTest, ErrorsCarryOffsets) {
  auto r = ParseSql("SELECT FROM");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, EmptyInputRejected) { EXPECT_FALSE(ParseSql("").ok()); }

}  // namespace
}  // namespace seltrig
