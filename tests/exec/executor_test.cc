// Executor-level behaviors: stats accounting, subquery caching, prefix reads,
// result rendering.

#include "exec/executor.h"

#include <gtest/gtest.h>

#include "engine/database.h"

namespace seltrig {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE t (id INT PRIMARY KEY, v INT);
      CREATE TABLE u (id INT PRIMARY KEY, w INT);
      INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40);
      INSERT INTO u VALUES (1, 5), (2, 6);
    )sql").ok());
  }

  Database db_;
};

TEST_F(ExecutorTest, RowsScannedCounted) {
  auto r = db_.ExecuteWithOptions("SELECT * FROM t", ExecOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.rows_scanned, 4u);
}

TEST_F(ExecutorTest, UncorrelatedSubqueryExecutedOnce) {
  // Four outer rows probe the same uncorrelated IN-subquery; the cache must
  // keep materializations at one even though the expression is evaluated
  // per row.
  auto r = db_.ExecuteWithOptions(
      "SELECT id FROM t WHERE id IN (SELECT id FROM u)", ExecOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.rows.size(), 2u);
  // rows_scanned: t fully (4) + u once (2).
  EXPECT_EQ(r->stats.rows_scanned, 6u);
  EXPECT_GE(r->stats.subquery_executions, 4u);  // evaluated per row, cached
}

TEST_F(ExecutorTest, CorrelatedSubqueryReexecuted) {
  auto r = db_.ExecuteWithOptions(
      "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
      ExecOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.rows.size(), 2u);
  // Each outer row re-runs the subquery; the index path keeps scans small.
  EXPECT_GE(r->stats.subquery_executions, 4u);
}

TEST_F(ExecutorTest, MaxRowsStopsPulling) {
  ExecOptions options;
  options.max_rows = 1;
  auto r = db_.ExecuteWithOptions("SELECT * FROM t", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.rows.size(), 1u);
  // Volcano semantics: only the rows needed were pulled from the scan.
  EXPECT_LT(r->stats.rows_scanned, 4u);
}

// Integer arithmetic and SUM fail instead of wrapping; results that land
// exactly on an int64 bound are exact.
class IntegerRangeTest : public ExecutorTest {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE big (id INT PRIMARY KEY, g INT, x INT);
      INSERT INTO big VALUES (1, 1, 9223372036854775806), (2, 1, 1),
                             (3, 2, 9223372036854775807), (4, 2, 1);
    )sql").ok());
  }

  void ExpectOutOfRange(const std::string& sql) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), ErrorCode::kExecutionError) << sql;
    EXPECT_NE(r.status().message().find("integer out of range"), std::string::npos)
        << r.status().ToString();
  }

  int64_t Scalar(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() && r->rows.size() == 1 ? r->rows[0][0].AsInt() : 0;
  }
};

TEST_F(IntegerRangeTest, BoundsReadExactlyAndOverflowErrors) {
  EXPECT_EQ(Scalar("SELECT -9223372036854775808"), INT64_MIN);
  EXPECT_EQ(Scalar("SELECT x FROM big WHERE id = 3"), INT64_MAX);
  ExpectOutOfRange("SELECT x + 1 FROM big WHERE id = 3");
  ExpectOutOfRange("SELECT -9223372036854775808 - id FROM big WHERE id = 1");
}

// SUM in both aggregate forms; AVG of the same column widens to double and
// does not fail.
TEST_F(IntegerRangeTest, SumOverflowErrors) {
  EXPECT_EQ(Scalar("SELECT SUM(x) FROM big WHERE g = 1"), INT64_MAX);
  ExpectOutOfRange("SELECT SUM(x) FROM big");
  ExpectOutOfRange("SELECT g, SUM(x) FROM big GROUP BY g");
  EXPECT_TRUE(db_.Execute("SELECT AVG(x) FROM big").ok());
}

TEST_F(IntegerRangeTest, DistinctSumOverflowErrors) {
  EXPECT_EQ(Scalar("SELECT SUM(DISTINCT x) FROM big WHERE g = 1"), INT64_MAX);
  ExpectOutOfRange("SELECT SUM(DISTINCT x) FROM big");
}

// Date arithmetic fails when its result leaves the int32 day range instead
// of truncating the day count or wrapping.
TEST_F(IntegerRangeTest, DateArithmeticOutOfRangeErrors) {
  auto expect_date_out_of_range = [&](const std::string& sql) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), ErrorCode::kExecutionError) << sql;
    EXPECT_NE(r.status().message().find("date out of range"), std::string::npos)
        << r.status().ToString();
  };
  expect_date_out_of_range("SELECT DATE '1995-01-01' + 4294967296");
  expect_date_out_of_range("SELECT DATE '1995-01-01' + 2147483647");
  expect_date_out_of_range("SELECT DATE '1995-01-01' - x FROM big WHERE id = 3");
  expect_date_out_of_range("SELECT x + DATE '1995-01-01' FROM big WHERE id = 3");
  auto in_range = db_.Execute("SELECT DATE '1995-01-01' + 31, DATE '1995-01-01' - 1");
  ASSERT_TRUE(in_range.ok()) << in_range.status().ToString();
  EXPECT_EQ(in_range->rows[0][0].ToString(), "1995-02-01");
  EXPECT_EQ(in_range->rows[0][1].ToString(), "1994-12-31");
  EXPECT_EQ(Scalar("SELECT DATE '1995-01-01' - DATE '1994-01-01'"), 365);
}

TEST_F(ExecutorTest, QueryResultToStringTruncates) {
  auto r = db_.Execute("SELECT id FROM t ORDER BY id");
  ASSERT_TRUE(r.ok());
  std::string text = r->ToString(/*max_rows=*/2);
  EXPECT_NE(text.find("id"), std::string::npos);
  EXPECT_NE(text.find("(4 rows total)"), std::string::npos);
}

TEST_F(ExecutorTest, PlanTextReflectsExecutedPlan) {
  auto r = db_.ExecuteWithOptions("SELECT v FROM t WHERE v > 15", ExecOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->plan_text.find("Scan t"), std::string::npos);
}

TEST_F(ExecutorTest, ExecutionErrorsCarryContext) {
  auto r = db_.Execute("SELECT v / (v - v) FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kExecutionError);
  EXPECT_NE(r.status().message().find("division by zero"), std::string::npos);
}

}  // namespace
}  // namespace seltrig
