// Engine-level property sweeps: optimized and unoptimized plans agree; hash
// and nested-loop joins agree; SQL evaluation matches a reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/database.h"

namespace seltrig {
namespace {

std::vector<Row> Canonical(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

void ExpectSameBag(const std::vector<Row>& a, const std::vector<Row>& b) {
  std::vector<Row> ca = Canonical(a), cb = Canonical(b);
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_TRUE(RowEq{}(ca[i], cb[i])) << "row " << i;
  }
}

class JoinEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    int seed = GetParam();
    std::string l_rows, r_rows;
    for (int i = 0; i < 20; ++i) {
      if (i > 0) l_rows += ", ";
      l_rows.append("(").append(std::to_string(i)).append(", ")
          .append(std::to_string((i * 7 + seed) % 6)).append(")");
    }
    for (int i = 0; i < 15; ++i) {
      if (i > 0) r_rows += ", ";
      r_rows.append("(").append(std::to_string((i * 5 + seed) % 6)).append(", ")
          .append(std::to_string(i % 4)).append(")");
    }
    ASSERT_TRUE(db_.ExecuteScript(
        "CREATE TABLE lhs (id INT PRIMARY KEY, k INT);"
        "CREATE TABLE rhs (k INT, w INT);"
        "INSERT INTO lhs VALUES " + l_rows + ";"
        "INSERT INTO rhs VALUES " + r_rows + ";").ok());
  }

  std::vector<Row> Rows(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r->rows : std::vector<Row>{};
  }

  Database db_;
};

TEST_P(JoinEquivalenceTest, HashJoinMatchesNestedLoop) {
  // The same equi-join expressed so one compiles to a hash join and the
  // other (via inequalities) to a nested-loop join.
  std::vector<Row> hash =
      Rows("SELECT id, w FROM lhs, rhs WHERE lhs.k = rhs.k");
  std::vector<Row> nl =
      Rows("SELECT id, w FROM lhs, rhs WHERE lhs.k <= rhs.k AND lhs.k >= rhs.k");
  ExpectSameBag(hash, nl);
}

TEST_P(JoinEquivalenceTest, JoinSyntaxEquivalence) {
  std::vector<Row> comma =
      Rows("SELECT id, w FROM lhs, rhs WHERE lhs.k = rhs.k AND w > 1");
  std::vector<Row> ansi =
      Rows("SELECT id, w FROM lhs JOIN rhs ON lhs.k = rhs.k WHERE w > 1");
  ExpectSameBag(comma, ansi);
}

TEST_P(JoinEquivalenceTest, LeftJoinSupersetOfInner) {
  std::vector<Row> inner = Rows("SELECT id FROM lhs JOIN rhs ON lhs.k = rhs.k");
  std::vector<Row> left = Rows("SELECT id FROM lhs LEFT JOIN rhs ON lhs.k = rhs.k");
  EXPECT_GE(left.size(), inner.size());
  // Every lhs row appears at least once in the left join.
  std::vector<Row> all = Rows("SELECT id FROM lhs");
  std::vector<Row> left_ids = Canonical(left);
  for (const Row& row : all) {
    EXPECT_TRUE(std::binary_search(
        left_ids.begin(), left_ids.end(), row,
        [](const Row& a, const Row& b) { return Value::Compare(a[0], b[0]) < 0; }));
  }
}

TEST_P(JoinEquivalenceTest, OptimizerOnOffAgree) {
  const std::string sql =
      "SELECT id, w FROM lhs, rhs WHERE lhs.k = rhs.k AND id > 3 AND w < 3";
  std::vector<Row> optimized = Rows(sql);

  OptimizerOptions off;
  off.enable_filter_pushdown = false;
  off.enable_constant_folding = false;
  off.enable_contradiction_detection = false;
  auto plan = db_.PlanSelect(sql, off);
  ASSERT_TRUE(plan.ok());
  ExecContext ctx(db_.catalog(), db_.session());
  Executor executor(&ctx);
  auto raw = executor.ExecuteQuery(**plan);
  ASSERT_TRUE(raw.ok());
  ExpectSameBag(optimized, raw->rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceTest, ::testing::Range(0, 8));

// Aggregation consistency: SUM/COUNT/AVG/MIN/MAX over a generated table must
// match values computed by independent SQL identities.
class AggregateConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(AggregateConsistencyTest, Identities) {
  int seed = GetParam();
  Database db;
  std::string rows;
  int n = 10 + seed * 3;
  for (int i = 0; i < n; ++i) {
    if (i > 0) rows += ", ";
    rows.append("(").append(std::to_string(i)).append(", ")
        .append(std::to_string((i * 13 + seed) % 7)).append(", ")
        .append(std::to_string((i * i + seed) % 19)).append(")");
  }
  ASSERT_TRUE(db.ExecuteScript(
      "CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT);"
      "INSERT INTO t VALUES " + rows + ";").ok());

  // SUM over groups == global SUM.
  auto groups = db.Execute("SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g");
  ASSERT_TRUE(groups.ok());
  int64_t sum = 0, count = 0;
  for (const Row& row : groups->rows) {
    sum += row[1].AsInt();
    count += row[2].AsInt();
  }
  auto global = db.Execute("SELECT SUM(v), COUNT(*), AVG(v), MIN(v), MAX(v) FROM t");
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global->rows[0][0].AsInt(), sum);
  EXPECT_EQ(global->rows[0][1].AsInt(), count);
  EXPECT_DOUBLE_EQ(global->rows[0][2].AsDouble(),
                   static_cast<double>(sum) / static_cast<double>(count));
  // MIN <= AVG <= MAX.
  EXPECT_LE(global->rows[0][3].AsInt(), global->rows[0][2].AsDouble());
  EXPECT_GE(global->rows[0][4].AsInt(), global->rows[0][2].AsDouble());

  // COUNT DISTINCT g == number of groups.
  auto distinct = db.Execute("SELECT COUNT(DISTINCT g) FROM t");
  EXPECT_EQ(distinct->rows[0][0].AsInt(), static_cast<int64_t>(groups->rows.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateConsistencyTest, ::testing::Range(0, 10));

// ORDER BY / LIMIT consistency: LIMIT k is a prefix of the full ordering.
class TopKPrefixTest : public ::testing::TestWithParam<int> {};

TEST_P(TopKPrefixTest, LimitIsPrefixOfFullSort) {
  int k = GetParam();
  Database db;
  std::string rows;
  for (int i = 0; i < 17; ++i) {
    if (i > 0) rows += ", ";
    rows.append("(").append(std::to_string(i)).append(", ")
        .append(std::to_string((i * 11) % 23)).append(")");
  }
  ASSERT_TRUE(db.ExecuteScript(
      "CREATE TABLE t (id INT PRIMARY KEY, v INT);"
      "INSERT INTO t VALUES " + rows + ";").ok());
  auto full = db.Execute("SELECT id FROM t ORDER BY v, id");
  auto limited = db.Execute("SELECT id FROM t ORDER BY v, id LIMIT " + std::to_string(k));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->rows.size(), std::min<size_t>(k, full->rows.size()));
  for (size_t i = 0; i < limited->rows.size(); ++i) {
    EXPECT_TRUE(RowEq{}(limited->rows[i], full->rows[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKPrefixTest, ::testing::Values(0, 1, 2, 5, 16, 17, 30));

}  // namespace
}  // namespace seltrig
