// Join reordering: result equivalence, estimation sanity, and interaction
// with audit instrumentation.

#include "optimizer/join_reorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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

// Base tables scanned under `node`, in plan order.
std::vector<std::string> ScanTables(const LogicalOperator& node) {
  std::vector<std::string> tables;
  std::function<void(const LogicalOperator&)> walk = [&](const LogicalOperator& n) {
    if (n.kind() == PlanKind::kScan) {
      tables.push_back(static_cast<const LogicalScan&>(n).table_name);
    }
    for (const auto& child : n.children) walk(*child);
  };
  walk(node);
  return tables;
}

// The inner/cross joins of the first join chain in `plan`, in pre-order
// (column pruning may leave projections between them).
std::vector<const LogicalOperator*> ChainJoins(const LogicalOperator& plan) {
  std::vector<const LogicalOperator*> joins;
  std::function<void(const LogicalOperator&)> collect = [&](const LogicalOperator& n) {
    if (n.kind() == PlanKind::kProject) {
      collect(*n.children[0]);
      return;
    }
    if (n.kind() != PlanKind::kJoin) return;
    auto type = static_cast<const LogicalJoin&>(n).join_type;
    if (type != JoinType::kInner && type != JoinType::kCross) return;
    joins.push_back(&n);
    for (const auto& child : n.children) collect(*child);
  };
  std::function<bool(const LogicalOperator&)> find = [&](const LogicalOperator& n) {
    if (n.kind() == PlanKind::kJoin) {
      collect(n);
      return true;
    }
    for (const auto& child : n.children) {
      if (find(*child)) return true;
    }
    return false;
  };
  find(plan);
  return joins;
}

class JoinReorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Deliberately bad textual order: the biggest table first.
    std::string big_rows;
    for (int i = 0; i < 200; ++i) {
      if (i > 0) big_rows += ", ";
      big_rows.append("(").append(std::to_string(i)).append(", ")
          .append(std::to_string(i % 20)).append(", ")
          .append(std::to_string(i % 7)).append(")");
    }
    ASSERT_TRUE(db_.ExecuteScript(
        "CREATE TABLE big (bid INT PRIMARY KEY, mid_id INT, small_id INT);"
        "CREATE TABLE mid (mid_id INT PRIMARY KEY, v INT);"
        "CREATE TABLE small (small_id INT PRIMARY KEY, tag VARCHAR);"
        "INSERT INTO big VALUES " + big_rows + ";"
        "INSERT INTO mid VALUES (0,0),(1,10),(2,20),(3,30),(4,40),(5,50),"
        "(6,60),(7,70),(8,80),(9,90),(10,100),(11,110),(12,120),(13,130),"
        "(14,140),(15,150),(16,160),(17,170),(18,180),(19,190);"
        "INSERT INTO small VALUES (0,'a'),(1,'b'),(2,'c'),(3,'d'),(4,'e'),"
        "(5,'f'),(6,'g');").ok());
  }

  std::vector<Row> Rows(const std::string& sql, bool reorder) {
    ExecOptions options;
    options.optimizer.enable_join_reordering = reorder;
    auto r = db_.ExecuteWithOptions(sql, options);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r->result.rows : std::vector<Row>{};
  }

  Database db_;
};

TEST_F(JoinReorderTest, ResultsUnchangedAcrossShapes) {
  const char* queries[] = {
      "SELECT bid, v, tag FROM big, mid, small "
      "WHERE big.mid_id = mid.mid_id AND big.small_id = small.small_id "
      "AND tag = 'c'",
      // Bushy input: comma + explicit JOIN.
      "SELECT bid, v FROM big, mid JOIN small ON mid.mid_id - 13 = "
      "small.small_id WHERE big.mid_id = mid.mid_id AND v > 100",
      // Projection + ordering above the chain.
      "SELECT tag, COUNT(*) AS n FROM big, mid, small "
      "WHERE big.mid_id = mid.mid_id AND big.small_id = small.small_id "
      "GROUP BY tag ORDER BY tag",
      // Four-way with a cross component.
      "SELECT COUNT(*) FROM big b1, mid, small, big b2 "
      "WHERE b1.mid_id = mid.mid_id AND b1.small_id = small.small_id "
      "AND b2.bid = b1.bid",
  };
  for (const char* sql : queries) {
    std::vector<Row> off = Canonical(Rows(sql, false));
    std::vector<Row> on = Canonical(Rows(sql, true));
    ASSERT_EQ(off.size(), on.size()) << sql;
    for (size_t i = 0; i < off.size(); ++i) {
      EXPECT_TRUE(RowEq{}(off[i], on[i])) << sql << " row " << i;
    }
  }
}

TEST_F(JoinReorderTest, SmallestRelationStartsTheChain) {
  auto plan = db_.PlanSelect(
      "SELECT bid FROM big, mid, small "
      "WHERE big.mid_id = mid.mid_id AND big.small_id = small.small_id");
  ASSERT_TRUE(plan.ok());
  // Greedy ordering starts from the smallest relation: it is one input of
  // the deepest join. Being smaller than what it joins, it is that join's
  // build (right) side.
  std::vector<const LogicalOperator*> joins = ChainJoins(**plan);
  ASSERT_EQ(joins.size(), 2u);
  const LogicalOperator& deepest = *joins.back();
  EXPECT_EQ(ScanTables(*deepest.children[1]), std::vector<std::string>{"small"});
  EXPECT_EQ(ScanTables(*deepest.children[0]), std::vector<std::string>{"big"});
}

TEST_F(JoinReorderTest, BuildSideHasTheSmallerEstimate) {
  const char* queries[] = {
      "SELECT bid FROM big, mid, small "
      "WHERE big.mid_id = mid.mid_id AND big.small_id = small.small_id",
      "SELECT bid, v, tag FROM big, mid, small "
      "WHERE big.mid_id = mid.mid_id AND big.small_id = small.small_id "
      "AND tag = 'c'",
      "SELECT COUNT(*) FROM big b1, mid, small, big b2 "
      "WHERE b1.mid_id = mid.mid_id AND b1.small_id = small.small_id "
      "AND b2.bid = b1.bid",
  };
  for (const char* sql : queries) {
    auto plan = db_.PlanSelect(sql);
    ASSERT_TRUE(plan.ok()) << sql;
    std::vector<const LogicalOperator*> joins = ChainJoins(**plan);
    ASSERT_FALSE(joins.empty()) << sql;
    for (const LogicalOperator* join : joins) {
      double left = EstimateCardinality(*join->children[0], db_.catalog());
      double right = EstimateCardinality(*join->children[1], db_.catalog());
      EXPECT_LE(right, left) << sql;
    }
  }
}

TEST_F(JoinReorderTest, LeftJoinIsNeverSwapped) {
  // The LEFT join is one relation of the reordered chain; its own inputs
  // keep their sides even though the preserved side is the smaller one.
  const std::string sql =
      "SELECT small.small_id, bid, v FROM small LEFT JOIN big "
      "ON small.small_id = big.small_id AND big.bid < 50, mid, small s2 "
      "WHERE big.mid_id = mid.mid_id AND s2.small_id = small.small_id";
  auto plan = db_.PlanSelect(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_GE(ChainJoins(**plan).size(), 2u);
  int left_joins = 0;
  std::function<void(const LogicalOperator&)> walk = [&](const LogicalOperator& node) {
    if (node.kind() == PlanKind::kJoin &&
        static_cast<const LogicalJoin&>(node).join_type == JoinType::kLeft) {
      ++left_joins;
      EXPECT_EQ(ScanTables(*node.children[0]), std::vector<std::string>{"small"});
      EXPECT_EQ(ScanTables(*node.children[1]), std::vector<std::string>{"big"});
    }
    for (const auto& child : node.children) walk(*child);
  };
  walk(**plan);
  EXPECT_EQ(left_joins, 1);
  std::vector<Row> off = Canonical(Rows(sql, false));
  std::vector<Row> on = Canonical(Rows(sql, true));
  EXPECT_EQ(on, off);
  EXPECT_FALSE(on.empty());
}

TEST_F(JoinReorderTest, GreedyPrefersThePrimaryKeySide) {
  // Q7's shape: once supp and cust are joined, `line` is the smaller base
  // relation, but it joins on supp's primary key (8 line rows per supplier)
  // while `ord` joins on cust's (2 orders per customer). Attaching the
  // smaller intermediate result means `ord` first and `line` last.
  std::string supp, cust, ord, line;
  for (int i = 0; i < 10; ++i) {
    supp.append(i > 0 ? ", (" : "(").append(std::to_string(i)).append(", ")
        .append(std::to_string(i % 5)).append(")");
  }
  for (int i = 0; i < 50; ++i) {
    cust.append(i > 0 ? ", (" : "(").append(std::to_string(i)).append(", ")
        .append(std::to_string(i % 5)).append(")");
  }
  for (int i = 0; i < 100; ++i) {
    ord.append(i > 0 ? ", (" : "(").append(std::to_string(i)).append(", ")
        .append(std::to_string(i % 50)).append(")");
  }
  for (int i = 0; i < 80; ++i) {
    line.append(i > 0 ? ", (" : "(").append(std::to_string(i % 100)).append(", ")
        .append(std::to_string(i % 10)).append(")");
  }
  ASSERT_TRUE(db_.ExecuteScript(
      "CREATE TABLE supp (sk INT PRIMARY KEY, snk INT);"
      "CREATE TABLE cust (ck INT PRIMARY KEY, cnk INT);"
      "CREATE TABLE ord (ordk INT PRIMARY KEY, ock INT);"
      "CREATE TABLE line (lok INT, lsk INT);"
      "INSERT INTO supp VALUES " + supp + ";"
      "INSERT INTO cust VALUES " + cust + ";"
      "INSERT INTO ord VALUES " + ord + ";"
      "INSERT INTO line VALUES " + line + ";").ok());
  const std::string sql =
      "SELECT sk, ck, ordk FROM supp, line, ord, cust "
      "WHERE sk = lsk AND ordk = lok AND ck = ock AND snk = cnk";
  auto plan = db_.PlanSelect(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<const LogicalOperator*> joins = ChainJoins(**plan);
  ASSERT_EQ(joins.size(), 3u);
  // `line` is attached last: it is a direct input of the chain's top join.
  const LogicalOperator& top = *joins.front();
  bool line_last = false;
  for (const auto& child : top.children) {
    line_last = line_last || ScanTables(*child) == std::vector<std::string>{"line"};
  }
  EXPECT_TRUE(line_last) << PlanToString(**plan);
  std::vector<Row> off = Canonical(Rows(sql, false));
  std::vector<Row> on = Canonical(Rows(sql, true));
  EXPECT_EQ(on, off);
  EXPECT_FALSE(on.empty());
}

TEST_F(JoinReorderTest, EstimateCardinalitySanity) {
  auto big_plan = db_.PlanSelect("SELECT * FROM big");
  auto small_plan = db_.PlanSelect("SELECT * FROM small");
  ASSERT_TRUE(big_plan.ok());
  ASSERT_TRUE(small_plan.ok());
  double big = EstimateCardinality(**big_plan, db_.catalog());
  double small = EstimateCardinality(**small_plan, db_.catalog());
  EXPECT_GT(big, small);

  auto filtered = db_.PlanSelect("SELECT * FROM big WHERE bid = 5");
  ASSERT_TRUE(filtered.ok());
  EXPECT_LT(EstimateCardinality(**filtered, db_.catalog()), big);
}

TEST_F(JoinReorderTest, AuditExactnessSurvivesReordering) {
  ASSERT_TRUE(db_.Execute(
      "CREATE AUDIT EXPRESSION audit_big AS SELECT * FROM big "
      "FOR SENSITIVE TABLE big PARTITION BY bid").ok());
  // SJ query: hcn must stay exact regardless of join order (Theorem 3.7).
  const std::string sql =
      "SELECT bid FROM big, mid, small "
      "WHERE big.mid_id = mid.mid_id AND big.small_id = small.small_id "
      "AND v = 40 AND tag = 'c'";
  ExecOptions options;
  options.instrument_all_audit_expressions = true;
  auto run = db_.ExecuteWithOptions(sql, options);
  ASSERT_TRUE(run.ok());
  // Expected: rows where mid_id == 4 and small_id == 2.
  std::vector<int64_t> expected;
  for (const Row& row : run->result.rows) expected.push_back(row[0].AsInt());
  std::sort(expected.begin(), expected.end());
  std::vector<int64_t> audited;
  for (const Value& v : run->accessed["audit_big"]) audited.push_back(v.AsInt());
  EXPECT_EQ(audited, expected);
  EXPECT_FALSE(audited.empty());
}

TEST_F(JoinReorderTest, CorrelatedSubqueryInsideChainSurvives) {
  const std::string sql =
      "SELECT bid FROM big, mid, small "
      "WHERE big.mid_id = mid.mid_id AND big.small_id = small.small_id "
      "AND EXISTS (SELECT 1 FROM mid m2 WHERE m2.mid_id = big.mid_id AND m2.v > 100)";
  std::vector<Row> off = Canonical(Rows(sql, false));
  std::vector<Row> on = Canonical(Rows(sql, true));
  ASSERT_EQ(off.size(), on.size());
  EXPECT_FALSE(on.empty());
}

TEST_F(JoinReorderTest, TwoWayJoinsLeftAlone) {
  // A 2-way join is not rewritten: the plan is identical with the pass on
  // and off (no restore projection inserted).
  const std::string sql =
      "EXPLAIN SELECT bid FROM big, mid WHERE big.mid_id = mid.mid_id";
  ExecOptions on;
  ExecOptions off;
  off.optimizer.enable_join_reordering = false;
  auto with = db_.ExecuteWithOptions(sql, on);
  auto without = db_.ExecuteWithOptions(sql, off);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->plan_text, without->plan_text);
}

}  // namespace
}  // namespace seltrig
