// Property tests for the placement invariants over randomized queries:
//  * leaf-node and hcn instrumented plans NEVER miss an accessed tuple
//    (Claims 3.5 / 3.6);
//  * for select-join queries, hcn equals the offline auditor (Theorem 3.7);
//  * instrumentation never changes query results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "audit/offline_auditor.h"
#include "engine/database.h"

namespace seltrig {
namespace {

// Deterministic per-seed pseudo-random generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int Int(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(int percent) { return Int(1, 100) <= percent; }

 private:
  uint64_t state_;
};

struct GeneratedQuery {
  std::string sql;
  bool select_join = false;  // no aggregation/limit/distinct
};

// Random query over people(id, grp, v) and rel(pid, w).
GeneratedQuery GenerateQuery(Rng* rng) {
  GeneratedQuery q;
  bool join = rng->Chance(50);
  bool left_join = !join && rng->Chance(30);
  bool derived = !join && !left_join && rng->Chance(30);
  bool aggregate = rng->Chance(30);
  bool limit = !aggregate && rng->Chance(30);
  bool distinct = !aggregate && !limit && rng->Chance(20);
  // Theorem 3.7's class: selections + inner joins only. LEFT JOIN and
  // derived tables keep the no-false-negative property but not exactness.
  q.select_join = !aggregate && !limit && !distinct && !left_join && !derived;

  std::string where;
  auto add_pred = [&](const std::string& p) {
    where += where.empty() ? " WHERE " : " AND ";
    where += p;
  };
  if (rng->Chance(70)) {
    add_pred("v " + std::string(rng->Chance(50) ? "<" : ">=") + " " +
             std::to_string(rng->Int(0, 100)));
  }
  if (rng->Chance(40)) {
    add_pred("grp = " + std::to_string(rng->Int(0, 4)));
  }

  std::string from = "people";
  if (join) {
    from = "people, rel";
    add_pred("id = pid");
    if (rng->Chance(40)) add_pred("w > " + std::to_string(rng->Int(0, 50)));
  } else if (left_join) {
    from = "people LEFT JOIN rel ON id = pid AND w > " +
           std::to_string(rng->Int(0, 30));
  } else if (derived) {
    // Derived table over the sensitive table joined back to a base scan.
    from = "people, (SELECT grp AS dgrp, COUNT(*) AS cnt FROM people "
           "GROUP BY grp) stats";
    add_pred("grp = stats.dgrp");
    if (rng->Chance(50)) add_pred("stats.cnt >= " + std::to_string(rng->Int(1, 4)));
  }

  if (aggregate) {
    q.sql = "SELECT grp, COUNT(*), SUM(v) FROM " + from + where + " GROUP BY grp";
    if (rng->Chance(50)) q.sql += " HAVING COUNT(*) >= " + std::to_string(rng->Int(1, 3));
    q.sql += " ORDER BY grp";
  } else if (limit) {
    q.sql = "SELECT id, v FROM " + from + where + " ORDER BY v, id LIMIT " +
            std::to_string(rng->Int(1, 5));
  } else if (distinct) {
    q.sql = "SELECT DISTINCT grp FROM " + from + where + " ORDER BY grp";
  } else if (derived || left_join) {
    q.sql = "SELECT id, v FROM " + from + where;
  } else {
    q.sql = "SELECT * FROM " + from + where;
  }
  return q;
}

class PlacementPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
    std::string people_rows, rel_rows;
    int n_people = rng.Int(8, 20);
    for (int i = 1; i <= n_people; ++i) {
      if (i > 1) people_rows += ", ";
      // v is drawn before grp, and w before pid below: each seed's tables
      // depend on the draw order.
      const int v = rng.Int(0, 100);
      const int grp = rng.Int(0, 4);
      people_rows.append("(").append(std::to_string(i)).append(", ")
          .append(std::to_string(grp)).append(", ")
          .append(std::to_string(v)).append(")");
    }
    int n_rel = rng.Int(5, 25);
    for (int i = 0; i < n_rel; ++i) {
      if (i > 0) rel_rows += ", ";
      const int w = rng.Int(0, 50);
      const int pid = rng.Int(1, n_people);
      rel_rows.append("(").append(std::to_string(pid)).append(", ")
          .append(std::to_string(w)).append(")");
    }
    ASSERT_TRUE(db_.ExecuteScript(
        "CREATE TABLE people (id INT PRIMARY KEY, grp INT, v INT);"
        "CREATE TABLE rel (pid INT, w INT);"
        "INSERT INTO people VALUES " + people_rows + ";"
        "INSERT INTO rel VALUES " + rel_rows + ";").ok());
    ASSERT_TRUE(db_.Execute(
        "CREATE AUDIT EXPRESSION audit_people AS SELECT * FROM people "
        "FOR SENSITIVE TABLE people PARTITION BY id").ok());
  }

  std::vector<int64_t> AuditIds(const std::string& sql, PlacementHeuristic h) {
    ExecOptions options;
    options.heuristic = h;
    options.instrument_all_audit_expressions = true;
    auto r = db_.ExecuteWithOptions(sql, options);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    std::vector<int64_t> ids;
    if (r.ok()) {
      for (const Value& v : r->accessed["audit_people"]) ids.push_back(v.AsInt());
    }
    return ids;
  }

  std::vector<int64_t> OfflineIds(const std::string& sql) {
    auto plan = db_.PlanSelect(sql);
    EXPECT_TRUE(plan.ok()) << sql;
    OfflineAuditor auditor(db_.catalog(), db_.session());
    auto report = auditor.Audit(**plan, *db_.audit_manager()->Find("audit_people"));
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    std::vector<int64_t> ids;
    for (const Value& v : report->accessed_ids) ids.push_back(v.AsInt());
    return ids;
  }

  Database db_;
};

TEST_P(PlacementPropertyTest, NoFalseNegativesAndSjExactness) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 5; ++i) {
    GeneratedQuery q = GenerateQuery(&rng);
    SCOPED_TRACE(q.sql);

    std::vector<int64_t> offline = OfflineIds(q.sql);
    std::vector<int64_t> leaf = AuditIds(q.sql, PlacementHeuristic::kLeafNode);
    std::vector<int64_t> hcn =
        AuditIds(q.sql, PlacementHeuristic::kHighestCommutativeNode);

    // Claim 3.5 / 3.6: accessedIDs is a subset of auditIDs.
    for (int64_t id : offline) {
      EXPECT_TRUE(std::binary_search(leaf.begin(), leaf.end(), id))
          << "leaf missed " << id;
      EXPECT_TRUE(std::binary_search(hcn.begin(), hcn.end(), id))
          << "hcn missed " << id;
    }
    // hcn never audits more than leaf (it only pulls operators up past
    // row-reducing operators).
    EXPECT_LE(hcn.size(), leaf.size());

    // Theorem 3.7: exactness on select-join queries.
    if (q.select_join) {
      EXPECT_EQ(hcn, offline) << "hcn not exact on SJ query";
    }
  }
}

TEST_P(PlacementPropertyTest, InstrumentationPreservesResults) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 77);
  for (int i = 0; i < 5; ++i) {
    GeneratedQuery q = GenerateQuery(&rng);
    SCOPED_TRACE(q.sql);
    auto plain = db_.Execute(q.sql);
    ASSERT_TRUE(plain.ok());
    for (PlacementHeuristic h : {PlacementHeuristic::kLeafNode,
                                 PlacementHeuristic::kHighestNode,
                                 PlacementHeuristic::kHighestCommutativeNode}) {
      ExecOptions options;
      options.heuristic = h;
      options.instrument_all_audit_expressions = true;
      auto audited = db_.ExecuteWithOptions(q.sql, options);
      ASSERT_TRUE(audited.ok());
      ASSERT_EQ(plain->rows.size(), audited->result.rows.size());
      for (size_t r = 0; r < plain->rows.size(); ++r) {
        EXPECT_TRUE(RowEq{}(plain->rows[r], audited->result.rows[r]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementPropertyTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace seltrig
