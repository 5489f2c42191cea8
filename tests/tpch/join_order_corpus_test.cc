// Join-order differential over the TPC-H corpus: the seven workload queries
// plus Q13 must return the same rows and the same ACCESSED sets with join
// reordering (greedy order, small-side builds) on and off. Each pair of runs
// shares a setting: batch size 1 or 1024, 1 or 4 threads, hcn or leaf audit
// placement, with or without a max_rows prefix abort. Every plan must pass
// the plan validator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "engine/database.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace seltrig {
namespace {

// Rows must match exactly, except that a double may differ in its last
// bits: a join order changes the order in which SUM adds its inputs.
void ExpectSameRows(const std::vector<Row>& actual, const std::vector<Row>& expected,
                    const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (size_t i = 0; i < actual.size(); ++i) {
    bool same = actual[i].size() == expected[i].size();
    for (size_t c = 0; same && c < actual[i].size(); ++c) {
      const Value& a = actual[i][c];
      const Value& e = expected[i][c];
      if (a.type() == TypeId::kDouble && e.type() == TypeId::kDouble) {
        same = std::fabs(a.AsDouble() - e.AsDouble()) <=
               1e-9 * std::max(1.0, std::fabs(e.AsDouble()));
      } else {
        same = a == e;
      }
    }
    EXPECT_TRUE(same) << where << " row " << i << ": " << RowToString(actual[i])
                      << " vs " << RowToString(expected[i]);
  }
}

class JoinOrderCorpusTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    ASSERT_TRUE(tpch::LoadTpch(db_, config).ok());
    ASSERT_TRUE(
        db_->Execute(tpch::SegmentAuditExpressionSql("seg", "BUILDING")).ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static std::vector<tpch::TpchQuery> Corpus() {
    std::vector<tpch::TpchQuery> corpus = tpch::WorkloadQueries();
    for (tpch::TpchQuery& q : tpch::ExtensionQueries()) corpus.push_back(std::move(q));
    return corpus;
  }

  static void ExpectOrderIndependent(int64_t max_rows) {
    for (const tpch::TpchQuery& query : Corpus()) {
      for (PlacementHeuristic heuristic : {PlacementHeuristic::kHighestCommutativeNode,
                                           PlacementHeuristic::kLeafNode}) {
        for (size_t batch : {1u, 1024u}) {
          for (int threads : {1, 4}) {
            ExecOptions options;
            options.batch_size = batch;
            options.num_threads = threads;
            options.heuristic = heuristic;
            options.max_rows = max_rows;
            options.validate_plans = true;
            options.instrument_all_audit_expressions = true;
            options.enable_select_triggers = false;
            const std::string where =
                query.name + " (" + PlacementHeuristicName(heuristic) + ", batch " +
                std::to_string(batch) + ", threads " + std::to_string(threads) +
                ", max_rows " + std::to_string(max_rows) + ")";
            options.optimizer.enable_join_reordering = false;
            auto fixed = db_->ExecuteWithOptions(query.sql, options);
            ASSERT_TRUE(fixed.ok()) << where << ": " << fixed.status().ToString();
            options.optimizer.enable_join_reordering = true;
            auto reordered = db_->ExecuteWithOptions(query.sql, options);
            ASSERT_TRUE(reordered.ok()) << where << ": " << reordered.status().ToString();
            ExpectSameRows(reordered->result.rows, fixed->result.rows, where);
            EXPECT_EQ(reordered->accessed, fixed->accessed) << where;
          }
        }
      }
    }
  }

  static Database* db_;
};

Database* JoinOrderCorpusTest::db_ = nullptr;

TEST_F(JoinOrderCorpusTest, RowsAndAccessedIndependentOfJoinOrder) {
  ExpectOrderIndependent(/*max_rows=*/-1);
}

TEST_F(JoinOrderCorpusTest, RowsAndAccessedIndependentOfJoinOrderUnderPrefixAbort) {
  ExpectOrderIndependent(/*max_rows=*/5);
}

}  // namespace
}  // namespace seltrig
