// The settings differential (corpus_differential.h) over the TPC-H corpus,
// one fixture (SF 0.01 plus the `seg` BUILDING expression) for every sweep.
// Each suite sweeps the rows of the settings table along its axis:
//
//  - BatchDifferentialTest: batch 1, 3 and 1024;
//  - ThreadDifferentialTest: 1, 2, 4 and 8 morsel threads;
//  - ColumnarDifferentialTest: row and columnar layout at batch 1 and 1024,
//    serially and with 4 threads;
//  - JoinOrderCorpusTest: join reordering on and off, under hcn and leaf
//    placement, at batch 1 and 1024 and 1 and 4 threads;
//  - PlanValidatorTpchTest: one setting each, the plans must validate;
//  - CorpusDifferentialTest: the whole table.
//
// Corpus: the seven workload queries and Q13, with and without a max_rows
// prefix abort; the Section V-A micro query; and LIMIT directly over the
// audited scan spine, where the executor pins the audit operator to batch
// capacity 1 so ACCESSED reflects exactly the rows a row-at-a-time engine
// would have produced before stopping (and refuses to gather).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus_differential.h"
#include "engine/database.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace seltrig {
namespace {

using corpus::kHcn;
using corpus::kHighest;
using corpus::kLeaf;
using corpus::Setting;
using corpus::SettingsWhere;

bool InstrumentedHcnReordered(const Setting& s) {
  return s.instrumented && s.heuristic == kHcn && s.reorder;
}

bool BatchOneOr1024ThreadsOneOrFour(const Setting& s) {
  return (s.batch == 1 || s.batch == 1024) && (s.threads == 1 || s.threads == 4);
}

const std::vector<Setting> kBatchSweep = SettingsWhere([](const Setting& s) {
  return InstrumentedHcnReordered(s) && s.columnar && s.threads == 1;
});

const std::vector<Setting> kThreadSweep = SettingsWhere([](const Setting& s) {
  return InstrumentedHcnReordered(s) && s.columnar && s.batch == 1024;
});

const std::vector<Setting> kLayoutSweep = SettingsWhere([](const Setting& s) {
  return InstrumentedHcnReordered(s) && BatchOneOr1024ThreadsOneOrFour(s);
});

const std::vector<Setting> kJoinOrderSweep = SettingsWhere([](const Setting& s) {
  return s.instrumented && s.columnar && s.heuristic != kHighest &&
         BatchOneOr1024ThreadsOneOrFour(s);
});

// The reference row and the reordered columnar row with these settings.
std::vector<Setting> OneSetting(PlacementHeuristic heuristic, size_t batch,
                                int threads) {
  return SettingsWhere([=](const Setting& s) {
    return s.instrumented && s.reorder && s.columnar && s.heuristic == heuristic &&
           s.batch == batch && s.threads == threads;
  });
}

class CorpusDifferentialTest : public ::testing::Test {
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

  static void ExpectSettingsAgree(const std::vector<Setting>& settings,
                                  const std::string& name, const std::string& sql,
                                  int64_t max_rows) {
    corpus::ExpectSettingsAgree(db_, settings, name, sql, max_rows);
  }

  static void ExpectWorkloadAgrees(const std::vector<Setting>& settings,
                                   int64_t max_rows) {
    for (const tpch::TpchQuery& query : tpch::WorkloadQueries()) {
      ExpectSettingsAgree(settings, query.name, query.sql, max_rows);
    }
  }

  static void ExpectExtensionAgrees(const std::vector<Setting>& settings,
                                    int64_t max_rows) {
    for (const tpch::TpchQuery& query : tpch::ExtensionQueries()) {
      ExpectSettingsAgree(settings, query.name, query.sql, max_rows);
    }
  }

  // The workload queries and Q13.
  static void ExpectCorpusAgrees(const std::vector<Setting>& settings,
                                 int64_t max_rows) {
    ExpectWorkloadAgrees(settings, max_rows);
    ExpectExtensionAgrees(settings, max_rows);
  }

  static void ExpectMicroAgrees(const std::vector<Setting>& settings) {
    const std::string sql = tpch::MicroBenchmarkQuery(4500.0, "1996-01-01");
    ExpectSettingsAgree(settings, "micro", sql, /*max_rows=*/-1);
    ExpectSettingsAgree(settings, "micro", sql, /*max_rows=*/3);
  }

  static Database* db_;
};

Database* CorpusDifferentialTest::db_ = nullptr;

class BatchDifferentialTest : public CorpusDifferentialTest {};
class ThreadDifferentialTest : public CorpusDifferentialTest {};
class ColumnarDifferentialTest : public CorpusDifferentialTest {};
class JoinOrderCorpusTest : public CorpusDifferentialTest {};
class PlanValidatorTpchTest : public CorpusDifferentialTest {};

TEST_F(CorpusDifferentialTest, AuditedLimitQueries) {
  for (const std::string& sql : {
           std::string("SELECT c_name FROM customer LIMIT 7"),
           std::string("SELECT c_name FROM customer WHERE c_acctbal > 0 LIMIT 7"),
           std::string("SELECT c_custkey FROM customer LIMIT 1"),
           std::string("SELECT c_name FROM customer WHERE c_acctbal > 0 LIMIT 0"),
       }) {
    ExpectSettingsAgree(corpus::kSettings, sql, sql, /*max_rows=*/-1);
    ExpectSettingsAgree(corpus::kSettings, sql, sql, /*max_rows=*/3);
  }
}

TEST_F(BatchDifferentialTest, WorkloadQueriesFullResult) {
  ExpectWorkloadAgrees(kBatchSweep, /*max_rows=*/-1);
}

TEST_F(BatchDifferentialTest, WorkloadQueriesWithMaxRowsPrefixAbort) {
  ExpectWorkloadAgrees(kBatchSweep, /*max_rows=*/5);
}

TEST_F(BatchDifferentialTest, ExtensionQueriesFullResult) {
  ExpectExtensionAgrees(kBatchSweep, /*max_rows=*/-1);
}

TEST_F(BatchDifferentialTest, MicroQueryAcrossBatchSizes) {
  ExpectMicroAgrees(kBatchSweep);
}

TEST_F(ThreadDifferentialTest, WorkloadQueriesFullResult) {
  ExpectWorkloadAgrees(kThreadSweep, /*max_rows=*/-1);
}

// Audited LIMIT: a max_rows prefix-abort pins the audit spine to exact
// row-at-a-time flow, so the executor must refuse to gather and fall back to
// the serial path -- the differential still has to hold.
TEST_F(ThreadDifferentialTest, AuditedLimitFallsBackToSerial) {
  ExpectWorkloadAgrees(kThreadSweep, /*max_rows=*/5);
}

TEST_F(ThreadDifferentialTest, ExtensionQueriesFullResult) {
  ExpectExtensionAgrees(kThreadSweep, /*max_rows=*/-1);
}

TEST_F(ThreadDifferentialTest, MicroQueryAcrossThreadCounts) {
  ExpectMicroAgrees(kThreadSweep);
}

TEST_F(ColumnarDifferentialTest, WorkloadQueriesFullResult) {
  ExpectWorkloadAgrees(kLayoutSweep, /*max_rows=*/-1);
}

TEST_F(ColumnarDifferentialTest, WorkloadQueriesWithMaxRowsPrefixAbort) {
  ExpectWorkloadAgrees(kLayoutSweep, /*max_rows=*/5);
}

TEST_F(ColumnarDifferentialTest, ExtensionQueriesFullResult) {
  ExpectExtensionAgrees(kLayoutSweep, /*max_rows=*/-1);
}

TEST_F(ColumnarDifferentialTest, MicroQueryBothLayouts) {
  ExpectMicroAgrees(kLayoutSweep);
}

TEST_F(JoinOrderCorpusTest, RowsAndAccessedIndependentOfJoinOrder) {
  ExpectCorpusAgrees(kJoinOrderSweep, /*max_rows=*/-1);
}

TEST_F(JoinOrderCorpusTest, RowsAndAccessedIndependentOfJoinOrderUnderPrefixAbort) {
  ExpectCorpusAgrees(kJoinOrderSweep, /*max_rows=*/5);
}

TEST_F(PlanValidatorTpchTest, SerialExactMode) {
  ExpectCorpusAgrees(OneSetting(kHcn, 1, 1), /*max_rows=*/-1);
}

TEST_F(PlanValidatorTpchTest, SerialVectorized) {
  ExpectCorpusAgrees(OneSetting(kHcn, 1024, 1), /*max_rows=*/-1);
}

TEST_F(PlanValidatorTpchTest, ParallelExactMode) {
  ExpectCorpusAgrees(OneSetting(kHcn, 1, 4), /*max_rows=*/-1);
}

TEST_F(PlanValidatorTpchTest, ParallelVectorized) {
  ExpectCorpusAgrees(OneSetting(kHcn, 1024, 4), /*max_rows=*/-1);
}

TEST_F(PlanValidatorTpchTest, MaxRowsPrefixAbort) {
  ExpectCorpusAgrees(OneSetting(kHcn, 1024, 4), /*max_rows=*/5);
}

TEST_F(PlanValidatorTpchTest, LeafNodeHeuristic) {
  ExpectCorpusAgrees(OneSetting(kLeaf, 1024, 1), /*max_rows=*/-1);
}

TEST_F(PlanValidatorTpchTest, HighestNodeAblation) {
  ExpectCorpusAgrees(OneSetting(kHighest, 1024, 1), /*max_rows=*/-1);
}

}  // namespace
}  // namespace seltrig
