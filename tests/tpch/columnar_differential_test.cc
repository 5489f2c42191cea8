// Differential test of the columnar pipeline against the row-pipeline escape
// hatch (ExecOptions::columnar = false) over the TPC-H workload: result rows,
// ACCESSED state, and every ExecStats counter must be identical between the
// two layouts at batch sizes 1 and 1024, serially and with 4 morsel workers,
// including under a max_rows prefix-abort and the audited-LIMIT fallback
// (the lazy spine that pins audit operators to batch capacity 1).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace seltrig {
namespace {

class ColumnarDifferentialTest : public ::testing::Test {
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

  static Result<StatementResult> Run(const std::string& sql, bool columnar,
                                     size_t batch_size, int threads,
                                     int64_t max_rows) {
    ExecOptions options;
    options.columnar = columnar;
    options.batch_size = batch_size;
    options.num_threads = threads;
    options.max_rows = max_rows;
    options.instrument_all_audit_expressions = true;
    options.enable_select_triggers = false;
    return db_->ExecuteWithOptions(sql, options);
  }

  // Runs `sql` through both layouts at every (batch, threads) combination and
  // asserts the observable state is identical.
  static void ExpectLayoutEquivalent(const std::string& name,
                                     const std::string& sql, int64_t max_rows) {
    for (int threads : {1, 4}) {
      for (size_t batch : {1u, 1024u}) {
        auto row = Run(sql, /*columnar=*/false, batch, threads, max_rows);
        ASSERT_TRUE(row.ok()) << name << ": " << row.status().ToString();
        auto col = Run(sql, /*columnar=*/true, batch, threads, max_rows);
        ASSERT_TRUE(col.ok()) << name << ": " << col.status().ToString();
        EXPECT_EQ(col->result.rows, row->result.rows)
            << name << " rows diverge (batch " << batch << ", threads "
            << threads << ", max_rows " << max_rows << ")";
        EXPECT_EQ(col->accessed, row->accessed)
            << name << " ACCESSED diverges (batch " << batch << ", threads "
            << threads << ", max_rows " << max_rows << ")";
        const std::string where = " (batch " + std::to_string(batch) +
                                  ", threads " + std::to_string(threads) +
                                  ", max_rows " + std::to_string(max_rows) + ")";
        EXPECT_EQ(col->stats.rows_scanned, row->stats.rows_scanned)
            << name << " rows_scanned diverges" << where;
        EXPECT_EQ(col->stats.rows_through_audit_ops, row->stats.rows_through_audit_ops)
            << name << " rows_through_audit_ops diverges" << where;
        EXPECT_EQ(col->stats.audit_probe_hits, row->stats.audit_probe_hits)
            << name << " audit_probe_hits diverges" << where;
        EXPECT_EQ(col->stats.subquery_executions, row->stats.subquery_executions)
            << name << " subquery_executions diverges" << where;
        EXPECT_EQ(col->stats.audit_batches_prescreened,
                  row->stats.audit_batches_prescreened)
            << name << " audit_batches_prescreened diverges" << where;
      }
    }
  }

  static Database* db_;
};

Database* ColumnarDifferentialTest::db_ = nullptr;

TEST_F(ColumnarDifferentialTest, WorkloadQueriesFullResult) {
  for (const tpch::TpchQuery& query : tpch::WorkloadQueries()) {
    ExpectLayoutEquivalent(query.name, query.sql, /*max_rows=*/-1);
  }
}

TEST_F(ColumnarDifferentialTest, WorkloadQueriesWithMaxRowsPrefixAbort) {
  for (const tpch::TpchQuery& query : tpch::WorkloadQueries()) {
    ExpectLayoutEquivalent(query.name, query.sql, /*max_rows=*/5);
  }
}

TEST_F(ColumnarDifferentialTest, ExtensionQueriesFullResult) {
  for (const tpch::TpchQuery& query : tpch::ExtensionQueries()) {
    ExpectLayoutEquivalent(query.name, query.sql, /*max_rows=*/-1);
  }
}

TEST_F(ColumnarDifferentialTest, MicroQueryBothLayouts) {
  const std::string sql = tpch::MicroBenchmarkQuery(4500.0, "1996-01-01");
  ExpectLayoutEquivalent("micro", sql, /*max_rows=*/-1);
  ExpectLayoutEquivalent("micro", sql, /*max_rows=*/3);
}

TEST_F(ColumnarDifferentialTest, AuditedLimitFallback) {
  // LIMIT directly over the audited scan spine: the executor pins the audit
  // operator's batch capacity to 1 so ACCESSED reflects exactly the rows a
  // row-at-a-time engine would have produced before stopping. Both layouts
  // must agree on that prefix.
  for (const std::string& sql : {
           std::string("SELECT c_name FROM customer LIMIT 7"),
           std::string("SELECT c_name FROM customer WHERE c_acctbal > 0 LIMIT 7"),
           std::string("SELECT c_custkey FROM customer LIMIT 1"),
           std::string("SELECT c_name FROM customer WHERE c_acctbal > 0 LIMIT 0"),
       }) {
    ExpectLayoutEquivalent(sql, sql, /*max_rows=*/-1);
    ExpectLayoutEquivalent(sql, sql, /*max_rows=*/3);
  }
}

}  // namespace
}  // namespace seltrig
