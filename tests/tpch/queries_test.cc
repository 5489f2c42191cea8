// The seven-workload TPC-H queries parse, bind, optimize, execute, and can be
// instrumented without changing their results.

#include "tpch/queries.h"

#include <gtest/gtest.h>

#include "corpus_differential.h"
#include "engine/database.h"
#include "tpch/dbgen.h"

namespace seltrig {
namespace {

class TpchQueriesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    ASSERT_TRUE(tpch::LoadTpch(db_, config).ok());
    ASSERT_TRUE(db_->Execute(tpch::SegmentAuditExpressionSql(
                                 "audit_segment", "BUILDING")).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
};

Database* TpchQueriesTest::db_ = nullptr;

TEST_F(TpchQueriesTest, WorkloadHasSevenQueries) {
  EXPECT_EQ(tpch::WorkloadQueries().size(), 7u);
}

TEST_F(TpchQueriesTest, AllQueriesExecute) {
  for (const tpch::TpchQuery& q : tpch::WorkloadQueries()) {
    auto r = db_->Execute(q.sql);
    EXPECT_TRUE(r.ok()) << q.name << " -> " << r.status().ToString();
  }
}

TEST_F(TpchQueriesTest, Q3ShapeAndOrder) {
  auto r = db_->Execute(tpch::WorkloadQueries()[0].sql);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->rows.size(), 10u);
  EXPECT_EQ(r->schema.size(), 4u);
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_GE(r->rows[i - 1][1].AsDouble(), r->rows[i][1].AsDouble());
  }
}

TEST_F(TpchQueriesTest, Q5GroupsByNation) {
  auto r = db_->Execute(tpch::WorkloadQueries()[1].sql);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->rows.size(), 25u);
}

TEST_F(TpchQueriesTest, Q8SharesAreFractions) {
  auto r = db_->Execute(tpch::WorkloadQueries()[3].sql);
  ASSERT_TRUE(r.ok());
  for (const Row& row : r->rows) {
    if (row[1].is_null()) continue;
    EXPECT_GE(row[1].AsDouble(), 0.0);
    EXPECT_LE(row[1].AsDouble(), 1.0);
  }
}

TEST_F(TpchQueriesTest, Q10LimitsToTwenty) {
  auto r = db_->Execute(tpch::WorkloadQueries()[4].sql);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->rows.size(), 20u);
}

TEST_F(TpchQueriesTest, Q22CountryCodesSorted) {
  auto r = db_->Execute(tpch::WorkloadQueries()[6].sql);
  ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_LT(r->rows[i - 1][0].AsString(), r->rows[i][0].AsString());
  }
}

// The settings table's uninstrumented row must return the instrumented
// reference's rows exactly, for the workload queries and Q13.
TEST_F(TpchQueriesTest, InstrumentationPreservesResults) {
  const std::vector<corpus::Setting> settings = corpus::SettingsWhere(
      [](const corpus::Setting& s) { return !s.instrumented; });
  ASSERT_EQ(settings.size(), 2u);
  for (const tpch::TpchQuery& q : tpch::WorkloadQueries()) {
    corpus::ExpectSettingsAgree(db_, settings, q.name, q.sql, /*max_rows=*/-1);
  }
  for (const tpch::TpchQuery& q : tpch::ExtensionQueries()) {
    corpus::ExpectSettingsAgree(db_, settings, q.name, q.sql, /*max_rows=*/-1);
  }
}

TEST_F(TpchQueriesTest, Q13ExtensionExecutes) {
  auto ext = tpch::ExtensionQueries();
  ASSERT_EQ(ext.size(), 1u);
  auto r = db_->Execute(ext[0].sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Distribution buckets: counts of customers per order count. Total
  // customers across buckets equals the customer count.
  int64_t total = 0;
  for (const Row& row : r->rows) total += row[1].AsInt();
  EXPECT_EQ(total, tpch::CardinalitiesFor(0.01).customers);
  // The zero-orders bucket exists (a third of customers).
  bool has_zero_bucket = false;
  for (const Row& row : r->rows) {
    if (row[0].AsInt() == 0) has_zero_bucket = true;
  }
  EXPECT_TRUE(has_zero_bucket);
}

// Every customer flows through the audit operator below Q13's group-by.
TEST_F(TpchQueriesTest, Q13AccessesEveryBuildingCustomer) {
  ExecOptions instrumented;
  instrumented.instrument_all_audit_expressions = true;
  auto audited = db_->ExecuteWithOptions(tpch::ExtensionQueries()[0].sql, instrumented);
  ASSERT_TRUE(audited.ok()) << audited.status().ToString();
  EXPECT_EQ(audited->accessed["audit_segment"].size(),
            db_->audit_manager()->Find("audit_segment")->view().size());
}

TEST_F(TpchQueriesTest, MicroBenchmarkQueryRuns) {
  auto r = db_->Execute(tpch::MicroBenchmarkQuery(0.0, "1996-01-01"));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->rows.size(), 0u);
}

TEST_F(TpchQueriesTest, CustkeyRangeAuditExpression) {
  ASSERT_TRUE(db_->Execute(
      tpch::CustkeyRangeAuditExpressionSql("audit_range", 10)).ok());
  const AuditExpressionDef* def = db_->audit_manager()->Find("audit_range");
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->view().size(), 10u);
  ASSERT_TRUE(db_->Execute("DROP AUDIT EXPRESSION audit_range").ok());
}

}  // namespace
}  // namespace seltrig
