// AuditLogger: install/uninstall, disclosure reports, ranking.

#include "engine/audit_log.h"

#include <gtest/gtest.h>

#include "types/date.h"

namespace seltrig {
namespace {

class AuditLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, age INT);
      INSERT INTO patients VALUES (1, 'Alice', 34), (2, 'Bob', 27),
                                  (3, 'Carol', 45);
    )sql").ok());
    ASSERT_TRUE(db_.Execute(
        "CREATE AUDIT EXPRESSION audit_patients AS SELECT * FROM patients "
        "FOR SENSITIVE TABLE patients PARTITION BY patientid").ok());
    auto d = ParseDate("2026-07-07");
    ASSERT_TRUE(d.ok());
    db_.session()->current_date = *d;
    day_ = *d;
  }

  void RunAs(const std::string& user, const std::string& sql) {
    db_.session()->user = user;
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  Database db_;
  int32_t day_ = 0;
};

TEST_F(AuditLogTest, InstallCreatesTableAndTrigger) {
  AuditLogger logger(&db_);
  ASSERT_TRUE(logger.Install("audit_patients").ok());
  EXPECT_TRUE(db_.catalog()->HasTable(logger.table_name()));
  EXPECT_NE(db_.trigger_manager()->Find("log_audit_patients"), nullptr);
}

TEST_F(AuditLogTest, InstallUnknownExpressionFails) {
  AuditLogger logger(&db_);
  EXPECT_FALSE(logger.Install("nope").ok());
}

TEST_F(AuditLogTest, DisclosureReport) {
  AuditLogger logger(&db_);
  ASSERT_TRUE(logger.Install("audit_patients").ok());

  RunAs("dr_house", "SELECT * FROM patients WHERE patientid = 1");
  RunAs("insurer", "SELECT COUNT(*) FROM patients WHERE age > 30");
  RunAs("dr_wilson", "SELECT name FROM patients WHERE patientid = 2");

  auto report = logger.DisclosureReport(Value::Int(1));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->size(), 2u);  // dr_house lookup + insurer aggregate
  EXPECT_EQ((*report)[0].user, "dr_house");
  EXPECT_EQ((*report)[1].user, "insurer");
  EXPECT_EQ((*report)[1].day, day_);

  auto bob = logger.DisclosureReport(Value::Int(2));
  ASSERT_TRUE(bob.ok());
  ASSERT_EQ(bob->size(), 1u);
  EXPECT_EQ((*bob)[0].user, "dr_wilson");
}

TEST_F(AuditLogTest, DistinctAccessesBy) {
  AuditLogger logger(&db_);
  ASSERT_TRUE(logger.Install("audit_patients").ok());
  RunAs("nurse", "SELECT * FROM patients");
  RunAs("nurse", "SELECT * FROM patients WHERE patientid = 1");  // no new ids
  auto n = logger.DistinctAccessesBy("nurse", day_);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3);
  auto other_day = logger.DistinctAccessesBy("nurse", day_ + 1);
  ASSERT_TRUE(other_day.ok());
  EXPECT_EQ(*other_day, 0);
}

TEST_F(AuditLogTest, AccessRanking) {
  AuditLogger logger(&db_);
  ASSERT_TRUE(logger.Install("audit_patients").ok());
  RunAs("bulk_reader", "SELECT * FROM patients");
  RunAs("careful_reader", "SELECT * FROM patients WHERE patientid = 3");
  auto ranking = logger.AccessRanking();
  ASSERT_TRUE(ranking.ok());
  ASSERT_EQ(ranking->rows.size(), 2u);
  EXPECT_EQ(ranking->rows[0][0].AsString(), "bulk_reader");
  EXPECT_EQ(ranking->rows[0][1].AsInt(), 3);
  EXPECT_EQ(ranking->rows[1][1].AsInt(), 1);
}

TEST_F(AuditLogTest, ReportingDoesNotReTrigger) {
  AuditLogger logger(&db_);
  ASSERT_TRUE(logger.Install("audit_patients").ok());
  RunAs("reader", "SELECT * FROM patients WHERE patientid = 1");
  auto before = logger.DisclosureReport(Value::Int(1));
  ASSERT_TRUE(before.ok());
  // Running reports must not add log rows.
  ASSERT_TRUE(logger.AccessRanking().ok());
  ASSERT_TRUE(logger.DistinctAccessesBy("reader", day_).ok());
  auto after = logger.DisclosureReport(Value::Int(1));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->size(), after->size());
}

TEST_F(AuditLogTest, InstallTwiceFailsWithAlreadyExists) {
  AuditLogger logger(&db_);
  ASSERT_TRUE(logger.Install("audit_patients").ok());
  Status again = logger.Install("audit_patients");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), ErrorCode::kAlreadyExists);
  // The first installation keeps working.
  RunAs("reader", "SELECT * FROM patients WHERE patientid = 1");
  auto report = logger.DisclosureReport(Value::Int(1));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->size(), 1u);
}

TEST_F(AuditLogTest, UninstallWithoutInstallFails) {
  AuditLogger logger(&db_);
  EXPECT_FALSE(logger.Uninstall("audit_patients").ok());
  EXPECT_FALSE(logger.Uninstall("nope").ok());
}

TEST_F(AuditLogTest, UninstallStopsLogging) {
  AuditLogger logger(&db_);
  ASSERT_TRUE(logger.Install("audit_patients").ok());
  ASSERT_TRUE(logger.Uninstall("audit_patients").ok());
  RunAs("reader", "SELECT * FROM patients WHERE patientid = 1");
  auto report = logger.DisclosureReport(Value::Int(1));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->empty());
}

}  // namespace
}  // namespace seltrig
