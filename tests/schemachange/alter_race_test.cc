// Two sessions racing an online ALTER TABLE (docs/SCHEMA_CHANGE.md,
// docs/CONCURRENCY.md): one session ALTERs the audited table while the other
// is mid-scan of it. Two guarantees make the race safe, and each gets a
// test:
//
//  1. The writer lock serializes the ALTER behind the in-flight read phase:
//     the scanning session observes the pre-ALTER schema wall to wall, and
//     a fresh bind of the same statement afterwards sees the bumped version.
//  2. The stale-plan backstop: a plan bound before the racing ALTER carries
//     the old schema version in its scans, and the plan validator
//     (exec/plan_validator.h invariant 5) rejects it against the live
//     catalog instead of letting stale column indexes read garbage.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/fault_injector.h"
#include "engine/database.h"
#include "engine/session.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/plan_validator.h"
#include "plan/logical_plan.h"
#include "storage/table.h"
#include "types/value.h"

namespace seltrig {
namespace {

constexpr int kRows = 64;

class AlterRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR,
                             diagnosis VARCHAR);
      CREATE TABLE log (ts VARCHAR, userid VARCHAR, sql VARCHAR, patientid INT);
      CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients
        WHERE name = 'Alice' FOR SENSITIVE TABLE patients PARTITION BY patientid;
      CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS INSERT INTO log
        SELECT now(), user_id(), sql_text(), patientid FROM accessed;
    )sql").ok());
    for (int i = 1; i <= kRows; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO patients VALUES (" +
                              std::to_string(i) + ", 'Alice', 'flu')")
                      .ok());
    }
  }

  void TearDown() override { FaultInjector::Instance().Reset(); }

  Database db_;
};

TEST_F(AlterRaceTest, AlterSerializesBehindInFlightScanThenFreshBindSeesNewVersion) {
  std::unique_ptr<Session> reader = db_.CreateSession();
  std::unique_ptr<Session> alterer = db_.CreateSession();

  // Stall every executor batch a little so the reader's scan is reliably
  // in flight when the ALTER is issued against it.
  FaultInjector& injector = FaultInjector::Instance();
  injector.Arm(fault_points::kExecutorBatch, FaultInjector::DelayAlways(3));

  ExecOptions slow;
  slow.batch_size = 1;   // one batch per row: >= kRows delayed batches
  slow.num_threads = 1;  // keep the hit count single-spined
  Result<StatementResult> scanned = Status(ErrorCode::kInternal, "not run");
  std::thread scan_thread([&] {
    scanned = reader->ExecuteWithOptions(
        "SELECT patientid, name, diagnosis FROM patients", slow);
  });

  // Wait until the scan is demonstrably mid-flight (batches consumed but
  // nowhere near done), then race the ALTER into it from the other session.
  while (injector.hits(fault_points::kExecutorBatch) < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<QueryResult> altered =
      alterer->Execute("ALTER TABLE patients ADD COLUMN severity INT DEFAULT 0");
  const uint64_t hits_when_alter_returned = injector.hits(fault_points::kExecutorBatch);
  scan_thread.join();
  injector.Disarm(fault_points::kExecutorBatch);

  // The ALTER committed, but only after the reader's whole scan: by the time
  // the writer lock let it through, every one of the reader's row-batches
  // had already been pulled.
  ASSERT_TRUE(altered.ok()) << altered.status().message();
  ASSERT_TRUE(scanned.ok()) << scanned.status().message();
  EXPECT_GE(hits_when_alter_returned, static_cast<uint64_t>(kRows));

  // The racing reader saw the pre-ALTER shape wall to wall...
  ASSERT_EQ(scanned->result.rows.size(), static_cast<size_t>(kRows));
  for (const Row& row : scanned->result.rows) {
    EXPECT_EQ(row.size(), 3u);
  }
  // ...and a fresh bind of the same table now sees the bumped version with
  // the new column — re-binding, not plan reuse, is what crosses an ALTER.
  auto table = db_.catalog()->GetTable("patients");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->schema_version(), 2u);
  Result<QueryResult> fresh =
      reader->Execute("SELECT severity FROM patients WHERE patientid = 1");
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();
  ASSERT_EQ(fresh->rows.size(), 1u);
  EXPECT_EQ(fresh->rows[0][0].AsInt(), 0);
}

TEST_F(AlterRaceTest, PlanBoundBeforeRacingAlterIsRejectedAsStale) {
  std::unique_ptr<Session> reader = db_.CreateSession();
  std::unique_ptr<Session> alterer = db_.CreateSession();

  // The reader's bind-time world: a physical plan whose scan records the
  // schema version the table had when the statement was prepared.
  auto table = db_.catalog()->GetTable("patients");
  ASSERT_TRUE(table.ok());
  auto scan = std::make_shared<LogicalScan>();
  scan->table_name = "patients";
  scan->schema = (*table)->schema();
  scan->schema_version = (*table)->schema_version();

  ExecContext ctx(db_.catalog(), reader->context());
  Executor executor(&ctx);
  auto root = executor.Build(*scan, {});
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  PlanExecutionInfo info;
  info.catalog = db_.catalog();
  EXPECT_TRUE(ValidatePhysicalPlan(**root, nullptr, info).ok());

  // The other session commits the ALTER this plan predates.
  ASSERT_TRUE(alterer
                  ->Execute("ALTER TABLE patients ADD COLUMN severity INT "
                            "DEFAULT 0, RENAME COLUMN diagnosis TO dx")
                  .ok());

  // The stale plan must be rejected, by name, instead of executing with
  // column indexes that no longer match storage.
  Status stale = ValidatePhysicalPlan(**root, nullptr, info);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), ErrorCode::kInternal) << stale.ToString();
  EXPECT_NE(stale.message().find("schema-version"), std::string::npos)
      << stale.ToString();
  EXPECT_NE(stale.message().find("stale"), std::string::npos)
      << stale.ToString();
}

}  // namespace
}  // namespace seltrig
