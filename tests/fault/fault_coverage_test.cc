// Fault-point coverage (ISSUE: every registered fault point must be armed
// and reachable). One sweep arms each point in FaultInjector::KnownPoints()
// against a canonical audited, journaled workload and checks that the point
// actually fired; the final Coverage() report then proves (a) every known
// point was armed and hit in this process and (b) no fault point exists in
// code without being registered (an unknown name would show up as a hit on an
// unregistered point).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/fault_injector.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "replication/applier.h"
#include "replication/election.h"
#include "replication/shipper.h"
#include "replication/transport.h"

namespace seltrig {
namespace {

class FaultCoverageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (std::filesystem::temp_directory_path() /
             ("seltrig_cov_" + std::to_string(::getpid()))).string();
    std::filesystem::remove_all(base_);
    FaultInjector::Instance().Reset();
  }
  void TearDown() override {
    FaultInjector::Instance().Reset();
    std::filesystem::remove_all(base_);
  }

  // A fresh durable database with the canonical audited schema.
  std::unique_ptr<Database> MakeAuditedDb(const std::string& name) {
    Result<std::unique_ptr<Database>> opened =
        Database::Recover(base_ + "/" + name);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    if (!opened.ok()) return nullptr;
    std::unique_ptr<Database> db = std::move(*opened);
    EXPECT_TRUE(db->ExecuteScript(R"sql(
      CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR,
                             diagnosis VARCHAR);
      CREATE TABLE log (ts VARCHAR, userid VARCHAR, sql VARCHAR, patientid INT);
      INSERT INTO patients VALUES (1, 'Alice', 'flu'), (2, 'Bob', 'cold');
      CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients
        WHERE name = 'Alice' FOR SENSITIVE TABLE patients PARTITION BY patientid;
      CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS INSERT INTO log
        SELECT now(), user_id(), sql_text(), patientid FROM accessed;
    )sql").ok());
    return db;
  }

  // Touches every subsystem with a fault point: DML (storage + view
  // maintenance + journal), an audited SELECT (trigger pipeline + audit
  // record + executor), a checkpoint (rotation + snapshot), and an online
  // schema change (the catalog.alter.* points). The ALTER chain adds and
  // drops the same column so the schema is unchanged whether or not the
  // armed fault aborts it, keeping the other statements valid. Statements
  // are independent and failures are expected while a fault is armed.
  static void DriveWorkload(Database* db) {
    (void)db->Execute("INSERT INTO patients VALUES (3, 'Carol', 'ok')");
    (void)db->Execute("UPDATE patients SET diagnosis = 'cough' WHERE patientid = 2");
    (void)db->Execute("DELETE FROM patients WHERE patientid = 2");
    (void)db->Execute("SELECT name FROM patients WHERE patientid = 1");
    (void)db->Checkpoint();
    (void)db->Execute(
        "ALTER TABLE log ADD COLUMN note VARCHAR DEFAULT '', "
        "RENAME COLUMN note TO remark, DROP COLUMN remark");
  }

  // The `replication.*` points live on the shipper/applier/transport path,
  // which the storage workload never enters. Ship `db`'s journal to an
  // in-process follower and keep committing until the armed point fires
  // (FailAlways on any of these points blocks convergence by design — the
  // loop only needs the point reached, not the follower caught up).
  void DriveReplicationWorkload(Database* db, const std::string& point) {
    Result<std::unique_ptr<ReplicaApplier>> applier =
        ReplicaApplier::Open(base_ + "/" + point + "_follower");
    ASSERT_TRUE(applier.ok()) << applier.status().message();
    ReplicaApplier* raw = applier->get();

    ShipperOptions options;
    options.heartbeat_interval_ms = 5;
    options.ack_timeout_ms = 100;
    options.initial_backoff_ms = 1;
    options.max_backoff_ms = 10;
    LogShipper shipper(db, options);
    shipper.AddFollower("f0", [raw]() -> Result<std::shared_ptr<FrameChannel>> {
      raw->Stop();
      ChannelPair pair = CreateInProcessChannelPair();
      raw->Start(pair.follower_end);
      return pair.primary_end;
    });

    FaultInjector& injector = FaultInjector::Instance();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    int64_t key = 100;
    while (injector.fires(point) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      (void)db->Execute("INSERT INTO patients VALUES (" +
                        std::to_string(key++) + ", 'Rep', 'lag')");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    shipper.Stop();
    raw->Stop();
  }

  // The `election.*` points live on the leader-election path (liveness
  // checks, campaign starts, vote traffic, bus sends), which neither the
  // storage nor the shipping workload enters. Cold-start a two-node
  // in-process cluster with aggressive timeouts and keep it campaigning
  // until the armed point fires. FailAlways may well prevent any leader from
  // ever emerging (dropped votes, perpetual timeouts) — the sweep only needs
  // the point reached, not a stable leader.
  void DriveElectionWorkload(const std::string& point) {
    ElectionMesh mesh;
    const std::vector<std::string> ids = {"e0", "e1"};
    std::vector<std::unique_ptr<ElectionNode>> nodes;
    for (size_t i = 0; i < ids.size(); ++i) {
      ElectionOptions options;
      options.id = ids[i];
      options.dir = base_ + "/" + point + "_" + ids[i];
      options.peers = {ids[1 - i]};
      options.heartbeat_interval_ms = 5;
      options.election_timeout_min_ms = 20;
      options.election_timeout_max_ms = 40;
      options.poll_interval_ms = 1;
      options.seed = 7 + i;
      Result<std::unique_ptr<ElectionNode>> node = ElectionNode::Start(
          std::move(options), mesh.Endpoint(ids[i]),
          [](const std::string&) -> Result<std::shared_ptr<FrameChannel>> {
            // Coverage only drives the election state machine; a winner's
            // shipper just retries against this and that is fine.
            return Status(ErrorCode::kUnavailable, "no replication here");
          });
      ASSERT_TRUE(node.ok()) << node.status().message();
      nodes.push_back(std::move(*node));
    }
    FaultInjector& injector = FaultInjector::Instance();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (injector.fires(point) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (auto& node : nodes) node->Stop();
  }

  std::string base_;
};

TEST_F(FaultCoverageTest, EveryKnownFaultPointIsArmedAndReachable) {
  FaultInjector& injector = FaultInjector::Instance();
  for (const std::string& point : FaultInjector::KnownPoints()) {
    SCOPED_TRACE(point);
    std::unique_ptr<Database> db = MakeAuditedDb(point);
    ASSERT_NE(db, nullptr);

    if (point == fault_points::kWalTorn) {
      // Firing the torn-write mode kills the process by design; exercise it
      // in a fork and verify the injected-crash exit code. The parent arms
      // the point with an unreachable hit count so the sweep still records
      // an arming and a hit for the coverage report.
      pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        injector.Arm(point, FaultInjector::FailOnce());
        (void)db->Execute("INSERT INTO patients VALUES (5, 'Eve', 'x')");
        std::_Exit(0);  // unreachable: the armed append must have crashed
      }
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), FaultInjector::kCrashExitCode);
      injector.Arm(point, FaultInjector::FailNth(1u << 30));
      DriveWorkload(db.get());
      EXPECT_GT(injector.hits(point), 0u);
    } else if (point.rfind("replication.", 0) == 0) {
      injector.Arm(point, FaultInjector::FailAlways());
      DriveReplicationWorkload(db.get(), point);
      EXPECT_GT(injector.fires(point), 0u)
          << "the replication workload never reaches fault point " << point;
    } else if (point.rfind("election.", 0) == 0) {
      injector.Arm(point, FaultInjector::FailAlways());
      DriveElectionWorkload(point);
      EXPECT_GT(injector.fires(point), 0u)
          << "the election workload never reaches fault point " << point;
    } else {
      injector.Arm(point, FaultInjector::FailAlways());
      DriveWorkload(db.get());
      EXPECT_GT(injector.fires(point), 0u)
          << "the canonical workload never reaches fault point " << point;
    }
    db.reset();
    injector.Reset();  // drops schedules; lifetime coverage counters survive
  }

  // The report must show every known point armed and hit, and no hits on
  // unregistered names (a point in code but missing from KnownPoints()).
  size_t known_seen = 0;
  for (const FaultInjector::PointCoverage& entry : injector.Coverage()) {
    if (entry.known) {
      ++known_seen;
      EXPECT_GT(entry.armed, 0u) << entry.point << " was never armed";
      EXPECT_GT(entry.hits, 0u) << entry.point << " was never reached";
    } else {
      EXPECT_EQ(entry.hits, 0u)
          << "fault point '" << entry.point
          << "' exists in code but is not in FaultInjector::KnownPoints()";
    }
  }
  EXPECT_EQ(known_seen, FaultInjector::KnownPoints().size());
}

}  // namespace
}  // namespace seltrig
