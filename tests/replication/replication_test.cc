// End-to-end replication tests over the in-process transport: a live primary
// Database with a LogShipper feeding one ReplicaApplier per test
// (docs/REPLICATION.md). Covers async convergence, the sync acked-prefix
// guarantee, self-healing under lossy/reordering channels, snapshot
// catch-up after checkpoint truncation, deposed-primary epoch rejection,
// and degradation + automatic rejoin.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/fault_injector.h"
#include "engine/database.h"
#include "engine/session.h"
#include "replication/applier.h"
#include "replication/shipper.h"
#include "replication/transport.h"
#include "storage/table.h"
#include "types/value.h"

namespace seltrig {
namespace {

const std::vector<std::string>& AuditedWorkload() {
  static const std::vector<std::string> statements = {
      "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, "
      "diagnosis VARCHAR)",
      "CREATE TABLE log (ts VARCHAR, userid VARCHAR, sql VARCHAR, "
      "patientid INT)",
      "INSERT INTO patients VALUES (1, 'Alice', 'flu')",
      "INSERT INTO patients VALUES (2, 'Bob', 'cold')",
      "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients WHERE "
      "name = 'Alice' FOR SENSITIVE TABLE patients PARTITION BY patientid",
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS INSERT INTO log "
      "SELECT now(), user_id(), sql_text(), patientid FROM accessed",
      "SELECT name FROM patients WHERE patientid = 1",
      "UPDATE patients SET diagnosis = 'measles' WHERE patientid = 2",
      "INSERT INTO patients VALUES (3, 'Carol', 'checkup')",
      "SELECT diagnosis FROM patients WHERE name = 'Alice'",
      "DELETE FROM patients WHERE patientid = 3",
  };
  return statements;
}

// The audited workload extended with online schema changes interleaved with
// rows that depend on them: the INSERT after the ADD carries four values,
// the UPDATE addresses the renamed column. Apply order is load-bearing — a
// dependent row arriving before its DDL record cannot bind.
std::vector<std::string> DdlWorkload() {
  std::vector<std::string> statements = AuditedWorkload();
  statements.push_back(
      "ALTER TABLE patients ADD COLUMN severity INT DEFAULT 0");
  statements.push_back("INSERT INTO patients VALUES (4, 'Dave', 'flu', 2)");
  statements.push_back(
      "ALTER TABLE patients RENAME COLUMN severity TO sev, "
      "RETYPE COLUMN sev DOUBLE");
  statements.push_back("UPDATE patients SET sev = 5 WHERE patientid = 4");
  statements.push_back("ALTER TABLE patients DROP COLUMN sev");
  statements.push_back("INSERT INTO patients VALUES (5, 'Erin', 'ok')");
  return statements;
}

uint64_t SchemaVersion(Database* db, const std::string& table) {
  auto t = db->catalog()->GetTable(table);
  EXPECT_TRUE(t.ok());
  return t.ok() ? (*t)->schema_version() : 0;
}

// Deterministic projection of logical state (audit timestamps excluded, rows
// sorted); two databases holding the same statement prefix project equal.
// SELECT triggers stay off so the measurement does not perturb the state.
std::vector<std::string> Projection(Database* db) {
  ExecOptions options;
  options.enable_select_triggers = false;
  std::vector<std::string> out;
  for (const char* query :
       {"SELECT patientid, name, diagnosis FROM patients",
        "SELECT userid, sql, patientid FROM log"}) {
    auto r = db->ExecuteWithOptions(query, options);
    if (!r.ok()) {
      out.push_back(std::string("<error: ") + r.status().message() + ">");
      continue;
    }
    std::vector<std::string> rows;
    rows.reserve(r->result.rows.size());
    for (const Row& row : r->result.rows) rows.push_back(RowToString(row));
    std::sort(rows.begin(), rows.end());
    out.push_back(query);
    out.insert(out.end(), rows.begin(), rows.end());
  }
  return out;
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("seltrig_repl_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    primary_dir_ = base + "_p";
    follower_dir_ = base + "_f";
    std::filesystem::remove_all(primary_dir_);
    std::filesystem::remove_all(follower_dir_);
  }

  void TearDown() override {
    FaultInjector::Instance().Reset();
    std::filesystem::remove_all(primary_dir_);
    std::filesystem::remove_all(follower_dir_);
  }

  static std::unique_ptr<Database> OpenPrimary(const std::string& dir) {
    auto db = Database::Recover(dir);
    EXPECT_TRUE(db.ok()) << db.status().message();
    return db.ok() ? std::move(*db) : nullptr;
  }

  // Fast-converging options for in-process channels.
  static ShipperOptions TestOptions(ReplicationAckMode mode) {
    ShipperOptions options;
    options.ack_mode = mode;
    options.heartbeat_interval_ms = 10;
    options.ack_timeout_ms = 2000;
    options.initial_backoff_ms = 1;
    options.max_backoff_ms = 20;
    return options;
  }

  // ChannelFactory wiring the shipper to `applier` through a fresh
  // in-process pair on every (re)connect. `down` simulates an unreachable
  // follower while true. connect_mutex_ serializes the factory's
  // Stop()/Start() pair against the test body stopping the applier directly
  // while the shipper is still reconnecting.
  LogShipper::ChannelFactory Connect(ReplicaApplier* applier,
                                     std::atomic<bool>* down = nullptr) {
    std::shared_ptr<std::mutex> mutex = connect_mutex_;
    return [applier, down, mutex]() -> Result<std::shared_ptr<FrameChannel>> {
      std::lock_guard<std::mutex> lock(*mutex);
      if (down != nullptr && down->load()) {
        return Status(ErrorCode::kUnavailable, "follower down");
      }
      applier->Stop();
      ChannelPair pair = CreateInProcessChannelPair();
      applier->Start(pair.follower_end);
      return pair.primary_end;
    };
  }

  void StopApplier(ReplicaApplier* applier) {
    std::lock_guard<std::mutex> lock(*connect_mutex_);
    applier->Stop();
  }

  static bool WaitCaughtUp(LogShipper& shipper, int64_t timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (shipper.AllCaughtUp()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  std::string primary_dir_;
  std::string follower_dir_;
  std::shared_ptr<std::mutex> connect_mutex_ = std::make_shared<std::mutex>();
};

TEST_F(ReplicationTest, AsyncReplicationConvergesIncludingAuditRows) {
  std::unique_ptr<Database> db = OpenPrimary(primary_dir_);
  ASSERT_NE(db, nullptr);
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();

  LogShipper shipper(db.get(), TestOptions(ReplicationAckMode::kAsync));
  shipper.AddFollower("f0", Connect(applier->get()));

  for (const std::string& sql : AuditedWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  ASSERT_TRUE(WaitCaughtUp(shipper));
  shipper.Stop();

  EXPECT_EQ(Projection((*applier)->database().get()), Projection(db.get()));
  ReplicaApplier::Stats stats = (*applier)->stats();
  EXPECT_GT(stats.records_applied, 0u);
  EXPECT_GT(stats.acks_sent, 0u);
  EXPECT_TRUE((*applier)->health().ok()) << (*applier)->health().message();
  (*applier)->Stop();
}

TEST_F(ReplicationTest, SyncAckCoversFollowerBeforeStatementReturns) {
  std::unique_ptr<Database> db = OpenPrimary(primary_dir_);
  ASSERT_NE(db, nullptr);
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();

  LogShipper shipper(db.get(), TestOptions(ReplicationAckMode::kSync));
  shipper.AddFollower("f0", Connect(applier->get()));

  for (const std::string& sql : AuditedWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
    // Sync mode: by the time Execute returned, the (sole, healthy) follower
    // acked the statement's journal position — which it only does after
    // fsync + apply. No polling: equality must hold immediately.
    ASSERT_FALSE(shipper.Followers()[0].degraded);
    ASSERT_EQ(Projection((*applier)->database().get()), Projection(db.get()))
        << "follower lagged a sync-acknowledged statement: " << sql;
  }
  shipper.Stop();
  (*applier)->Stop();
}

TEST_F(ReplicationTest, SyncCommitsShipWithoutWaitingForTheIdleTimeout) {
  std::unique_ptr<Database> db = OpenPrimary(primary_dir_);
  ASSERT_NE(db, nullptr);
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();

  // No heartbeat and no ack-staleness check falls due during the test, so
  // the shipping loop's idle wait ends only when a commit wakes it: a lost
  // wake stalls that commit for the whole ack timeout.
  ShipperOptions options = TestOptions(ReplicationAckMode::kSync);
  options.heartbeat_interval_ms = 60'000;
  options.ack_timeout_ms = 30'000;
  LogShipper shipper(db.get(), options);
  shipper.AddFollower("f0", Connect(applier->get()));

  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)").ok());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    const std::string sql =
        "INSERT INTO t VALUES (" + std::to_string(i) + ", 'row')";
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
    ASSERT_FALSE(shipper.Followers()[0].degraded) << sql;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_GE(shipper.Followers()[0].records_acked, 50u);

  // Stop wakes the idle shipping loop instead of waiting out its timeout.
  const auto stop_start = std::chrono::steady_clock::now();
  shipper.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            std::chrono::seconds(1));
  (*applier)->Stop();
}

TEST_F(ReplicationTest, LossyDuplicatingReorderingChannelSelfHeals) {
  std::unique_ptr<Database> db = OpenPrimary(primary_dir_);
  ASSERT_NE(db, nullptr);
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();

  // Persistent misbehavior on every channel in both directions: records,
  // acks, and heartbeats all take the damage.
  FaultInjector::Instance().Arm(fault_points::kReplicationDrop, FaultInjector::FailEveryK(3));
  FaultInjector::Instance().Arm(fault_points::kReplicationDuplicate,
                                FaultInjector::FailEveryK(5));
  FaultInjector::Instance().Arm(fault_points::kReplicationReorder,
                                FaultInjector::FailEveryK(7));

  LogShipper shipper(db.get(), TestOptions(ReplicationAckMode::kAsync));
  shipper.AddFollower("f0", Connect(applier->get()));

  for (const std::string& sql : AuditedWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  // Give the damaged channel a moment to exercise the duplicate/gap paths,
  // then heal it and require convergence.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  FaultInjector::Instance().Reset();
  const bool caught_up = WaitCaughtUp(shipper);
  if (!caught_up) {
    const FollowerStatus s = shipper.Followers()[0];
    const WalPosition tip = db->wal()->current_position();
    const ReplicaApplier::Stats stats = (*applier)->stats();
    ADD_FAILURE() << "not caught up: tip=(" << tip.seq << "," << tip.offset
                  << ") connected=" << s.connected
                  << " degraded=" << s.degraded << " acked=(" << s.acked.seq
                  << "," << s.acked.offset << ") sent=" << s.records_sent
                  << " acked_n=" << s.records_acked
                  << " naks=" << s.naks_received
                  << " reconnects=" << s.reconnects << " err=" << s.last_error
                  << " applied=" << stats.records_applied
                  << " dup=" << stats.duplicates_dropped
                  << " gaps=" << stats.gaps_nakked
                  << " acks_sent=" << stats.acks_sent
                  << " health=" << (*applier)->health().ToString();
  }
  ASSERT_TRUE(caught_up);
  shipper.Stop();

  EXPECT_EQ(Projection((*applier)->database().get()), Projection(db.get()));
  EXPECT_TRUE((*applier)->health().ok()) << (*applier)->health().message();
  (*applier)->Stop();
}

TEST_F(ReplicationTest, DdlShipsUnchangedAndCatalogVersionsConverge) {
  std::unique_ptr<Database> db = OpenPrimary(primary_dir_);
  ASSERT_NE(db, nullptr);
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();

  LogShipper shipper(db.get(), TestOptions(ReplicationAckMode::kAsync));
  shipper.AddFollower("f0", Connect(applier->get()));

  for (const std::string& sql : DdlWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  ASSERT_TRUE(WaitCaughtUp(shipper));
  shipper.Stop();

  Database* follower = (*applier)->database().get();
  EXPECT_EQ(Projection(follower), Projection(db.get()));
  // Three committed ALTERs on top of version 1 — on both sides.
  EXPECT_EQ(SchemaVersion(db.get(), "patients"), 4u);
  EXPECT_EQ(SchemaVersion(follower, "patients"), 4u);
  EXPECT_TRUE((*applier)->health().ok()) << (*applier)->health().message();
  (*applier)->Stop();
}

// Regression: after a drop forces go-back-N retransmission, a DDL record
// must not be applied out of order relative to the rows that depend on the
// schema it creates. The version-gap fence NAKs any DDL arriving against
// the wrong catalog version, so the primary rewinds and replays in order.
TEST_F(ReplicationTest, DdlOrderingSurvivesGoBackNRetransmission) {
  std::unique_ptr<Database> db = OpenPrimary(primary_dir_);
  ASSERT_NE(db, nullptr);
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();

  FaultInjector::Instance().Arm(fault_points::kReplicationDrop, FaultInjector::FailEveryK(3));
  FaultInjector::Instance().Arm(fault_points::kReplicationReorder,
                                FaultInjector::FailEveryK(5));

  LogShipper shipper(db.get(), TestOptions(ReplicationAckMode::kAsync));
  shipper.AddFollower("f0", Connect(applier->get()));

  for (const std::string& sql : DdlWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(WaitCaughtUp(shipper));
  shipper.Stop();

  Database* follower = (*applier)->database().get();
  EXPECT_EQ(Projection(follower), Projection(db.get()));
  EXPECT_EQ(SchemaVersion(follower, "patients"),
            SchemaVersion(db.get(), "patients"));
  // A follower that survives a damaged channel must end healthy — a DDL
  // applied against the wrong version would have poisoned health() instead.
  EXPECT_TRUE((*applier)->health().ok()) << (*applier)->health().message();
  (*applier)->Stop();
}

TEST_F(ReplicationTest, CheckpointTruncatedPrimaryShipsSnapshotCatchUp) {
  std::unique_ptr<Database> db = OpenPrimary(primary_dir_);
  ASSERT_NE(db, nullptr);
  for (const std::string& sql : AuditedWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  // Checkpoint deletes the covered segments: a follower connecting from
  // scratch can no longer tail from seq 1 and must take the snapshot path.
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->Execute("INSERT INTO patients VALUES (7, 'Dave', 'mri')").ok());

  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();
  LogShipper shipper(db.get(), TestOptions(ReplicationAckMode::kAsync));
  shipper.AddFollower("f0", Connect(applier->get()));

  ASSERT_TRUE(WaitCaughtUp(shipper));
  EXPECT_GE(shipper.Followers()[0].snapshots_sent, 1u);
  shipper.Stop();

  EXPECT_GE((*applier)->stats().snapshots_installed, 1u);
  // The database pointer was replaced by the snapshot install; fetch it now.
  EXPECT_EQ(Projection((*applier)->database().get()), Projection(db.get()));
  (*applier)->Stop();
}

TEST_F(ReplicationTest, QuiescentCheckpointCutCatchesUpToTheExactTip) {
  std::unique_ptr<Database> db = OpenPrimary(primary_dir_);
  ASSERT_NE(db, nullptr);
  for (const std::string& sql : AuditedWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  // Checkpoint truncates to one fresh, record-free segment and NOTHING is
  // written afterwards: the snapshot cut IS the primary's tip. The follower
  // must still reach that exact position — the done frame names the cut
  // segment's header epoch and the applier materializes the segment at
  // install time, because no record will ever arrive to open it. (Pre-fix,
  // the follower parked one segment header short of the tip forever; the
  // three-node kill matrix hit this as a rejoiner that never settled.)
  ASSERT_TRUE(db->Checkpoint().ok());

  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();
  LogShipper shipper(db.get(), TestOptions(ReplicationAckMode::kAsync));
  shipper.AddFollower("f0", Connect(applier->get()));

  ASSERT_TRUE(WaitCaughtUp(shipper));
  EXPECT_GE(shipper.Followers()[0].snapshots_sent, 1u);
  shipper.Stop();

  EXPECT_EQ((*applier)->stats().snapshots_installed, 1u);
  EXPECT_EQ((*applier)->applied(), db->wal()->current_position());
  EXPECT_EQ(Projection((*applier)->database().get()), Projection(db.get()));
  (*applier)->Stop();
}

TEST_F(ReplicationTest, LiveCheckpointSealsTheBoundaryToACaughtUpFollower) {
  std::unique_ptr<Database> db = OpenPrimary(primary_dir_);
  ASSERT_NE(db, nullptr);
  for (const std::string& sql : AuditedWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();
  LogShipper shipper(db.get(), TestOptions(ReplicationAckMode::kAsync));
  shipper.AddFollower("f0", Connect(applier->get()));
  ASSERT_TRUE(WaitCaughtUp(shipper));

  // Checkpoint while the stream is live and fully drained: the journal
  // rotates to a fresh, record-free tip segment, and nothing is written
  // afterwards. No record will ever carry the boundary, so the shipper must
  // seal it explicitly or the follower stays parked at the old segment's
  // end. Stalling the snapshot save holds the checkpoint in the window
  // where the old segment still exists next to the new one — the exact
  // interleaving where the reader silently crosses the boundary (once the
  // old segment is deleted, the kNotFound path would snapshot instead and
  // mask the wedge).
  FaultInjector::Instance().Arm(fault_points::kSnapshotWrite,
                                FaultInjector::DelayNth(1, 400));
  ASSERT_TRUE(db->Checkpoint().ok());
  FaultInjector::Instance().Reset();

  const WalPosition tip = db->wal()->current_position();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*applier)->applied() < tip &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  shipper.Stop();
  EXPECT_EQ((*applier)->applied(), tip);
  // The seal carried the boundary — not a snapshot resync.
  EXPECT_EQ((*applier)->stats().snapshots_installed, 0u);
  EXPECT_EQ(Projection((*applier)->database().get()), Projection(db.get()));
  (*applier)->Stop();
}

TEST_F(ReplicationTest, AckSendFailureLeavesApplierHealthyAndPromotable) {
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();
  ChannelPair pair = CreateInProcessChannelPair();
  (*applier)->Start(pair.follower_end);

  // Drain the applier's HELLO, then arrange for its NEXT send — the ack to
  // our heartbeat — to tear the channel: hit 1 is our heartbeat going out,
  // hit 2 is the applier's ack. This is the shape of a primary crashing
  // mid-stream: the follower's ack lands on a dead socket.
  Result<Frame> hello = pair.primary_end->Receive(5000);
  ASSERT_TRUE(hello.ok()) << hello.status().message();
  ASSERT_EQ(hello->type, FrameType::kHello);
  FaultInjector::Instance().Arm(fault_points::kReplicationTorn,
                                FaultInjector::FailNth(2));
  Frame heartbeat;
  heartbeat.type = FrameType::kHeartbeat;
  ASSERT_TRUE(pair.primary_end->Send(heartbeat).ok());

  // The torn ack closes the channel; observe the death from our end.
  for (;;) {
    Result<Frame> got = pair.primary_end->Receive(50);
    if (!got.ok() && got.status().code() == ErrorCode::kUnavailable) break;
    ASSERT_NE(got.status().code(), ErrorCode::kInternal);
  }
  FaultInjector::Instance().Reset();
  (*applier)->Stop();

  // The channel dying under an ack is a reconnection event, not applier
  // damage: health stays OK and the node stays promotable. (Pre-fix the
  // transport error poisoned health_, Promote refused forever, and the
  // three-node crashtest livelocked re-electing this node — term 150+ with
  // every promotion failing.)
  EXPECT_TRUE((*applier)->health().ok()) << (*applier)->health().message();
  auto promoted = (*applier)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().message();
  ASSERT_NE(*promoted, nullptr);
}

TEST_F(ReplicationTest, DeposedPrimaryIsRejectedByNewEpoch) {
  const std::string second_follower_dir = follower_dir_ + "2";
  std::filesystem::remove_all(second_follower_dir);

  std::unique_ptr<Database> old_primary = OpenPrimary(primary_dir_);
  ASSERT_NE(old_primary, nullptr);
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();

  {
    LogShipper shipper(old_primary.get(),
                       TestOptions(ReplicationAckMode::kAsync));
    shipper.AddFollower("f0", Connect(applier->get()));
    for (const std::string& sql : AuditedWorkload()) {
      ASSERT_TRUE(old_primary->Execute(sql).ok()) << sql;
    }
    ASSERT_TRUE(WaitCaughtUp(shipper));
    shipper.Stop();
  }

  // Failover: the follower becomes the new primary under epoch + 1 and
  // ships to a fresh follower, raising that follower's epoch.
  auto promoted = (*applier)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().message();
  std::shared_ptr<Database> new_primary = *promoted;
  ASSERT_TRUE(
      new_primary->Execute("INSERT INTO patients VALUES (8, 'Eve', 'xray')")
          .ok());

  auto applier2 = ReplicaApplier::Open(second_follower_dir);
  ASSERT_TRUE(applier2.ok()) << applier2.status().message();
  {
    LogShipper shipper(new_primary.get(),
                       TestOptions(ReplicationAckMode::kAsync));
    shipper.AddFollower("f1", Connect(applier2->get()));
    ASSERT_TRUE(WaitCaughtUp(shipper));
    shipper.Stop();
  }
  const std::vector<std::string> before = Projection(new_primary.get());
  EXPECT_EQ(Projection((*applier2)->database().get()), before);

  // The deposed primary keeps committing under the old epoch and tries to
  // ship to the same follower: every record must be rejected, the
  // follower's state unchanged.
  ASSERT_TRUE(
      old_primary->Execute("INSERT INTO patients VALUES (99, 'Mallory', 'x')")
          .ok());
  {
    LogShipper shipper(old_primary.get(),
                       TestOptions(ReplicationAckMode::kAsync));
    shipper.AddFollower("f1", Connect(applier2->get()));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((*applier2)->stats().epoch_rejected == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    shipper.Stop();
  }
  EXPECT_GT((*applier2)->stats().epoch_rejected, 0u);
  EXPECT_EQ(Projection((*applier2)->database().get()), before);
  (*applier2)->Stop();

  std::filesystem::remove_all(second_follower_dir);
}

// Regression for the post-failover shipping livelock (crashtest
// elect.election.partition.v1#8, seed 42): a follower that granted its vote
// to the new leader has its epoch floor raised before the first record
// arrives. The pre-failover records the new leader relays carry origin
// epochs below that floor; judging them by the record epoch alone NAKs every
// one forever (the shipper reseeks and resends the same record). The fence
// must judge the sender's authority epoch instead.
TEST_F(ReplicationTest, NewLeaderRelaysOldEpochRecordsThroughVoteFence) {
  const std::string second_follower_dir = follower_dir_ + "2";
  std::filesystem::remove_all(second_follower_dir);

  std::unique_ptr<Database> old_primary = OpenPrimary(primary_dir_);
  ASSERT_NE(old_primary, nullptr);
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();
  {
    LogShipper shipper(old_primary.get(),
                       TestOptions(ReplicationAckMode::kAsync));
    shipper.AddFollower("f0", Connect(applier->get()));
    for (const std::string& sql : AuditedWorkload()) {
      ASSERT_TRUE(old_primary->Execute(sql).ok()) << sql;
    }
    ASSERT_TRUE(WaitCaughtUp(shipper));
    shipper.Stop();
  }

  // Failover: the follower becomes the new leader one epoch up, with the
  // old epoch's records still forming the bulk of its journal.
  auto promoted = (*applier)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().message();
  std::shared_ptr<Database> new_primary = *promoted;
  ASSERT_TRUE(
      new_primary->Execute("INSERT INTO patients VALUES (8, 'Eve', 'xray')")
          .ok());
  const uint64_t new_epoch = new_primary->wal()->current_position().epoch;

  // A follower that has just granted its vote for new_epoch: the vote
  // promise raises the floor before any record arrives — exactly a
  // survivor's state after a real election.
  auto applier2 = ReplicaApplier::Open(second_follower_dir);
  ASSERT_TRUE(applier2.ok()) << applier2.status().message();
  (*applier2)->RaiseEpochFloor(new_epoch);
  {
    LogShipper shipper(new_primary.get(),
                       TestOptions(ReplicationAckMode::kAsync));
    shipper.AddFollower("f1", Connect(applier2->get()));
    ASSERT_TRUE(WaitCaughtUp(shipper));
    shipper.Stop();
  }
  EXPECT_EQ((*applier2)->stats().epoch_rejected, 0u);
  EXPECT_EQ(Projection((*applier2)->database().get()),
            Projection(new_primary.get()));
  (*applier2)->Stop();

  std::filesystem::remove_all(second_follower_dir);
}

TEST_F(ReplicationTest, DegradedFollowerKeepsPrimaryAvailableAndRejoins) {
  std::unique_ptr<Database> db = OpenPrimary(primary_dir_);
  ASSERT_NE(db, nullptr);
  auto applier = ReplicaApplier::Open(follower_dir_);
  ASSERT_TRUE(applier.ok()) << applier.status().message();

  std::atomic<bool> down{false};
  ShipperOptions options = TestOptions(ReplicationAckMode::kSync);
  options.ack_timeout_ms = 150;  // degrade quickly once the follower dies
  LogShipper shipper(db.get(), options);
  shipper.AddFollower("f0", Connect(applier->get(), &down));

  for (const std::string& sql : AuditedWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  ASSERT_TRUE(WaitCaughtUp(shipper));

  // Kill the follower: the channel dies and reconnects fail while `down`.
  down.store(true);
  StopApplier(applier->get());

  // Sync commits must stay available — bounded by ack_timeout_ms, after
  // which the laggard is degraded and excluded from the wait.
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(
      db->Execute("INSERT INTO patients VALUES (20, 'Frank', 'lab')").ok());
  ASSERT_TRUE(
      db->Execute("INSERT INTO patients VALUES (21, 'Grace', 'lab')").ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 5000);
  EXPECT_TRUE(shipper.Followers()[0].degraded);

  // Resurrect the follower: it must reconnect, catch up, and rejoin the
  // sync quorum automatically.
  down.store(false);
  ASSERT_TRUE(WaitCaughtUp(shipper));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shipper.Followers()[0].degraded &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(shipper.Followers()[0].degraded);
  shipper.Stop();

  EXPECT_EQ(Projection((*applier)->database().get()), Projection(db.get()));
  (*applier)->Stop();
}

}  // namespace
}  // namespace seltrig
