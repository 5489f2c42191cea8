// Leader election tests over the in-process mesh (replication/election.h):
// cold-start convergence to exactly one leader, automatic failover with the
// acked-prefix guarantee, deposed-leader rejoin without forking, the
// up-to-dateness vote gate (a stale candidate must lose), durable vote
// persistence, leader stickiness under a healthy heartbeat stream, and
// step-down of a leader partitioned away from the election bus whose only
// depose signal is a fenced (kFencedOut) follower status.
// Promotion is driven exclusively by quorums — no test calls Promote.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "engine/database.h"
#include "engine/session.h"
#include "replication/election.h"
#include "storage/table.h"
#include "storage/wal.h"
#include "types/value.h"

namespace seltrig {
namespace {

// Deterministic projection of logical state (audit timestamps excluded, rows
// sorted) — matches the replication test's notion of equality.
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

const std::vector<std::string>& AuditedWorkload() {
  static const std::vector<std::string> statements = {
      "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, "
      "diagnosis VARCHAR)",
      "CREATE TABLE log (ts VARCHAR, userid VARCHAR, sql VARCHAR, "
      "patientid INT)",
      "INSERT INTO patients VALUES (1, 'Alice', 'flu')",
      "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients WHERE "
      "name = 'Alice' FOR SENSITIVE TABLE patients PARTITION BY patientid",
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS INSERT INTO log "
      "SELECT now(), user_id(), sql_text(), patientid FROM accessed",
      "SELECT name FROM patients WHERE patientid = 1",
      "INSERT INTO patients VALUES (2, 'Bob', 'cold')",
      "SELECT diagnosis FROM patients WHERE name = 'Alice'",
  };
  return statements;
}

// A live registry of nodes by id, so ReplicationConnect lambdas survive
// node restarts (they resolve the peer at call time, not capture time).
struct NodeRegistry {
  std::mutex mutex;
  std::map<std::string, ElectionNode*> nodes;
};

// A bus decorator that simulates a per-node election-bus partition: while
// partitioned, outbound frames are dropped and inbound frames are discarded.
// Replication channels (the node registry above) are unaffected — exactly
// the asymmetric failure where a fenced follower status is a leader's only
// depose signal.
class PartitionableBus : public ElectionBus {
 public:
  explicit PartitionableBus(std::unique_ptr<ElectionBus> inner)
      : inner_(std::move(inner)) {}

  std::shared_ptr<std::atomic<bool>> flag() { return partitioned_; }

  Status Send(const std::string& peer, const Frame& frame) override {
    if (partitioned_->load()) return Status::OK();  // dropped on the floor
    return inner_->Send(peer, frame);
  }

  Result<Frame> Receive(int64_t timeout_ms) override {
    Result<Frame> frame = inner_->Receive(timeout_ms);
    if (frame.ok() && partitioned_->load()) {
      return Status::DeadlineExceeded("partitioned");
    }
    return frame;
  }

  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<ElectionBus> inner_;
  std::shared_ptr<std::atomic<bool>> partitioned_ =
      std::make_shared<std::atomic<bool>>(false);
};

class ElectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    base_ = (std::filesystem::temp_directory_path() /
             ("seltrig_elect_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove_all(base_);
    registry_ = std::make_shared<NodeRegistry>();
  }

  void TearDown() override {
    for (auto& [id, node] : cluster_) StopNode(id);
    FaultInjector::Instance().Reset();
    std::filesystem::remove_all(base_);
  }

  ElectionOptions FastOptions(const std::string& id) {
    ElectionOptions options;
    options.id = id;
    options.dir = base_ + "/" + id;
    options.heartbeat_interval_ms = 10;
    options.election_timeout_min_ms = 40;
    options.election_timeout_max_ms = 120;
    options.poll_interval_ms = 2;
    options.seed = 20260808;
    options.shipper.ack_mode = ReplicationAckMode::kSync;
    options.shipper.heartbeat_interval_ms = 10;
    options.shipper.ack_timeout_ms = 2000;
    options.shipper.initial_backoff_ms = 1;
    options.shipper.max_backoff_ms = 20;
    return options;
  }

  void StartNode(const std::string& id,
                 const std::vector<std::string>& all_ids) {
    ElectionOptions options = FastOptions(id);
    for (const std::string& peer : all_ids) {
      if (peer != id) options.peers.push_back(peer);
    }
    std::shared_ptr<NodeRegistry> registry = registry_;
    auto bus = std::make_unique<PartitionableBus>(mesh_.Endpoint(id));
    partition_flags_[id] = bus->flag();
    auto node = ElectionNode::Start(
        std::move(options), std::move(bus),
        [registry](const std::string& peer)
            -> Result<std::shared_ptr<FrameChannel>> {
          std::lock_guard<std::mutex> lock(registry->mutex);
          auto it = registry->nodes.find(peer);
          if (it == registry->nodes.end()) {
            return Status::Unavailable("peer " + peer + " is down");
          }
          return it->second->AcceptReplication();
        });
    ASSERT_TRUE(node.ok()) << node.status().message();
    {
      std::lock_guard<std::mutex> lock(registry_->mutex);
      registry_->nodes[id] = node->get();
    }
    cluster_[id] = std::move(*node);
  }

  void StartCluster(const std::vector<std::string>& ids) {
    for (const std::string& id : ids) {
      StartNode(id, ids);
      if (HasFatalFailure()) return;
    }
  }

  // Simulates a node death: deregister (peers' connects start failing),
  // then stop. The durable directory stays for a later restart.
  void StopNode(const std::string& id) {
    auto it = cluster_.find(id);
    if (it == cluster_.end() || it->second == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(registry_->mutex);
      registry_->nodes.erase(id);
    }
    it->second->Stop();
    it->second.reset();
  }

  // The current sole leader's id, or "" when there is not exactly one.
  std::string SoleLeader() {
    std::string leader;
    int leaders = 0;
    for (auto& [id, node] : cluster_) {
      if (node != nullptr && node->info().role == ElectionRole::kLeader) {
        ++leaders;
        leader = id;
      }
    }
    return leaders == 1 ? leader : "";
  }

  std::string WaitForLeader(int64_t timeout_ms = 15000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      std::string leader = SoleLeader();
      if (!leader.empty()) return leader;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return "";
  }

  bool WaitAllCaughtUp(const std::string& leader_id,
                       int64_t timeout_ms = 15000) {
    ElectionNode* leader = cluster_[leader_id].get();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      std::shared_ptr<Database> db = leader->leader_database();
      if (db != nullptr) {
        const WalPosition tip = db->wal()->current_position();
        std::vector<FollowerStatus> followers = leader->FollowerStatuses();
        bool all = !followers.empty();
        for (const FollowerStatus& f : followers) {
          if (!(tip <= f.acked)) all = false;
        }
        if (all) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  std::string base_;
  ElectionMesh mesh_;
  std::shared_ptr<NodeRegistry> registry_;
  std::map<std::string, std::unique_ptr<ElectionNode>> cluster_;
  std::map<std::string, std::shared_ptr<std::atomic<bool>>> partition_flags_;
};

TEST_F(ElectionTest, ColdStartElectsExactlyOneLeaderAndReplicates) {
  StartCluster({"n0", "n1", "n2"});
  const std::string leader_id = WaitForLeader();
  ASSERT_FALSE(leader_id.empty()) << "no sole leader emerged";

  std::shared_ptr<Database> db = cluster_[leader_id]->leader_database();
  ASSERT_NE(db, nullptr);
  for (const std::string& sql : AuditedWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  db.reset();
  ASSERT_TRUE(WaitAllCaughtUp(leader_id));

  const std::vector<std::string> want =
      Projection(cluster_[leader_id]->leader_database().get());
  for (auto& [id, node] : cluster_) {
    if (id == leader_id) continue;
    ElectionInfo info = node->info();
    EXPECT_EQ(info.role, ElectionRole::kFollower) << id;
    EXPECT_EQ(info.leader_id, leader_id) << id;
    EXPECT_GE(info.epoch, 1u) << id;
    std::shared_ptr<Database> follower = node->follower_database();
    ASSERT_NE(follower, nullptr) << id;
    EXPECT_EQ(Projection(follower.get()), want) << id;
  }
}

TEST_F(ElectionTest, FailoverPreservesAckedPrefixWithoutOperatorPromote) {
  StartCluster({"n0", "n1", "n2"});
  const std::string first = WaitForLeader();
  ASSERT_FALSE(first.empty());

  std::shared_ptr<Database> db = cluster_[first]->leader_database();
  ASSERT_NE(db, nullptr);
  // Sync mode: every OK Execute below is acked by all (non-degraded)
  // followers before it returns — the prefix failover must preserve.
  for (const std::string& sql : AuditedWorkload()) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  const uint64_t first_epoch = db->wal()->current_position().epoch;
  ASSERT_TRUE(WaitAllCaughtUp(first));
  const std::vector<std::string> acked_state = Projection(db.get());
  db.reset();

  StopNode(first);
  const std::string second = WaitForLeader();
  ASSERT_FALSE(second.empty());
  ASSERT_NE(second, first);

  std::shared_ptr<Database> promoted = cluster_[second]->leader_database();
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(Projection(promoted.get()), acked_state);
  EXPECT_GT(promoted->wal()->current_position().epoch, first_epoch);
  // The new leader keeps accepting writes.
  EXPECT_TRUE(
      promoted->Execute("INSERT INTO patients VALUES (7, 'Grace', 'ok')")
          .ok());
}

TEST_F(ElectionTest, RestartedOldLeaderRejoinsAsFollowerAndConverges) {
  const std::vector<std::string> ids = {"n0", "n1", "n2"};
  StartCluster(ids);
  const std::string first = WaitForLeader();
  ASSERT_FALSE(first.empty());

  {
    std::shared_ptr<Database> db = cluster_[first]->leader_database();
    ASSERT_NE(db, nullptr);
    for (const std::string& sql : AuditedWorkload()) {
      ASSERT_TRUE(db->Execute(sql).ok()) << sql;
    }
    ASSERT_TRUE(WaitAllCaughtUp(first));
  }

  StopNode(first);
  const std::string second = WaitForLeader();
  ASSERT_FALSE(second.empty());
  {
    std::shared_ptr<Database> db = cluster_[second]->leader_database();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(
        db->Execute("INSERT INTO patients VALUES (8, 'Heidi', 'flu')").ok());
  }

  // The old leader restarts from its durable directory and must come back
  // as a follower of the new epoch, converging on the new history.
  StartNode(first, ids);
  ASSERT_TRUE(
      cluster_[first]->WaitForRole(ElectionRole::kFollower, 15000));
  ASSERT_TRUE(WaitAllCaughtUp(second));
  EXPECT_EQ(SoleLeader(), second);

  std::shared_ptr<Database> rejoined = cluster_[first]->follower_database();
  ASSERT_NE(rejoined, nullptr);
  EXPECT_EQ(Projection(rejoined.get()),
            Projection(cluster_[second]->leader_database().get()));
  // The rejoined node learns the leader's name from election heartbeats,
  // which nothing orders before replication catch-up: wait for one.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (cluster_[first]->info().leader_id != second &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(cluster_[first]->info().leader_id, second);
}

TEST_F(ElectionTest, StaleCandidateLosesTheUpToDatenessGate) {
  StartCluster({"n0", "n1", "n2"});
  const std::string first = WaitForLeader();
  ASSERT_FALSE(first.empty());
  {
    std::shared_ptr<Database> db = cluster_[first]->leader_database();
    ASSERT_NE(db, nullptr);
    for (const std::string& sql : AuditedWorkload()) {
      ASSERT_TRUE(db->Execute(sql).ok()) << sql;
    }
    ASSERT_TRUE(WaitAllCaughtUp(first));
  }
  StopNode(first);

  // Every campaign now claims an empty journal: candidates must be rejected
  // at the up-to-dateness gate, so NO leader can emerge while the fault is
  // armed — electing one could lose sync-acked audit rows.
  FaultInjector::Instance().Arm(fault_points::kElectionStaleCandidate,
                                FaultInjector::FailAlways());
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  EXPECT_EQ(SoleLeader(), "");
  uint64_t rejected = 0;
  for (auto& [id, node] : cluster_) {
    if (node != nullptr) rejected += node->info().stale_candidates_rejected;
  }
  EXPECT_GT(rejected, 0u);

  // Disarming lets an up-to-date candidate win.
  FaultInjector::Instance().Disarm(fault_points::kElectionStaleCandidate);
  EXPECT_FALSE(WaitForLeader().empty());
}

TEST_F(ElectionTest, HealthyLeaderIsNotDeposedByHeartbeatStream) {
  StartCluster({"n0", "n1", "n2"});
  const std::string leader = WaitForLeader();
  ASSERT_FALSE(leader.empty());
  const uint64_t epoch =
      cluster_[leader]->leader_database()->wal()->current_position().epoch;

  // Several election-timeout windows pass; the heartbeat stream must keep
  // every follower from campaigning (pre-vote leader stickiness would stop
  // a rogue campaign regardless, but none should even start).
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  EXPECT_EQ(SoleLeader(), leader);
  EXPECT_EQ(
      cluster_[leader]->leader_database()->wal()->current_position().epoch,
      epoch);
  for (auto& [id, node] : cluster_) {
    if (id == leader) continue;
    ElectionInfo info = node->info();
    EXPECT_EQ(info.role, ElectionRole::kFollower) << id;
    EXPECT_GE(info.ms_since_heartbeat, 0) << id;
    EXPECT_LT(info.ms_since_heartbeat, 1000) << id;
  }
}

TEST_F(ElectionTest, PartitionedLeaderStepsDownOnFencedFollowerStatus) {
  StartCluster({"n0", "n1", "n2"});
  const std::string first = WaitForLeader();
  ASSERT_FALSE(first.empty());
  {
    std::shared_ptr<Database> db = cluster_[first]->leader_database();
    ASSERT_NE(db, nullptr);
    for (const std::string& sql : AuditedWorkload()) {
      ASSERT_TRUE(db->Execute(sql).ok()) << sql;
    }
    ASSERT_TRUE(WaitAllCaughtUp(first));
  }

  // Cut ONLY the old leader's election bus: it can neither heartbeat nor
  // hear the election that deposes it, while its replication channels still
  // reach the other nodes. The majority side elects a new leader.
  partition_flags_[first]->store(true);
  std::string second;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (second.empty() && std::chrono::steady_clock::now() < deadline) {
    for (auto& [id, node] : cluster_) {
      if (id != first && node->info().role == ElectionRole::kLeader) {
        second = id;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(second.empty()) << "no new leader on the majority side";

  // New-epoch records reach the shared follower; the old leader's shipper
  // gets fencing NAKs and parks kFencedOut. That structured follower status
  // is the old leader's ONLY depose signal here — it must step down on it
  // despite never hearing the new epoch on the election bus.
  {
    std::shared_ptr<Database> db = cluster_[second]->leader_database();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(
        db->Execute("INSERT INTO patients VALUES (9, 'Ivan', 'ok')").ok());
  }
  ASSERT_TRUE(cluster_[first]->WaitForRole(ElectionRole::kFollower, 15000))
      << "partitioned leader never stepped down on fenced follower status";
  EXPECT_GE(cluster_[first]->info().steps_down, 1u);

  // Healing the partition converges it under the new leader.
  partition_flags_[first]->store(false);
  ASSERT_TRUE(WaitAllCaughtUp(second));
  EXPECT_EQ(SoleLeader(), second);
  std::shared_ptr<Database> rejoined = cluster_[first]->follower_database();
  ASSERT_NE(rejoined, nullptr);
  EXPECT_EQ(Projection(rejoined.get()),
            Projection(cluster_[second]->leader_database().get()));
}

TEST_F(ElectionTest, PersistedVoteSurvivesAndTornVoteReadsAsAbsent) {
  const std::string wal_dir = base_ + "/votes/wal";
  ASSERT_TRUE(PersistVote(wal_dir, VoteRecord{7, "n2"}).ok());
  auto vote = ReadPersistedVote(wal_dir);
  ASSERT_TRUE(vote.ok()) << vote.status().message();
  EXPECT_EQ(vote->epoch, 7u);
  EXPECT_EQ(vote->candidate, "n2");

  // Overwriting is the re-vote at a higher epoch.
  ASSERT_TRUE(PersistVote(wal_dir, VoteRecord{9, "n0"}).ok());
  vote = ReadPersistedVote(wal_dir);
  ASSERT_TRUE(vote.ok());
  EXPECT_EQ(vote->epoch, 9u);
  EXPECT_EQ(vote->candidate, "n0");

  // A torn VOTE file equals no vote: the grant provably never left the
  // machine, so forgetting the vote is safe — and required, or a corrupt
  // byte would wedge the voter forever.
  {
    std::ofstream torn(wal_dir + "/VOTE",
                       std::ios::binary | std::ios::trunc);
    torn << "SLT";
  }
  EXPECT_EQ(ReadPersistedVote(wal_dir).status().code(), ErrorCode::kNotFound);
}

TEST_F(ElectionTest, SingleNodeClusterElectsItself) {
  StartCluster({"solo"});
  ASSERT_TRUE(cluster_["solo"]->WaitForRole(ElectionRole::kLeader, 15000));
  std::shared_ptr<Database> db = cluster_["solo"]->leader_database();
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_GE(db->wal()->current_position().epoch, 1u);
}

}  // namespace
}  // namespace seltrig
