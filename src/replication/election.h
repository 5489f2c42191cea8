// Raft-style leader election over the epoch-fenced WAL shipping of
// docs/REPLICATION.md — the layer that turns operator-driven failover
// (Database::Promote) into automatic, partition-tolerant failover.
//
// Every node runs an ElectionNode. All nodes start as followers; the leader
// broadcasts kHeartbeat frames over an ElectionBus (the same wire protocol
// as replication, carried on FrameChannels), and a follower that misses
// heartbeats for a randomized, seeded election timeout campaigns:
//
//   1. PRE-VOTE (kPreVote): "WOULD you vote for me at epoch term+1, given my
//      journal position?" A voter pre-grants only when its own timeout has
//      expired too, so a node partitioned away from a healthy leader cannot
//      bump epochs and force a real election when it heals (the classic
//      pre-vote disruption fix). Pre-grants are not persisted.
//   2. ELECTION (kVoteRequest): on a pre-vote quorum the candidate persists
//      a vote for itself (storage/wal.h PersistVote — durable BEFORE any
//      grant leaves a machine, so a crashed voter never votes twice in one
//      epoch) and campaigns for real. A voter grants at most one candidate
//      per epoch, only a candidate whose (epoch, seq, offset) journal
//      position is >= its own (the up-to-dateness gate: the winner provably
//      holds every record any quorum ever sync-acked), and raises its
//      applier's epoch floor before granting — the vote doubles as a fence
//      against the old leader extending this node's journal afterward.
//   3. PROMOTION: a quorum of real grants wins. The winner promotes through
//      the existing path — ReplicaApplier::Promote(epoch), i.e.
//      EnableWal(dir, won epoch) — and starts a LogShipper to every peer.
//
// Safety is the composition of three already-shipped mechanisms plus the
// vote rule: (a) at most one candidate can assemble a quorum per epoch
// (durable single vote + quorum overlap), (b) a deposed leader's records are
// NAKed by epoch fencing and its shipper parks kFencedOut, (c) a rejoining
// minority whose journal forked (un-acked suffix written while partitioned)
// is detected positionally by the shipper and resynced via a forced snapshot
// catch-up — it never acks a forked suffix as part of the new history.
// Split-brain is therefore structurally impossible: two leaders would need
// two overlapping quorums to each grant a vote for the same epoch.
//
// Fault points (docs/ROBUSTNESS.md): `election.timeout` (liveness check —
// firing forces an immediate campaign), `election.vote_drop` (drop one
// outbound election frame), `election.partition` (drop a bus send: a severed
// link), `election.stale_candidate` (campaign with a zeroed journal position
// — must lose the up-to-dateness gate).

#ifndef SELTRIG_REPLICATION_ELECTION_H_
#define SELTRIG_REPLICATION_ELECTION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "replication/applier.h"
#include "replication/shipper.h"
#include "replication/transport.h"
#include "storage/wal.h"

namespace seltrig {

// Best-effort election datagram layer: frames addressed by node id, no
// delivery or ordering guarantee (elections are retried on timeouts, so a
// lost frame only costs time). Send consults `election.partition`.
class ElectionBus {
 public:
  virtual ~ElectionBus() = default;

  // Delivers `frame` to `peer` best-effort. A non-OK status means the peer
  // is currently unreachable; the caller never retries inline.
  virtual Status Send(const std::string& peer, const Frame& frame) = 0;

  // Blocks up to `timeout_ms` for the next inbound frame from any peer.
  // kDeadlineExceeded on timeout, kUnavailable once closed.
  virtual Result<Frame> Receive(int64_t timeout_ms) = 0;

  // Unblocks Receive and severs every link. Idempotent.
  virtual void Close() = 0;
};

// Shared state of an in-process election network (the test transport).
// Endpoint(id) mints the bus endpoint for `id`, replacing any previous one
// under that id — a "restarted" node gets a fresh, open inbox while peers
// keep addressing it by the same name.
struct ElectionMeshState;  // election.cc

class ElectionMesh {
 public:
  ElectionMesh();
  std::unique_ptr<ElectionBus> Endpoint(const std::string& id);

 private:
  std::shared_ptr<ElectionMeshState> impl_;
};

// A unix-socket bus for multi-process clusters: listens on `listen_path`,
// dials `peer_paths[id]` lazily per Send (reconnecting after failures).
Result<std::unique_ptr<ElectionBus>> CreateSocketElectionBus(
    const std::string& listen_path,
    std::map<std::string, std::string> peer_paths);

enum class ElectionRole : uint8_t { kFollower, kCandidate, kLeader };

const char* ElectionRoleName(ElectionRole role);

struct ElectionOptions {
  // This node's id (its bus address) and durable directory.
  std::string id;
  std::string dir;
  // The other cluster members' ids. Quorum = (peers + self) / 2 + 1.
  std::vector<std::string> peers;

  // Leader liveness cadence and the randomized follower timeout range.
  int64_t heartbeat_interval_ms = 25;
  int64_t election_timeout_min_ms = 150;
  int64_t election_timeout_max_ms = 300;
  // State-machine poll granularity (bounds Stop() latency).
  int64_t poll_interval_ms = 5;

  // Seeds the timeout and vote-spread jitter streams (mixed with the node
  // id), so a cluster run replays deterministically for a fixed seed — the
  // crashtest passes --seed through here.
  uint64_t seed = 1;

  // Applied when this node is (or becomes) each role. shipper.jitter_seed
  // is overridden from `seed`.
  ApplierOptions applier;
  ShipperOptions shipper;

  // Non-empty: accept follower-side replication connections on this unix
  // socket path (each accepted channel restarts the applier's receive
  // loop). Empty: in-process wiring via AcceptReplication().
  std::string replication_listen_path;
};

struct ElectionInfo {
  ElectionRole role = ElectionRole::kFollower;
  // The journal epoch this node is at (leader: its writer's epoch;
  // follower: last applied record's epoch).
  uint64_t epoch = 0;
  // Highest epoch seen in any message or vote — the next campaign runs at
  // term + 1. Always >= epoch.
  uint64_t term = 0;
  std::string leader_id;  // last leader heard from ("" = none yet)
  // Milliseconds since the last accepted leader heartbeat (leader: since it
  // last broadcast one). -1 = never.
  int64_t ms_since_heartbeat = -1;
  WalPosition position;  // journal tail used in up-to-dateness comparisons
  uint64_t elections_started = 0;
  uint64_t pre_votes_granted = 0;
  uint64_t votes_granted = 0;
  uint64_t stale_candidates_rejected = 0;
  uint64_t steps_down = 0;
  Status health = Status::OK();
};

class ElectionNode {
 public:
  // Returns a fresh replication channel to `peer`'s follower endpoint;
  // called by the shipper on every (re)connect while this node leads.
  using ReplicationConnect =
      std::function<Result<std::shared_ptr<FrameChannel>>(const std::string&)>;

  // Recovers the follower database from options.dir, re-reads any persisted
  // vote (crash-revote safety), and starts the election state machine. The
  // node owns `bus` from here on.
  static Result<std::unique_ptr<ElectionNode>> Start(
      ElectionOptions options, std::unique_ptr<ElectionBus> bus,
      ReplicationConnect replication_connect);

  ~ElectionNode();

  ElectionNode(const ElectionNode&) = delete;
  ElectionNode& operator=(const ElectionNode&) = delete;

  // Stops the state machine, shipper/applier, and transports. Idempotent.
  void Stop();

  ElectionInfo info() const SELTRIG_EXCLUDES(mutex_);

  // The writable database while this node leads, nullptr otherwise. Hold
  // the shared_ptr only across individual statements: a step-down waits for
  // outstanding holds to drain before it reopens the directory as a
  // follower, so a long-lived copy deadlocks the state machine.
  std::shared_ptr<Database> leader_database() const SELTRIG_EXCLUDES(mutex_);

  // The follower database for local reads, nullptr while leading.
  std::shared_ptr<Database> follower_database() const SELTRIG_EXCLUDES(mutex_);

  // Shipper follower statuses while leading (empty otherwise).
  std::vector<FollowerStatus> FollowerStatuses() const SELTRIG_EXCLUDES(mutex_);

  // In-process replication attach: peers' shippers call this as their
  // ChannelFactory. Restarts the applier's receive loop on a fresh channel
  // pair and returns the shipper's end. kUnavailable while not a follower.
  Result<std::shared_ptr<FrameChannel>> AcceptReplication()
      SELTRIG_EXCLUDES(mutex_);

  // Test/harness helper: waits until info().role == role.
  bool WaitForRole(ElectionRole role, int64_t timeout_ms) const;

 private:
  ElectionNode(ElectionOptions options, std::unique_ptr<ElectionBus> bus,
               ReplicationConnect replication_connect);

  void RunStateMachine();
  void RunReplicationServer();

  // One inbound election frame, dispatched under no lock (takes mutex_ as
  // needed).
  void HandleFrame(const Frame& frame);
  void HandleHeartbeat(const Frame& frame);
  void HandlePreVote(const Frame& frame);
  void HandleVoteRequest(const Frame& frame);
  void HandleVoteGrant(const Frame& frame);

  // This node's journal position for up-to-dateness checks (leader: the
  // writer tip; follower: the applied tail).
  WalPosition LocalPositionLocked() const SELTRIG_REQUIRES(mutex_);

  // Starts the pre-vote phase of a campaign.
  void StartCampaign() SELTRIG_EXCLUDES(mutex_);
  // Pre-vote quorum reached: persist the self-vote and campaign for real.
  void EnterRealElection() SELTRIG_EXCLUDES(mutex_);
  // Real-vote quorum reached: promote and start shipping.
  void WinElection() SELTRIG_EXCLUDES(mutex_);
  void AbandonCampaign() SELTRIG_EXCLUDES(mutex_);
  // Leader only: another leader at a newer epoch exists (higher-epoch frame
  // or a kFencedOut follower status). Rejoin as follower.
  void StepDown(uint64_t observed_epoch) SELTRIG_EXCLUDES(mutex_);

  // Sends one election frame through the bus, subject to election.vote_drop
  // for vote traffic.
  void SendElectionFrame(const std::string& peer, const Frame& frame,
                         bool is_vote_traffic);
  void BroadcastToPeers(const Frame& frame, bool is_vote_traffic);

  // Next value of the seeded jitter stream.
  uint64_t NextRandom();
  int64_t RandomElectionTimeout();

  const ElectionOptions options_;
  const size_t cluster_size_;
  const size_t quorum_;
  std::unique_ptr<ElectionBus> bus_;
  const ReplicationConnect replication_connect_;

  mutable Mutex mutex_;
  ElectionRole role_ SELTRIG_GUARDED_BY(mutex_) = ElectionRole::kFollower;
  uint64_t term_ SELTRIG_GUARDED_BY(mutex_) = 0;
  std::string leader_id_ SELTRIG_GUARDED_BY(mutex_);
  // Durable single-vote rule state (mirrors <dir>/wal/VOTE).
  bool has_vote_ SELTRIG_GUARDED_BY(mutex_) = false;
  VoteRecord vote_ SELTRIG_GUARDED_BY(mutex_);
  // Monotonic timestamp (ms) of the last accepted heartbeat / sent one.
  int64_t last_heartbeat_ms_ SELTRIG_GUARDED_BY(mutex_) = -1;
  // Campaign state (meaningful while role_ == kCandidate).
  bool prevote_phase_ SELTRIG_GUARDED_BY(mutex_) = true;
  uint64_t campaign_epoch_ SELTRIG_GUARDED_BY(mutex_) = 0;
  WalPosition campaign_position_ SELTRIG_GUARDED_BY(mutex_);
  std::vector<std::string> grants_ SELTRIG_GUARDED_BY(mutex_);
  int64_t campaign_deadline_ms_ SELTRIG_GUARDED_BY(mutex_) = 0;

  std::shared_ptr<ReplicaApplier> applier_ SELTRIG_GUARDED_BY(mutex_);
  std::shared_ptr<Database> leader_db_ SELTRIG_GUARDED_BY(mutex_);
  std::unique_ptr<LogShipper> shipper_ SELTRIG_GUARDED_BY(mutex_);

  ElectionInfo counters_ SELTRIG_GUARDED_BY(mutex_);  // counter fields only
  // True while WinElection runs Promote with mutex_ released (role_ still
  // kCandidate): blocks AcceptReplication/RunReplicationServer from
  // restarting the receive loop of the applier being promoted.
  bool promoting_ SELTRIG_GUARDED_BY(mutex_) = false;
  bool stopping_ SELTRIG_GUARDED_BY(mutex_) = false;

  uint64_t rng_;  // state-machine thread only
  int64_t election_timeout_ms_;  // current randomized timeout (state thread)

  std::unique_ptr<LocalSocketServer> replication_server_;
  std::thread replication_thread_;
  std::thread thread_;
};

}  // namespace seltrig

#endif  // SELTRIG_REPLICATION_ELECTION_H_
