#include "replication/election.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>

#include "common/fault_injector.h"

namespace seltrig {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Election frames never queue unboundedly: a stalled node must shed old
// traffic (a vote for a long-finished campaign is noise) rather than grow.
constexpr size_t kMaxInboxFrames = 4096;

// Bus endpoints deliver into an inbox: a bounded frame queue with a closed
// flag, shared between senders and the owning Receive loop.
struct Inbox {
  Mutex mutex;
  std::condition_variable_any cv;  // waits hold mutex
  std::deque<Frame> frames SELTRIG_GUARDED_BY(mutex);
  bool closed SELTRIG_GUARDED_BY(mutex) = false;
};

void InboxPush(Inbox* inbox, const Frame& frame) {
  MutexLock lock(&inbox->mutex);
  if (inbox->closed) return;
  if (inbox->frames.size() >= kMaxInboxFrames) inbox->frames.pop_front();
  inbox->frames.push_back(frame);
  inbox->cv.notify_all();
}

Result<Frame> InboxPop(Inbox* inbox, int64_t timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  MutexLock lock(&inbox->mutex);
  for (;;) {
    if (!inbox->frames.empty()) {
      Frame frame = inbox->frames.front();
      inbox->frames.pop_front();
      return frame;
    }
    if (inbox->closed) return Status::Unavailable("election bus closed");
    if (timeout_ms <= 0 ||
        inbox->cv.wait_until(inbox->mutex, deadline) ==
            std::cv_status::timeout) {
      if (!inbox->frames.empty()) continue;
      return Status::DeadlineExceeded("no election frame");
    }
  }
}

void InboxClose(Inbox* inbox) {
  MutexLock lock(&inbox->mutex);
  inbox->closed = true;
  inbox->cv.notify_all();
}

}  // namespace

// ---------------------------------------------------------------------------
// In-process mesh: a map of inboxes shared by every endpoint.

struct ElectionMeshState {
  Mutex mutex;
  std::map<std::string, std::shared_ptr<Inbox>> inboxes
      SELTRIG_GUARDED_BY(mutex);
};

namespace {

using MeshState = ElectionMeshState;

class InProcessBusEndpoint : public ElectionBus {
 public:
  InProcessBusEndpoint(std::shared_ptr<MeshState> mesh, std::string id,
                       std::shared_ptr<Inbox> inbox)
      : mesh_(std::move(mesh)), id_(std::move(id)), inbox_(std::move(inbox)) {}

  ~InProcessBusEndpoint() override { Close(); }

  Status Send(const std::string& peer, const Frame& frame) override {
    if (!fault::Maybe(fault_points::kElectionPartition).ok()) return Status::OK();  // cut
    std::shared_ptr<Inbox> target;
    {
      MutexLock lock(&mesh_->mutex);
      auto it = mesh_->inboxes.find(peer);
      if (it == mesh_->inboxes.end()) {
        return Status::Unavailable("no such election peer: " + peer);
      }
      target = it->second;
    }
    InboxPush(target.get(), frame);
    return Status::OK();
  }

  Result<Frame> Receive(int64_t timeout_ms) override {
    return InboxPop(inbox_.get(), timeout_ms);
  }

  void Close() override { InboxClose(inbox_.get()); }

 private:
  const std::shared_ptr<MeshState> mesh_;
  const std::string id_;
  const std::shared_ptr<Inbox> inbox_;
};

// ---------------------------------------------------------------------------
// Socket bus: a LocalSocketServer for inbound links (one reader thread per
// accepted connection feeding the inbox) and lazily-dialed, cached outbound
// channels per peer.

class SocketElectionBus : public ElectionBus {
 public:
  SocketElectionBus(std::unique_ptr<LocalSocketServer> server,
                    std::map<std::string, std::string> peer_paths)
      : server_(std::move(server)),
        peer_paths_(std::move(peer_paths)),
        inbox_(std::make_shared<Inbox>()) {
    accept_thread_ = std::thread(&SocketElectionBus::AcceptLoop, this);
  }

  ~SocketElectionBus() override {
    Close();
    if (accept_thread_.joinable()) accept_thread_.join();
    for (Reader& reader : readers_) {
      if (reader.thread.joinable()) reader.thread.join();
    }
  }

  Status Send(const std::string& peer, const Frame& frame) override {
    if (!fault::Maybe(fault_points::kElectionPartition).ok()) return Status::OK();  // cut
    auto it = peer_paths_.find(peer);
    if (it == peer_paths_.end()) {
      return Status::Unavailable("no such election peer: " + peer);
    }
    std::shared_ptr<FrameChannel> channel;
    {
      MutexLock lock(&mutex_);
      if (closed_) return Status::Unavailable("election bus closed");
      auto cached = outbound_.find(peer);
      if (cached != outbound_.end()) channel = cached->second;
    }
    if (channel == nullptr) {
      Result<std::shared_ptr<FrameChannel>> dialed =
          ConnectLocalSocket(it->second);
      if (!dialed.ok()) return dialed.status();
      channel = *dialed;
      MutexLock lock(&mutex_);
      if (closed_) {
        channel->Close();
        return Status::Unavailable("election bus closed");
      }
      outbound_[peer] = channel;
    }
    Status sent = channel->Send(frame);
    if (!sent.ok()) {
      // Drop the dead link; the next Send redials (the peer may have
      // restarted under the same path).
      channel->Close();
      MutexLock lock(&mutex_);
      auto cached = outbound_.find(peer);
      if (cached != outbound_.end() && cached->second == channel) {
        outbound_.erase(cached);
      }
    }
    return sent;
  }

  Result<Frame> Receive(int64_t timeout_ms) override {
    return InboxPop(inbox_.get(), timeout_ms);
  }

  void Close() override {
    std::map<std::string, std::shared_ptr<FrameChannel>> outbound;
    std::vector<std::shared_ptr<FrameChannel>> inbound;
    {
      MutexLock lock(&mutex_);
      if (closed_) return;
      closed_ = true;
      outbound.swap(outbound_);
      inbound.swap(inbound_);
    }
    server_->Close();
    for (auto& [peer, channel] : outbound) channel->Close();
    for (auto& channel : inbound) channel->Close();
    InboxClose(inbox_.get());
  }

 private:
  void AcceptLoop() {
    for (;;) {
      {
        MutexLock lock(&mutex_);
        if (closed_) return;
      }
      // Reap readers whose connections died: reconnect churn (every leader
      // change and peer restart redials) must not accumulate dead thread
      // handles for the life of the bus. A reader with `done` set is at most
      // instants from exiting, so the join never blocks meaningfully.
      for (auto it = readers_.begin(); it != readers_.end();) {
        if (it->done->load(std::memory_order_acquire)) {
          if (it->thread.joinable()) it->thread.join();
          it = readers_.erase(it);
        } else {
          ++it;
        }
      }
      Result<std::shared_ptr<FrameChannel>> accepted = server_->Accept(100);
      if (!accepted.ok()) {
        if (accepted.status().code() == ErrorCode::kDeadlineExceeded) continue;
        return;  // server closed
      }
      auto done = std::make_shared<std::atomic<bool>>(false);
      MutexLock lock(&mutex_);
      if (closed_) {
        (*accepted)->Close();
        return;
      }
      inbound_.push_back(*accepted);
      readers_.push_back(Reader{
          std::thread(&SocketElectionBus::ReadLoop, this, *accepted, done),
          done});
    }
  }

  void ReadLoop(std::shared_ptr<FrameChannel> channel,
                std::shared_ptr<std::atomic<bool>> done) {
    for (;;) {
      Result<Frame> frame = channel->Receive(200);
      if (frame.ok()) {
        InboxPush(inbox_.get(), *frame);
        continue;
      }
      if (frame.status().code() == ErrorCode::kDeadlineExceeded) {
        MutexLock lock(&mutex_);
        if (closed_) break;
        continue;
      }
      break;  // peer closed or stream died; peer will redial
    }
    channel->Close();
    {
      // Drop our inbound_ entry so closed channels do not accumulate
      // either. (Close() may have swapped inbound_ out already; then the
      // entry is gone and this is a no-op.)
      MutexLock lock(&mutex_);
      auto it = std::find(inbound_.begin(), inbound_.end(), channel);
      if (it != inbound_.end()) inbound_.erase(it);
    }
    // Last: after this store AcceptLoop may join and destroy the handle.
    done->store(true, std::memory_order_release);
  }

  const std::unique_ptr<LocalSocketServer> server_;
  const std::map<std::string, std::string> peer_paths_;
  const std::shared_ptr<Inbox> inbox_;

  Mutex mutex_;
  bool closed_ SELTRIG_GUARDED_BY(mutex_) = false;
  std::map<std::string, std::shared_ptr<FrameChannel>> outbound_
      SELTRIG_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<FrameChannel>> inbound_
      SELTRIG_GUARDED_BY(mutex_);

  // One reader per accepted connection; `done` is set by ReadLoop as its
  // very last action. Touched only by the AcceptLoop thread (spawn + reap)
  // and the destructor after accept_thread_ is joined.
  struct Reader {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Reader> readers_;
  std::thread accept_thread_;
};

}  // namespace

ElectionMesh::ElectionMesh() : impl_(std::make_shared<ElectionMeshState>()) {}

std::unique_ptr<ElectionBus> ElectionMesh::Endpoint(const std::string& id) {
  auto inbox = std::make_shared<Inbox>();
  {
    MutexLock lock(&impl_->mutex);
    impl_->inboxes[id] = inbox;  // a restart replaces the closed inbox
  }
  return std::make_unique<InProcessBusEndpoint>(impl_, id, std::move(inbox));
}

Result<std::unique_ptr<ElectionBus>> CreateSocketElectionBus(
    const std::string& listen_path,
    std::map<std::string, std::string> peer_paths) {
  SELTRIG_ASSIGN_OR_RETURN(std::unique_ptr<LocalSocketServer> server,
                           LocalSocketServer::Listen(listen_path));
  return std::unique_ptr<ElectionBus>(
      new SocketElectionBus(std::move(server), std::move(peer_paths)));
}

const char* ElectionRoleName(ElectionRole role) {
  switch (role) {
    case ElectionRole::kFollower:
      return "follower";
    case ElectionRole::kCandidate:
      return "candidate";
    case ElectionRole::kLeader:
      return "leader";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ElectionNode

ElectionNode::ElectionNode(ElectionOptions options,
                           std::unique_ptr<ElectionBus> bus,
                           ReplicationConnect replication_connect)
    : options_(std::move(options)),
      cluster_size_(options_.peers.size() + 1),
      quorum_(cluster_size_ / 2 + 1),
      bus_(std::move(bus)),
      replication_connect_(std::move(replication_connect)),
      // The same deterministic jitter idiom as the shipper: seed mixed with
      // the node identity, so every node draws a distinct, replayable
      // timeout sequence for a fixed --seed.
      rng_(options_.seed * 0x9E3779B97F4A7C15ull + 1 +
           std::hash<std::string>{}(options_.id)),
      election_timeout_ms_(options_.election_timeout_min_ms) {}

Result<std::unique_ptr<ElectionNode>> ElectionNode::Start(
    ElectionOptions options, std::unique_ptr<ElectionBus> bus,
    ReplicationConnect replication_connect) {
  std::unique_ptr<ElectionNode> node(new ElectionNode(
      std::move(options), std::move(bus), std::move(replication_connect)));

  SELTRIG_ASSIGN_OR_RETURN(std::unique_ptr<ReplicaApplier> applier,
                           ReplicaApplier::Open(node->options_.dir,
                                                node->options_.applier));
  {
    MutexLock lock(&node->mutex_);
    node->applier_ = std::move(applier);
    node->term_ = node->applier_->applied().epoch;
    // Crash-revote safety: a vote granted before the crash binds this node
    // after it, both as "never vote twice in that epoch" and as the record
    // fence it promised the candidate.
    Result<VoteRecord> vote =
        ReadPersistedVote(node->options_.dir + "/wal");
    if (vote.ok()) {
      node->has_vote_ = true;
      node->vote_ = *vote;
      node->term_ = std::max(node->term_, node->vote_.epoch);
      node->applier_->RaiseEpochFloor(node->vote_.epoch);
    }
    // Startup grace: give an existing leader one full timeout to be heard
    // before anyone campaigns.
    node->last_heartbeat_ms_ = NowMs();
  }
  node->election_timeout_ms_ = node->RandomElectionTimeout();

  if (!node->options_.replication_listen_path.empty()) {
    SELTRIG_ASSIGN_OR_RETURN(
        node->replication_server_,
        LocalSocketServer::Listen(node->options_.replication_listen_path));
    node->replication_thread_ =
        std::thread(&ElectionNode::RunReplicationServer, node.get());
  }
  node->thread_ = std::thread(&ElectionNode::RunStateMachine, node.get());
  return node;
}

ElectionNode::~ElectionNode() { Stop(); }

void ElectionNode::Stop() {
  {
    MutexLock lock(&mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  bus_->Close();
  if (replication_server_ != nullptr) replication_server_->Close();
  if (thread_.joinable()) thread_.join();
  if (replication_thread_.joinable()) replication_thread_.join();

  std::unique_ptr<LogShipper> shipper;
  std::shared_ptr<ReplicaApplier> applier;
  std::shared_ptr<Database> db;
  {
    MutexLock lock(&mutex_);
    shipper = std::move(shipper_);
    applier = std::move(applier_);
    db = std::move(leader_db_);
  }
  if (shipper != nullptr) shipper->Stop();
  if (applier != nullptr) applier->Stop();
}

ElectionInfo ElectionNode::info() const {
  MutexLock lock(&mutex_);
  ElectionInfo info = counters_;
  info.role = role_;
  info.term = term_;
  info.leader_id = leader_id_;
  info.position = LocalPositionLocked();
  info.epoch = info.position.epoch;
  info.ms_since_heartbeat =
      last_heartbeat_ms_ < 0 ? -1 : NowMs() - last_heartbeat_ms_;
  return info;
}

std::shared_ptr<Database> ElectionNode::leader_database() const {
  MutexLock lock(&mutex_);
  return role_ == ElectionRole::kLeader ? leader_db_ : nullptr;
}

std::shared_ptr<Database> ElectionNode::follower_database() const {
  MutexLock lock(&mutex_);
  return applier_ != nullptr ? applier_->database() : nullptr;
}

std::vector<FollowerStatus> ElectionNode::FollowerStatuses() const {
  MutexLock lock(&mutex_);
  if (shipper_ == nullptr) return {};
  return shipper_->Followers();
}

Result<std::shared_ptr<FrameChannel>> ElectionNode::AcceptReplication() {
  MutexLock lock(&mutex_);
  if (stopping_ || promoting_ || role_ == ElectionRole::kLeader ||
      applier_ == nullptr) {
    return Status::Unavailable("node " + options_.id +
                               " is not accepting replication");
  }
  ChannelPair pair = CreateInProcessChannelPair();
  applier_->Stop();
  applier_->Start(pair.follower_end);
  return pair.primary_end;
}

bool ElectionNode::WaitForRole(ElectionRole role, int64_t timeout_ms) const {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (info().role == role) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

WalPosition ElectionNode::LocalPositionLocked() const {
  if (role_ == ElectionRole::kLeader && leader_db_ != nullptr) {
    return leader_db_->wal()->current_position();
  }
  if (applier_ != nullptr) return applier_->applied();
  return WalPosition{};
}

uint64_t ElectionNode::NextRandom() {
  rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
  return rng_ >> 33;
}

int64_t ElectionNode::RandomElectionTimeout() {
  const int64_t span = std::max<int64_t>(
      1, options_.election_timeout_max_ms - options_.election_timeout_min_ms);
  return options_.election_timeout_min_ms +
         static_cast<int64_t>(NextRandom() % static_cast<uint64_t>(span));
}

void ElectionNode::SendElectionFrame(const std::string& peer,
                                     const Frame& frame,
                                     bool is_vote_traffic) {
  if (is_vote_traffic && !fault::Maybe(fault_points::kElectionVoteDrop).ok()) {
    return;  // the frame is lost; the campaign retries on its timeout
  }
  (void)bus_->Send(peer, frame);
}

void ElectionNode::BroadcastToPeers(const Frame& frame, bool is_vote_traffic) {
  // Vote-request spread: stagger the per-peer sends by a small seeded delay
  // so simultaneous campaigns across nodes do not stay phase-locked (the
  // same role randomized timeouts play between campaigns, within one).
  const int64_t spread_ms =
      is_vote_traffic ? static_cast<int64_t>(NextRandom() % 4) : 0;
  bool first = true;
  for (const std::string& peer : options_.peers) {
    if (!first && spread_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(spread_ms));
    }
    first = false;
    SendElectionFrame(peer, frame, is_vote_traffic);
  }
}

void ElectionNode::RunStateMachine() {
  for (;;) {
    {
      MutexLock lock(&mutex_);
      if (stopping_) return;
    }

    // Drain inbound election traffic; block at most one poll interval.
    Result<Frame> frame = bus_->Receive(options_.poll_interval_ms);
    if (frame.ok()) {
      HandleFrame(*frame);
      for (int drained = 0; drained < 64; ++drained) {
        Result<Frame> more = bus_->Receive(0);
        if (!more.ok()) break;
        HandleFrame(*more);
      }
    } else if (frame.status().code() == ErrorCode::kUnavailable) {
      continue;  // bus closed; the stopping_ check above exits
    }

    const int64_t now = NowMs();
    ElectionRole role;
    bool liveness_expired = false;
    bool campaign_expired = false;
    bool fenced_out = false;
    bool heartbeat_due = false;
    {
      MutexLock lock(&mutex_);
      role = role_;
      switch (role_) {
        case ElectionRole::kFollower:
          liveness_expired =
              now - last_heartbeat_ms_ > election_timeout_ms_;
          break;
        case ElectionRole::kCandidate:
          campaign_expired = now > campaign_deadline_ms_;
          break;
        case ElectionRole::kLeader:
          heartbeat_due = now - last_heartbeat_ms_ >=
                          options_.heartbeat_interval_ms;
          break;
      }
    }

    switch (role) {
      case ElectionRole::kFollower: {
        // The liveness check is the `election.timeout` fault point: firing
        // forces an immediate campaign regardless of the timer — the
        // injected form of "this follower believes the leader is gone".
        if (!fault::Maybe(fault_points::kElectionTimeout).ok()) liveness_expired = true;
        if (liveness_expired) StartCampaign();
        break;
      }
      case ElectionRole::kCandidate:
        if (campaign_expired) AbandonCampaign();
        break;
      case ElectionRole::kLeader: {
        Frame heartbeat;
        {
          MutexLock lock(&mutex_);
          if (role_ != ElectionRole::kLeader || leader_db_ == nullptr) break;
          if (heartbeat_due) last_heartbeat_ms_ = now;
          // A follower NAKed our records with a newer fence epoch: a new
          // leader exists and this one just has not heard it on the bus yet.
          if (shipper_ != nullptr) {
            for (const FollowerStatus& status : shipper_->Followers()) {
              if (status.fenced_out) fenced_out = true;
            }
          }
          if (heartbeat_due && !fenced_out) {
            const WalPosition tip = leader_db_->wal()->current_position();
            heartbeat.type = FrameType::kHeartbeat;
            heartbeat.epoch = tip.epoch;
            heartbeat.seq = tip.seq;
            heartbeat.offset = tip.offset;
            heartbeat.name = options_.id;
          }
        }
        if (fenced_out) {
          StepDown(0);
        } else if (heartbeat_due) {
          BroadcastToPeers(heartbeat, /*is_vote_traffic=*/false);
        }
        break;
      }
    }
  }
}

void ElectionNode::HandleFrame(const Frame& frame) {
  // seltrig-lint: dispatch(FrameType)
  switch (frame.type) {
    case FrameType::kHeartbeat:
      HandleHeartbeat(frame);
      break;
    case FrameType::kPreVote:
      HandlePreVote(frame);
      break;
    case FrameType::kVoteRequest:
      HandleVoteRequest(frame);
      break;
    case FrameType::kVoteGrant:
      HandleVoteGrant(frame);
      break;
    case FrameType::kHello:
    case FrameType::kRecord:
    case FrameType::kAck:
    case FrameType::kNak:
    case FrameType::kSnapshotStart:
    case FrameType::kSnapshotFile:
    case FrameType::kSnapshotDone:
    case FrameType::kSegmentSeal:
      break;  // replication frames do not travel on the election bus
  }
}

void ElectionNode::HandleHeartbeat(const Frame& frame) {
  uint64_t depose_epoch = 0;
  {
    MutexLock lock(&mutex_);
    if (role_ == ElectionRole::kLeader) {
      const uint64_t my_epoch =
          leader_db_ != nullptr ? leader_db_->wal()->current_position().epoch
                                : 0;
      if (frame.epoch > my_epoch) depose_epoch = frame.epoch;
    } else if (frame.epoch >= term_) {
      // A current leader (a deposed one heartbeats below our term and is
      // ignored — its liveness must not suppress elections).
      term_ = std::max(term_, frame.epoch);
      leader_id_ = frame.name;
      last_heartbeat_ms_ = NowMs();
      if (role_ == ElectionRole::kCandidate) role_ = ElectionRole::kFollower;
    }
  }
  if (depose_epoch != 0) StepDown(depose_epoch);
}

void ElectionNode::HandlePreVote(const Frame& frame) {
  const WalPosition candidate_position{frame.prev_seq, frame.seq,
                                       frame.offset};
  Frame grant;
  bool send_grant = false;
  {
    MutexLock lock(&mutex_);
    if (role_ == ElectionRole::kLeader) return;  // I am provably alive
    if (frame.epoch <= term_) return;  // campaigning for a spent epoch
    // Pre-vote leader stickiness: only a node that ALSO believes the leader
    // is gone pre-grants, so one flaky link cannot start real elections.
    const bool timed_out =
        NowMs() - last_heartbeat_ms_ > election_timeout_ms_;
    if (!timed_out) return;
    if (candidate_position < LocalPositionLocked()) {
      ++counters_.stale_candidates_rejected;
      return;
    }
    ++counters_.pre_votes_granted;
    grant.type = FrameType::kVoteGrant;
    grant.epoch = frame.epoch;
    grant.name = options_.id;
    grant.payload = "pre";
    send_grant = true;
  }
  if (send_grant) {
    SendElectionFrame(frame.name, grant, /*is_vote_traffic=*/true);
  }
}

void ElectionNode::HandleVoteRequest(const Frame& frame) {
  const WalPosition candidate_position{frame.prev_seq, frame.seq,
                                       frame.offset};
  uint64_t depose_epoch = 0;
  Frame grant;
  bool send_grant = false;
  {
    MutexLock lock(&mutex_);
    if (role_ == ElectionRole::kLeader) {
      // A real election at a newer epoch means a quorum already pre-voted
      // that this leader is gone; stop leading and let it finish. (No grant
      // from this frame: the node votes only once it is a follower again.)
      const uint64_t my_epoch =
          leader_db_ != nullptr ? leader_db_->wal()->current_position().epoch
                                : 0;
      if (frame.epoch > my_epoch) depose_epoch = frame.epoch;
    } else {
      do {
        if (frame.epoch <= term_ &&
            !(has_vote_ && vote_.epoch == frame.epoch &&
              vote_.candidate == frame.name)) {
          break;  // spent epoch (re-grants for our own recorded vote are ok)
        }
        const WalPosition mine = LocalPositionLocked();
        if (frame.epoch <= mine.epoch) break;  // cannot unseat applied epoch
        if (has_vote_ && vote_.epoch >= frame.epoch &&
            !(vote_.epoch == frame.epoch && vote_.candidate == frame.name)) {
          break;  // already promised this (or a newer) epoch to someone else
        }
        if (candidate_position < mine) {
          // The up-to-dateness gate: granting here could elect a leader
          // missing sync-acked records.
          ++counters_.stale_candidates_rejected;
          break;
        }
        // Durability before the grant leaves this machine: a crash between
        // the two must lose the grant, never the vote.
        if (!PersistVote(options_.dir + "/wal",
                         VoteRecord{frame.epoch, frame.name})
                 .ok()) {
          break;
        }
        has_vote_ = true;
        vote_ = VoteRecord{frame.epoch, frame.name};
        term_ = std::max(term_, frame.epoch);
        // The vote is also a fence promise: no pre-election leader may
        // extend our journal past this point (see RaiseEpochFloor).
        if (applier_ != nullptr) applier_->RaiseEpochFloor(frame.epoch);
        // Granting resets the election timer (we just endorsed a leader
        // hopeful; give it time to win before campaigning ourselves).
        last_heartbeat_ms_ = NowMs();
        if (role_ == ElectionRole::kCandidate) role_ = ElectionRole::kFollower;
        ++counters_.votes_granted;
        grant.type = FrameType::kVoteGrant;
        grant.epoch = frame.epoch;
        grant.name = options_.id;
        grant.payload = "real";
        send_grant = true;
      } while (false);
    }
  }
  if (depose_epoch != 0) StepDown(depose_epoch);
  if (send_grant) {
    SendElectionFrame(frame.name, grant, /*is_vote_traffic=*/true);
  }
}

void ElectionNode::HandleVoteGrant(const Frame& frame) {
  bool quorum_prevote = false;
  bool quorum_real = false;
  {
    MutexLock lock(&mutex_);
    if (role_ != ElectionRole::kCandidate) return;
    if (frame.epoch != campaign_epoch_) return;  // a stale campaign's grant
    const bool pre = frame.payload == "pre";
    if (pre != prevote_phase_) return;
    if (std::find(grants_.begin(), grants_.end(), frame.name) !=
        grants_.end()) {
      return;  // duplicate (resent or injected-duplicate) grant
    }
    grants_.push_back(frame.name);
    if (grants_.size() >= quorum_) {
      if (prevote_phase_) {
        quorum_prevote = true;
      } else {
        quorum_real = true;
      }
    }
  }
  if (quorum_prevote) EnterRealElection();
  if (quorum_real) WinElection();
}

void ElectionNode::StartCampaign() {
  Frame prevote;
  {
    MutexLock lock(&mutex_);
    if (role_ != ElectionRole::kFollower || stopping_) return;
    role_ = ElectionRole::kCandidate;
    prevote_phase_ = true;
    campaign_epoch_ = term_ + 1;
    campaign_position_ = LocalPositionLocked();
    // `election.stale_candidate`: campaign while claiming an empty journal —
    // a healthy cluster must reject this candidate at the up-to-dateness
    // gate, or the fault-matrix run fails its acked-prefix assertion.
    if (!fault::Maybe(fault_points::kElectionStaleCandidate).ok()) {
      campaign_position_ = WalPosition{};
    }
    grants_.assign(1, options_.id);  // self pre-grant
    campaign_deadline_ms_ = NowMs() + RandomElectionTimeout();
    ++counters_.elections_started;
    prevote.type = FrameType::kPreVote;
    prevote.epoch = campaign_epoch_;
    prevote.seq = campaign_position_.seq;
    prevote.offset = campaign_position_.offset;
    prevote.prev_seq = campaign_position_.epoch;
    prevote.name = options_.id;
  }
  BroadcastToPeers(prevote, /*is_vote_traffic=*/true);
  // Single-node cluster: the self pre-grant already is a quorum.
  bool quorum;
  {
    MutexLock lock(&mutex_);
    quorum = role_ == ElectionRole::kCandidate && prevote_phase_ &&
             grants_.size() >= quorum_;
  }
  if (quorum) EnterRealElection();
}

void ElectionNode::EnterRealElection() {
  Frame request;
  {
    MutexLock lock(&mutex_);
    if (role_ != ElectionRole::kCandidate || !prevote_phase_) return;
    // The single-vote rule binds candidates too: if this node already
    // granted campaign_epoch_ (or newer) to another candidate, it cannot
    // also vote for itself there.
    if (has_vote_ && vote_.epoch >= campaign_epoch_ &&
        !(vote_.epoch == campaign_epoch_ && vote_.candidate == options_.id)) {
      role_ = ElectionRole::kFollower;
      last_heartbeat_ms_ = NowMs();
      return;
    }
    if (!PersistVote(options_.dir + "/wal",
                     VoteRecord{campaign_epoch_, options_.id})
             .ok()) {
      role_ = ElectionRole::kFollower;
      last_heartbeat_ms_ = NowMs();
      return;
    }
    has_vote_ = true;
    vote_ = VoteRecord{campaign_epoch_, options_.id};
    term_ = std::max(term_, campaign_epoch_);
    if (applier_ != nullptr) applier_->RaiseEpochFloor(campaign_epoch_);
    prevote_phase_ = false;
    grants_.assign(1, options_.id);  // self vote
    request.type = FrameType::kVoteRequest;
    request.epoch = campaign_epoch_;
    request.seq = campaign_position_.seq;
    request.offset = campaign_position_.offset;
    request.prev_seq = campaign_position_.epoch;
    request.name = options_.id;
  }
  BroadcastToPeers(request, /*is_vote_traffic=*/true);
  bool quorum;
  {
    MutexLock lock(&mutex_);
    quorum = role_ == ElectionRole::kCandidate && !prevote_phase_ &&
             grants_.size() >= quorum_;
  }
  if (quorum) WinElection();
}

void ElectionNode::WinElection() {
  std::shared_ptr<ReplicaApplier> applier;
  uint64_t epoch = 0;
  {
    MutexLock lock(&mutex_);
    if (role_ != ElectionRole::kCandidate || prevote_phase_) return;
    if (applier_ == nullptr) return;
    applier = applier_;
    epoch = campaign_epoch_;
    // Promote runs with mutex_ released while role_ is still kCandidate;
    // without this flag a stale shipper connection arriving in that window
    // would Stop()/Start() the applier and race its receive loop against
    // the promotion.
    promoting_ = true;
  }
  // Zero operator involvement: the quorum IS the promotion authority.
  Result<std::shared_ptr<Database>> promoted = applier->Promote(epoch);
  {
    MutexLock lock(&mutex_);
    promoting_ = false;
    if (!promoted.ok()) {
      // Promotion failed (e.g. the journal directory went bad); stand down
      // and let another node win. The applier survives a failed Promote and
      // can resume receiving.
      counters_.health = promoted.status();
      role_ = ElectionRole::kFollower;
      last_heartbeat_ms_ = NowMs();
      return;
    }
    leader_db_ = *promoted;
    applier_.reset();
    role_ = ElectionRole::kLeader;
    leader_id_ = options_.id;
    term_ = std::max(term_, epoch);
    // First heartbeat is immediately due, without making the reported
    // heartbeat age (info().ms_since_heartbeat, the `.replica` view) a
    // bogus NowMs()-since-epoch value until it broadcasts.
    last_heartbeat_ms_ = NowMs() - options_.heartbeat_interval_ms;
    ShipperOptions shipper_options = options_.shipper;
    shipper_options.jitter_seed =
        options_.seed * 0x9E3779B97F4A7C15ull + epoch;
    shipper_ =
        std::make_unique<LogShipper>(leader_db_.get(), shipper_options);
    for (const std::string& peer : options_.peers) {
      ReplicationConnect connect = replication_connect_;
      shipper_->AddFollower(
          peer, [connect, peer]() { return connect(peer); });
    }
  }
}

void ElectionNode::AbandonCampaign() {
  MutexLock lock(&mutex_);
  if (role_ != ElectionRole::kCandidate) return;
  // Back to follower with a fresh randomized timeout — the randomness that
  // breaks repeated split votes. term_ keeps any bump from the real phase,
  // so the next campaign escalates past the epoch that just split.
  role_ = ElectionRole::kFollower;
  last_heartbeat_ms_ = NowMs();
  election_timeout_ms_ = RandomElectionTimeout();
}

void ElectionNode::StepDown(uint64_t observed_epoch) {
  std::unique_ptr<LogShipper> shipper;
  std::shared_ptr<Database> db;
  {
    MutexLock lock(&mutex_);
    if (role_ != ElectionRole::kLeader) return;
    ++counters_.steps_down;
    shipper = std::move(shipper_);
    db = std::move(leader_db_);
    role_ = ElectionRole::kFollower;
    leader_id_.clear();
    term_ = std::max(term_, observed_epoch);
    last_heartbeat_ms_ = NowMs();
    election_timeout_ms_ = RandomElectionTimeout();
  }
  // The shipper references the database; destroy it first.
  if (shipper != nullptr) shipper->Stop();
  shipper.reset();
  // Wait for drivers to release leader_database() holds: the Database
  // destructor closes the journal writer, and the directory must be fully
  // quiescent before it reopens as a follower. This is why the API contract
  // says to hold the pointer only across single statements.
  std::weak_ptr<Database> weak = db;
  db.reset();
  while (!weak.expired()) {
    {
      MutexLock lock(&mutex_);
      if (stopping_) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<std::unique_ptr<ReplicaApplier>> reopened =
      ReplicaApplier::Open(options_.dir, options_.applier);
  MutexLock lock(&mutex_);
  if (!reopened.ok()) {
    counters_.health = reopened.status();
    return;
  }
  applier_ = std::move(*reopened);
  // Re-arm the fence for any vote this node granted while (or before)
  // leading; the journal epoch alone may be older than the promise.
  if (has_vote_) applier_->RaiseEpochFloor(vote_.epoch);
}

void ElectionNode::RunReplicationServer() {
  for (;;) {
    {
      MutexLock lock(&mutex_);
      if (stopping_) return;
    }
    Result<std::shared_ptr<FrameChannel>> accepted =
        replication_server_->Accept(100);
    if (!accepted.ok()) {
      if (accepted.status().code() == ErrorCode::kDeadlineExceeded) continue;
      return;  // server closed
    }
    MutexLock lock(&mutex_);
    if (stopping_ || promoting_ || role_ == ElectionRole::kLeader ||
        applier_ == nullptr) {
      (*accepted)->Close();  // not a follower right now; the leader retries
      continue;
    }
    applier_->Stop();
    applier_->Start(*accepted);
  }
}

}  // namespace seltrig
