// LogShipper: the primary side of replication (docs/REPLICATION.md).
//
// One shipping thread per follower tail-follows the primary's journal with
// WalTailReader and streams raw records over the follower's FrameChannel.
// The robustness envelope lives here:
//
//   - reconnect with exponential backoff + deterministic jitter when the
//     follower is unreachable (the primary keeps committing throughout);
//   - a bounded in-flight window (records sent but not yet acked) as
//     backpressure, so a slow follower never makes the shipper read
//     unboundedly ahead;
//   - a woken idle wait: the shipping loop sleeps until the next heartbeat
//     is due, and a commit wakes it (WaitReplicated, after local durability)
//     so the record ships at once instead of at the next poll;
//   - heartbeats while idle and an ack-staleness timeout: a follower that
//     stops acking is marked DEGRADED — excluded from synchronous ack waits
//     — and automatically rejoins once its acks catch back up to the
//     primary's position;
//   - snapshot catch-up: when the tail reader hits a checkpoint-truncated
//     segment (kNotFound), the shipper streams the primary's snapshot
//     directory and resumes tailing from the snapshot's journal cut.
//
// Ack modes: kAsync never blocks commits. kSync makes the primary's
// statement acknowledgement wait (via Database::ReplicationWaiter, installed
// by this class) until every non-degraded follower acked the statement's
// journal position — the acked-prefix guarantee: a client that saw a sync
// statement acknowledged knows every healthy follower holds it durably, so
// promoting any healthy follower preserves every acknowledged statement,
// audit rows included. Degradation trades that guarantee for availability,
// per follower, and is visible in Followers().

#ifndef SELTRIG_REPLICATION_SHIPPER_H_
#define SELTRIG_REPLICATION_SHIPPER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/database.h"
#include "replication/transport.h"
#include "storage/wal.h"

namespace seltrig {

enum class ReplicationAckMode : uint8_t { kAsync, kSync };

struct ShipperOptions {
  ReplicationAckMode ack_mode = ReplicationAckMode::kAsync;
  // Idle-liveness probe interval.
  int64_t heartbeat_interval_ms = 50;
  // A follower whose last ack is older than this is degraded; this also
  // bounds how long a kSync statement waits before degrading the laggard and
  // acknowledging anyway (availability over the sync guarantee).
  int64_t ack_timeout_ms = 1000;
  // Backpressure: records sent but unacked before the shipper stops reading
  // ahead.
  uint64_t max_in_flight_records = 64;
  // Reconnect backoff: initial, doubling to max, with deterministic jitter
  // derived from `jitter_seed` and the follower index.
  int64_t initial_backoff_ms = 5;
  int64_t max_backoff_ms = 500;
  uint64_t jitter_seed = 1;
};

struct FollowerStatus {
  std::string name;
  bool connected = false;
  // Excluded from kSync ack waits until its acks catch up (unreachable,
  // torn channel, or ack staleness past ack_timeout_ms).
  bool degraded = false;
  WalPosition acked;
  // Milliseconds since this follower last acked (or implicitly acked via a
  // HELLO/NAK position); -1 before the first one. The `.replica` lag view.
  int64_t ms_since_last_ack = -1;
  uint64_t records_sent = 0;
  uint64_t records_acked = 0;
  uint64_t naks_received = 0;
  uint64_t snapshots_sent = 0;
  // Forced snapshot resyncs after a positional fork was detected: the
  // follower resumed from a journal position this primary never wrote (an
  // un-acked suffix from a deposed reign). Always 0 in healthy clusters.
  uint64_t forced_resyncs = 0;
  uint64_t reconnects = 0;
  // Non-empty when the shipper hit an unrecoverable condition for this
  // follower (e.g. local journal corruption under the tail reader).
  std::string last_error;
  // True once this follower NAKed a record under a NEWER epoch (the shipper
  // parked with kFencedOut): a failover deposed this primary. Structured so
  // the election layer's step-down check never parses last_error text.
  bool fenced_out = false;
};

class LogShipper : public ReplicationWaiter {
 public:
  // Returns a fresh channel to the follower; called on every (re)connect.
  using ChannelFactory = std::function<Result<std::shared_ptr<FrameChannel>>()>;

  // `db` must have its WAL enabled and outlive the shipper. Installs itself
  // as the database's replication waiter.
  LogShipper(Database* db, ShipperOptions options);
  ~LogShipper() override;

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  // Starts a shipping thread for one follower. Call any time; shipping
  // begins once `connect` yields a channel and the follower says HELLO.
  void AddFollower(std::string name, ChannelFactory connect);

  // Stops every shipping thread and uninstalls the replication waiter.
  // Idempotent; the destructor calls it.
  void Stop();

  // ReplicationWaiter: called by sessions after local durability. Wakes the
  // shipping loop of every connected follower that has not acked `pos`.
  // kAsync: then returns. kSync: blocks until every non-degraded follower
  // acked `pos`, degrading followers that keep it waiting past
  // ack_timeout_ms.
  Status WaitReplicated(const WalPosition& pos) override;

  std::vector<FollowerStatus> Followers() const SELTRIG_EXCLUDES(mutex_);

  // True when every follower (degraded or not) has acked the primary's
  // current end-of-journal position. Test/ops convenience. Like a commit, a
  // caller polling this for catch-up wakes the shipping loop of every
  // follower below the tip, so records no commit woke it for (appended with
  // no replication waiter installed, or by a checkpoint) ship at once.
  bool AllCaughtUp() const SELTRIG_EXCLUDES(mutex_);

 private:
  struct Follower {
    std::string name;
    ChannelFactory connect;
    std::thread thread;
    FollowerStatus status;  // guarded by LogShipper::mutex_
    // Positions of sent-but-unacked records (end offsets), oldest first.
    std::vector<WalPosition> in_flight;  // guarded by LogShipper::mutex_
    // Monotonic ms timestamp of the last (implicit) ack; -1 before any.
    int64_t last_ack_at_ms = -1;  // guarded by LogShipper::mutex_
    // The live channel while ServeConnection runs (Run's shared_ptr owns
    // it), so commits and Stop() can Wake its idle wait.
    FrameChannel* channel = nullptr;  // guarded by LogShipper::mutex_
  };

  // The per-follower thread body: reconnect loop around ServeConnection.
  void Run(Follower* follower);
  // Ships over one live channel until it dies or Stop(). Returns why.
  Status ServeConnection(Follower* follower, FrameChannel* channel);
  // Drains pending inbound frames (acks, naks, hellos) without blocking
  // longer than `timeout_ms`. Updates cursor/in-flight via *reader; sets
  // *reseeked when a follower-named position moved the cursor, so the ship
  // loop re-validates it against the local journal before trusting it.
  Status DrainInbound(Follower* follower, FrameChannel* channel,
                      WalTailReader* reader, bool* have_cursor,
                      bool* reseeked, int64_t timeout_ms);
  // Streams the snapshot directory and reseeks *reader to its journal cut.
  Status SendSnapshot(Follower* follower, FrameChannel* channel,
                      WalTailReader* reader);
  // Fork resolution: the follower's journal position does not exist in this
  // primary's journal (it extends a deposed leader's un-acked suffix).
  // Overwrite the follower wholesale with a snapshot catch-up — checkpointing
  // first if no snapshot exists yet — so it rejoins on the canonical history
  // and the forked suffix is never acked.
  Status ForceResync(Follower* follower, FrameChannel* channel,
                     WalTailReader* reader);

  // Publishes the live channel (nullptr once it died) and the connected bit.
  void SetChannel(Follower* follower, FrameChannel* channel) SELTRIG_EXCLUDES(mutex_);
  // Ends the idle wait of every live shipping loop whose follower has not
  // acked `pos`. True when every follower (degraded or not) has acked it.
  bool WakeFollowersBelow(const WalPosition& pos) const SELTRIG_REQUIRES(mutex_);
  void NoteError(Follower* follower, const Status& error) SELTRIG_EXCLUDES(mutex_);

  Database* const db_;
  const ShipperOptions options_;

  mutable Mutex mutex_;
  std::condition_variable_any ack_cv_;  // waits hold mutex_
  std::vector<std::unique_ptr<Follower>> followers_ SELTRIG_GUARDED_BY(mutex_);
  bool stopping_ SELTRIG_GUARDED_BY(mutex_) = false;
};

}  // namespace seltrig

#endif  // SELTRIG_REPLICATION_SHIPPER_H_
