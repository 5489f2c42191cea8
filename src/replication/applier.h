// ReplicaApplier: the follower side of replication (docs/REPLICATION.md).
//
// The applier owns a follower Database recovered from its local durable
// directory WITHOUT a journal writer attached: the applier itself persists
// every received record — verbatim, into local segments whose names, headers
// and byte offsets match the primary's — and drives the recovery replay path
// (ApplyWalCommit) incrementally, so the follower's in-memory state is at
// all times the replay of a verified prefix of the primary's journal.
//
// Acceptance discipline per kRecord frame:
//   - epoch below the follower's current epoch → REJECTED (a deposed
//     primary writing under a pre-failover epoch) with a NAK;
//   - position below the local tail → duplicate → dropped, re-acked;
//   - position above the local tail → gap (dropped/reordered frames) →
//     NAK at the local tail, which reseeks the shipper;
//   - position at the local tail → checksum-verified, appended to the local
//     segment, fsynced (in fsync-before-ack mode), applied, acked.
// A record is therefore acked only once it is durable and applied locally —
// the follower's ack stream IS its verified prefix.
//
// Failover: Promote() stops replication and re-arms the journal under
// epoch + 1; the database keeps serving, now as a primary. For promoting a
// crashed follower's directory without a live applier, use
// Database::Promote.

#ifndef SELTRIG_REPLICATION_APPLIER_H_
#define SELTRIG_REPLICATION_APPLIER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/file_util.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/database.h"
#include "replication/transport.h"
#include "storage/wal.h"

namespace seltrig {

struct ApplierOptions {
  // Poll granularity of the receive loop (bounds Stop() latency).
  int64_t receive_timeout_ms = 50;
  // fsync each received record before acking it: the primary's sync-ack
  // guarantee then covers follower durability, not just follower memory.
  // false trades that for throughput (the record is still applied before
  // the ack).
  bool fsync_before_ack = true;
};

class ReplicaApplier {
 public:
  // Recovers the follower database from `dir` (snapshot + local segments;
  // torn tails truncated) without arming a journal writer.
  static Result<std::unique_ptr<ReplicaApplier>> Open(
      const std::string& dir, ApplierOptions options = ApplierOptions());

  ~ReplicaApplier();

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  // Starts the apply thread over `channel`: says HELLO at the local tail and
  // processes frames until the channel dies or Stop(). One connection at a
  // time; reconnecting means Stop() + Start(new channel). After Promote()
  // the applier is finished: Start closes the channel and refuses.
  void Start(std::shared_ptr<FrameChannel> channel);

  // Stops the apply thread (idempotent; the destructor calls it).
  void Stop();

  // The follower database. Sessions may read it concurrently with apply
  // (apply takes the writer lock per commit). The pointer changes only when
  // a snapshot install replaces the database — hold the shared_ptr, not a
  // raw pointer, across snapshot catch-ups.
  std::shared_ptr<Database> database() const SELTRIG_EXCLUDES(mutex_);

  // The local verified prefix: everything at or below this position is
  // durable in the local segments AND applied to the database.
  WalPosition applied() const SELTRIG_EXCLUDES(mutex_);

  struct Stats {
    uint64_t records_applied = 0;
    uint64_t duplicates_dropped = 0;
    uint64_t gaps_nakked = 0;
    uint64_t epoch_rejected = 0;
    uint64_t snapshots_installed = 0;
    uint64_t acks_sent = 0;
  };
  Stats stats() const SELTRIG_EXCLUDES(mutex_);

  // Non-OK once the applier hit an unrecoverable condition (local apply
  // divergence); the thread has stopped.
  Status health() const SELTRIG_EXCLUDES(mutex_);

  // Live failover promotion: stops replication and re-arms the journal on
  // the follower database under `epoch` (0 = the applied epoch + 1; an
  // election passes its won epoch, which may be further ahead after failed
  // campaigns bumped the term). Returns the database, now a primary —
  // acknowledged sync-mode statements of the old primary are all present
  // (the acked-prefix guarantee). The applier is finished afterward.
  Result<std::shared_ptr<Database>> Promote(uint64_t epoch = 0);

  // Raises the epoch below which records are rejected. Called by the
  // election layer when this node durably grants a vote for `epoch`: the
  // grant is a promise to never again accept records from a leader older
  // than the candidate, exactly as Raft's currentTerm bump on vote. Without
  // it, a deposed primary could keep extending this follower's journal
  // between the vote and the new leader's first frame, forking it away from
  // the election winner. Only raises; stale calls are ignored.
  void RaiseEpochFloor(uint64_t epoch);

 private:
  ReplicaApplier(std::string dir, ApplierOptions options);

  void Run(std::shared_ptr<FrameChannel> channel);
  Status HandleRecord(FrameChannel* channel, const Frame& frame);
  // Crosses the local tail onto a sealed segment boundary (kSegmentSeal):
  // materializes the named record-free segment with the primary's header.
  Status HandleSegmentSeal(FrameChannel* channel, const Frame& frame);
  Status HandleSnapshotFile(const Frame& frame);
  Status InstallSnapshot(uint64_t cut_seq, uint64_t cut_epoch,
                         FrameChannel* channel);
  Status SendAck(FrameChannel* channel) SELTRIG_EXCLUDES(mutex_);
  // `fence_epoch` != 0 stamps the NAK with that epoch instead of the applied
  // epoch (stale-epoch rejections name the fence so a deposed shipper parks).
  Status SendNak(FrameChannel* channel, const std::string& reason,
                 uint64_t fence_epoch = 0) SELTRIG_EXCLUDES(mutex_);
  // Opens/creates the local segment file for (seq, epoch), writing the
  // header when the file is new.
  Status OpenSegment(uint64_t seq, uint64_t epoch);
  // fsyncs the local segment (the follower's wal.fsync point).
  Status SyncSegment();

  const std::string dir_;
  const ApplierOptions options_;

  mutable Mutex mutex_;
  std::shared_ptr<Database> db_ SELTRIG_GUARDED_BY(mutex_);
  // Local tail = verified prefix (epoch_/seq_/offset_ mirror it unlocked on
  // the apply thread; the guarded copy serves readers).
  WalPosition applied_ SELTRIG_GUARDED_BY(mutex_);
  Stats stats_ SELTRIG_GUARDED_BY(mutex_);
  Status health_ SELTRIG_GUARDED_BY(mutex_) = Status::OK();
  bool stopping_ SELTRIG_GUARDED_BY(mutex_) = false;
  bool promoted_ SELTRIG_GUARDED_BY(mutex_) = false;

  // Vote fencing floor (RaiseEpochFloor); read by the apply thread, raised
  // by the election thread.
  std::atomic<uint64_t> epoch_floor_{0};

  // Apply-thread state (single-threaded; no lock needed).
  uint64_t epoch_ = 0;
  uint64_t seq_ = 0;
  uint64_t offset_ = 0;
  AppendFile segment_;  // the local segment being appended
  std::string staging_dir_;  // snapshot.incoming during a catch-up
  bool in_snapshot_ = false;

  std::thread thread_;
  std::shared_ptr<FrameChannel> channel_;
};

}  // namespace seltrig

#endif  // SELTRIG_REPLICATION_APPLIER_H_
