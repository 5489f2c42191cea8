#include "replication/applier.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "engine/recovery.h"

namespace seltrig {

ReplicaApplier::ReplicaApplier(std::string dir, ApplierOptions options)
    : dir_(std::move(dir)), options_(options) {}

ReplicaApplier::~ReplicaApplier() { Stop(); }

Result<std::unique_ptr<ReplicaApplier>> ReplicaApplier::Open(
    const std::string& dir, ApplierOptions options) {
  auto applier =
      std::unique_ptr<ReplicaApplier>(new ReplicaApplier(dir, options));

  RecoveryStats rstats;
  RecoverOptions ropts;
  ropts.enable_wal = false;  // the applier persists segments itself
  SELTRIG_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           RecoverDatabase(dir, &rstats, ropts));

  // The local tail after recovery = this follower's verified prefix: the
  // recovery replay applied exactly the records below it (any torn tail was
  // truncated away).
  applier->epoch_ = rstats.max_epoch;
  SELTRIG_ASSIGN_OR_RETURN(std::vector<WalSegment> segments,
                           ListWalSegments(dir + "/wal"));
  if (!segments.empty()) {
    SELTRIG_ASSIGN_OR_RETURN(WalSegmentContents contents,
                             ReadWalSegment(segments.back().path));
    applier->seq_ = segments.back().seq;
    applier->offset_ = contents.valid_bytes;
    applier->epoch_ = std::max(applier->epoch_, contents.epoch);
  } else {
    // Fresh follower (or all history superseded by the snapshot): resume at
    // the snapshot's journal cut, or the very first segment.
    applier->seq_ = std::max<uint64_t>(rstats.snapshot_wal_seq, 1);
    applier->offset_ = 0;
  }
  {
    MutexLock lock(&applier->mutex_);
    applier->db_ = std::shared_ptr<Database>(std::move(db));
    applier->applied_ =
        WalPosition{applier->epoch_, applier->seq_, applier->offset_};
  }
  return applier;
}

void ReplicaApplier::Start(std::shared_ptr<FrameChannel> channel) {
  Stop();
  {
    MutexLock lock(&mutex_);
    // A promoted applier is finished: its database is a primary now, and a
    // stale shipper connection must never restart the receive loop over it
    // (records at or above the vote floor would pass the epoch fence).
    if (promoted_) {
      channel->Close();
      return;
    }
    stopping_ = false;
  }
  channel_ = channel;
  thread_ = std::thread(&ReplicaApplier::Run, this, std::move(channel));
}

void ReplicaApplier::Stop() {
  {
    MutexLock lock(&mutex_);
    stopping_ = true;
  }
  if (channel_ != nullptr) channel_->Close();
  if (thread_.joinable()) thread_.join();
  channel_.reset();
}

std::shared_ptr<Database> ReplicaApplier::database() const {
  MutexLock lock(&mutex_);
  return db_;
}

WalPosition ReplicaApplier::applied() const {
  MutexLock lock(&mutex_);
  return applied_;
}

ReplicaApplier::Stats ReplicaApplier::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

Status ReplicaApplier::health() const {
  MutexLock lock(&mutex_);
  return health_;
}

Result<std::shared_ptr<Database>> ReplicaApplier::Promote(uint64_t epoch) {
  Stop();
  MutexLock lock(&mutex_);
  if (promoted_) {
    return Status::InvalidArgument("replica already promoted");
  }
  SELTRIG_RETURN_IF_ERROR(health_);
  if (epoch == 0) epoch = epoch_ + 1;
  if (epoch <= epoch_) {
    return Status::InvalidArgument(
        "promotion epoch " + std::to_string(epoch) +
        " does not exceed the applied epoch " + std::to_string(epoch_));
  }
  // Everything the applier persisted is applied (that is the acceptance
  // discipline), so there is no prefix to cut: re-arm the journal directly
  // under the promotion epoch. Segments a deposed primary keeps writing
  // under epoch_ are rejected against it from here on.
  segment_.Close();
  SELTRIG_RETURN_IF_ERROR(db_->EnableWal(dir_, epoch));
  promoted_ = true;
  return db_;
}

void ReplicaApplier::RaiseEpochFloor(uint64_t epoch) {
  uint64_t current = epoch_floor_.load(std::memory_order_relaxed);
  while (current < epoch && !epoch_floor_.compare_exchange_weak(
                                current, epoch, std::memory_order_relaxed)) {
  }
}

void ReplicaApplier::Run(std::shared_ptr<FrameChannel> channel) {
  // Announce the resume point; the shipper tails from exactly here.
  Frame hello;
  hello.type = FrameType::kHello;
  hello.epoch = epoch_;
  hello.seq = seq_;
  hello.offset = offset_;
  if (!channel->Send(hello).ok()) return;

  for (;;) {
    {
      MutexLock lock(&mutex_);
      if (stopping_) return;
    }
    Result<Frame> received = channel->Receive(options_.receive_timeout_ms);
    if (received.status().code() == ErrorCode::kDeadlineExceeded) continue;
    if (!received.ok()) return;  // channel died; owner reconnects via Start
    Status handled = Status::OK();
    // seltrig-lint: dispatch(FrameType)
    switch (received->type) {
      case FrameType::kRecord:
        handled = HandleRecord(channel.get(), *received);
        break;
      case FrameType::kHeartbeat:
        // Liveness reply: our current verified position.
        handled = SendAck(channel.get());
        break;
      case FrameType::kSnapshotStart: {
        staging_dir_ = dir_ + "/snapshot.incoming";
        std::error_code ec;
        std::filesystem::remove_all(staging_dir_, ec);
        std::filesystem::create_directories(staging_dir_, ec);
        in_snapshot_ = !ec;
        break;
      }
      case FrameType::kSnapshotFile:
        handled = HandleSnapshotFile(*received);
        break;
      case FrameType::kSnapshotDone:
        handled = InstallSnapshot(received->seq, received->epoch, channel.get());
        break;
      case FrameType::kSegmentSeal:
        handled = HandleSegmentSeal(channel.get(), *received);
        break;
      case FrameType::kHello:
      case FrameType::kAck:
      case FrameType::kNak:
        break;  // follower-to-primary frames; a primary never sends these
      case FrameType::kPreVote:
      case FrameType::kVoteRequest:
      case FrameType::kVoteGrant:
        break;  // election traffic travels on the election bus, not here
    }
    if (!handled.ok()) {
      // kUnavailable out of a handler is the channel dying under us — an ack
      // or nak hitting a socket the crashed primary abandoned, or a torn
      // snapshot stream — a reconnection event, exactly like the
      // receive-side death above. health_ is reserved for unrecoverable
      // local conditions (apply divergence): poisoning it with a transport
      // error would make Promote() refuse forever, and a cluster that keeps
      // electing this otherwise-intact follower livelocks on its failed
      // promotions instead of failing over.
      if (handled.code() == ErrorCode::kUnavailable) return;
      MutexLock lock(&mutex_);
      health_ = handled;
      return;
    }
  }
}

Status ReplicaApplier::HandleRecord(FrameChannel* channel, const Frame& frame) {
  // Receive-side fault: the frame is lost after arrival (as if dropped in
  // transit); gap detection and NAK reseek recover.
  if (!fault::Maybe(fault_points::kReplicationRecv).ok()) return Status::OK();

  const uint64_t epoch_fence =
      std::max(epoch_, epoch_floor_.load(std::memory_order_relaxed));
  // Judge the SENDER, not the record: frame.epoch is the record's origin
  // epoch, and a post-failover leader legitimately relays committed records
  // written under earlier epochs (the tail of a pre-failover segment this
  // follower still needs). Its frame.authority carries its live epoch and
  // passes the fence; a deposed primary resending its fork claims only its
  // own stale epoch in both fields and stays fenced out.
  if (std::max(frame.epoch, frame.authority) < epoch_fence) {
    // A deposed primary writing under a pre-failover epoch — or, when the
    // floor is the binding bound, under an epoch this node already granted a
    // vote against. Never accept: the failover (or the vote promise) decided
    // against these commits.
    {
      MutexLock lock(&mutex_);
      ++stats_.epoch_rejected;
    }
    return SendNak(channel,
                   "stale epoch " + std::to_string(frame.epoch) +
                       " (follower at " + std::to_string(epoch_fence) + ")",
                   epoch_fence);
  }

  // The frame names the position it continues from (prev_*); the record is
  // acceptable only if that is exactly our local tail. This closes the
  // reorder hazard at segment boundaries: a first-record-of-next-segment
  // frame overtaking the last records of the current one carries a prev
  // position past our tail and is NAKed, not applied. Offset 0 and
  // just-past-header name the same point (nothing sits between them), so
  // both sides are normalized before comparing.
  auto norm = [](uint64_t off) {
    return off == 0 ? kWalSegmentHeaderSize : off;
  };
  const uint64_t local_offset = norm(offset_);
  const uint64_t prev_offset = norm(frame.prev_offset);
  const bool prev_below =
      frame.prev_seq < seq_ ||
      (frame.prev_seq == seq_ && prev_offset < local_offset);
  if (frame.prev_seq == seq_ && prev_offset == local_offset) {
    // continue below
  } else if (prev_below) {
    {
      // Scoped: SendAck takes mutex_ itself.
      MutexLock lock(&mutex_);
      ++stats_.duplicates_dropped;
    }
    return SendAck(channel);  // re-ack so the shipper's window drains
  } else {
    {
      MutexLock lock(&mutex_);
      ++stats_.gaps_nakked;
    }
    return SendNak(channel, "gap: record continues from segment " +
                                std::to_string(frame.prev_seq) + " offset " +
                                std::to_string(frame.prev_offset));
  }

  // Apply-side fault: refuse the record before it has any effect.
  if (!fault::Maybe(fault_points::kReplicationApply).ok()) {
    return SendNak(channel, "apply refused by fault injection");
  }

  // Verify before persisting: a record is either durable+applied+acked or
  // it never happened locally.
  Result<std::vector<WalOp>> ops = DecodeWalRecord(frame.payload);
  if (!ops.ok()) {
    return SendNak(channel, "record does not verify: " + ops.status().ToString());
  }

  // Schema-version fencing: a DDL record stamped with version V may only be
  // applied to a table currently at V - 1. A gap means this follower missed a
  // schema change (or records arrived out of order past the prev-continuity
  // check, e.g. after a buggy retransmission) — applying anyway would execute
  // the ALTER against the wrong baseline and silently diverge every later
  // physical op. NAK so the shipper reseeks instead.
  for (const WalOp& op : *ops) {
    if (op.kind != WalOp::Kind::kDdl) continue;
    std::shared_ptr<Database> db = database();
    Result<Table*> table = db->catalog()->GetTable(op.table);
    if (!table.ok()) {
      return SendNak(channel, "ddl for unknown table '" + op.table + "'");
    }
    if ((*table)->schema_version() + 1 != op.schema_version) {
      return SendNak(channel,
                     "schema version gap on table '" + op.table + "': local " +
                         std::to_string((*table)->schema_version()) +
                         ", record expects " +
                         std::to_string(op.schema_version - 1));
    }
  }

  if (frame.seq != seq_ || !segment_.is_open()) {
    SELTRIG_RETURN_IF_ERROR(OpenSegment(frame.seq, frame.epoch));
  }
  if (frame.offset != offset_) {
    // Same continuation point but a different byte offset can only mean the
    // segment layouts diverged — refuse loudly.
    return Status::DataLoss("record offset " + std::to_string(frame.offset) +
                            " does not match local tail " +
                            std::to_string(offset_) + " in segment " +
                            std::to_string(seq_));
  }
  epoch_ = frame.epoch;
  // The follower's journal fires the same wal.* points as WalWriter's, so
  // the crash matrices can kill a follower mid-append, mid-fsync and
  // mid-seal as well as a primary.
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kWalAppend));
  if (!fault::Maybe(fault_points::kWalTorn).ok()) {
    // Torn-write crash mode, as in WalWriter::Append: persist (and fsync)
    // half the record, then die. Errors only make the tear shorter.
    (void)segment_.AppendPrefix(frame.payload.data(), frame.payload.size() / 2);
    (void)segment_.Sync();
    std::_Exit(FaultInjector::kCrashExitCode);
  }
  SELTRIG_RETURN_IF_ERROR(
      segment_.Append(frame.payload.data(), frame.payload.size()));
  if (options_.fsync_before_ack) {
    SELTRIG_RETURN_IF_ERROR(SyncSegment());
  }
  offset_ += frame.payload.size();

  // Apply to the live database. A failure here is divergence (the record
  // was verified and the primary applied it) — fatal, surfaced via health().
  std::shared_ptr<Database> db = database();
  SELTRIG_RETURN_IF_ERROR(ApplyWalCommit(db.get(), *ops, /*live=*/true));
  {
    MutexLock lock(&mutex_);
    applied_ = WalPosition{epoch_, seq_, offset_};
    ++stats_.records_applied;
  }
  return SendAck(channel);
}

Status ReplicaApplier::HandleSegmentSeal(FrameChannel* channel,
                                         const Frame& frame) {
  // Same arrival fault as records: the seal is lost after arrival and the
  // shipper's ack-staleness retransmission recovers.
  if (!fault::Maybe(fault_points::kReplicationRecv).ok()) return Status::OK();

  const uint64_t epoch_fence =
      std::max(epoch_, epoch_floor_.load(std::memory_order_relaxed));
  if (std::max(frame.epoch, frame.authority) < epoch_fence) {
    {
      MutexLock lock(&mutex_);
      ++stats_.epoch_rejected;
    }
    return SendNak(channel,
                   "stale epoch " + std::to_string(frame.epoch) +
                       " (follower at " + std::to_string(epoch_fence) + ")",
                   epoch_fence);
  }

  // The seal names the position it continues from; accept only at our exact
  // tail — the same continuity rule as kRecord. A seal for a boundary we
  // already crossed is a duplicate (re-ack); one past our tail is a gap
  // (NAK reseeks the shipper, which then ships the missing records — or a
  // snapshot, if a checkpoint already truncated them).
  auto norm = [](uint64_t off) {
    return off == 0 ? kWalSegmentHeaderSize : off;
  };
  const uint64_t local_offset = norm(offset_);
  const uint64_t prev_offset = norm(frame.prev_offset);
  const bool prev_below =
      frame.prev_seq < seq_ ||
      (frame.prev_seq == seq_ && prev_offset < local_offset);
  if (frame.prev_seq == seq_ && prev_offset == local_offset) {
    // continue below
  } else if (prev_below) {
    {
      MutexLock lock(&mutex_);
      ++stats_.duplicates_dropped;
    }
    return SendAck(channel);
  } else {
    {
      MutexLock lock(&mutex_);
      ++stats_.gaps_nakked;
    }
    return SendNak(channel, "gap: seal continues from segment " +
                                std::to_string(frame.prev_seq) + " offset " +
                                std::to_string(frame.prev_offset));
  }

  // Materialize the named segment, byte-identical to the primary's (the
  // frame carries its header epoch), and move the tail onto it.
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kWalRotate));
  SELTRIG_RETURN_IF_ERROR(OpenSegment(frame.seq, frame.epoch));
  if (offset_ != frame.offset) {
    // A preexisting local segment of a different length: the layouts
    // diverged — refuse loudly, exactly as the record path does.
    return Status::DataLoss("sealed segment " + std::to_string(frame.seq) +
                            " opens at offset " + std::to_string(offset_) +
                            ", seal names " + std::to_string(frame.offset));
  }
  if (options_.fsync_before_ack) {
    SELTRIG_RETURN_IF_ERROR(SyncSegment());
  }
  epoch_ = std::max(epoch_, frame.epoch);
  {
    MutexLock lock(&mutex_);
    applied_ = WalPosition{epoch_, seq_, offset_};
  }
  return SendAck(channel);
}

Status ReplicaApplier::HandleSnapshotFile(const Frame& frame) {
  if (!in_snapshot_) return Status::OK();  // stray frame; Start/Done bracket it
  if (frame.name.empty() || frame.name.find('/') != std::string::npos ||
      frame.name == ".." ) {
    return Status::DataLoss("snapshot file with unsafe name '" + frame.name + "'");
  }
  const std::string path = staging_dir_ + "/" + frame.name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::ExecutionError("cannot write " + path);
  out.write(frame.payload.data(),
            static_cast<std::streamsize>(frame.payload.size()));
  out.close();
  if (!out) return Status::ExecutionError("short write to " + path);
  return SyncFile(path);
}

Status ReplicaApplier::InstallSnapshot(uint64_t cut_seq, uint64_t cut_epoch,
                                       FrameChannel* channel) {
  if (!in_snapshot_) return Status::OK();
  in_snapshot_ = false;
  SELTRIG_RETURN_IF_ERROR(SyncDirectory(staging_dir_));

  // Swap the staged snapshot in and drop the superseded local journal: the
  // snapshot covers everything below the cut, and everything at or above it
  // will be re-shipped from the cut.
  segment_.Close();
  const std::string snapshot_dir = dir_ + "/snapshot";
  std::error_code ec;
  std::filesystem::remove_all(snapshot_dir, ec);
  std::filesystem::rename(staging_dir_, snapshot_dir, ec);
  if (ec) {
    return Status::ExecutionError("cannot install snapshot at " + snapshot_dir);
  }
  SELTRIG_RETURN_IF_ERROR(SyncDirectory(dir_));
  SELTRIG_ASSIGN_OR_RETURN(std::vector<WalSegment> segments,
                           ListWalSegments(dir_ + "/wal"));
  for (const WalSegment& segment : segments) {
    std::filesystem::remove(segment.path, ec);
  }
  // Advisory: recovery tolerates resurrected pre-snapshot segments (they
  // are behind the snapshot cut and are skipped), so this sync is not load-
  // bearing for correctness.
  (void)SyncDirectory(dir_ + "/wal");

  // Rebuild the follower database from the installed snapshot.
  RecoveryStats rstats;
  RecoverOptions ropts;
  ropts.enable_wal = false;
  SELTRIG_ASSIGN_OR_RETURN(std::unique_ptr<Database> rebuilt,
                           RecoverDatabase(dir_, &rstats, ropts));
  seq_ = std::max<uint64_t>(cut_seq, 1);
  offset_ = 0;
  epoch_ = std::max(epoch_, rstats.max_epoch);
  // Materialize the cut segment now, byte-identical to the primary's (the
  // done frame names the cut segment's header epoch). The snapshot's cut
  // may BE the primary's tip — a checkpoint-fresh segment holding no
  // records — and waiting for a first record to open the segment would
  // strand this follower one segment header short of the primary's
  // position for as long as the workload stays quiet.
  SELTRIG_RETURN_IF_ERROR(OpenSegment(seq_, cut_epoch));
  epoch_ = std::max(epoch_, cut_epoch);
  {
    MutexLock lock(&mutex_);
    db_ = std::shared_ptr<Database>(std::move(rebuilt));
    applied_ = WalPosition{epoch_, seq_, offset_};
    ++stats_.snapshots_installed;
  }

  // Re-announce: the shipper resumes tailing from the cut.
  Frame hello;
  hello.type = FrameType::kHello;
  hello.epoch = epoch_;
  hello.seq = seq_;
  hello.offset = offset_;
  return channel->Send(hello);
}

Status ReplicaApplier::SendAck(FrameChannel* channel) {
  // A fired ack fault models a lost ack: the shipper resends, and the
  // duplicate path re-acks.
  if (!fault::Maybe(fault_points::kReplicationAck).ok()) return Status::OK();
  Frame ack;
  ack.type = FrameType::kAck;
  ack.epoch = epoch_;
  ack.seq = seq_;
  ack.offset = offset_;
  {
    MutexLock lock(&mutex_);
    ++stats_.acks_sent;
  }
  return channel->Send(ack);
}

Status ReplicaApplier::SendNak(FrameChannel* channel, const std::string& reason,
                               uint64_t fence_epoch) {
  Frame nak;
  nak.type = FrameType::kNak;
  // A stale-epoch rejection names the fence (applied epoch or a granted
  // vote's floor, whichever is higher) so the deposed shipper sees a NEWER
  // epoch and parks terminally; every other NAK names the applied epoch —
  // its position doubles as an implicit ack and must be the truth.
  nak.epoch = fence_epoch != 0 ? fence_epoch : epoch_;
  nak.seq = seq_;
  nak.offset = offset_;
  nak.name = reason;
  return channel->Send(nak);
}

Status ReplicaApplier::SyncSegment() {
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kWalFsync));
  return segment_.Sync();
}

Status ReplicaApplier::OpenSegment(uint64_t seq, uint64_t epoch) {
  const std::string wal_dir = dir_ + "/wal";
  std::error_code ec;
  std::filesystem::create_directories(wal_dir, ec);
  if (ec) return Status::ExecutionError("cannot create " + wal_dir);
  const std::string path = wal_dir + "/" + WalSegmentFileName(seq);
  const bool existed = std::filesystem::exists(path, ec);
  const uint64_t size = existed ? std::filesystem::file_size(path, ec) : 0;
  SELTRIG_ASSIGN_OR_RETURN(segment_, AppendFile::Open(path));
  if (size == 0) {
    std::string header = WalSegmentHeader(seq, epoch);
    SELTRIG_RETURN_IF_ERROR(segment_.Append(header.data(), header.size()));
    SELTRIG_RETURN_IF_ERROR(segment_.Sync());
    SELTRIG_RETURN_IF_ERROR(SyncDirectory(wal_dir));
    offset_ = header.size();
  } else {
    offset_ = size;
  }
  seq_ = seq;
  return Status::OK();
}

}  // namespace seltrig
