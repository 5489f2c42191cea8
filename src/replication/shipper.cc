#include "replication/shipper.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "common/fault_injector.h"
#include "common/file_util.h"
#include "engine/snapshot.h"

namespace seltrig {

namespace {

using Clock = std::chrono::steady_clock;

int64_t MsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

LogShipper::LogShipper(Database* db, ShipperOptions options)
    : db_(db), options_(options) {
  db_->set_replication_waiter(this);
}

LogShipper::~LogShipper() { Stop(); }

void LogShipper::AddFollower(std::string name, ChannelFactory connect) {
  Follower* raw = nullptr;
  {
    MutexLock lock(&mutex_);
    if (stopping_) return;
    auto follower = std::make_unique<Follower>();
    follower->name = name;
    follower->connect = std::move(connect);
    follower->status.name = std::move(name);
    followers_.push_back(std::move(follower));
    raw = followers_.back().get();
  }
  raw->thread = std::thread(&LogShipper::Run, this, raw);
}

void LogShipper::Stop() {
  {
    MutexLock lock(&mutex_);
    if (stopping_) return;
    stopping_ = true;
    ack_cv_.notify_all();
    for (auto& follower : followers_) {
      if (follower->channel != nullptr) follower->channel->Wake();
    }
  }
  // Sessions blocked in WaitReplicated and shipping loops in their idle wait
  // were woken above; new statements no longer consult this shipper.
  db_->set_replication_waiter(nullptr);
  // followers_ is append-only and frozen once stopping_ is set, so the
  // threads can be joined without holding the mutex (they take it
  // themselves).
  for (auto& follower : followers_) {
    if (follower->thread.joinable()) follower->thread.join();
  }
}

Status LogShipper::WaitReplicated(const WalPosition& pos) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.ack_timeout_ms);
  MutexLock lock(&mutex_);
  // The record ending at `pos` is appended and locally durable: it ships
  // now, in both ack modes.
  WakeFollowersBelow(pos);
  if (options_.ack_mode == ReplicationAckMode::kAsync) return Status::OK();
  for (;;) {
    if (stopping_) return Status::OK();
    bool all_acked = true;
    for (const auto& follower : followers_) {
      if (!follower->status.degraded && !(pos <= follower->status.acked)) {
        all_acked = false;
        break;
      }
    }
    if (all_acked) return Status::OK();
    if (ack_cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
      // Availability over the sync guarantee: degrade the laggards (they
      // rejoin when caught up) and acknowledge. The statement is locally
      // durable either way; what is lost is only the promise that THIS
      // statement already sits on every follower.
      for (const auto& follower : followers_) {
        if (!follower->status.degraded && !(pos <= follower->status.acked)) {
          follower->status.degraded = true;
        }
      }
      ack_cv_.notify_all();
      return Status::OK();
    }
  }
}

std::vector<FollowerStatus> LogShipper::Followers() const {
  const int64_t now = NowMs();
  MutexLock lock(&mutex_);
  std::vector<FollowerStatus> out;
  out.reserve(followers_.size());
  for (const auto& follower : followers_) {
    out.push_back(follower->status);
    out.back().ms_since_last_ack =
        follower->last_ack_at_ms < 0 ? -1 : now - follower->last_ack_at_ms;
  }
  return out;
}

bool LogShipper::AllCaughtUp() const {
  const WalPosition tip = db_->wal()->current_position();
  MutexLock lock(&mutex_);
  return WakeFollowersBelow(tip);
}

bool LogShipper::WakeFollowersBelow(const WalPosition& pos) const {
  bool all_acked = true;
  for (const auto& follower : followers_) {
    if (pos <= follower->status.acked) continue;
    all_acked = false;
    if (follower->channel != nullptr) follower->channel->Wake();
  }
  return all_acked;
}

void LogShipper::SetChannel(Follower* follower, FrameChannel* channel) {
  MutexLock lock(&mutex_);
  follower->channel = channel;
  follower->status.connected = channel != nullptr;
  if (channel == nullptr) {
    // A dead channel cannot carry acks; the follower is out of the sync
    // quorum until it reconnects and catches up.
    follower->status.degraded = true;
    follower->in_flight.clear();
    ack_cv_.notify_all();
  }
}

void LogShipper::NoteError(Follower* follower, const Status& error) {
  MutexLock lock(&mutex_);
  follower->status.last_error = error.ToString();
  if (error.code() == ErrorCode::kFencedOut) {
    follower->status.fenced_out = true;
  }
}

void LogShipper::Run(Follower* follower) {
  int64_t backoff_ms = options_.initial_backoff_ms;
  // Deterministic per-follower jitter stream (no wall-clock entropy).
  uint64_t rng = options_.jitter_seed * 0x9E3779B97F4A7C15ull + 1 +
                 std::hash<std::string>{}(follower->name);
  auto sleep_backoff = [&]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const int64_t jitter = static_cast<int64_t>((rng >> 33) %
                                                (backoff_ms / 2 + 1));
    MutexLock lock(&mutex_);
    ack_cv_.wait_for(mutex_, std::chrono::milliseconds(backoff_ms + jitter),
                     [this]() SELTRIG_REQUIRES(mutex_) { return stopping_; });
    backoff_ms = std::min(backoff_ms * 2, options_.max_backoff_ms);
  };

  for (;;) {
    {
      MutexLock lock(&mutex_);
      if (stopping_) return;
    }
    Result<std::shared_ptr<FrameChannel>> channel = follower->connect();
    if (!channel.ok()) {
      sleep_backoff();
      continue;
    }
    SetChannel(follower, channel->get());
    backoff_ms = options_.initial_backoff_ms;
    Status served = ServeConnection(follower, channel->get());
    (*channel)->Close();
    SetChannel(follower, nullptr);
    {
      MutexLock lock(&mutex_);
      ++follower->status.reconnects;
      if (stopping_) return;
    }
    if (!served.ok() && (served.code() == ErrorCode::kDataLoss ||
                         served.code() == ErrorCode::kFencedOut)) {
      // The PRIMARY's journal failed under the tail reader, or a follower
      // fenced this primary out under a newer epoch — nothing a reconnect
      // can fix. Park this follower with the error visible.
      NoteError(follower, served);
      return;
    }
    if (!served.ok()) NoteError(follower, served);
    sleep_backoff();
  }
}

Status LogShipper::ServeConnection(Follower* follower, FrameChannel* channel) {
  WalTailReader reader(db_->wal()->wal_dir());
  bool have_cursor = false;  // set by the follower's HELLO
  // Set whenever a follower-NAMED position moved the cursor: that position
  // must be validated against the local journal before shipping from it,
  // because a follower whose journal forked (an un-acked suffix from a
  // deposed reign) names positions this primary never wrote.
  bool verify_cursor = false;
  auto last_send = Clock::now();
  // Ack PROGRESS, not ack arrival: a follower that missed the tail of a
  // burst still acks heartbeats at its stale position, so "any ack arrived"
  // would keep a wedged stream looking healthy forever.
  WalPosition last_acked;
  auto last_progress = Clock::now();

  for (;;) {
    {
      MutexLock lock(&mutex_);
      if (stopping_) return Status::OK();
    }

    // 1. Drain whatever the follower sent (acks, naks, hellos) — without
    // blocking; step 5 blocks when there is nothing to ship.
    Status drained = DrainInbound(follower, channel, &reader, &have_cursor,
                                  &verify_cursor, 0);
    if (!drained.ok() && drained.code() != ErrorCode::kDeadlineExceeded) {
      return drained;
    }

    // 2. Ship records while the in-flight window has room.
    bool progressed = false;
    while (have_cursor) {
      {
        MutexLock lock(&mutex_);
        if (stopping_) return Status::OK();
        if (follower->in_flight.size() >= options_.max_in_flight_records) break;
      }
      if (verify_cursor) {
        // Fork detection. A follower's named position can exceed this
        // primary's journal only when the follower's journal diverged: a
        // deposed leader extended its local segments with records no quorum
        // acked, then rejoined. (Divergence is always positional — a new
        // leader's promotion rotates to a fresh segment, so the two
        // histories never disagree WITHIN a shared byte range; see
        // docs/REPLICATION.md.) Overwrite the follower with a snapshot of
        // the canonical history instead of shipping from a position we do
        // not have — but ONLY a follower at our epoch or below can be the
        // stale side. A follower naming a NEWER epoch means this shipper is
        // the deposed one; resyncing it would overwrite canonical history
        // with ours. Ship from the newest segment instead and let the
        // applier's persisted epoch judge (the fencing NAK parks us
        // terminally).
        verify_cursor = false;
        const WalPosition tip = db_->wal()->current_position();
        bool beyond = reader.seq() > tip.seq ||
                      (reader.seq() == tip.seq && reader.offset() > tip.offset);
        if (!beyond && reader.seq() < tip.seq) {
          std::error_code ec;
          const uint64_t size = std::filesystem::file_size(
              db_->wal()->wal_dir() + "/" + WalSegmentFileName(reader.seq()),
              ec);
          // A missing segment is checkpoint truncation, not a fork; the
          // kNotFound path below snapshots it anyway.
          beyond = !ec && reader.offset() > size;
        }
        if (beyond) {
          uint64_t follower_epoch;
          {
            MutexLock lock(&mutex_);
            follower_epoch = follower->status.acked.epoch;
          }
          if (follower_epoch > tip.epoch) {
            reader.Seek(tip.seq, 0);
            continue;
          }
          SELTRIG_RETURN_IF_ERROR(ForceResync(follower, channel, &reader));
          have_cursor = false;
          progressed = true;
          last_send = Clock::now();
          break;
        }
      }
      // The cursor before Next is the position this record continues from:
      // the previous record's end, or — across a segment advance — the tail
      // of the segment the reader left. The follower accepts the record only
      // when this equals its own tail, which keeps segment boundaries safe
      // under frame reordering.
      const uint64_t prev_seq = reader.seq();
      const uint64_t prev_offset = reader.offset();
      WalTailReader::RecordRef record;
      Status next = reader.Next(&record);
      if (next.code() == ErrorCode::kUnavailable) {
        // At the tail — but the reader may have crossed a clean segment end
        // into a record-free tip segment on the way (a checkpoint rotates to
        // a fresh segment before it deletes the history below it). A record
        // would carry the boundary in its prev position; with no record ever
        // coming, seal it explicitly, or a fully caught-up follower parks at
        // the old segment's end for as long as the workload stays quiet.
        if (reader.seq() != prev_seq && reader.header_read()) {
          Frame seal;
          seal.type = FrameType::kSegmentSeal;
          seal.epoch = reader.epoch();
          seal.seq = reader.seq();
          seal.offset = reader.offset();
          seal.prev_seq = prev_seq;
          seal.prev_offset = prev_offset;
          seal.authority = db_->wal()->current_position().epoch;
          SELTRIG_RETURN_IF_ERROR(channel->Send(seal));
          progressed = true;
          last_send = Clock::now();
          // Tracked in flight like a record: if the seal is lost, the ack
          // staleness path reseeks and resends it.
          MutexLock lock(&mutex_);
          follower->in_flight.push_back(
              WalPosition{reader.epoch(), reader.seq(), reader.offset()});
        }
        break;  // at the tail
      }
      if (next.code() == ErrorCode::kNotFound) {
        const WalPosition tip = db_->wal()->current_position();
        if (reader.seq() > tip.seq) {
          // The follower resumed from a segment past anything this primary
          // ever wrote: its journal forked under a deposed leader. Replace
          // it with the canonical history (same reasoning and same epoch
          // gate as the verify_cursor check above; this catches a cursor
          // that moved without a follower-named reseek).
          uint64_t follower_epoch;
          {
            MutexLock lock(&mutex_);
            follower_epoch = follower->status.acked.epoch;
          }
          if (follower_epoch > tip.epoch) {
            reader.Seek(tip.seq, 0);
            continue;
          }
          SELTRIG_RETURN_IF_ERROR(ForceResync(follower, channel, &reader));
          have_cursor = false;
          progressed = true;
          last_send = Clock::now();
          break;
        }
        // A checkpoint truncated the journal behind this follower: catch it
        // up from the snapshot, then wait for its post-install HELLO.
        SELTRIG_RETURN_IF_ERROR(SendSnapshot(follower, channel, &reader));
        have_cursor = false;
        progressed = true;
        last_send = Clock::now();
        break;
      }
      SELTRIG_RETURN_IF_ERROR(next);  // kDataLoss: fatal, handled by Run
      SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kReplicationSend));
      Frame frame;
      frame.type = FrameType::kRecord;
      frame.epoch = record.epoch;
      frame.seq = record.seq;
      frame.offset = record.offset;
      frame.prev_seq = prev_seq;
      frame.prev_offset = prev_offset;
      // Origin epoch above; the fence judges us by our live epoch, so a
      // post-failover leader can relay pre-failover committed records.
      frame.authority = db_->wal()->current_position().epoch;
      frame.payload = std::move(record.bytes);
      SELTRIG_RETURN_IF_ERROR(channel->Send(frame));
      progressed = true;
      last_send = Clock::now();
      {
        MutexLock lock(&mutex_);
        ++follower->status.records_sent;
        follower->in_flight.push_back(
            WalPosition{record.epoch, record.seq, record.end_offset});
      }
    }

    // 3. Heartbeat when the stream has been quiet for an interval.
    if (MsSince(last_send) >= options_.heartbeat_interval_ms) {
      Frame heartbeat;
      heartbeat.type = FrameType::kHeartbeat;
      const WalPosition tip = db_->wal()->current_position();
      heartbeat.epoch = tip.epoch;
      heartbeat.seq = tip.seq;
      heartbeat.offset = tip.offset;
      heartbeat.authority = tip.epoch;
      SELTRIG_RETURN_IF_ERROR(channel->Send(heartbeat));
      last_send = Clock::now();
    }

    // 4. Ack staleness: outstanding records with no ack PROGRESS for the
    // timeout means those records were lost (a NAK needs a later frame to
    // expose the gap; after a dropped burst tail none is coming). Degrade
    // the follower so sync commits stop waiting, then go-back-N: reseek to
    // its acked position and resend. Duplicates are dropped and re-acked by
    // the applier, so retransmission is always safe; the follower rejoins
    // the sync quorum when its acks catch back up.
    bool retransmit = false;
    WalPosition resume;
    {
      MutexLock lock(&mutex_);
      if (follower->in_flight.empty() || last_acked < follower->status.acked) {
        last_acked = follower->status.acked;
        last_progress = Clock::now();
      } else if (MsSince(last_progress) > options_.ack_timeout_ms) {
        if (!follower->status.degraded) {
          follower->status.degraded = true;
          ack_cv_.notify_all();
        }
        resume = follower->status.acked;
        follower->in_flight.clear();
        retransmit = true;
      }
    }
    if (retransmit) {
      if (resume.seq == 0) {
        // No ack has ever named a position: nothing to resume from.
        // Reconnect; the follower's fresh HELLO restores the cursor.
        return Status::Unavailable("no ack progress and no resume point");
      }
      reader.Seek(resume.seq, resume.offset);
      have_cursor = true;
      last_progress = Clock::now();
    }

    // 5. Nothing shipped this round: block on inbound traffic until the next
    // heartbeat (or ack-staleness check) is due. channel->Wake() ends the
    // wait early: a commit (WaitReplicated), a caller polling AllCaughtUp,
    // Stop(). Records no commit waits on — the best-effort append after a
    // failed statement, checkpoint rotations and seals — otherwise ship by
    // the heartbeat.
    if (!progressed) {
      const int64_t wait_ms =
          std::min(options_.heartbeat_interval_ms - MsSince(last_send),
                   options_.ack_timeout_ms + 1 - MsSince(last_progress));
      Status idle = DrainInbound(follower, channel, &reader, &have_cursor,
                                 &verify_cursor, std::max<int64_t>(wait_ms, 1));
      if (!idle.ok() && idle.code() != ErrorCode::kDeadlineExceeded) {
        return idle;
      }
    }
  }
}

Status LogShipper::DrainInbound(Follower* follower, FrameChannel* channel,
                                WalTailReader* reader, bool* have_cursor,
                                bool* reseeked, int64_t timeout_ms) {
  bool got_any = false;
  for (bool first = true;; first = false) {
    Result<Frame> received = channel->Receive(first ? timeout_ms : 0);
    if (received.status().code() == ErrorCode::kDeadlineExceeded) {
      return got_any ? Status::OK()
                     : Status::DeadlineExceeded("no inbound frames");
    }
    SELTRIG_RETURN_IF_ERROR(received.status());
    const Frame& frame = *received;
    const WalPosition pos{frame.epoch, frame.seq, frame.offset};
    // seltrig-lint: dispatch(FrameType)
    switch (frame.type) {
      case FrameType::kHello:
      case FrameType::kNak: {
        if (frame.type == FrameType::kNak &&
            frame.epoch > db_->wal()->current_position().epoch) {
          // The follower rejected a record under a NEWER epoch: a failover
          // this primary has not heard about deposed it. Permanent for this
          // journal — park the follower with the fencing visible instead of
          // resending forever. (The follower's state is untouched; its count
          // of rejected records is the audit trail of the attempt.)
          {
            MutexLock lock(&mutex_);
            ++follower->status.naks_received;
          }
          return Status::FencedOut(
              "follower " + follower->name + " is at epoch " +
              std::to_string(frame.epoch) + "; this primary was deposed");
        }
        // Reseek to where the follower wants the stream: its resume point
        // after (re)connect / snapshot install, or the position a gap or
        // rejection left it at. Everything in flight is now meaningless.
        reader->Seek(frame.seq, frame.offset);
        *have_cursor = true;
        *reseeked = true;
        MutexLock lock(&mutex_);
        follower->in_flight.clear();
        if (frame.type == FrameType::kNak) ++follower->status.naks_received;
        // The follower's own position is an implicit ack.
        if (follower->status.acked < pos) follower->status.acked = pos;
        follower->last_ack_at_ms = NowMs();
        ack_cv_.notify_all();
        break;
      }
      case FrameType::kAck: {
        if (!*have_cursor) {
          // A dropped HELLO must not wedge the stream: heartbeat acks keep
          // arriving (so the connection never looks stale), but without a
          // cursor nothing ships. The ack names the follower's applied tail,
          // which is exactly the resume point a HELLO would have named.
          reader->Seek(frame.seq, frame.offset);
          *have_cursor = true;
          *reseeked = true;
        }
        MutexLock lock(&mutex_);
        if (follower->status.acked < pos) follower->status.acked = pos;
        follower->last_ack_at_ms = NowMs();
        auto& in_flight = follower->in_flight;
        while (!in_flight.empty() && in_flight.front() <= pos) {
          in_flight.erase(in_flight.begin());
          ++follower->status.records_acked;
        }
        if (follower->status.degraded) {
          // Rejoin the sync quorum once fully caught up.
          if (db_->wal()->current_position() <= follower->status.acked) {
            follower->status.degraded = false;
          }
        }
        ack_cv_.notify_all();
        break;
      }
      case FrameType::kRecord:
      case FrameType::kHeartbeat:
      case FrameType::kSnapshotStart:
      case FrameType::kSnapshotFile:
      case FrameType::kSnapshotDone:
      case FrameType::kSegmentSeal:
        break;  // primary-to-follower frames; a follower never sends these
      case FrameType::kPreVote:
      case FrameType::kVoteRequest:
      case FrameType::kVoteGrant:
        break;  // election traffic travels on the election bus, not here
    }
    got_any = true;
  }
}

Status LogShipper::SendSnapshot(Follower* follower, FrameChannel* channel,
                                WalTailReader* reader) {
  const std::string snapshot_dir = db_->data_dir() + "/snapshot";
  SELTRIG_ASSIGN_OR_RETURN(SnapshotManifest manifest,
                           ReadSnapshotManifest(snapshot_dir));
  if (manifest.wal_seq == 0) {
    return Status::Unavailable("snapshot at " + snapshot_dir +
                               " records no journal cut");
  }
  const uint64_t authority = db_->wal()->current_position().epoch;
  Frame start;
  start.type = FrameType::kSnapshotStart;
  start.authority = authority;
  SELTRIG_RETURN_IF_ERROR(channel->Send(start));

  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(snapshot_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    // A checkpoint may swap the snapshot out underneath this read; the
    // resulting error tears down the connection and the reconnect retries
    // against the new snapshot.
    SELTRIG_ASSIGN_OR_RETURN(std::string contents,
                             ReadFileToString(entry.path().string()));
    Frame file;
    file.type = FrameType::kSnapshotFile;
    file.authority = authority;
    file.name = entry.path().filename().string();
    file.payload = std::move(contents);
    SELTRIG_RETURN_IF_ERROR(channel->Send(file));
  }
  if (ec) {
    return Status::Unavailable("cannot list snapshot directory " + snapshot_dir);
  }
  Frame done;
  done.type = FrameType::kSnapshotDone;
  done.seq = manifest.wal_seq;
  // The cut segment's header epoch rides on the done frame so the follower
  // can materialize that segment at install time. Without it the follower
  // parks at (old epoch, cut, 0) waiting for a first record to open the
  // segment — and when the cut is a checkpoint-fresh tip under a quiet
  // workload, no record ever comes and the rejoiner never reaches the
  // leader's position. (If a concurrent checkpoint swapped the segment out
  // underneath this read, the error tears down the connection and the
  // reconnect retries against the new snapshot, same as the file reads
  // above.)
  SELTRIG_ASSIGN_OR_RETURN(
      done.epoch, ReadWalSegmentEpoch(db_->wal()->wal_dir() + "/" +
                                      WalSegmentFileName(manifest.wal_seq)));
  done.authority = authority;
  SELTRIG_RETURN_IF_ERROR(channel->Send(done));

  reader->Seek(manifest.wal_seq, 0);
  MutexLock lock(&mutex_);
  ++follower->status.snapshots_sent;
  follower->in_flight.clear();
  return Status::OK();
}

Status LogShipper::ForceResync(Follower* follower, FrameChannel* channel,
                               WalTailReader* reader) {
  {
    MutexLock lock(&mutex_);
    ++follower->status.forced_resyncs;
    // The forked follower's named positions are not positions in THIS
    // journal; until it re-HELLOs from the snapshot cut its acked position
    // must not admit it to the sync quorum. (Epoch-major WalPosition
    // ordering already keeps forked acks below any new-epoch commit; this
    // resets the bookkeeping for the rebuild.)
    follower->status.acked = WalPosition{};
    follower->status.degraded = true;
    follower->in_flight.clear();
    ack_cv_.notify_all();
  }
  Status sent = SendSnapshot(follower, channel, reader);
  if (sent.ok()) return sent;
  if (sent.code() != ErrorCode::kNotFound &&
      sent.code() != ErrorCode::kUnavailable) {
    return sent;
  }
  // No snapshot yet (a primary that never checkpointed): cut one now — the
  // checkpoint IS the canonical history up to this moment — then ship it.
  SELTRIG_RETURN_IF_ERROR(db_->Checkpoint());
  return SendSnapshot(follower, channel, reader);
}

}  // namespace seltrig
