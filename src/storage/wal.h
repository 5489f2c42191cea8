// Write-ahead journal for the durable audit engine (docs/DURABILITY.md).
//
// Unit of journaling: one committed top-level statement = one record. The
// session buffers physical row images (DML and trigger-action writes,
// including audit-log and loss-table rows) plus logical DDL/policy statements
// while the statement runs, then appends the whole buffer as a single
// length-prefixed, CRC32C-checksummed record and waits for it to be durable
// before the statement acks. A record is applied all-or-nothing on recovery,
// which gives statement atomicity across crashes for free.
//
// Segment format (dir/wal-<seq, 8 digits>.log):
//   header:  "SLTWAL2\n" (8 bytes) | segment seq (u64 LE) | epoch (u64 LE)
//   record:  payload length (u32 LE, top bit set) | CRC32C(payload) (u32 LE)
//            | payload
//   payload: op count (varint) | ops (see WalOp encoding in wal.cc)
// Counts, string lengths and integer values are LEB128 varints (zig-zag for
// signed values); doubles are 8 bytes little-endian. A string that repeats
// within one record (a table name, a string cell, STMT/DDL SQL) is spelled
// out once and then written as a varint back-reference to that first
// occurrence: a cell type tag outside TypeId's range, or a flag bit on the
// op's kind byte. A record with no repeated string carries no reference and
// is byte for byte the compact encoding from before references existed.
// Readers also accept legacy records (top bit of the length clear: u32
// counts and string lengths, u64 integers, no references) and the
// epoch-less v1 header ("SLTWAL1\n" | seq) from pre-replication journals,
// which reports epoch 0.
//
// Epochs (docs/REPLICATION.md): the epoch counts failover promotions. A
// primary writes every segment under its current epoch; when a follower is
// promoted it starts a new segment under epoch+1, and everything a deposed
// primary wrote under the old epoch after the promotion point is rejected by
// followers and by recovery (epochs must be non-decreasing in segment order).
//
// Group commit: Append() assigns commit order under the writer's mutex (the
// engine calls it while still holding the storage writer lock, so journal
// order always matches in-memory commit order); WaitDurable() then blocks —
// outside the storage lock — until one fsync, issued by whichever committer
// gets there first, covers every append up to its commit. Sync modes:
//   kCommit (default)  every acked statement is fsynced (grouped).
//   kBatch             ack after write(); every kBatchSyncEvery commits the
//                      next WaitDurable fsyncs the backlog (outside the
//                      storage lock, like kCommit) — bounded loss window.
//   kOff               never fsync; page cache only.
//
// Fault points: `wal.append` (before a record is written), `wal.fsync`
// (before fsync), `wal.rotate` (before segment rotation), and `wal.torn`
// (write a prefix of the record, fsync it, then kill the process — simulates
// a torn write / power cut mid-record).

#ifndef SELTRIG_STORAGE_WAL_H_
#define SELTRIG_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/file_util.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "types/value.h"

namespace seltrig {

enum class WalSyncMode : uint8_t { kOff, kCommit, kBatch };

// One journaled operation. DML and trigger-action writes are physical row
// images (replay never re-fires triggers: their effects are journaled too);
// DDL and policy statements are logical SQL (kStatement); circuit-breaker
// transitions are kTriggerState.
struct WalOp {
  enum class Kind : uint8_t {
    kInsert = 1,        // table, row
    kDelete = 2,        // table, row = old image
    kUpdate = 3,        // table, row = old image, row2 = new image
    kStatement = 4,     // sql (DDL / CREATE AUDIT EXPRESSION / CREATE TRIGGER)
    kTriggerState = 5,  // table = trigger name, quarantined, failures
    kDdl = 6,           // table, sql, schema_version — versioned ALTER TABLE
  };

  Kind kind = Kind::kInsert;
  std::string table;  // kInsert/kDelete/kUpdate/kDdl: table; kTriggerState: trigger
  std::string sql;    // kStatement / kDdl
  Row row;
  Row row2;
  bool quarantined = false;
  int64_t failures = 0;
  // kDdl: the table's schema version AFTER the statement applied. Replay
  // asserts it lands on the same version; the replication applier NAKs a
  // record whose version does not directly follow the follower's.
  uint64_t schema_version = 0;

  static WalOp Insert(std::string table, Row row);
  static WalOp Delete(std::string table, Row old_row);
  static WalOp Update(std::string table, Row old_row, Row new_row);
  static WalOp Statement(std::string sql);
  static WalOp TriggerState(std::string trigger, bool quarantined,
                            int64_t failures);
  static WalOp Ddl(std::string table, std::string sql, uint64_t schema_version);

  bool operator==(const WalOp& other) const;
};

std::string WalSegmentFileName(uint64_t seq);

// Size of the v2 segment header ("SLTWAL2\n" | seq | epoch) — the offset of
// a segment's first record. Replication frames carry record offsets computed
// against this, and the follower's applier writes headers of exactly this
// size so primary and follower byte offsets coincide.
inline constexpr uint64_t kWalSegmentHeaderSize = 24;

// The 24-byte v2 segment header for `seq` under `epoch` (the bytes WalWriter
// puts at the start of every segment). The replication applier uses it to
// materialize received segments locally.
std::string WalSegmentHeader(uint64_t seq, uint64_t epoch);

// Frames `ops` as one raw journal record (length | crc | payload), exactly as
// WalWriter::Append writes it.
std::string EncodeWalRecord(const std::vector<WalOp>& ops);

// Validates and decodes one raw journal record (length | crc | payload, as
// appended by WalWriter and shipped verbatim by replication). kDataLoss on a
// length/checksum/payload mismatch.
Result<std::vector<WalOp>> DecodeWalRecord(std::string_view record);

// A point in the journal: byte offset `offset` into segment `seq`, written
// under `epoch`. Orders first by epoch, then segment, then offset — the
// replication acked-prefix invariant is stated over this order.
struct WalPosition {
  uint64_t epoch = 0;
  uint64_t seq = 0;
  uint64_t offset = 0;

  bool operator==(const WalPosition& o) const {
    return epoch == o.epoch && seq == o.seq && offset == o.offset;
  }
  bool operator<(const WalPosition& o) const {
    if (epoch != o.epoch) return epoch < o.epoch;
    if (seq != o.seq) return seq < o.seq;
    return offset < o.offset;
  }
  bool operator<=(const WalPosition& o) const { return !(o < *this); }
  std::string ToString() const;
};

// Durable election vote (replication/election.h). Raft's rule "at most one
// vote per term" is only a rule if it survives a crash: a voter must persist
// the (epoch, candidate) pair BEFORE its grant frame leaves the machine, so
// a restarted voter re-reads the file and never grants a second candidate
// the same epoch — the overlap of any two quorums then guarantees at most
// one leader per epoch.
struct VoteRecord {
  uint64_t epoch = 0;
  std::string candidate;
};

// Atomically writes <wal_dir>/VOTE (tmp + fsync + rename + dir fsync). The
// directory is created if needed, so a fresh follower can vote before it has
// ever received a segment.
Status PersistVote(const std::string& wal_dir, const VoteRecord& vote);

// Reads the persisted vote. kNotFound when no vote was ever persisted — and
// for a torn or corrupt file too: persist happens strictly before the grant
// is sent, so an unreadable VOTE file means the grant never left and
// forgetting it is safe.
Result<VoteRecord> ReadPersistedVote(const std::string& wal_dir);

struct WalSegment {
  uint64_t seq = 0;
  std::string path;
};

// Journal segments under `wal_dir`, sorted by sequence number ascending.
Result<std::vector<WalSegment>> ListWalSegments(const std::string& wal_dir);

// A parsed segment: the committed statements it holds, in order, plus
// torn-tail information. Reading stops at the first record whose length,
// checksum, or payload fails validation; everything after it is the torn
// tail (a crash mid-append) and `valid_bytes` is the safe prefix length.
struct WalSegmentContents {
  uint64_t seq = 0;
  uint64_t epoch = 0;
  std::vector<std::vector<WalOp>> commits;
  bool torn = false;
  uint64_t valid_bytes = 0;
};

Result<WalSegmentContents> ReadWalSegment(const std::string& path);

// The epoch recorded in a segment's header, read without touching the
// records (v1 headers carry no epoch and read as 0). kUnavailable when the
// header has not fully landed on disk. The snapshot catch-up stream uses
// this to name the cut segment's epoch so the follower can materialize the
// segment at install time.
Result<uint64_t> ReadWalSegmentEpoch(const std::string& path);

// Appender with group commit. One writer per database; sessions serialize
// Append() behind the engine's storage writer lock and this class's own
// mutex, and may WaitDurable() concurrently.
class WalWriter {
 public:
  // Commits between fsyncs under WalSyncMode::kBatch.
  static constexpr uint64_t kBatchSyncEvery = 64;

  // Opens `wal_dir` (created if needed) and starts a fresh segment one past
  // the highest existing sequence, stamped with `epoch`. Never appends to a
  // pre-existing segment: its tail may be torn, and recovery treats only the
  // final record of a segment as potentially torn.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& wal_dir,
                                                 uint64_t epoch = 0);

  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Serializes `ops` as one record and appends it to the current segment,
  // assigning this commit's position in *commit_seq (for WaitDurable) and,
  // when `pos` is non-null, the journal position just past the record (for
  // replication acked-prefix tracking). The caller must hold the engine's
  // storage writer lock so journal order equals memory commit order. Empty
  // `ops` is a no-op that reports *commit_seq = 0.
  Status Append(const std::vector<WalOp>& ops, uint64_t* commit_seq,
                WalPosition* pos = nullptr) SELTRIG_EXCLUDES(mutex_);

  // Blocks until commit `commit_seq` is on stable storage (kCommit), fsyncs
  // the whole backlog when the batch threshold is reached (kBatch), or
  // returns immediately (kOff / below threshold / commit_seq == 0). Call
  // after releasing the storage writer lock: concurrent committers' waits
  // collapse into one fsync, and a batch-threshold fsync never stalls other
  // sessions' appends.
  //
  // When a durable-wait timeout is configured (set_durable_timeout_ms) and
  // another committer's fsync stalls past it, returns kDeadlineExceeded
  // instead of blocking forever — the statement then withholds its
  // acknowledgement, which is always safe. The timeout bounds waiting on
  // another thread's fsync; a thread that is itself the fsync leader is
  // inside the syscall and cannot be interrupted.
  Status WaitDurable(uint64_t commit_seq) SELTRIG_EXCLUDES(mutex_);

  // Append + WaitDurable, for callers without the split locking need.
  Status Commit(const std::vector<WalOp>& ops) SELTRIG_EXCLUDES(mutex_);

  // Forces everything appended so far onto stable storage (any sync mode).
  Status Sync() SELTRIG_EXCLUDES(mutex_);

  // Finishes the current segment and starts a new one; *new_seq receives the
  // new segment's sequence. Used by CHECKPOINT so the snapshot can record
  // "replay from segment new_seq".
  Status Rotate(uint64_t* new_seq) SELTRIG_EXCLUDES(mutex_);

  // Removes segments with sequence < `seq` (the checkpoint already covers
  // them). Best-effort.
  Status DeleteSegmentsBelow(uint64_t seq);

  uint64_t current_seq() const SELTRIG_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return seq_;
  }
  // The journal position just past the last appended record.
  WalPosition current_position() const SELTRIG_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return WalPosition{epoch_, seq_, segment_bytes_};
  }
  uint64_t epoch() const { return epoch_unlocked_; }
  const std::string& wal_dir() const { return wal_dir_; }

  void set_sync_mode(WalSyncMode mode) { sync_mode_ = mode; }
  WalSyncMode sync_mode() const { return sync_mode_; }

  // Bounds how long WaitDurable blocks on another committer's in-flight
  // fsync before returning kDeadlineExceeded. <= 0 (the default) waits
  // forever. Rotation and explicit Sync() always wait to completion.
  void set_durable_timeout_ms(int64_t ms) {
    durable_timeout_ms_.store(ms, std::memory_order_relaxed);
  }
  int64_t durable_timeout_ms() const {
    return durable_timeout_ms_.load(std::memory_order_relaxed);
  }

 private:
  WalWriter() = default;

  Status OpenSegmentLocked(uint64_t seq) SELTRIG_REQUIRES(mutex_);
  // Waits until `target` commits are durable, fsyncing as the group leader
  // when no other committer is already in fsync. Drops mutex_ around the
  // fsync syscall itself (the sync_in_flight_ handoff keeps file_ stable
  // while unlocked); holds it on entry and exit. `timeout_ms` > 0 bounds
  // time spent waiting on another leader's fsync (kDeadlineExceeded).
  Status SyncUpToLocked(uint64_t target, int64_t timeout_ms)
      SELTRIG_REQUIRES(mutex_);

  std::string wal_dir_;
  std::atomic<WalSyncMode> sync_mode_{WalSyncMode::kCommit};
  std::atomic<int64_t> durable_timeout_ms_{0};
  // The writer's epoch is fixed at Open; mirrored outside the mutex for
  // lock-free reads (epoch_ under the mutex is the per-segment stamp).
  uint64_t epoch_unlocked_ = 0;

  // Guards the segment file and the group-commit counters. mutable so
  // const readers (current_seq) can take it.
  mutable Mutex mutex_;
  // Waited on with mutex_ held (condition_variable_any over the annotated
  // Mutex; see common/mutex.h).
  std::condition_variable_any durable_cv_;
  AppendFile file_ SELTRIG_GUARDED_BY(mutex_);
  uint64_t seq_ SELTRIG_GUARDED_BY(mutex_) = 0;  // current segment sequence
  uint64_t epoch_ SELTRIG_GUARDED_BY(mutex_) = 0;
  // Bytes written to the current segment.
  uint64_t segment_bytes_ SELTRIG_GUARDED_BY(mutex_) = 0;
  // Commits appended (commit_seq of the latest).
  uint64_t appended_ SELTRIG_GUARDED_BY(mutex_) = 0;
  // Commits known durable.
  uint64_t durable_ SELTRIG_GUARDED_BY(mutex_) = 0;
  // Commits since the last fsync (kBatch).
  uint64_t unsynced_ SELTRIG_GUARDED_BY(mutex_) = 0;
  bool sync_in_flight_ SELTRIG_GUARDED_BY(mutex_) = false;
  // Set when a failed append could not be rolled back with truncate: the
  // segment tail is unreliable, so further appends must fail rather than
  // write records recovery would silently drop.
  bool poisoned_ SELTRIG_GUARDED_BY(mutex_) = false;
};

// Incremental read-only cursor over a WAL directory that may be actively
// written by a WalWriter — the replication shipper's tail-follow. Reads one
// record at a time with pread (no shared file offset with the writer) and
// distinguishes the three tail states the shipper must handle differently:
//
//   kUnavailable  no complete record at the cursor yet: clean end of the
//                 newest segment, or a partial record the writer is mid-
//                 append on (the length prefix or payload has not fully
//                 landed). Retry later; NEVER treated as a torn tail.
//   kNotFound     the segment no longer exists — a checkpoint truncated the
//                 journal past the cursor. The caller must fall back to
//                 snapshot-based catch-up.
//   kDataLoss     a fully-present record fails its checksum: real corruption
//                 (an injected torn tail from a previous crash is truncated
//                 by recovery before a writer reopens the directory).
//
// A partial or missing record at the end of a segment that is NOT the newest
// is advanced past instead: the writer rotates only after fsyncing the whole
// segment, so trailing bytes before an existing newer segment can only be a
// crash remnant that recovery already chose to discard — by construction
// never acknowledged. ("Not the newest" is judged by a read made after the
// newer segment was seen, never by one made before it.)
class WalTailReader {
 public:
  explicit WalTailReader(std::string wal_dir) : wal_dir_(std::move(wal_dir)) {}

  // One raw journal record and where it lives.
  struct RecordRef {
    uint64_t epoch = 0;
    uint64_t seq = 0;
    uint64_t offset = 0;      // byte offset of the record header in `seq`
    uint64_t end_offset = 0;  // first byte past the record
    std::string bytes;        // length | crc | payload, verbatim
  };

  // Positions the cursor. offset 0 means "first record of the segment"
  // (resolved to just past the header once the header is read).
  void Seek(uint64_t seq, uint64_t offset) {
    seq_ = seq;
    offset_ = offset;
    epoch_ = 0;
    header_size_ = 0;
  }

  // Reads the record at the cursor and advances past it. See the class
  // comment for the non-OK outcomes.
  Status Next(RecordRef* out);

  uint64_t seq() const { return seq_; }
  uint64_t offset() const { return offset_; }
  // True once the cursor segment's header has been read; epoch() is the
  // header epoch and is meaningful only then. The shipper uses these to
  // name a crossed-into tip segment in a kSegmentSeal frame.
  bool header_read() const { return header_size_ != 0; }
  uint64_t epoch() const { return epoch_; }

 private:
  // Loads the segment header at the cursor's segment, resolving epoch and
  // header size (v1 vs v2) and normalizing offset 0 to the first record.
  Status ReadHeader();
  // True when a segment with sequence > seq_ exists on disk.
  bool NewerSegmentExists() const;
  // Moves the cursor to the start of the next existing segment.
  Status AdvanceSegment();

  std::string wal_dir_;
  uint64_t seq_ = 0;
  uint64_t offset_ = 0;
  uint64_t epoch_ = 0;
  uint64_t header_size_ = 0;  // 0 = header not read yet for this segment
};

}  // namespace seltrig

#endif  // SELTRIG_STORAGE_WAL_H_
