// WalTailReader and replication-era WalWriter features: live tail-follow,
// the three tail outcomes (kUnavailable retry / kNotFound checkpoint
// truncation / kDataLoss corruption), crash-remnant skipping at segment
// boundaries, epoch headers, v1 compatibility, and the bounded WaitDurable
// timeout. Part of the `crash` suite, so it also runs under ASan and TSan.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/file_util.h"
#include "types/value.h"

namespace seltrig {
namespace {

class WalTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("seltrig_tail_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    FaultInjector::Instance().Reset();
  }
  void TearDown() override {
    FaultInjector::Instance().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string wal_dir() const { return (dir_ / "wal").string(); }

  static std::vector<WalOp> SampleCommit(int64_t key) {
    return {
        WalOp::Insert("t", {Value::Int(key), Value::String("alpha")}),
        WalOp::Update("t", {Value::Int(key), Value::String("alpha")},
                      {Value::Int(key), Value::String("beta")}),
    };
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void WriteAll(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Path of segment `seq` in this test's journal directory.
  std::string SegmentPath(uint64_t seq) const {
    return wal_dir() + "/" + WalSegmentFileName(seq);
  }

  std::filesystem::path dir_;
};

TEST_F(WalTailTest, TailFollowsALiveWriter) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);

  WalTailReader reader(wal_dir());
  reader.Seek(writer->current_seq(), 0);
  WalTailReader::RecordRef ref;
  // Nothing appended yet: a clean tail is retryable, never torn.
  EXPECT_EQ(reader.Next(&ref).code(), ErrorCode::kUnavailable);

  for (int64_t key = 1; key <= 3; ++key) {
    ASSERT_TRUE(writer->Commit(SampleCommit(key)).ok());
  }

  uint64_t last_end = kWalSegmentHeaderSize;
  for (int64_t key = 1; key <= 3; ++key) {
    ASSERT_TRUE(reader.Next(&ref).ok()) << "record " << key;
    EXPECT_EQ(ref.seq, writer->current_seq());
    EXPECT_EQ(ref.offset, last_end);  // records are contiguous
    EXPECT_GT(ref.end_offset, ref.offset);
    last_end = ref.end_offset;
    auto decoded = DecodeWalRecord(ref.bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(*decoded, SampleCommit(key));
  }
  // The cursor sits exactly at the record's end, ready to resume.
  EXPECT_EQ(reader.offset(), last_end);
  EXPECT_EQ(reader.Next(&ref).code(), ErrorCode::kUnavailable);

  // New appends become visible without reseeking.
  ASSERT_TRUE(writer->Commit(SampleCommit(4)).ok());
  ASSERT_TRUE(reader.Next(&ref).ok());
  EXPECT_EQ(*DecodeWalRecord(ref.bytes), SampleCommit(4));
}

TEST_F(WalTailTest, PartialRecordAtEndOfNewestSegmentIsRetryableAtEveryCut) {
  // Materialize one real segment (header + one record), then replay every
  // byte-truncation of it into a fresh directory: a reader must report
  // kUnavailable (writer mid-append) for each cut, and succeed on the full
  // bytes. This is the mid-append window a tail-follower lives in.
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const uint64_t seq = (*opened)->current_seq();
  ASSERT_TRUE((*opened)->Commit(SampleCommit(1)).ok());
  opened->reset();
  const std::string full = ReadAll(SegmentPath(seq));
  ASSERT_GT(full.size(), kWalSegmentHeaderSize);

  const std::string cut_dir = (dir_ / "cuts").string();
  std::filesystem::create_directories(cut_dir);
  const std::string cut_path = cut_dir + "/" + WalSegmentFileName(seq);
  for (size_t len = kWalSegmentHeaderSize; len < full.size(); ++len) {
    WriteAll(cut_path, full.substr(0, len));
    WalTailReader reader(cut_dir);
    reader.Seek(seq, 0);
    WalTailReader::RecordRef ref;
    EXPECT_EQ(reader.Next(&ref).code(), ErrorCode::kUnavailable)
        << "cut at " << len << " of " << full.size();
  }
  WriteAll(cut_path, full);
  WalTailReader reader(cut_dir);
  reader.Seek(seq, 0);
  WalTailReader::RecordRef ref;
  ASSERT_TRUE(reader.Next(&ref).ok());
  EXPECT_EQ(*DecodeWalRecord(ref.bytes), SampleCommit(1));
}

TEST_F(WalTailTest, FullyPresentCorruptRecordIsDataLossNotRetry) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const uint64_t seq = (*opened)->current_seq();
  ASSERT_TRUE((*opened)->Commit(SampleCommit(1)).ok());
  opened->reset();

  std::string bytes = ReadAll(SegmentPath(seq));
  // Flip one payload byte (past the record's length | crc prefix): the
  // record is fully present, so this must surface as corruption, not as a
  // retryable tail.
  bytes[kWalSegmentHeaderSize + 8 + 2] ^= 0x01;
  WriteAll(SegmentPath(seq), bytes);

  WalTailReader reader(wal_dir());
  reader.Seek(seq, 0);
  WalTailReader::RecordRef ref;
  EXPECT_EQ(reader.Next(&ref).code(), ErrorCode::kDataLoss);
}

TEST_F(WalTailTest, CrashRemnantBeforeANewerSegmentIsSkippedNotServed) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  const uint64_t first_seq = writer->current_seq();
  ASSERT_TRUE(writer->Commit(SampleCommit(1)).ok());
  uint64_t second_seq = 0;
  ASSERT_TRUE(writer->Rotate(&second_seq).ok());
  ASSERT_TRUE(writer->Commit(SampleCommit(2)).ok());
  writer.reset();

  // Simulate a pre-rotation crash remnant: a partial record (length | crc
  // prefix, payload missing) after segment 1's last full record. Recovery
  // discards such bytes; the tail reader must advance to segment 2 instead
  // of waiting forever on a segment that will never grow.
  {
    std::ofstream out(SegmentPath(first_seq),
                      std::ios::binary | std::ios::app);
    const char remnant[12] = {40, 0, 0, 0, 1, 2, 3, 4, 9, 9, 9, 9};
    out.write(remnant, sizeof(remnant));
  }

  WalTailReader reader(wal_dir());
  reader.Seek(first_seq, 0);
  WalTailReader::RecordRef ref;
  ASSERT_TRUE(reader.Next(&ref).ok());
  EXPECT_EQ(ref.seq, first_seq);
  EXPECT_EQ(*DecodeWalRecord(ref.bytes), SampleCommit(1));
  ASSERT_TRUE(reader.Next(&ref).ok());
  EXPECT_EQ(ref.seq, second_seq);
  EXPECT_EQ(*DecodeWalRecord(ref.bytes), SampleCommit(2));
}

TEST_F(WalTailTest, CheckpointTruncationReportsNotFoundForSnapshotCatchUp) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  const uint64_t first_seq = writer->current_seq();
  ASSERT_TRUE(writer->Commit(SampleCommit(1)).ok());
  uint64_t new_seq = 0;
  ASSERT_TRUE(writer->Rotate(&new_seq).ok());
  ASSERT_TRUE(writer->DeleteSegmentsBelow(new_seq).ok());

  WalTailReader reader(wal_dir());
  reader.Seek(first_seq, 0);
  WalTailReader::RecordRef ref;
  EXPECT_EQ(reader.Next(&ref).code(), ErrorCode::kNotFound);
}

TEST_F(WalTailTest, ConcurrentWriterAndTailReaderSeeEveryRecordOnce) {
  // The shipper's actual concurrency shape: one thread appending (with a
  // mid-stream rotation), another tail-following with pread. TSan runs this
  // too (crash label); the reader and writer share no file offset.
  constexpr int64_t kRecords = 30;
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  const uint64_t start_seq = writer->current_seq();

  std::thread producer([&writer] {
    for (int64_t key = 1; key <= kRecords; ++key) {
      ASSERT_TRUE(writer->Commit(SampleCommit(key)).ok());
      if (key == kRecords / 2) {
        uint64_t ignored = 0;
        ASSERT_TRUE(writer->Rotate(&ignored).ok());
      }
    }
  });

  WalTailReader reader(wal_dir());
  reader.Seek(start_seq, 0);
  std::vector<std::vector<WalOp>> seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (seen.size() < static_cast<size_t>(kRecords) &&
         std::chrono::steady_clock::now() < deadline) {
    WalTailReader::RecordRef ref;
    Status s = reader.Next(&ref);
    if (s.ok()) {
      auto decoded = DecodeWalRecord(ref.bytes);
      ASSERT_TRUE(decoded.ok()) << decoded.status().message();
      seen.push_back(std::move(*decoded));
    } else {
      ASSERT_EQ(s.code(), ErrorCode::kUnavailable) << s.message();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  producer.join();

  ASSERT_EQ(seen.size(), static_cast<size_t>(kRecords));
  for (int64_t key = 1; key <= kRecords; ++key) {
    EXPECT_EQ(seen[static_cast<size_t>(key - 1)], SampleCommit(key));
  }
}

TEST_F(WalTailTest, RecordAppendedJustBeforeARotationIsNeverSkipped) {
  // A reader at the clean end of a segment reads short, then lists the
  // directory to learn whether the segment is finished. A record appended,
  // and a rotation made, between those two steps must still be served: the
  // newer segment proves only that the NEXT read of this one is final. The
  // writer rotates after every commit while more spinning readers than
  // cores tail the journal, so some reader is regularly preempted inside
  // that window for longer than the writer's fsync.
  constexpr int64_t kRecords = 300;
  const unsigned readers = 2 * std::max(2u, std::thread::hardware_concurrency());
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  const uint64_t start_seq = writer->current_seq();

  std::vector<std::vector<std::vector<WalOp>>> seen(readers);
  std::vector<std::thread> tails;
  for (unsigned r = 0; r < readers; ++r) {
    tails.emplace_back([this, r, start_seq, &seen] {
      WalTailReader reader(wal_dir());
      reader.Seek(start_seq, 0);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (seen[r].size() < static_cast<size_t>(kRecords) &&
             std::chrono::steady_clock::now() < deadline) {
        WalTailReader::RecordRef ref;
        Status s = reader.Next(&ref);
        if (s.ok()) {
          auto decoded = DecodeWalRecord(ref.bytes);
          ASSERT_TRUE(decoded.ok()) << decoded.status().message();
          seen[r].push_back(std::move(*decoded));
        } else {
          ASSERT_EQ(s.code(), ErrorCode::kUnavailable) << s.message();
        }
      }
    });
  }
  for (int64_t key = 1; key <= kRecords; ++key) {
    ASSERT_TRUE(writer->Commit(SampleCommit(key)).ok());
    uint64_t ignored = 0;
    ASSERT_TRUE(writer->Rotate(&ignored).ok());
  }
  for (std::thread& tail : tails) tail.join();

  for (unsigned r = 0; r < readers; ++r) {
    ASSERT_EQ(seen[r].size(), static_cast<size_t>(kRecords)) << "reader " << r;
    for (int64_t key = 1; key <= kRecords; ++key) {
      ASSERT_EQ(seen[r][static_cast<size_t>(key - 1)], SampleCommit(key))
          << "reader " << r << " skipped or reordered record " << key;
    }
  }
}

TEST_F(WalTailTest, EpochStampsTheHeaderAndEveryPosition) {
  auto opened = WalWriter::Open(wal_dir(), /*epoch=*/5);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  EXPECT_EQ(writer->epoch(), 5u);
  uint64_t commit_seq = 0;
  WalPosition pos;
  ASSERT_TRUE(writer->Append(SampleCommit(1), &commit_seq, &pos).ok());
  ASSERT_TRUE(writer->WaitDurable(commit_seq).ok());
  EXPECT_EQ(pos.epoch, 5u);
  EXPECT_EQ(writer->current_position().epoch, 5u);

  // Rotation keeps the epoch; the on-disk headers carry it.
  uint64_t rotated = 0;
  ASSERT_TRUE(writer->Rotate(&rotated).ok());
  writer.reset();
  const std::vector<WalSegment> segments = *ListWalSegments(wal_dir());
  for (const WalSegment& segment : segments) {
    auto contents = ReadWalSegment(segment.path);
    ASSERT_TRUE(contents.ok()) << contents.status().message();
    EXPECT_EQ(contents->epoch, 5u);
  }

  // The tail reader reports the header's epoch on every record.
  WalTailReader reader(wal_dir());
  reader.Seek(pos.seq, 0);
  WalTailReader::RecordRef ref;
  ASSERT_TRUE(reader.Next(&ref).ok());
  EXPECT_EQ(ref.epoch, 5u);

  EXPECT_EQ(WalSegmentHeader(1, 5).size(), kWalSegmentHeaderSize);
}

TEST_F(WalTailTest, V1HeaderSegmentsStillReadAsEpochZero) {
  // A pre-replication journal: "SLTWAL1\n" | seq, no epoch. Build one from a
  // real record and check both readers accept it and report epoch 0.
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const uint64_t seq = (*opened)->current_seq();
  ASSERT_TRUE((*opened)->Commit(SampleCommit(1)).ok());
  opened->reset();
  const std::string v2 = ReadAll(SegmentPath(seq));
  const std::string record = v2.substr(kWalSegmentHeaderSize);

  const std::string v1_dir = (dir_ / "v1").string();
  std::filesystem::create_directories(v1_dir);
  std::string v1 = "SLTWAL1\n";
  uint64_t seq_le = seq;
  char seq_bytes[8];
  for (int i = 0; i < 8; ++i) {
    seq_bytes[i] = static_cast<char>((seq_le >> (8 * i)) & 0xff);
  }
  v1.append(seq_bytes, 8);
  v1 += record;
  WriteAll(v1_dir + "/" + WalSegmentFileName(seq), v1);

  auto contents = ReadWalSegment(v1_dir + "/" + WalSegmentFileName(seq));
  ASSERT_TRUE(contents.ok()) << contents.status().message();
  EXPECT_EQ(contents->epoch, 0u);
  EXPECT_FALSE(contents->torn);
  ASSERT_EQ(contents->commits.size(), 1u);
  EXPECT_EQ(contents->commits[0], SampleCommit(1));

  WalTailReader reader(v1_dir);
  reader.Seek(seq, 0);
  WalTailReader::RecordRef ref;
  ASSERT_TRUE(reader.Next(&ref).ok());
  EXPECT_EQ(ref.epoch, 0u);
  EXPECT_EQ(*DecodeWalRecord(ref.bytes), SampleCommit(1));
}

TEST_F(WalTailTest, WaitDurableTimesOutBehindAStalledFsyncLeader) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);

  // Stall every fsync: the first committer becomes the group-commit leader
  // and sits in the (injected) fsync delay.
  FaultInjector::Instance().Arm(fault_points::kWalFsync,
                                FaultInjector::DelayAlways(400));
  std::thread leader([&writer] {
    EXPECT_TRUE(writer->Commit(WalTailTest::SampleCommit(1)).ok());
  });
  // The leader sets sync-in-flight before entering the delay; once the fault
  // has fired it is committed to the stalled fsync.
  const auto arm_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (FaultInjector::Instance().fires(fault_points::kWalFsync) == 0 &&
         std::chrono::steady_clock::now() < arm_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(FaultInjector::Instance().fires(fault_points::kWalFsync), 1u);

  // A second committer with a bounded durable wait must give up with
  // kDeadlineExceeded instead of blocking behind the leader — the statement
  // then simply withholds its acknowledgement.
  writer->set_durable_timeout_ms(50);
  uint64_t commit_seq = 0;
  ASSERT_TRUE(writer->Append(SampleCommit(2), &commit_seq).ok());
  Status waited = writer->WaitDurable(commit_seq);
  EXPECT_EQ(waited.code(), ErrorCode::kDeadlineExceeded) << waited.message();

  leader.join();
  FaultInjector::Instance().Reset();
  // With the fault cleared the same commit becomes durable.
  writer->set_durable_timeout_ms(0);
  EXPECT_TRUE(writer->WaitDurable(commit_seq).ok());
}

}  // namespace
}  // namespace seltrig
