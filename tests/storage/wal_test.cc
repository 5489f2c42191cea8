#include "storage/wal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/codec.h"
#include "common/fault_injector.h"
#include "common/file_util.h"
#include "legacy_wal_record.h"
#include "types/value.h"

namespace seltrig {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("seltrig_wal_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    FaultInjector::Instance().Reset();
  }
  void TearDown() override {
    FaultInjector::Instance().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string wal_dir() const { return (dir_ / "wal").string(); }

  // The record a WalWriter frames for `ops`, read back from a scratch journal.
  std::string WrittenRecord(const std::vector<WalOp>& ops) {
    const std::string scratch = (dir_ / "encode").string();
    std::filesystem::remove_all(scratch);
    auto opened = WalWriter::Open(scratch);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    std::unique_ptr<WalWriter> writer = std::move(*opened);
    const std::string path = scratch + "/" + WalSegmentFileName(writer->current_seq());
    EXPECT_TRUE(writer->Commit(ops).ok());
    writer.reset();
    std::string record = ReadFileToString(path)->substr(kWalSegmentHeaderSize);
    std::filesystem::remove_all(scratch);
    return record;
  }

  static std::vector<WalOp> SampleCommit(int64_t key) {
    return {
        WalOp::Insert("t", {Value::Int(key), Value::String("alpha")}),
        WalOp::Update("t", {Value::Int(key), Value::String("alpha")},
                      {Value::Int(key), Value::String("beta")}),
        WalOp::Delete("t", {Value::Int(key), Value::String("beta")}),
        WalOp::Statement("CREATE TABLE t2 (x INT)"),
        WalOp::TriggerState("trig", true, 3),
    };
  }

  std::filesystem::path dir_;
};

TEST(Crc32cTest, MatchesKnownVectors) {
  // The canonical CRC32C check value (RFC 3720 appendix B / "123456789").
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // Seed chaining composes partial checksums.
  uint32_t chained =
      Crc32c(std::string_view("6789"), Crc32c(std::string_view("12345")));
  EXPECT_EQ(chained, Crc32c("123456789"));
}

TEST_F(WalTest, RoundTripPreservesOpsExactly) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  std::vector<WalOp> first = SampleCommit(1);
  std::vector<WalOp> second = {
      WalOp::Insert("log", {Value::Null(), Value::String("x,\"y\"\nz")}),
  };
  ASSERT_TRUE(writer->Commit(first).ok());
  ASSERT_TRUE(writer->Commit(second).ok());

  auto segments = *ListWalSegments(wal_dir());
  ASSERT_EQ(segments.size(), 1u);
  WalSegmentContents contents = *ReadWalSegment(segments[0].path);
  EXPECT_FALSE(contents.torn);
  ASSERT_EQ(contents.commits.size(), 2u);
  EXPECT_EQ(contents.commits[0], first);
  EXPECT_EQ(contents.commits[1], second);
}

TEST_F(WalTest, EmptyAppendIsNotACommit) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  uint64_t seq = 99;
  ASSERT_TRUE(writer->Append({}, &seq).ok());
  EXPECT_EQ(seq, 0u);  // nothing to wait on
  auto segments = *ListWalSegments(wal_dir());
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_TRUE((*ReadWalSegment(segments[0].path)).commits.empty());
}

TEST_F(WalTest, EmptyJournalDirectoryListsNoSegments) {
  auto segments = *ListWalSegments(wal_dir());  // directory does not exist
  EXPECT_TRUE(segments.empty());
}

TEST_F(WalTest, TornTailIsDetectedAndBounded) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  ASSERT_TRUE(writer->Commit(SampleCommit(1)).ok());
  ASSERT_TRUE(writer->Commit(SampleCommit(2)).ok());
  auto segments = *ListWalSegments(wal_dir());
  ASSERT_EQ(segments.size(), 1u);
  const std::string path = segments[0].path;
  const uint64_t full_size = std::filesystem::file_size(path);
  writer.reset();

  // Cut the file mid-way through the second record: the reader must keep the
  // first commit, flag the tear, and report the safe prefix length.
  WalSegmentContents intact = *ReadWalSegment(path);
  ASSERT_EQ(intact.commits.size(), 2u);
  ASSERT_TRUE(TruncateFile(path, full_size - 5).ok());
  WalSegmentContents torn = *ReadWalSegment(path);
  EXPECT_TRUE(torn.torn);
  ASSERT_EQ(torn.commits.size(), 1u);
  EXPECT_EQ(torn.commits[0], SampleCommit(1));
  // Truncating to the reported safe prefix yields a clean segment again.
  ASSERT_TRUE(TruncateFile(path, torn.valid_bytes).ok());
  WalSegmentContents repaired = *ReadWalSegment(path);
  EXPECT_FALSE(repaired.torn);
  EXPECT_EQ(repaired.commits.size(), 1u);
}

TEST_F(WalTest, CorruptChecksumStopsReplayAtTheBadRecord) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  ASSERT_TRUE(writer->Commit(SampleCommit(1)).ok());
  ASSERT_TRUE(writer->Commit(SampleCommit(2)).ok());
  auto segments = *ListWalSegments(wal_dir());
  const std::string path = segments[0].path;
  WalSegmentContents intact = *ReadWalSegment(path);
  ASSERT_EQ(intact.commits.size(), 2u);
  writer.reset();

  // Flip one payload byte in the last record; its CRC no longer matches.
  std::string bytes = *ReadFileToString(path);
  bytes[bytes.size() - 1] ^= 0x40;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  WalSegmentContents corrupt = *ReadWalSegment(path);
  EXPECT_TRUE(corrupt.torn);
  ASSERT_EQ(corrupt.commits.size(), 1u);
  EXPECT_EQ(corrupt.commits[0], SampleCommit(1));
}

TEST_F(WalTest, TornHeaderOnlySegmentHasNoCommits) {
  // A crash can die right after creating a segment file: header only, or even
  // a partial header. Both must read as "no commits, torn/empty tail".
  std::filesystem::create_directories(wal_dir());
  const std::string path = wal_dir() + "/" + WalSegmentFileName(7);
  {
    std::ofstream out(path, std::ios::binary);
    out << "SLTWAL1\n";  // header magic but a truncated seq field
    out.write("\x07\x00\x00", 3);
  }
  WalSegmentContents contents = *ReadWalSegment(path);
  EXPECT_TRUE(contents.commits.empty());
  EXPECT_TRUE(contents.torn);
}

TEST_F(WalTest, RotationStartsAFreshSegmentAndDeleteDropsOldOnes) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  const uint64_t first_seq = writer->current_seq();
  ASSERT_TRUE(writer->Commit(SampleCommit(1)).ok());
  uint64_t new_seq = 0;
  ASSERT_TRUE(writer->Rotate(&new_seq).ok());
  EXPECT_EQ(new_seq, first_seq + 1);
  ASSERT_TRUE(writer->Commit(SampleCommit(2)).ok());

  auto segments = *ListWalSegments(wal_dir());
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ((*ReadWalSegment(segments[0].path)).commits.size(), 1u);
  EXPECT_EQ((*ReadWalSegment(segments[1].path)).commits.size(), 1u);

  ASSERT_TRUE(writer->DeleteSegmentsBelow(new_seq).ok());
  segments = *ListWalSegments(wal_dir());
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].seq, new_seq);
}

TEST_F(WalTest, ReopenNeverAppendsToAnExistingSegment) {
  {
    auto opened = WalWriter::Open(wal_dir());
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    std::unique_ptr<WalWriter> writer = std::move(*opened);
    ASSERT_TRUE(writer->Commit(SampleCommit(1)).ok());
  }
  auto reopen = WalWriter::Open(wal_dir());
  ASSERT_TRUE(reopen.ok());
  std::unique_ptr<WalWriter> reopened = std::move(*reopen);
  ASSERT_TRUE(reopened->Commit(SampleCommit(2)).ok());
  auto segments = *ListWalSegments(wal_dir());
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_LT(segments[0].seq, segments[1].seq);
}

TEST_F(WalTest, SyncModesAllKeepTheJournalReadable) {
  for (WalSyncMode mode :
       {WalSyncMode::kOff, WalSyncMode::kCommit, WalSyncMode::kBatch}) {
    std::filesystem::remove_all(wal_dir());
    auto opened = WalWriter::Open(wal_dir());
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    std::unique_ptr<WalWriter> writer = std::move(*opened);
    writer->set_sync_mode(mode);
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer->Commit({WalOp::Insert("t", {Value::Int(i)})}).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
    auto segments = *ListWalSegments(wal_dir());
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ((*ReadWalSegment(segments[0].path)).commits.size(), 10u)
        << "mode " << static_cast<int>(mode);
  }
}

TEST_F(WalTest, InjectedAppendFaultFailsTheCommit) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  {
    fault::ScopedFault fail(fault_points::kWalAppend, FaultInjector::FailOnce());
    FaultInjector::Instance().Enable(true);
    EXPECT_FALSE(writer->Commit(SampleCommit(1)).ok());
  }
  FaultInjector::Instance().Reset();
  // The failed commit left no bytes behind; the journal stays writable.
  ASSERT_TRUE(writer->Commit(SampleCommit(2)).ok());
  auto segments = *ListWalSegments(wal_dir());
  WalSegmentContents contents = *ReadWalSegment(segments[0].path);
  ASSERT_EQ(contents.commits.size(), 1u);
  EXPECT_EQ(contents.commits[0], SampleCommit(2));
}

TEST_F(WalTest, ListWalSegmentsAcceptsSequencesWiderThanEightDigits) {
  // WalSegmentFileName pads to 8 digits but grows past that for large
  // sequences; listing must parse by pattern, or such segments would be
  // invisible to recovery (lost commits) and to Open (restarted numbering).
  std::filesystem::create_directories(wal_dir());
  const uint64_t wide = 123456789;  // 9 digits
  ASSERT_EQ(WalSegmentFileName(wide), "wal-123456789.log");
  std::ofstream(wal_dir() + "/" + WalSegmentFileName(3)).put('\n');
  std::ofstream(wal_dir() + "/" + WalSegmentFileName(wide)).put('\n');

  auto segments = *ListWalSegments(wal_dir());
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].seq, 3u);
  EXPECT_EQ(segments[1].seq, wide);

  // Open continues numbering past the wide segment instead of colliding.
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ((*opened)->current_seq(), wide + 1);
}

TEST_F(WalTest, OverlongRowCountReadsAsCorruptionNotAllocation) {
  // A CRC-valid but crafted record can claim a row with ~2^30 values; the
  // reader must treat the impossible count (more values than payload bytes)
  // as corruption instead of reserving gigabytes and dying on bad_alloc.
  std::filesystem::create_directories(wal_dir());
  const std::string path = wal_dir() + "/" + WalSegmentFileName(1);
  auto put_u32 = [](std::string* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  std::string payload;
  put_u32(&payload, 1);  // one op
  payload.push_back(1);  // WalOp::Kind::kInsert
  put_u32(&payload, 1);  // table name length
  payload.push_back('t');
  put_u32(&payload, (1u << 30) - 1);  // row value count: absurd but < kMax
  std::string file("SLTWAL1\n", 8);
  put_u32(&file, 1);  // segment seq (u64 LE, low word)
  put_u32(&file, 0);
  put_u32(&file, static_cast<uint32_t>(payload.size()));
  put_u32(&file, Crc32c(payload));
  file += payload;
  std::ofstream(path, std::ios::binary).write(file.data(),
                                              static_cast<std::streamsize>(file.size()));

  Result<WalSegmentContents> contents = ReadWalSegment(path);
  ASSERT_TRUE(contents.ok()) << contents.status().message();
  EXPECT_TRUE(contents->torn);
  EXPECT_TRUE(contents->commits.empty());
}

// Values at the edges of every varint width: INT64 extremes, negative and
// extreme dates, empty strings and strings whose length needs a two- or
// three-byte varint.
std::vector<WalOp> EdgeValueCommit() {
  const std::string s128(128, 'a');
  const std::string s20k(20000, 'b');
  return {
      WalOp::Insert("edge", {Value::Int(INT64_MIN), Value::Int(INT64_MAX),
                             Value::Int(0), Value::Int(-1), Value::Int(63),
                             Value::Int(-64), Value::Int(64)}),
      WalOp::Insert("edge", {Value::Date(-719528), Value::Date(INT32_MIN),
                             Value::Date(INT32_MAX), Value::Date(0)}),
      WalOp::Update("edge", {Value::String(""), Value::String(std::string(127, 'c'))},
                    {Value::String(s128), Value::String(s20k)}),
      WalOp::Delete("", {Value::Double(-0.0), Value::Double(1e308), Value::Bool(true),
                         Value::Bool(false), Value::Null()}),
      WalOp::Statement(""),
      WalOp::TriggerState("trig", false, -5),
      WalOp::TriggerState("trig", true, INT64_MAX),
      WalOp::Ddl("edge", "ALTER TABLE edge ADD COLUMN x INT", UINT64_MAX),
  };
}

// Writes `records` (already framed) into a v2 segment file.
void WriteSegment(const std::string& path, const std::vector<std::string>& records) {
  std::string file = WalSegmentHeader(1, 0);
  for (const std::string& r : records) file += r;
  std::ofstream(path, std::ios::binary)
      .write(file.data(), static_cast<std::streamsize>(file.size()));
}

// Frames a payload as a compact record: length with the top bit set, CRC.
std::string CompactRecord(const std::string& payload) {
  std::string record;
  codec::PutU32(&record, static_cast<uint32_t>(payload.size()) | (1u << 31));
  codec::PutU32(&record, Crc32c(payload));
  return record + payload;
}

TEST_F(WalTest, CompactRecordsRoundTripEdgeValues) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const std::string path = wal_dir() + "/" + WalSegmentFileName((*opened)->current_seq());
  ASSERT_TRUE((*opened)->Commit(EdgeValueCommit()).ok());
  opened->reset();

  const std::string file = *ReadFileToString(path);
  size_t offset = kWalSegmentHeaderSize;
  uint32_t length_field = 0;
  ASSERT_TRUE(codec::GetU32(file, &offset, &length_field));
  EXPECT_NE(length_field & (1u << 31), 0u) << "written records are compact";

  WalSegmentContents contents = *ReadWalSegment(path);
  EXPECT_FALSE(contents.torn);
  ASSERT_EQ(contents.commits.size(), 1u);
  EXPECT_EQ(contents.commits[0], EdgeValueCommit());
  Result<std::vector<WalOp>> decoded =
      DecodeWalRecord(std::string_view(file).substr(kWalSegmentHeaderSize));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, EdgeValueCommit());
}

TEST_F(WalTest, CompactRecordIsSmallerThanLegacy) {
  EXPECT_LT(WrittenRecord(SampleCommit(7)).size(),
            legacy_wal::EncodeRecord(SampleCommit(7)).size());
}

TEST_F(WalTest, LegacyRecordsStillReplayBesideCompactOnes) {
  // A segment begun by an older build (legacy records) and continued by this
  // one (compact records): every reader decodes both, in order.
  std::filesystem::create_directories(wal_dir());
  const std::string path = wal_dir() + "/" + WalSegmentFileName(1);
  WriteSegment(path, {legacy_wal::EncodeRecord(SampleCommit(1)),
                      legacy_wal::EncodeRecord(EdgeValueCommit()),
                      WrittenRecord(SampleCommit(2))});

  WalSegmentContents contents = *ReadWalSegment(path);
  EXPECT_FALSE(contents.torn);
  ASSERT_EQ(contents.commits.size(), 3u);
  EXPECT_EQ(contents.commits[0], SampleCommit(1));
  EXPECT_EQ(contents.commits[1], EdgeValueCommit());
  EXPECT_EQ(contents.commits[2], SampleCommit(2));

  WalTailReader reader(wal_dir());
  reader.Seek(1, 0);
  for (const std::vector<WalOp>& expected :
       {SampleCommit(1), EdgeValueCommit(), SampleCommit(2)}) {
    WalTailReader::RecordRef ref;
    ASSERT_TRUE(reader.Next(&ref).ok());
    Result<std::vector<WalOp>> decoded = DecodeWalRecord(ref.bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(*decoded, expected);
  }
}

TEST_F(WalTest, TruncatedOrOverlongVarintsReadAsTorn) {
  std::filesystem::create_directories(wal_dir());
  const std::string path = wal_dir() + "/" + WalSegmentFileName(1);
  // One insert into "t" whose single INT value is the varint under test.
  auto insert_with_int = [](const std::string& varint) {
    std::string payload;
    payload.push_back(1);  // one op
    payload.push_back(1);  // WalOp::Kind::kInsert
    payload.push_back(1);  // table name length
    payload.push_back('t');
    payload.push_back(1);  // one value
    payload.push_back(static_cast<char>(TypeId::kInt));
    return payload + varint;
  };
  const std::string good = insert_with_int(std::string("\x7f", 1));
  const std::vector<std::string> bad = {
      insert_with_int(std::string("\xff", 1)),             // truncated
      insert_with_int(std::string(10, '\xff') + '\x01'),  // an 11th byte
      insert_with_int(std::string(9, '\xff') + '\x02'),   // a 65th bit
      insert_with_int(std::string("\x81\x00", 2)),        // zero padding
      std::string("\x80", 1),                             // truncated op count
  };
  for (const std::string& payload : bad) {
    SCOPED_TRACE(::testing::PrintToString(payload));
    WriteSegment(path, {CompactRecord(good), CompactRecord(payload)});
    WalSegmentContents contents = *ReadWalSegment(path);
    EXPECT_TRUE(contents.torn);
    EXPECT_EQ(contents.commits.size(), 1u);
    EXPECT_EQ(DecodeWalRecord(CompactRecord(payload)).status().code(),
              ErrorCode::kDataLoss);
  }
  EXPECT_TRUE(DecodeWalRecord(CompactRecord(good)).ok());
}

TEST_F(WalTest, AbsurdVarintRowCountReadsAsCorruptionNotAllocation) {
  // The compact twin of the legacy overlong-row-count test: a CRC-valid
  // record claims 2^40 values in a row, and must be rejected before reserve().
  std::filesystem::create_directories(wal_dir());
  const std::string path = wal_dir() + "/" + WalSegmentFileName(1);
  std::string payload;
  payload.push_back(1);  // one op
  payload.push_back(1);  // WalOp::Kind::kInsert
  payload.push_back(1);  // table name length
  payload.push_back('t');
  codec::PutVarint(&payload, uint64_t{1} << 40);
  WriteSegment(path, {CompactRecord(payload)});

  Result<WalSegmentContents> contents = ReadWalSegment(path);
  ASSERT_TRUE(contents.ok()) << contents.status().message();
  EXPECT_TRUE(contents->torn);
  EXPECT_TRUE(contents->commits.empty());
}

TEST(CodecTest, VarintsRoundTripAtEveryWidth) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{16383}, uint64_t{16384}, uint64_t{1} << 35,
                     UINT64_MAX - 1, UINT64_MAX}) {
    std::string out;
    codec::PutVarint(&out, v);
    size_t offset = 0;
    uint64_t back = 0;
    ASSERT_TRUE(codec::GetVarint(out, &offset, &back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(offset, out.size());
  }
  EXPECT_EQ(codec::ZigZag(0), 0u);
  EXPECT_EQ(codec::ZigZag(-1), 1u);
  EXPECT_EQ(codec::ZigZag(1), 2u);
  EXPECT_EQ(codec::ZigZag(INT64_MIN), UINT64_MAX);
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(codec::UnZigZag(codec::ZigZag(v)), v);
  }
}

TEST_F(WalTest, BatchThresholdFsyncRunsInWaitDurableNotAppend) {
  // Under kBatch the threshold fsync must happen in WaitDurable — which the
  // engine calls after dropping the storage writer lock — never inside
  // Append, where it would stall every other session. With fsync rigged to
  // fail, appends past the threshold still succeed; WaitDurable reports it.
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  writer->set_sync_mode(WalSyncMode::kBatch);

  fault::ScopedFault fail(fault_points::kWalFsync, FaultInjector::FailAlways());
  FaultInjector::Instance().Enable(true);
  uint64_t seq = 0;
  for (uint64_t i = 0; i < WalWriter::kBatchSyncEvery; ++i) {
    ASSERT_TRUE(writer->Append({WalOp::Insert("t", {Value::Int(1)})}, &seq).ok())
        << "append " << i << " fsynced under the writer mutex";
  }
  EXPECT_FALSE(writer->WaitDurable(seq).ok())
      << "threshold reached: the deferred batch fsync must run (and fail) here";
}

TEST_F(WalTest, InjectedFsyncFaultFailsTheCommitUnderCommitMode) {
  auto opened = WalWriter::Open(wal_dir());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  {
    fault::ScopedFault fail(fault_points::kWalFsync, FaultInjector::FailOnce());
    FaultInjector::Instance().Enable(true);
    EXPECT_FALSE(writer->Commit(SampleCommit(1)).ok());
  }
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(writer->Commit(SampleCommit(2)).ok());
}

}  // namespace
}  // namespace seltrig
