#include "storage/wal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
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

// The record an audited SELECT writes through a logging trigger: one audit
// row per accessed id, each repeating the table name, the timestamp, the
// user and the statement text.
std::vector<WalOp> AuditCommit(int rows) {
  const std::string sql =
      "SELECT c_custkey, c_name FROM customer WHERE c_mktsegment = 'BUILDING'";
  std::vector<WalOp> ops;
  for (int i = 0; i < rows; ++i) {
    ops.push_back(WalOp::Insert(
        "audit_log", {Value::String("2026-01-01 00:00:00"), Value::String("bench"),
                      Value::String(sql), Value::Int(1000 + i)}));
  }
  return ops;
}

TEST_F(WalTest, RepeatedStringsAreWrittenOnce) {
  const std::vector<WalOp> commit = AuditCommit(93);
  const std::string record = EncodeWalRecord(commit);
  EXPECT_EQ(record, WrittenRecord(commit));
  EXPECT_LT(record.size() * 5, compact_wal::EncodeRecord(commit).size());
  // Past the first row, a row costs its kind byte, a table reference, its
  // value count, three two-byte cell references and a three-byte key.
  EXPECT_EQ(record.size(), EncodeWalRecord(AuditCommit(92)).size() + 12);
  Result<std::vector<WalOp>> decoded = DecodeWalRecord(record);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, commit);
}

TEST_F(WalTest, RecordWithoutRepeatedStringsIsTheUnsharedCompactEncoding) {
  // Every string distinct: nothing to reference, so the bytes are exactly
  // those written before records shared strings. Repeated empty strings are
  // never referenced either (a reference is no shorter).
  const std::vector<WalOp> commit = {
      WalOp::Insert("t", {Value::Int(1), Value::String("alpha"), Value::String(""),
                          Value::Null(), Value::Double(2.5), Value::Date(-3)}),
      WalOp::Update("u", {Value::String("beta"), Value::String("")},
                    {Value::String("gamma"), Value::Bool(true)}),
      WalOp::Delete("v", {Value::String(std::string(200, 'x'))}),
      WalOp::Statement("CREATE TABLE w (x INT)"),
      WalOp::TriggerState("trig", true, 3),
      WalOp::Ddl("w", "ALTER TABLE w ADD COLUMN y INT", 2),
  };
  EXPECT_EQ(EncodeWalRecord(commit), compact_wal::EncodeRecord(commit));
  EXPECT_EQ(WrittenRecord(commit), compact_wal::EncodeRecord(commit));
}

TEST_F(WalTest, LegacyRecordsStillReplayBesideCompactOnes) {
  // A segment begun by an older build (legacy records), continued by a build
  // that spelled every string out (compact records without references) and
  // then by this one (compact records with references): every reader
  // decodes all three, in order.
  std::filesystem::create_directories(wal_dir());
  const std::string path = wal_dir() + "/" + WalSegmentFileName(1);
  const std::vector<std::vector<WalOp>> expected = {
      SampleCommit(1), EdgeValueCommit(), SampleCommit(2), AuditCommit(5),
      SampleCommit(3), AuditCommit(7)};
  const std::string shared = WrittenRecord(AuditCommit(7));
  ASSERT_LT(shared.size(), compact_wal::EncodeRecord(AuditCommit(7)).size())
      << "the last record must use references";
  WriteSegment(path, {legacy_wal::EncodeRecord(SampleCommit(1)),
                      legacy_wal::EncodeRecord(EdgeValueCommit()),
                      compact_wal::EncodeRecord(SampleCommit(2)),
                      compact_wal::EncodeRecord(AuditCommit(5)),
                      WrittenRecord(SampleCommit(3)), shared});

  WalSegmentContents contents = *ReadWalSegment(path);
  EXPECT_FALSE(contents.torn);
  EXPECT_EQ(contents.commits, expected);

  WalTailReader reader(wal_dir());
  reader.Seek(1, 0);
  for (const std::vector<WalOp>& commit : expected) {
    WalTailReader::RecordRef ref;
    ASSERT_TRUE(reader.Next(&ref).ok());
    Result<std::vector<WalOp>> decoded = DecodeWalRecord(ref.bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(*decoded, commit);
  }
  WalTailReader::RecordRef past_end;
  EXPECT_EQ(reader.Next(&past_end).code(), ErrorCode::kUnavailable);
}

// Seeded commits mixing every op kind with repeated and unique strings, empty
// strings, cells equal to a table name, UPD images sharing cells, and some
// commits with more than 128 distinct strings, so that references need
// two-byte indexes.
std::vector<std::vector<WalOp>> GeneratedCommits(uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](uint64_t n) { return static_cast<uint64_t>(rng() % n); };
  const std::vector<std::string> tables = {"t", "audit_log", "customer", ""};
  std::vector<std::vector<WalOp>> commits;
  for (int c = 0; c < count; ++c) {
    std::vector<std::string> pool = tables;
    pool.push_back(std::string(381, static_cast<char>('a' + c % 26)));
    const int distinct = c % 5 == 0 ? 150 + static_cast<int>(pick(100))
                                    : static_cast<int>(pick(8));
    for (int i = 0; i < distinct; ++i) {
      std::string name = std::to_string(c);
      name += '_';
      name += std::to_string(i);
      name.append(pick(20), 'z');
      pool.push_back(std::move(name));
    }
    // Repeat, most of the time, one of the strings spelled out so far.
    auto string_value = [&]() -> Value {
      return Value::String(pool[pick(4) == 0 ? pick(4) : pick(pool.size())]);
    };
    auto random_value = [&]() -> Value {
      switch (pick(6)) {
        case 0:
          return Value::Null();
        case 1:
          return Value::Int(static_cast<int64_t>(rng()));
        case 2:
          return Value::Date(static_cast<int32_t>(rng()));
        case 3:
          return Value::Double(static_cast<double>(pick(1000)) / 7);
        case 4:
          return Value::Bool(pick(2) == 0);
        default:
          return string_value();
      }
    };
    auto random_row = [&]() {
      Row row;
      for (uint64_t i = 0, n = pick(6); i < n; ++i) row.push_back(random_value());
      return row;
    };
    std::vector<WalOp> ops;
    // The big commits spell their distinct strings out first, then repeat
    // them, so late references carry indexes above 127.
    if (distinct >= 128) {
      for (size_t i = tables.size(); i < pool.size(); ++i) {
        ops.push_back(WalOp::Insert(tables[pick(tables.size())],
                                    {Value::String(pool[i]), Value::Int(static_cast<int64_t>(i))}));
      }
    }
    for (uint64_t i = 0, n = 1 + pick(30); i < n; ++i) {
      const std::string& table = tables[pick(tables.size())];
      switch (pick(7)) {
        case 0:
          ops.push_back(WalOp::Insert(table, random_row()));
          break;
        case 1:
          ops.push_back(WalOp::Delete(table, random_row()));
          break;
        case 2: {
          Row old_row = random_row();
          Row new_row = old_row;
          if (!new_row.empty()) new_row[pick(new_row.size())] = random_value();
          ops.push_back(WalOp::Update(table, std::move(old_row), std::move(new_row)));
          break;
        }
        case 3:
          ops.push_back(WalOp::Statement(string_value().AsString()));
          break;
        case 4:
          ops.push_back(WalOp::TriggerState(string_value().AsString(), pick(2) == 0,
                                            static_cast<int64_t>(pick(9)) - 4));
          break;
        case 5:
          ops.push_back(WalOp::Ddl(table, string_value().AsString(), pick(1000)));
          break;
        default:  // a cell equal to a table name
          ops.push_back(WalOp::Insert(table, {Value::String(tables[pick(3)]),
                                              Value::String(table)}));
          break;
      }
    }
    commits.push_back(std::move(ops));
  }
  return commits;
}

// True when some non-empty string occurs twice in `ops`.
bool RepeatsAString(const std::vector<WalOp>& ops) {
  std::set<std::string> seen;
  auto repeats = [&seen](const std::string& s) {
    return !s.empty() && !seen.insert(s).second;
  };
  for (const WalOp& op : ops) {
    bool repeat = false;
    if (op.kind == WalOp::Kind::kStatement) {
      repeat = repeats(op.sql);
    } else {
      repeat = repeats(op.table) ||
               (op.kind == WalOp::Kind::kDdl && repeats(op.sql));
    }
    for (const Row* row : {&op.row, &op.row2}) {
      for (const Value& v : *row) {
        if (v.type() == TypeId::kString) repeat = repeats(v.AsString()) || repeat;
      }
    }
    if (repeat) return true;
  }
  return false;
}

TEST_F(WalTest, GeneratedCommitsRoundTripAndNeverGrow) {
  const std::vector<std::vector<WalOp>> commits = GeneratedCommits(20261021, 120);
  std::vector<std::string> records;
  size_t unshared_bytes = 0;
  size_t shared_bytes = 0;
  for (const std::vector<WalOp>& commit : commits) {
    const std::string record = EncodeWalRecord(commit);
    const std::string unshared = compact_wal::EncodeRecord(commit);
    Result<std::vector<WalOp>> decoded = DecodeWalRecord(record);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(*decoded, commit);
    EXPECT_LE(record.size(), unshared.size());
    if (!RepeatsAString(commit)) {
      EXPECT_EQ(record, unshared);
    }
    unshared_bytes += unshared.size();
    shared_bytes += record.size();
    records.push_back(record);
  }
  EXPECT_LT(shared_bytes, unshared_bytes);

  // A reference past index 127 takes a two-byte varint: 200 distinct strings
  // after the table name, then the last of them again.
  std::vector<WalOp> wide;
  for (int i = 0; i < 200; ++i) {
    wide.push_back(WalOp::Insert("w", {Value::String(std::to_string(i) + "_distinct")}));
  }
  const size_t without_repeat = EncodeWalRecord(wide).size();
  wide.push_back(WalOp::Insert("w", {Value::String("199_distinct")}));
  // Kind byte, table reference, value count, reference tag, index 200.
  EXPECT_EQ(EncodeWalRecord(wide).size(), without_repeat + 1 + 1 + 1 + 1 + 2);
  Result<std::vector<WalOp>> wide_decoded = DecodeWalRecord(EncodeWalRecord(wide));
  ASSERT_TRUE(wide_decoded.ok()) << wide_decoded.status().message();
  EXPECT_EQ(*wide_decoded, wide);

  // The same records through a segment: the reader's string table starts
  // empty at every record.
  std::filesystem::create_directories(wal_dir());
  const std::string path = wal_dir() + "/" + WalSegmentFileName(1);
  WriteSegment(path, records);
  WalSegmentContents contents = *ReadWalSegment(path);
  EXPECT_FALSE(contents.torn);
  EXPECT_EQ(contents.commits, commits);
}

TEST_F(WalTest, BadStringReferencesReadAsTorn) {
  std::filesystem::create_directories(wal_dir());
  const std::string path = wal_dir() + "/" + WalSegmentFileName(1);
  constexpr char kRefTag = 0x10;           // a string cell given by reference
  constexpr uint8_t kFirstRef = 0x80;      // kind-byte flag: table is a reference
  constexpr uint8_t kSecondRef = 0x40;     // kind-byte flag: DDL SQL is a reference
  const uint8_t insert = static_cast<uint8_t>(WalOp::Kind::kInsert);
  // Compact: insert into "t" one row whose only cell is `cell`.
  auto insert_with_cell = [&](const std::string& cell) {
    std::string payload;
    payload.push_back(1);  // one op
    payload.push_back(static_cast<char>(insert));
    payload.push_back(1);  // table name length
    payload.push_back('t');
    payload.push_back(1);  // one value
    return payload + cell;
  };
  const std::string good = insert_with_cell(std::string{kRefTag, 0});
  std::string forward;  // op 1's cell names the table op 2 spells out
  forward.push_back(2);
  forward += insert_with_cell(std::string{kRefTag, 1}).substr(1);
  forward += std::string{static_cast<char>(insert), 1, 'u', 0};
  std::string table_ref_out_of_range;
  table_ref_out_of_range.push_back(1);
  table_ref_out_of_range.push_back(static_cast<char>(insert | kFirstRef));
  table_ref_out_of_range.push_back(0);  // index 0, but nothing is spelled out yet
  table_ref_out_of_range.push_back(0);  // no values
  std::string second_ref_on_insert = good;
  second_ref_on_insert[1] = static_cast<char>(insert | kSecondRef);
  const std::vector<std::string> bad_compact = {
      forward,
      insert_with_cell(std::string{kRefTag, 1}),                    // out of range
      insert_with_cell(std::string{kRefTag, '\x80', '\x01'}),      // 128, out of range
      insert_with_cell(std::string{kRefTag}),                       // truncated index
      table_ref_out_of_range,
      second_ref_on_insert,
  };
  for (const std::string& payload : bad_compact) {
    SCOPED_TRACE(::testing::PrintToString(payload));
    WriteSegment(path, {CompactRecord(good), CompactRecord(payload)});
    WalSegmentContents contents = *ReadWalSegment(path);
    EXPECT_TRUE(contents.torn);
    EXPECT_EQ(contents.commits.size(), 1u);
    EXPECT_EQ(DecodeWalRecord(CompactRecord(payload)).status().code(),
              ErrorCode::kDataLoss);
  }
  Result<std::vector<WalOp>> decoded = DecodeWalRecord(CompactRecord(good));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, (std::vector<WalOp>{WalOp::Insert("t", {Value::String("t")})}));

  // A legacy record carries no references: the same shapes, in the legacy
  // encoding, after "t" was spelled out, are corruption too.
  auto legacy_record = [](const std::string& payload) {
    std::string record;
    codec::PutU32(&record, static_cast<uint32_t>(payload.size()));
    codec::PutU32(&record, Crc32c(payload));
    return record + payload;
  };
  auto legacy_payload = [&](int second_kind, const std::string& second_rest) {
    std::string payload;
    codec::PutU32(&payload, 2);  // two ops
    payload.push_back(static_cast<char>(insert));
    codec::PutString(&payload, "t");
    codec::PutU32(&payload, 0);  // no values
    payload.push_back(static_cast<char>(second_kind));
    return payload + second_rest;
  };
  std::string one_ref_cell;
  codec::PutString(&one_ref_cell, "t");
  codec::PutU32(&one_ref_cell, 1);
  one_ref_cell += std::string{kRefTag, 0};
  std::string table_ref_then_no_values{0};
  codec::PutU32(&table_ref_then_no_values, 0);
  const std::string legacy_good = legacy_record(legacy_payload(insert, [] {
    std::string rest;
    codec::PutString(&rest, "t");
    codec::PutU32(&rest, 0);
    return rest;
  }()));
  ASSERT_TRUE(DecodeWalRecord(legacy_good).ok());
  for (const std::string& record :
       {legacy_record(legacy_payload(insert, one_ref_cell)),
        legacy_record(legacy_payload(insert | kFirstRef, table_ref_then_no_values))}) {
    SCOPED_TRACE(::testing::PrintToString(record));
    WriteSegment(path, {legacy_good, record});
    WalSegmentContents contents = *ReadWalSegment(path);
    EXPECT_TRUE(contents.torn);
    EXPECT_EQ(contents.commits.size(), 1u);
    EXPECT_EQ(DecodeWalRecord(record).status().code(), ErrorCode::kDataLoss);
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
