#include "storage/wal.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/checksum.h"
#include "common/codec.h"
#include "common/fault_injector.h"

namespace seltrig {

namespace {

using codec::GetString;
using codec::GetU32;
using codec::GetU64;
using codec::GetVarint;
using codec::PutString;
using codec::PutU32;
using codec::PutU64;
using codec::PutVarint;
using codec::PutVarString;
using codec::UnZigZag;
using codec::ZigZag;

// v2 (current): magic | u64 seq | u64 epoch. v1 (pre-replication journals):
// magic | u64 seq, epoch reads as 0.
constexpr char kSegmentMagic[8] = {'S', 'L', 'T', 'W', 'A', 'L', '2', '\n'};
constexpr char kSegmentMagicV1[8] = {'S', 'L', 'T', 'W', 'A', 'L', '1', '\n'};
constexpr size_t kSegmentHeaderSize = 24;    // magic + u64 seq + u64 epoch
constexpr size_t kSegmentHeaderV1Size = 16;  // magic + u64 seq
constexpr size_t kRecordHeaderSize = 8;      // u32 length + u32 crc
// Records larger than this are rejected at append and treated as corruption
// on read (a torn length field can otherwise claim gigabytes).
constexpr uint32_t kMaxRecordSize = 1u << 30;

// Set in a record header's length field on a compact record. Payloads never
// exceed kMaxRecordSize (2^30), so a legacy header never has this bit set.
constexpr uint32_t kCompactRecord = 1u << 31;

// Splits a record header's length field into the payload length and the
// compact marker; false when the length exceeds kMaxRecordSize.
bool ParseRecordLength(uint32_t field, uint32_t* length, bool* compact) {
  *compact = (field & kCompactRecord) != 0;
  *length = field & ~kCompactRecord;
  return *length <= kMaxRecordSize;
}

// --- Value / Row encoding ---------------------------------------------------
//
// Only compact records are written: op and value counts, string lengths,
// INT and DATE values, failure counts and schema versions are varints
// (zig-zag for signed values). Legacy records, written before the compact
// format, hold counts and string lengths as u32 and those integers as u64;
// PayloadReader decodes both.
//
// Within one compact record, every string spelled out is numbered in payload
// order (0, 1, ...), and a later occurrence of the same bytes may be written
// as a varint reference to the first one's number instead: a cell as
// kStringRefTag + index, an op's table name (or a STMT's SQL, or a TRIG's
// trigger name) with kFirstStringRef on its kind byte, a DDL's SQL with
// kSecondStringRef. A record whose strings are all distinct is byte for byte
// what the compact encoder wrote before references existed.

// A cell tag outside TypeId's range (0-5): a string cell given by reference.
constexpr uint8_t kStringRefTag = 0x10;
// Kind-byte flags (kinds are 1-6): the op's first / second string field is a
// reference.
constexpr uint8_t kFirstStringRef = 0x80;
constexpr uint8_t kSecondStringRef = 0x40;
constexpr uint8_t kOpKindMask = 0x3F;

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

// The encoder's side of a record's string numbering. Keys are views into the
// ops being encoded, so nothing is copied.
class StringTable {
 public:
  // True, with *index set, when `s` was already spelled out in this record
  // and a reference to it is shorter than spelling it out again. Otherwise
  // `s` is about to be spelled out and takes the next number.
  bool Find(std::string_view s, uint64_t* index) {
    if (!s.empty()) {  // a reference to "" is never shorter
      auto [it, inserted] = first_.try_emplace(s, literals_);
      if (!inserted && VarintSize(it->second) < VarintSize(s.size()) + s.size()) {
        *index = it->second;
        return true;
      }
    }
    ++literals_;
    return false;
  }

 private:
  std::unordered_map<std::string_view, uint64_t> first_;
  uint64_t literals_ = 0;
};

void PutValue(std::string* out, const Value& v, StringTable* strings) {
  if (v.type() == TypeId::kString) {
    uint64_t index = 0;
    if (strings->Find(v.AsString(), &index)) {
      out->push_back(static_cast<char>(kStringRefTag));
      PutVarint(out, index);
      return;
    }
  }
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      break;
    case TypeId::kInt:
      PutVarint(out, ZigZag(v.AsInt()));
      break;
    case TypeId::kDate:
      PutVarint(out, ZigZag(v.AsDate()));
      break;
    case TypeId::kDouble: {
      uint64_t bits;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(out, bits);
      break;
    }
    case TypeId::kString:
      PutVarString(out, v.AsString());
      break;
  }
}

void PutRow(std::string* out, const Row& row, StringTable* strings) {
  PutVarint(out, row.size());
  for (const Value& v : row) PutValue(out, v, strings);
}

void PutOp(std::string* out, const WalOp& op, StringTable* strings) {
  // Numbers are taken in payload order: the string fields come right after
  // the kind byte, before any row.
  const std::string& first = op.kind == WalOp::Kind::kStatement ? op.sql : op.table;
  uint64_t first_ref = 0;
  uint64_t second_ref = 0;
  uint8_t kind = static_cast<uint8_t>(op.kind);
  if (strings->Find(first, &first_ref)) kind |= kFirstStringRef;
  if (op.kind == WalOp::Kind::kDdl && strings->Find(op.sql, &second_ref)) {
    kind |= kSecondStringRef;
  }
  out->push_back(static_cast<char>(kind));
  auto put_field = [&](const std::string& s, uint8_t flag, uint64_t ref) {
    if ((kind & flag) != 0) {
      PutVarint(out, ref);
    } else {
      PutVarString(out, s);
    }
  };
  put_field(first, kFirstStringRef, first_ref);
  // seltrig-lint: dispatch(WalOp::Kind)
  switch (op.kind) {
    case WalOp::Kind::kInsert:
    case WalOp::Kind::kDelete:
      PutRow(out, op.row, strings);
      break;
    case WalOp::Kind::kUpdate:
      PutRow(out, op.row, strings);
      PutRow(out, op.row2, strings);
      break;
    case WalOp::Kind::kStatement:
      break;
    case WalOp::Kind::kTriggerState:
      out->push_back(op.quarantined ? 1 : 0);
      PutVarint(out, ZigZag(op.failures));
      break;
    case WalOp::Kind::kDdl:
      put_field(op.sql, kSecondStringRef, second_ref);
      PutVarint(out, op.schema_version);
      break;
  }
}

// Bounds-checked reader over one record payload, in either format. Every
// method returns false instead of reading past the end.
class PayloadReader {
 public:
  PayloadReader(std::string_view data, bool compact) : data_(data), compact_(compact) {}

  bool done() const { return offset_ == data_.size(); }

  bool ReadByte(uint8_t* b) {
    if (offset_ >= data_.size()) return false;
    *b = static_cast<uint8_t>(data_[offset_++]);
    return true;
  }

  // A count or string length: u32 (legacy) or varint. Every counted item
  // (a value's type tag, a string byte) occupies at least one payload byte,
  // so a count beyond the remaining payload is corruption, not data —
  // rejecting it here keeps a crafted count from turning into a
  // multi-gigabyte reserve().
  bool ReadCount(size_t* n) {
    uint64_t v = 0;
    if (compact_) {
      if (!GetVarint(data_, &offset_, &v)) return false;
    } else {
      uint32_t v32 = 0;
      if (!GetU32(data_, &offset_, &v32)) return false;
      v = v32;
    }
    if (v > data_.size() - offset_) return false;
    *n = static_cast<size_t>(v);
    return true;
  }

  bool ReadUnsigned(uint64_t* v) {
    return compact_ ? GetVarint(data_, &offset_, v) : GetU64(data_, &offset_, v);
  }

  bool ReadSigned(int64_t* v) {
    uint64_t bits = 0;
    if (!ReadUnsigned(&bits)) return false;
    *v = compact_ ? UnZigZag(bits) : static_cast<int64_t>(bits);
    return true;
  }

  // A spelled-out string; a compact record numbers it for later references.
  bool ReadString(std::string_view* s) {
    size_t len = 0;
    if (!ReadCount(&len)) return false;
    *s = data_.substr(offset_, len);
    offset_ += len;
    if (compact_) strings_.push_back(*s);
    return true;
  }

  // A reference to a string spelled out earlier in this record. Legacy
  // records number no strings, so any reference inside one is out of range:
  // like a forward reference, it is corruption.
  bool ReadStringRef(std::string_view* s) {
    uint64_t index = 0;
    if (!GetVarint(data_, &offset_, &index) || index >= strings_.size()) return false;
    *s = strings_[index];
    return true;
  }

  bool ReadField(std::string* s, bool reference) {
    std::string_view view;
    if (!(reference ? ReadStringRef(&view) : ReadString(&view))) return false;
    s->assign(view);
    return true;
  }

  bool ReadValue(Value* v) {
    uint8_t tag = 0;
    if (!ReadByte(&tag)) return false;
    if (tag == kStringRefTag) {
      std::string_view s;
      if (!ReadStringRef(&s)) return false;
      *v = Value::String(std::string(s));
      return true;
    }
    switch (static_cast<TypeId>(tag)) {
      case TypeId::kNull:
        *v = Value::Null();
        return true;
      case TypeId::kBool: {
        uint8_t b = 0;
        if (!ReadByte(&b)) return false;
        *v = Value::Bool(b != 0);
        return true;
      }
      case TypeId::kInt: {
        int64_t i = 0;
        if (!ReadSigned(&i)) return false;
        *v = Value::Int(i);
        return true;
      }
      case TypeId::kDate: {
        int64_t days = 0;
        if (!ReadSigned(&days)) return false;
        *v = Value::Date(static_cast<int32_t>(days));
        return true;
      }
      case TypeId::kDouble: {
        uint64_t bits = 0;
        if (!GetU64(data_, &offset_, &bits)) return false;
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        *v = Value::Double(d);
        return true;
      }
      case TypeId::kString: {
        std::string_view s;
        if (!ReadString(&s)) return false;
        *v = Value::String(std::string(s));
        return true;
      }
    }
    return false;
  }

  bool ReadRow(Row* row) {
    size_t count = 0;
    if (!ReadCount(&count)) return false;
    row->clear();
    row->reserve(count);
    for (size_t i = 0; i < count; ++i) {
      Value v;
      if (!ReadValue(&v)) return false;
      row->push_back(std::move(v));
    }
    return true;
  }

  bool ReadOp(WalOp* op) {
    uint8_t kind = 0;
    if (!ReadByte(&kind)) return false;
    const bool first_ref = (kind & kFirstStringRef) != 0;
    const bool second_ref = (kind & kSecondStringRef) != 0;
    op->kind = static_cast<WalOp::Kind>(kind & kOpKindMask);
    if (second_ref && op->kind != WalOp::Kind::kDdl) return false;
    // seltrig-lint: dispatch(WalOp::Kind)
    switch (op->kind) {
      case WalOp::Kind::kInsert:
      case WalOp::Kind::kDelete:
        return ReadField(&op->table, first_ref) && ReadRow(&op->row);
      case WalOp::Kind::kUpdate:
        return ReadField(&op->table, first_ref) && ReadRow(&op->row) &&
               ReadRow(&op->row2);
      case WalOp::Kind::kStatement:
        return ReadField(&op->sql, first_ref);
      case WalOp::Kind::kTriggerState: {
        uint8_t quarantined = 0;
        if (!ReadField(&op->table, first_ref) || !ReadByte(&quarantined)) return false;
        op->quarantined = quarantined != 0;
        return ReadSigned(&op->failures);
      }
      case WalOp::Kind::kDdl:
        return ReadField(&op->table, first_ref) && ReadField(&op->sql, second_ref) &&
               ReadUnsigned(&op->schema_version);
    }
    return false;
  }

 private:
  std::string_view data_;
  size_t offset_ = 0;
  bool compact_;
  // Compact records only: the strings spelled out so far, in payload order.
  std::vector<std::string_view> strings_;
};

bool DecodeRecordPayload(std::string_view payload, bool compact,
                         std::vector<WalOp>* ops) {
  PayloadReader reader(payload, compact);
  size_t count = 0;
  if (!reader.ReadCount(&count)) return false;
  ops->clear();
  for (size_t i = 0; i < count; ++i) {
    WalOp op;
    if (!reader.ReadOp(&op)) return false;
    ops->push_back(std::move(op));
  }
  return reader.done();
}

}  // namespace

// --- WalOp ------------------------------------------------------------------

WalOp WalOp::Insert(std::string table, Row row) {
  WalOp op;
  op.kind = Kind::kInsert;
  op.table = std::move(table);
  op.row = std::move(row);
  return op;
}

WalOp WalOp::Delete(std::string table, Row old_row) {
  WalOp op;
  op.kind = Kind::kDelete;
  op.table = std::move(table);
  op.row = std::move(old_row);
  return op;
}

WalOp WalOp::Update(std::string table, Row old_row, Row new_row) {
  WalOp op;
  op.kind = Kind::kUpdate;
  op.table = std::move(table);
  op.row = std::move(old_row);
  op.row2 = std::move(new_row);
  return op;
}

WalOp WalOp::Statement(std::string sql) {
  WalOp op;
  op.kind = Kind::kStatement;
  op.sql = std::move(sql);
  return op;
}

WalOp WalOp::TriggerState(std::string trigger, bool quarantined, int64_t failures) {
  WalOp op;
  op.kind = Kind::kTriggerState;
  op.table = std::move(trigger);
  op.quarantined = quarantined;
  op.failures = failures;
  return op;
}

WalOp WalOp::Ddl(std::string table, std::string sql, uint64_t schema_version) {
  WalOp op;
  op.kind = Kind::kDdl;
  op.table = std::move(table);
  op.sql = std::move(sql);
  op.schema_version = schema_version;
  return op;
}

bool WalOp::operator==(const WalOp& other) const {
  return kind == other.kind && table == other.table && sql == other.sql &&
         row == other.row && row2 == other.row2 &&
         quarantined == other.quarantined && failures == other.failures &&
         schema_version == other.schema_version;
}

std::string WalPosition::ToString() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "epoch %llu, segment %llu, offset %llu",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(offset));
  return buf;
}

// --- segment naming / listing -----------------------------------------------

std::string WalSegmentHeader(uint64_t seq, uint64_t epoch) {
  std::string header(kSegmentMagic, sizeof(kSegmentMagic));
  PutU64(&header, seq);
  PutU64(&header, epoch);
  return header;
}

std::string EncodeWalRecord(const std::vector<WalOp>& ops) {
  std::string payload;
  StringTable strings;
  PutVarint(&payload, ops.size());
  for (const WalOp& op : ops) PutOp(&payload, op, &strings);

  std::string record;
  record.reserve(kRecordHeaderSize + payload.size());
  PutU32(&record, static_cast<uint32_t>(payload.size()) | kCompactRecord);
  PutU32(&record, Crc32c(payload));
  record.append(payload);
  return record;
}

Result<std::vector<WalOp>> DecodeWalRecord(std::string_view record) {
  size_t offset = 0;
  uint32_t field = 0;
  uint32_t length = 0;
  bool compact = false;
  uint32_t crc = 0;
  if (!GetU32(record, &offset, &field) || !GetU32(record, &offset, &crc) ||
      !ParseRecordLength(field, &length, &compact) ||
      record.size() != kRecordHeaderSize + static_cast<size_t>(length)) {
    return Status::DataLoss("malformed journal record framing");
  }
  std::string_view payload = record.substr(kRecordHeaderSize);
  if (Crc32c(payload) != crc) {
    return Status::DataLoss("journal record checksum mismatch");
  }
  std::vector<WalOp> ops;
  if (!DecodeRecordPayload(payload, compact, &ops)) {
    return Status::DataLoss("journal record payload does not decode");
  }
  return ops;
}

// --- durable election vote --------------------------------------------------

namespace {
constexpr char kVoteMagic[8] = {'S', 'L', 'T', 'V', 'O', 'T', 'E', '\n'};
}  // namespace

Status PersistVote(const std::string& wal_dir, const VoteRecord& vote) {
  std::error_code ec;
  std::filesystem::create_directories(wal_dir, ec);
  if (ec) return Status::ExecutionError("cannot create " + wal_dir);

  std::string body(kVoteMagic, sizeof(kVoteMagic));
  PutU64(&body, vote.epoch);
  PutString(&body, vote.candidate);
  std::string out;
  PutU32(&out, Crc32c(body));
  out.append(body);

  const std::string path = wal_dir + "/VOTE";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove(tmp, ec);  // AppendFile appends; drop stale bytes
  {
    SELTRIG_ASSIGN_OR_RETURN(AppendFile file, AppendFile::Open(tmp));
    SELTRIG_RETURN_IF_ERROR(file.Append(out.data(), out.size()));
    SELTRIG_RETURN_IF_ERROR(file.Sync());
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::ExecutionError("cannot install " + path);
  return SyncDirectory(wal_dir);
}

Result<VoteRecord> ReadPersistedVote(const std::string& wal_dir) {
  Result<std::string> raw = ReadFileToString(wal_dir + "/VOTE");
  if (!raw.ok()) return Status::NotFound("no persisted vote in " + wal_dir);
  std::string_view bytes = *raw;
  size_t pos = 0;
  uint32_t crc = 0;
  if (!GetU32(bytes, &pos, &crc)) {
    return Status::NotFound("persisted vote unreadable (torn before grant)");
  }
  std::string_view body = bytes.substr(pos);
  if (Crc32c(body) != crc || body.size() < sizeof(kVoteMagic) ||
      std::memcmp(body.data(), kVoteMagic, sizeof(kVoteMagic)) != 0) {
    return Status::NotFound("persisted vote unreadable (torn before grant)");
  }
  VoteRecord vote;
  size_t body_pos = sizeof(kVoteMagic);
  if (!GetU64(body, &body_pos, &vote.epoch) ||
      !GetString(body, &body_pos, &vote.candidate) || body_pos != body.size()) {
    return Status::NotFound("persisted vote unreadable (torn before grant)");
  }
  return vote;
}

std::string WalSegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

Result<std::vector<WalSegment>> ListWalSegments(const std::string& wal_dir) {
  std::vector<WalSegment> segments;
  std::error_code ec;
  if (!std::filesystem::is_directory(wal_dir, ec)) return segments;
  for (const auto& entry : std::filesystem::directory_iterator(wal_dir, ec)) {
    std::string name = entry.path().filename().string();
    // wal-<seq>.log, where <seq> is %08llu-formatted and grows past 8 digits
    // for large sequences; parse by pattern, not fixed width, so naming and
    // listing can never diverge (a silently skipped segment would lose
    // committed data on recovery).
    constexpr size_t kMinName = 4 + 1 + 4;  // "wal-" + >= 1 digit + ".log"
    if (name.size() < kMinName || name.compare(0, 4, "wal-") != 0 ||
        name.compare(name.size() - 4, 4, ".log") != 0) {
      continue;
    }
    uint64_t seq = 0;
    bool numeric = true;
    for (size_t i = 4; i < name.size() - 4; ++i) {
      if (name[i] < '0' || name[i] > '9' || seq > (UINT64_MAX - 9) / 10) {
        numeric = false;
        break;
      }
      seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    if (!numeric) continue;
    segments.push_back({seq, entry.path().string()});
  }
  if (ec) return Status::ExecutionError("cannot list " + wal_dir);
  std::sort(segments.begin(), segments.end(),
            [](const WalSegment& a, const WalSegment& b) { return a.seq < b.seq; });
  return segments;
}

Result<uint64_t> ReadWalSegmentEpoch(const std::string& path) {
  SELTRIG_ASSIGN_OR_RETURN(std::string header,
                           ReadFileRange(path, 0, kSegmentHeaderSize));
  if (header.size() >= kSegmentHeaderSize &&
      std::memcmp(header.data(), kSegmentMagic, sizeof(kSegmentMagic)) == 0) {
    size_t off = sizeof(kSegmentMagic) + sizeof(uint64_t);
    uint64_t epoch = 0;
    GetU64(header, &off, &epoch);
    return epoch;
  }
  if (header.size() >= kSegmentHeaderV1Size &&
      std::memcmp(header.data(), kSegmentMagicV1,
                  sizeof(kSegmentMagicV1)) == 0) {
    return uint64_t{0};
  }
  return Status::Unavailable(path + ": segment header incomplete");
}

Result<WalSegmentContents> ReadWalSegment(const std::string& path) {
  SELTRIG_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  WalSegmentContents contents;

  // A header that never made it fully to disk (crash during segment
  // creation) means the segment holds no commits; the whole file is torn.
  const bool v2 = data.size() >= kSegmentHeaderSize &&
                  std::memcmp(data.data(), kSegmentMagic, sizeof(kSegmentMagic)) == 0;
  const bool v1 = !v2 && data.size() >= kSegmentHeaderV1Size &&
                  std::memcmp(data.data(), kSegmentMagicV1,
                              sizeof(kSegmentMagicV1)) == 0;
  if (!v2 && !v1) {
    contents.torn = true;
    contents.valid_bytes = 0;
    return contents;
  }
  size_t offset = sizeof(kSegmentMagic);
  uint64_t seq = 0;
  GetU64(data, &offset, &seq);
  contents.seq = seq;
  if (v2) GetU64(data, &offset, &contents.epoch);
  contents.valid_bytes = offset;

  while (offset < data.size()) {
    size_t record_start = offset;
    uint32_t field = 0;
    uint32_t length = 0;
    bool compact = false;
    uint32_t crc = 0;
    if (!GetU32(data, &offset, &field) || !GetU32(data, &offset, &crc) ||
        !ParseRecordLength(field, &length, &compact) ||
        offset + length > data.size()) {
      contents.torn = true;
      break;
    }
    std::string_view payload(data.data() + offset, length);
    if (Crc32c(payload) != crc) {
      contents.torn = true;
      break;
    }
    std::vector<WalOp> ops;
    if (!DecodeRecordPayload(payload, compact, &ops)) {
      contents.torn = true;
      break;
    }
    offset += length;
    contents.commits.push_back(std::move(ops));
    contents.valid_bytes = record_start + kRecordHeaderSize + length;
  }
  return contents;
}

// --- WalWriter ----------------------------------------------------------------

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& wal_dir,
                                                   uint64_t epoch) {
  std::error_code ec;
  std::filesystem::create_directories(wal_dir, ec);
  if (ec) return Status::ExecutionError("cannot create " + wal_dir);

  SELTRIG_ASSIGN_OR_RETURN(std::vector<WalSegment> segments,
                           ListWalSegments(wal_dir));
  uint64_t next_seq = segments.empty() ? 1 : segments.back().seq + 1;

  auto writer = std::unique_ptr<WalWriter>(new WalWriter());
  writer->wal_dir_ = wal_dir;
  writer->epoch_unlocked_ = epoch;
  {
    MutexLock lock(&writer->mutex_);
    writer->epoch_ = epoch;
    SELTRIG_RETURN_IF_ERROR(writer->OpenSegmentLocked(next_seq));
  }
  return writer;
}

WalWriter::~WalWriter() {
  // Best-effort flush of a kBatch/kOff tail; errors are unreportable here.
  // Locked for the analysis' benefit and for safety against a committer
  // still draining WaitDurable on another thread at teardown.
  MutexLock lock(&mutex_);
  if (file_.is_open() && durable_ < appended_) (void)file_.Sync();
}

Status WalWriter::OpenSegmentLocked(uint64_t seq) {
  std::string path = wal_dir_ + "/" + WalSegmentFileName(seq);
  SELTRIG_ASSIGN_OR_RETURN(AppendFile file, AppendFile::Open(path));
  std::string header(kSegmentMagic, sizeof(kSegmentMagic));
  PutU64(&header, seq);
  PutU64(&header, epoch_);
  SELTRIG_RETURN_IF_ERROR(file.Append(header.data(), header.size()));
  SELTRIG_RETURN_IF_ERROR(file.Sync());
  SELTRIG_RETURN_IF_ERROR(SyncDirectory(wal_dir_));
  file_ = std::move(file);
  seq_ = seq;
  segment_bytes_ = kSegmentHeaderSize;
  poisoned_ = false;
  return Status::OK();
}

Status WalWriter::Append(const std::vector<WalOp>& ops, uint64_t* commit_seq,
                         WalPosition* pos) {
  *commit_seq = 0;
  if (ops.empty()) return Status::OK();
  std::string record = EncodeWalRecord(ops);

  MutexLock lock(&mutex_);
  if (poisoned_) {
    return Status::ExecutionError(
        "journal segment " + WalSegmentFileName(seq_) +
        " has an unrepaired partial record; rotate or recover before writing");
  }
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kWalAppend));

  // Torn-write crash mode: persist a prefix of the record, then die. The
  // prefix is fsynced first so recovery deterministically sees a torn tail
  // (otherwise the page cache would usually hide the tear).
  Status torn = fault::Maybe(fault_points::kWalTorn);
  if (!torn.ok()) {
    size_t prefix = record.size() / 2;
    // About to _Exit below — errors here only make the tear shorter.
    (void)file_.AppendPrefix(record.data(), prefix);
    (void)file_.Sync();
    std::_Exit(FaultInjector::kCrashExitCode);
  }

  Status appended = file_.Append(record.data(), record.size());
  if (!appended.ok()) {
    // A short write leaves a partial record that would swallow every later
    // record on replay. Try to cut the tail back to the last good record;
    // if even that fails, poison the writer so no later append can slip a
    // record behind an unreadable one.
    Status repaired = TruncateFile(file_.path(), segment_bytes_);
    if (!repaired.ok()) poisoned_ = true;
    return appended;
  }
  segment_bytes_ += record.size();
  *commit_seq = ++appended_;
  ++unsynced_;
  if (pos != nullptr) *pos = WalPosition{epoch_, seq_, segment_bytes_};
  return Status::OK();
}

Status WalWriter::WaitDurable(uint64_t commit_seq) {
  if (commit_seq == 0) return Status::OK();
  const WalSyncMode mode = sync_mode_.load();
  if (mode == WalSyncMode::kOff) return Status::OK();
  const int64_t timeout_ms = durable_timeout_ms_.load(std::memory_order_relaxed);
  MutexLock lock(&mutex_);
  if (mode == WalSyncMode::kBatch) {
    // The batch-threshold fsync runs here, after the committer released the
    // engine's storage writer lock — never inside Append, where it would
    // stall every other session for the duration of the fsync.
    if (unsynced_ < kBatchSyncEvery) return Status::OK();
    return SyncUpToLocked(appended_, timeout_ms);
  }
  return SyncUpToLocked(commit_seq, timeout_ms);
}

Status WalWriter::Commit(const std::vector<WalOp>& ops) {
  uint64_t commit_seq = 0;
  SELTRIG_RETURN_IF_ERROR(Append(ops, &commit_seq));
  return WaitDurable(commit_seq);
}

Status WalWriter::Sync() {
  MutexLock lock(&mutex_);
  return SyncUpToLocked(appended_, /*timeout_ms=*/0);
}

Status WalWriter::SyncUpToLocked(uint64_t target, int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
  while (durable_ < target) {
    if (sync_in_flight_) {
      // Another committer's fsync is running; it covers every append made
      // before it started. Wait and re-check (it may not cover `target`) —
      // but not forever: a stalled fsync (dying disk, hung NFS) would
      // otherwise wedge every committer behind the leader. Timing out
      // withholds this statement's acknowledgement, which is always safe.
      if (timeout_ms > 0) {
        if (durable_cv_.wait_until(mutex_, deadline) == std::cv_status::timeout &&
            durable_ < target && sync_in_flight_) {
          return Status::DeadlineExceeded(
              "journal fsync still in flight after " +
              std::to_string(timeout_ms) + "ms");
        }
      } else {
        durable_cv_.wait(mutex_);
      }
      continue;
    }
    sync_in_flight_ = true;
    uint64_t covers = appended_;
    // Drop the mutex for the fault check and the fsync syscall so concurrent
    // appends and waiters are never stalled behind them (a kDelay schedule on
    // wal.fsync sleeps here, which is exactly how the WaitDurable timeout is
    // tested). file_ stays stable while unlocked: sync_in_flight_ makes this
    // thread the sole fsync leader, and Rotate drains leaders before swapping
    // the segment file. The alias keeps the access visible as intentional to
    // the thread-safety analysis.
    AppendFile& file = file_;
    mutex_.unlock();
    Status synced = fault::Maybe(fault_points::kWalFsync);
    if (synced.ok()) synced = file.Sync();
    mutex_.lock();
    sync_in_flight_ = false;
    if (!synced.ok()) {
      durable_cv_.notify_all();
      return synced;
    }
    durable_ = std::max(durable_, covers);
    unsynced_ = appended_ - durable_;
    durable_cv_.notify_all();
  }
  return Status::OK();
}

Status WalWriter::Rotate(uint64_t* new_seq) {
  MutexLock lock(&mutex_);
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kWalRotate));
  // Everything in the finished segment must be durable before the checkpoint
  // that follows the rotation can claim to cover it.
  SELTRIG_RETURN_IF_ERROR(SyncUpToLocked(appended_, /*timeout_ms=*/0));
  // A concurrent WaitDurable may still be inside fsync on the old segment's
  // descriptor (it releases the mutex for the syscall); swapping file_ out
  // from under it would race. Drain it before rotating.
  while (sync_in_flight_) durable_cv_.wait(mutex_);
  SELTRIG_RETURN_IF_ERROR(OpenSegmentLocked(seq_ + 1));
  *new_seq = seq_;
  return Status::OK();
}

Status WalWriter::DeleteSegmentsBelow(uint64_t seq) {
  SELTRIG_ASSIGN_OR_RETURN(std::vector<WalSegment> segments,
                           ListWalSegments(wal_dir_));
  std::error_code ec;
  for (const WalSegment& segment : segments) {
    if (segment.seq >= seq) continue;
    std::filesystem::remove(segment.path, ec);
  }
  // Best-effort: segment deletion runs after a checkpoint fully succeeded; if
  // the directory update is lost to a crash, recovery skips the stale
  // segments (their seq is below the checkpoint) and re-deletes them.
  (void)SyncDirectory(wal_dir_);
  return Status::OK();
}

// --- WalTailReader ------------------------------------------------------------

bool WalTailReader::NewerSegmentExists() const {
  Result<std::vector<WalSegment>> segments = ListWalSegments(wal_dir_);
  if (!segments.ok()) return false;
  for (const WalSegment& segment : *segments) {
    if (segment.seq > seq_) return true;
  }
  return false;
}

Status WalTailReader::AdvanceSegment() {
  SELTRIG_ASSIGN_OR_RETURN(std::vector<WalSegment> segments,
                           ListWalSegments(wal_dir_));
  for (const WalSegment& segment : segments) {
    if (segment.seq > seq_) {
      Seek(segment.seq, 0);
      return Status::OK();
    }
  }
  return Status::Unavailable("no segment beyond " + WalSegmentFileName(seq_) +
                             " in " + wal_dir_);
}

Status WalTailReader::ReadHeader() {
  const std::string path = wal_dir_ + "/" + WalSegmentFileName(seq_);
  SELTRIG_ASSIGN_OR_RETURN(std::string header,
                           ReadFileRange(path, 0, kSegmentHeaderSize));
  uint64_t claimed_seq = 0;
  if (header.size() >= kSegmentHeaderSize &&
      std::memcmp(header.data(), kSegmentMagic, sizeof(kSegmentMagic)) == 0) {
    size_t off = sizeof(kSegmentMagic);
    GetU64(header, &off, &claimed_seq);
    GetU64(header, &off, &epoch_);
    header_size_ = kSegmentHeaderSize;
  } else if (header.size() >= kSegmentHeaderV1Size &&
             std::memcmp(header.data(), kSegmentMagicV1,
                         sizeof(kSegmentMagicV1)) == 0) {
    size_t off = sizeof(kSegmentMagicV1);
    GetU64(header, &off, &claimed_seq);
    epoch_ = 0;
    header_size_ = kSegmentHeaderV1Size;
  } else {
    // The header has not fully landed. A writer fsyncs the header before its
    // first record, so this state is transient (segment creation in
    // progress) unless a newer segment already exists — then this file is a
    // crash remnant that was never part of the durable journal.
    header_size_ = 0;
    return Status::Unavailable(path + ": segment header incomplete");
  }
  if (claimed_seq != seq_) {
    return Status::DataLoss(path + " header claims segment " +
                            std::to_string(claimed_seq));
  }
  if (offset_ < header_size_) offset_ = header_size_;
  return Status::OK();
}

Status WalTailReader::Next(RecordRef* out) {
  // A short read at the cursor is the segment's end only when a newer
  // segment already existed BEFORE that read: the writer fsyncs a segment
  // before it creates the next one, so a read made after sighting the newer
  // segment sees all of this one. Judging the read made before the listing
  // would skip a record appended, and the segment rotated, in between. So
  // the first sighting only retries the read; a short read after it
  // advances.
  bool newer_seen = false;
  auto short_read = [&](Status at_tail) -> Status {
    if (newer_seen) {
      newer_seen = false;
      return AdvanceSegment();
    }
    if (!NewerSegmentExists()) return at_tail;
    newer_seen = true;
    return Status::OK();
  };
  for (;;) {
    const std::string path = wal_dir_ + "/" + WalSegmentFileName(seq_);
    if (header_size_ == 0) {
      Status header = ReadHeader();
      if (!header.ok()) {
        // kNotFound (segment checkpointed away) propagates: the caller must
        // catch up from a snapshot. An incomplete header only skips forward
        // when a newer segment proves this one dead.
        if (header.code() != ErrorCode::kUnavailable) return header;
        SELTRIG_RETURN_IF_ERROR(short_read(header));
        continue;
      }
    }

    SELTRIG_ASSIGN_OR_RETURN(std::string head,
                             ReadFileRange(path, offset_, kRecordHeaderSize));
    if (head.size() < kRecordHeaderSize) {
      // Clean end of segment, or a record header mid-append. Only a newer
      // segment on disk proves no more records will ever land here, and a
      // partial tail in a non-newest segment was never acknowledged to
      // anyone.
      SELTRIG_RETURN_IF_ERROR(short_read(Status::Unavailable(
          "no complete record at " + WalSegmentFileName(seq_) + " offset " +
          std::to_string(offset_))));
      continue;
    }
    size_t off = 0;
    uint32_t field = 0;
    uint32_t length = 0;
    bool compact = false;
    uint32_t crc = 0;
    GetU32(head, &off, &field);
    GetU32(head, &off, &crc);
    if (!ParseRecordLength(field, &length, &compact)) {
      return Status::DataLoss(WalSegmentFileName(seq_) + " offset " +
                              std::to_string(offset_) +
                              ": record length " + std::to_string(length) +
                              " exceeds limit");
    }

    SELTRIG_ASSIGN_OR_RETURN(
        std::string record,
        ReadFileRange(path, offset_, kRecordHeaderSize + length));
    if (record.size() < kRecordHeaderSize + static_cast<size_t>(length)) {
      // Payload still landing (or a dead partial tail — same rule as above).
      SELTRIG_RETURN_IF_ERROR(short_read(Status::Unavailable(
          "record payload incomplete at " + WalSegmentFileName(seq_) +
          " offset " + std::to_string(offset_))));
      continue;
    }
    std::string_view payload(record.data() + kRecordHeaderSize, length);
    if (Crc32c(payload) != crc) {
      // Fully present yet failing its checksum: real corruption. Torn tails
      // from crashes are truncated by recovery before a writer reopens the
      // directory, so they never reach this state.
      return Status::DataLoss(WalSegmentFileName(seq_) + " offset " +
                              std::to_string(offset_) + ": checksum mismatch");
    }
    out->epoch = epoch_;
    out->seq = seq_;
    out->offset = offset_;
    out->end_offset = offset_ + kRecordHeaderSize + length;
    out->bytes = std::move(record);
    offset_ = out->end_offset;
    return Status::OK();
  }
}

}  // namespace seltrig
