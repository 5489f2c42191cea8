// Journal record encodings written by older builds, kept as test fixtures so
// their journals stay covered:
//   legacy_wal   before compact records existed: counts and string lengths
//                are u32, INT, DATE, failure counts and schema versions are
//                u64, and the record header's length field carries no
//                compact marker.
//   compact_wal  the compact encoding before records shared repeated
//                strings: varints throughout, and every string spelled out
//                at each occurrence.

#ifndef SELTRIG_TESTS_STORAGE_LEGACY_WAL_RECORD_H_
#define SELTRIG_TESTS_STORAGE_LEGACY_WAL_RECORD_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/codec.h"
#include "storage/wal.h"

namespace seltrig {
namespace legacy_wal {

inline void PutValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      break;
    case TypeId::kInt:
      codec::PutU64(out, static_cast<uint64_t>(v.AsInt()));
      break;
    case TypeId::kDate:
      codec::PutU64(out, static_cast<uint64_t>(static_cast<int64_t>(v.AsDate())));
      break;
    case TypeId::kDouble: {
      uint64_t bits;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      codec::PutU64(out, bits);
      break;
    }
    case TypeId::kString:
      codec::PutString(out, v.AsString());
      break;
  }
}

inline void PutRow(std::string* out, const Row& row) {
  codec::PutU32(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) PutValue(out, v);
}

inline void PutOp(std::string* out, const WalOp& op) {
  out->push_back(static_cast<char>(op.kind));
  switch (op.kind) {
    case WalOp::Kind::kInsert:
    case WalOp::Kind::kDelete:
      codec::PutString(out, op.table);
      PutRow(out, op.row);
      break;
    case WalOp::Kind::kUpdate:
      codec::PutString(out, op.table);
      PutRow(out, op.row);
      PutRow(out, op.row2);
      break;
    case WalOp::Kind::kStatement:
      codec::PutString(out, op.sql);
      break;
    case WalOp::Kind::kTriggerState:
      codec::PutString(out, op.table);
      out->push_back(op.quarantined ? 1 : 0);
      codec::PutU64(out, static_cast<uint64_t>(op.failures));
      break;
    case WalOp::Kind::kDdl:
      codec::PutString(out, op.table);
      codec::PutString(out, op.sql);
      codec::PutU64(out, op.schema_version);
      break;
  }
}

// One framed record: u32 payload length | u32 CRC32C | payload.
inline std::string EncodeRecord(const std::vector<WalOp>& ops) {
  std::string payload;
  codec::PutU32(&payload, static_cast<uint32_t>(ops.size()));
  for (const WalOp& op : ops) PutOp(&payload, op);
  std::string record;
  codec::PutU32(&record, static_cast<uint32_t>(payload.size()));
  codec::PutU32(&record, Crc32c(payload));
  return record + payload;
}

}  // namespace legacy_wal

namespace compact_wal {

inline void PutValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      break;
    case TypeId::kInt:
      codec::PutVarint(out, codec::ZigZag(v.AsInt()));
      break;
    case TypeId::kDate:
      codec::PutVarint(out, codec::ZigZag(v.AsDate()));
      break;
    case TypeId::kDouble: {
      uint64_t bits;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      codec::PutU64(out, bits);
      break;
    }
    case TypeId::kString:
      codec::PutVarString(out, v.AsString());
      break;
  }
}

inline void PutRow(std::string* out, const Row& row) {
  codec::PutVarint(out, row.size());
  for (const Value& v : row) PutValue(out, v);
}

inline void PutOp(std::string* out, const WalOp& op) {
  out->push_back(static_cast<char>(op.kind));
  switch (op.kind) {
    case WalOp::Kind::kInsert:
    case WalOp::Kind::kDelete:
      codec::PutVarString(out, op.table);
      PutRow(out, op.row);
      break;
    case WalOp::Kind::kUpdate:
      codec::PutVarString(out, op.table);
      PutRow(out, op.row);
      PutRow(out, op.row2);
      break;
    case WalOp::Kind::kStatement:
      codec::PutVarString(out, op.sql);
      break;
    case WalOp::Kind::kTriggerState:
      codec::PutVarString(out, op.table);
      out->push_back(op.quarantined ? 1 : 0);
      codec::PutVarint(out, codec::ZigZag(op.failures));
      break;
    case WalOp::Kind::kDdl:
      codec::PutVarString(out, op.table);
      codec::PutVarString(out, op.sql);
      codec::PutVarint(out, op.schema_version);
      break;
  }
}

// One framed record: u32 payload length with the top bit set | u32 CRC32C |
// payload.
inline std::string EncodeRecord(const std::vector<WalOp>& ops) {
  std::string payload;
  codec::PutVarint(&payload, ops.size());
  for (const WalOp& op : ops) PutOp(&payload, op);
  std::string record;
  codec::PutU32(&record, static_cast<uint32_t>(payload.size()) | (1u << 31));
  codec::PutU32(&record, Crc32c(payload));
  return record + payload;
}

}  // namespace compact_wal
}  // namespace seltrig

#endif  // SELTRIG_TESTS_STORAGE_LEGACY_WAL_RECORD_H_
