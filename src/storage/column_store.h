// Columnar table storage: one typed array per column plus a packed null
// bitmap, with dictionary-encoded strings. This is the authoritative row
// storage behind Table; the row-materialization shim (Table::GetRow /
// MaterializeRow) reconstructs Row images for DML, the undo log, WAL row
// images, and snapshots so the durability and replication formats are
// unchanged by the layout.
//
// Exactness contract: a materialized cell is the *identical* Value that was
// stored — same TypeId, same representation. A column whose declared type
// does not match an incoming value degrades to a generic Value column
// (Rep::kValue) instead of coercing, so ACCESSED ids, WAL images, and
// recovery image-matching never observe a layout-induced change.
//
// Concurrency: like the rest of Table, columns are mutated only behind the
// engine's exclusive writer lock; readers (scans, views bound by the
// columnar executor) run lock-free and stay valid until the next mutation.

#ifndef SELTRIG_STORAGE_COLUMN_STORE_H_
#define SELTRIG_STORAGE_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "types/data_type.h"
#include "types/value.h"

namespace seltrig {

// Append-only string dictionary: code -> string and string -> code. Codes are
// dense and never recycled (deleted rows keep their codes; Table::Clear
// resets the dictionary wholesale). Lookup pointers stay stable because the
// strings live in unordered_map nodes.
class StringDict {
 public:
  // Returns the existing code for `s`, or assigns the next one.
  uint32_t Encode(const std::string& s);
  // Returns the code for `s`, or -1 if it was never encoded. Lets equality
  // predicates against a constant absent from the dictionary prove emptiness
  // without touching a single row.
  int64_t Find(const std::string& s) const;
  const std::string& At(uint32_t code) const { return *by_code_[code]; }
  size_t size() const { return by_code_.size(); }
  void Clear();

 private:
  std::unordered_map<std::string, uint32_t> codes_;
  std::vector<const std::string*> by_code_;  // stable node pointers
};

// Packed validity bitmap; a set bit means NULL.
class NullBits {
 public:
  void Append(bool is_null);
  void Reserve(size_t n);
  void Set(size_t i, bool is_null);
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void PopBack();
  void Clear();
  size_t size() const { return size_; }
  bool any() const { return null_count_ > 0; }
  const uint64_t* words() const { return words_.data(); }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
  size_t null_count_ = 0;
};

// One table column. The representation is fixed by the declared schema type
// (int-backed types share Rep::kInt64) until a mismatched value degrades the
// column to Rep::kValue.
class TableColumn {
 public:
  enum class Rep : uint8_t {
    kInt64,   // kBool / kInt / kDate, stored as int64_t
    kDouble,  // kDouble
    kString,  // dictionary codes + shared StringDict
    kValue,   // generic fallback: the exact Values, nulls inline
  };

  explicit TableColumn(TypeId declared_type);

  size_t size() const { return size_; }
  Rep rep() const { return rep_; }
  // Element type of the typed representations (the declared type). Only
  // meaningful while rep() != kValue.
  TypeId type() const { return type_; }

  void Append(const Value& v);
  // Like Append(const Value&), but a generic (Rep::kValue) cell is moved in.
  void Append(Value&& v);
  // Appends `src`'s cell `slot`: copied raw when both columns hold the same
  // int64 or double type, through Get() otherwise.
  void AppendFrom(const TableColumn& src, size_t slot);
  // Reserves room for `n` cells in the current representation.
  void Reserve(size_t n);
  void Set(size_t slot, const Value& v);
  Value Get(size_t slot) const;
  // Appends the exact stored Value to *out (avoids a temporary move chain).
  void AppendTo(size_t slot, Row* out) const;
  void PopBack();
  void Clear();
  // Clears the column and re-types it as `declared_type`, undoing an earlier
  // Degrade (a reused batch column starts each fill at its declared rep).
  void Reset(TypeId declared_type);

  // Raw storage accessors for the columnar executor's view binding. Only the
  // family matching rep() is valid.
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const uint32_t* codes() const { return codes_.data(); }
  const StringDict* dict() const { return &dict_; }
  StringDict* mutable_dict() { return &dict_; }
  const Value* values() const { return values_.data(); }
  const NullBits& nulls() const { return nulls_; }

 private:
  // Converts the column to Rep::kValue, materializing every stored cell.
  void Degrade();
  bool Matches(const Value& v) const;

  Rep rep_;
  TypeId type_;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> codes_;
  StringDict dict_;
  std::vector<Value> values_;
  NullBits nulls_;  // typed reps only; kValue stores NULL inline
};

}  // namespace seltrig

#endif  // SELTRIG_STORAGE_COLUMN_STORE_H_
