#include "storage/column_store.h"

#include <cassert>
#include <utility>

namespace seltrig {

// ---------------------------------------------------------------- StringDict

uint32_t StringDict::Encode(const std::string& s) {
  auto [it, inserted] = codes_.emplace(s, static_cast<uint32_t>(by_code_.size()));
  if (inserted) by_code_.push_back(&it->first);
  return it->second;
}

int64_t StringDict::Find(const std::string& s) const {
  auto it = codes_.find(s);
  return it == codes_.end() ? -1 : static_cast<int64_t>(it->second);
}

void StringDict::Clear() {
  codes_.clear();
  by_code_.clear();
}

// ------------------------------------------------------------------ NullBits

void NullBits::Append(bool is_null) {
  if ((size_ & 63) == 0) words_.push_back(0);
  if (is_null) {
    words_[size_ >> 6] |= uint64_t{1} << (size_ & 63);
    ++null_count_;
  }
  ++size_;
}

void NullBits::Reserve(size_t n) { words_.reserve((n + 63) / 64); }

void NullBits::Set(size_t i, bool is_null) {
  assert(i < size_);
  const uint64_t mask = uint64_t{1} << (i & 63);
  uint64_t& word = words_[i >> 6];
  const bool was_null = (word & mask) != 0;
  if (is_null == was_null) return;
  if (is_null) {
    word |= mask;
    ++null_count_;
  } else {
    word &= ~mask;
    --null_count_;
  }
}

void NullBits::PopBack() {
  assert(size_ > 0);
  --size_;
  const uint64_t mask = uint64_t{1} << (size_ & 63);
  uint64_t& word = words_[size_ >> 6];
  if (word & mask) {
    word &= ~mask;
    --null_count_;
  }
  if ((size_ & 63) == 0) words_.pop_back();
}

void NullBits::Clear() {
  words_.clear();
  size_ = 0;
  null_count_ = 0;
}

// --------------------------------------------------------------- TableColumn

namespace {

TableColumn::Rep RepForType(TypeId t) {
  switch (t) {
    case TypeId::kBool:
    case TypeId::kInt:
    case TypeId::kDate:
      return TableColumn::Rep::kInt64;
    case TypeId::kDouble:
      return TableColumn::Rep::kDouble;
    case TypeId::kString:
      return TableColumn::Rep::kString;
    case TypeId::kNull:
      return TableColumn::Rep::kValue;
  }
  return TableColumn::Rep::kValue;
}

}  // namespace

TableColumn::TableColumn(TypeId declared_type)
    : rep_(RepForType(declared_type)), type_(declared_type) {}

bool TableColumn::Matches(const Value& v) const {
  // NULL fits every typed representation (via the null bitmap); a non-NULL
  // value fits only when its runtime type equals the declared type exactly.
  return v.is_null() || v.type() == type_;
}

void TableColumn::Degrade() {
  assert(rep_ != Rep::kValue);
  values_.reserve(size_);
  for (size_t i = 0; i < size_; ++i) values_.push_back(Get(i));
  rep_ = Rep::kValue;
  ints_.clear();
  ints_.shrink_to_fit();
  doubles_.clear();
  doubles_.shrink_to_fit();
  codes_.clear();
  codes_.shrink_to_fit();
  dict_.Clear();
  nulls_.Clear();
}

void TableColumn::Append(const Value& v) {
  if (rep_ != Rep::kValue && !Matches(v)) Degrade();
  switch (rep_) {
    case Rep::kInt64:
      ints_.push_back(v.is_null() ? 0 : v.AsInt());
      nulls_.Append(v.is_null());
      break;
    case Rep::kDouble:
      doubles_.push_back(v.is_null() ? 0.0 : v.AsDouble());
      nulls_.Append(v.is_null());
      break;
    case Rep::kString:
      codes_.push_back(v.is_null() ? 0 : dict_.Encode(v.AsString()));
      nulls_.Append(v.is_null());
      break;
    case Rep::kValue:
      values_.push_back(v);
      break;
  }
  ++size_;
}

void TableColumn::Append(Value&& v) {
  if (rep_ != Rep::kValue && !Matches(v)) Degrade();
  if (rep_ != Rep::kValue) {
    Append(std::as_const(v));
    return;
  }
  values_.push_back(std::move(v));
  ++size_;
}

void TableColumn::AppendFrom(const TableColumn& src, size_t slot) {
  if (rep_ != src.rep_ || type_ != src.type_ ||
      (rep_ != Rep::kInt64 && rep_ != Rep::kDouble)) {
    Append(src.Get(slot));
    return;
  }
  if (rep_ == Rep::kInt64) {
    ints_.push_back(src.ints_[slot]);
  } else {
    doubles_.push_back(src.doubles_[slot]);
  }
  nulls_.Append(src.nulls_.Test(slot));
  ++size_;
}

void TableColumn::Reserve(size_t n) {
  switch (rep_) {
    case Rep::kInt64:
      ints_.reserve(n);
      break;
    case Rep::kDouble:
      doubles_.reserve(n);
      break;
    case Rep::kString:
      codes_.reserve(n);
      break;
    case Rep::kValue:
      values_.reserve(n);
      return;  // nulls are inline
  }
  nulls_.Reserve(n);
}

void TableColumn::Set(size_t slot, const Value& v) {
  assert(slot < size_);
  if (rep_ != Rep::kValue && !Matches(v)) Degrade();
  switch (rep_) {
    case Rep::kInt64:
      ints_[slot] = v.is_null() ? 0 : v.AsInt();
      nulls_.Set(slot, v.is_null());
      break;
    case Rep::kDouble:
      doubles_[slot] = v.is_null() ? 0.0 : v.AsDouble();
      nulls_.Set(slot, v.is_null());
      break;
    case Rep::kString:
      codes_[slot] = v.is_null() ? 0 : dict_.Encode(v.AsString());
      nulls_.Set(slot, v.is_null());
      break;
    case Rep::kValue:
      values_[slot] = v;
      break;
  }
}

Value TableColumn::Get(size_t slot) const {
  assert(slot < size_);
  switch (rep_) {
    case Rep::kInt64:
      if (nulls_.Test(slot)) return Value::Null();
      switch (type_) {
        case TypeId::kBool:
          return Value::Bool(ints_[slot] != 0);
        case TypeId::kDate:
          return Value::Date(static_cast<int32_t>(ints_[slot]));
        default:
          return Value::Int(ints_[slot]);
      }
    case Rep::kDouble:
      if (nulls_.Test(slot)) return Value::Null();
      return Value::Double(doubles_[slot]);
    case Rep::kString:
      if (nulls_.Test(slot)) return Value::Null();
      return Value::String(dict_.At(codes_[slot]));
    case Rep::kValue:
      return values_[slot];
  }
  return Value::Null();
}

void TableColumn::AppendTo(size_t slot, Row* out) const {
  out->push_back(Get(slot));
}

void TableColumn::PopBack() {
  assert(size_ > 0);
  switch (rep_) {
    case Rep::kInt64:
      ints_.pop_back();
      nulls_.PopBack();
      break;
    case Rep::kDouble:
      doubles_.pop_back();
      nulls_.PopBack();
      break;
    case Rep::kString:
      codes_.pop_back();  // the dictionary keeps the code; codes are dense
      nulls_.PopBack();
      break;
    case Rep::kValue:
      values_.pop_back();
      break;
  }
  --size_;
}

void TableColumn::Reset(TypeId declared_type) {
  Clear();
  rep_ = RepForType(declared_type);
  type_ = declared_type;
}

void TableColumn::Clear() {
  ints_.clear();
  doubles_.clear();
  codes_.clear();
  dict_.Clear();
  values_.clear();
  nulls_.Clear();
  size_ = 0;
}

}  // namespace seltrig
