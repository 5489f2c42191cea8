#include "types/value.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "types/date.h"

namespace seltrig {

namespace {

int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

int CompareInt64(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

}  // namespace

int Value::Compare(const Value& a, const Value& b) {
  // NULL sorts before everything, equal to itself.
  if (a.is_null() || b.is_null()) {
    if (a.is_null() && b.is_null()) return 0;
    return a.is_null() ? -1 : 1;
  }
  // Cross-type numeric comparison.
  if (IsNumeric(a.type_) && IsNumeric(b.type_)) {
    if (a.type_ == TypeId::kInt && b.type_ == TypeId::kInt) {
      return CompareInt64(a.AsInt(), b.AsInt());
    }
    return Sign(a.NumericAsDouble() - b.NumericAsDouble());
  }
  if (a.type_ != b.type_) {
    return static_cast<int>(a.type_) < static_cast<int>(b.type_) ? -1 : 1;
  }
  switch (a.type_) {
    case TypeId::kBool:
    case TypeId::kInt:
    case TypeId::kDate:
      return CompareInt64(std::get<int64_t>(a.rep_), std::get<int64_t>(b.rep_));
    case TypeId::kDouble:
      return Sign(a.AsDouble() - b.AsDouble());
    case TypeId::kString: {
      int c = a.AsString().compare(b.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

size_t Value::Hash() const {
  switch (type_) {
    case TypeId::kNull:
      return 0x9e3779b97f4a7c15ull;
    case TypeId::kBool:
    case TypeId::kDate:
      return std::hash<int64_t>{}(std::get<int64_t>(rep_));
    case TypeId::kInt:
      // Hash ints through double so that Int(2) and Double(2.0), which compare
      // equal, also hash equal.
      return std::hash<double>{}(static_cast<double>(AsInt()));
    case TypeId::kDouble:
      return std::hash<double>{}(AsDouble());
    case TypeId::kString:
      return std::hash<std::string>{}(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return AsBool() ? "true" : "false";
    case TypeId::kInt:
      return std::to_string(AsInt());
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    }
    case TypeId::kString:
      return "'" + AsString() + "'";
    case TypeId::kDate:
      return FormatDate(AsDate());
  }
  return "?";
}

size_t RowHash::operator()(std::span<const Value> r) const {
  size_t h = 0x345678;
  for (const Value& v : r) {
    h = h * 1000003 ^ v.Hash();
  }
  return h;
}

bool RowEq::operator()(std::span<const Value> a, std::span<const Value> b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

std::vector<Value> SortedValues(const std::unordered_set<Value, ValueHash, ValueEq>& set) {
  std::vector<Value> out(set.begin(), set.end());
  std::sort(out.begin(), out.end(),
            [](const Value& a, const Value& b) { return Value::Compare(a, b) < 0; });
  return out;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace seltrig
