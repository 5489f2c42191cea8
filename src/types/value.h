// Value: a dynamically-typed scalar cell. Rows are vectors of Values.

#ifndef SELTRIG_TYPES_VALUE_H_
#define SELTRIG_TYPES_VALUE_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <variant>
#include <vector>

#include "types/data_type.h"

namespace seltrig {

// A single scalar cell. The type tag is authoritative; kDate is stored in the
// int64 slot (days since epoch).
class Value {
 public:
  // Default-constructed Value is SQL NULL.
  Value() : type_(TypeId::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(TypeId::kBool, v ? int64_t{1} : int64_t{0}); }
  static Value Int(int64_t v) { return Value(TypeId::kInt, v); }
  static Value Double(double v) { return Value(TypeId::kDouble, v); }
  static Value String(std::string v) { return Value(std::move(v)); }
  static Value Date(int32_t days) { return Value(TypeId::kDate, int64_t{days}); }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  // Typed accessors. Callers must check the type first; accessing the wrong
  // slot is undefined (asserts in debug builds).
  bool AsBool() const { return std::get<int64_t>(rep_) != 0; }
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  int32_t AsDate() const { return static_cast<int32_t>(std::get<int64_t>(rep_)); }

  // Numeric value widened to double (kInt or kDouble only).
  double NumericAsDouble() const {
    return type_ == TypeId::kDouble ? AsDouble() : static_cast<double>(AsInt());
  }

  // Total order used by ORDER BY, grouping and index keys: NULL sorts first,
  // NULLs compare equal to each other, numerics compare cross-type. Values of
  // incomparable types order by type id (so containers stay well-defined).
  // Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  // Total equality consistent with Compare (NULL == NULL is true). This is
  // *container* equality; SQL three-valued `=` lives in the evaluator.
  bool operator==(const Value& other) const { return Compare(*this, other) == 0; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Hash consistent with operator== (numerics hash by double value).
  size_t Hash() const;

  // Display form: NULL, true/false, 123, 1.5, 'abc', 1995-03-15.
  std::string ToString() const;

 private:
  Value(TypeId t, int64_t v) : type_(t), rep_(v) {}
  Value(TypeId t, double v) : type_(t), rep_(v) {}
  explicit Value(std::string v) : type_(TypeId::kString), rep_(std::move(v)) {}

  TypeId type_;
  std::variant<std::monostate, int64_t, double, std::string> rep_;
};

using Row = std::vector<Value>;

// Functors for using Value / Row as hash-container keys.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a == b; }
};
// Row functors take any contiguous run of Values and are transparent, so a
// Row-keyed container can be probed with a std::span key without building a
// Row.
struct RowHash {
  using is_transparent = void;
  size_t operator()(std::span<const Value> r) const;
};
struct RowEq {
  using is_transparent = void;
  bool operator()(std::span<const Value> a, std::span<const Value> b) const;
};

// The members of `set` in Value::Compare order.
std::vector<Value> SortedValues(const std::unordered_set<Value, ValueHash, ValueEq>& set);

// Display form of a row: (a, b, c).
std::string RowToString(const Row& row);

}  // namespace seltrig

#endif  // SELTRIG_TYPES_VALUE_H_
