// KeyIndex: maps a key tuple to a dense uint32 slot, handed out in
// first-seen order. It is the one hash lookup behind HashJoinOp's build
// buckets, HashAggregateOp's groups, DistinctOp's seen set and the IN
// subquery's value set; each caller keeps its payload in vectors indexed by
// slot.
//
// Two keys are equal when every component compares equal under
// Value::Compare (Int(2) equals Double(2.0), NULL equals NULL). One- and
// two-component all-kInt keys take a raw int64 path: a linear-probe table
// over the value while it is within ±2^53, or over both components packed
// into one int64 while both fit in int32. In that domain an int converts to
// double exactly, so Value::Compare's int/double widening is plain equality
// of int64s. The first inserted key outside it (another type, NULL included,
// or a wider int) migrates every entry, slot kept, to a generic Row-keyed
// map (Degrade, the only migration). Keys of any other arity use the
// generic map from the start.
//
// NULL policy stays with the callers: joins and IN never insert or probe a
// NULL key; GROUP BY and DISTINCT insert NULL keys, which group together in
// the generic map.
//
// Single-threaded by design: each operator (and each ExecContext's subquery
// cache) owns its index outright — morsel workers build per-worker operators
// — so there is nothing to annotate for the thread-safety analysis.

#ifndef SELTRIG_TYPES_KEY_INDEX_H_
#define SELTRIG_TYPES_KEY_INDEX_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "types/value.h"

namespace seltrig {

class KeyIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Empties the index, sized for `expected` distinct keys. The first
  // insertion fixes the key arity.
  void Reset(size_t expected) {
    int_keys_.clear();
    int_slots_.clear();
    generic_.clear();
    size_ = 0;
    expected_ = expected;
  }

  // The slot of `key`, inserting it under the next slot (0, 1, 2, ... in
  // insertion order) when new. Returns {slot, inserted}.
  std::pair<uint32_t, bool> FindOrInsert(std::span<const Value> key) {
    if (size_ == 0) Start(key.size());
    int64_t packed = 0;
    if (!int_slots_.empty()) {
      if (Pack(key, /*probe=*/false, &packed)) return FindOrInsertInt(packed);
      Degrade();
    }
    if (auto it = generic_.find(key); it != generic_.end()) return {it->second, false};
    generic_.emplace(Row(key.begin(), key.end()), static_cast<uint32_t>(size_));
    return {static_cast<uint32_t>(size_++), true};
  }

  // The slot of `key`, or kNone. On the int64 path an integral kDouble
  // component probes as its int64 value; a probe key that cannot be packed
  // equals no inserted key.
  uint32_t Find(std::span<const Value> key) const {
    if (int_slots_.empty()) {
      auto it = generic_.find(key);
      return it == generic_.end() ? kNone : it->second;
    }
    int64_t packed = 0;
    return Pack(key, /*probe=*/true, &packed) ? int_slots_[Cell(packed)] : kNone;
  }

 private:
  void Start(size_t arity) {
    arity_ = arity;
    if (arity != 1 && arity != 2) {
      generic_.reserve(expected_);
      return;
    }
    size_t cap = 16;
    while (cap < expected_ * 2) cap <<= 1;
    Allocate(cap);
  }

  void Allocate(size_t cap) {
    int_keys_.assign(cap, 0);
    int_slots_.assign(cap, kNone);
    mask_ = cap - 1;
  }

  static constexpr int64_t kExact = int64_t{1} << 53;

  // One component in the int64 domain: a kInt within ±2^53 and, for a
  // probe, an integral kDouble in that range (the only doubles
  // Value::Compare equates with such an int).
  static bool ToInt64(const Value& v, bool probe, int64_t* out) {
    if (v.type() == TypeId::kInt) {
      *out = v.AsInt();
    } else if (probe && v.type() == TypeId::kDouble && std::fabs(v.AsDouble()) <= kExact) {
      *out = static_cast<int64_t>(v.AsDouble());
      if (static_cast<double>(*out) != v.AsDouble()) return false;
    } else {
      return false;
    }
    return *out >= -kExact && *out <= kExact;
  }

  bool Pack(std::span<const Value> key, bool probe, int64_t* out) const {
    int64_t a = 0;
    if (key.size() != arity_ || !ToInt64(key[0], probe, &a)) return false;
    if (arity_ == 1) {
      *out = a;
      return true;
    }
    int64_t b = 0;
    if (!ToInt64(key[1], probe, &b) || a < INT32_MIN || a > INT32_MAX || b < INT32_MIN ||
        b > INT32_MAX) {
      return false;
    }
    *out = static_cast<int64_t>((static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
                                static_cast<uint32_t>(b));
    return true;
  }

  // The table cell holding `packed`, or the empty cell where it belongs.
  size_t Cell(int64_t packed) const {
    size_t i = Mix(packed) & mask_;
    while (int_slots_[i] != kNone && int_keys_[i] != packed) i = (i + 1) & mask_;
    return i;
  }

  std::pair<uint32_t, bool> FindOrInsertInt(int64_t packed) {
    if ((size_ + 1) * 2 > int_slots_.size()) Grow();
    const size_t i = Cell(packed);
    if (int_slots_[i] != kNone) return {int_slots_[i], false};
    int_keys_[i] = packed;
    int_slots_[i] = static_cast<uint32_t>(size_);
    return {static_cast<uint32_t>(size_++), true};
  }

  void Grow() {
    const std::vector<int64_t> keys = std::move(int_keys_);
    const std::vector<uint32_t> slots = std::move(int_slots_);
    Allocate(slots.size() * 2);
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i] == kNone) continue;
      const size_t j = Cell(keys[i]);
      int_keys_[j] = keys[i];
      int_slots_[j] = slots[i];
    }
  }

  // Moves every int64 entry, slot kept, into the generic map under its
  // unpacked key.
  void Degrade() {
    generic_.reserve(size_ + 1);
    for (size_t i = 0; i < int_slots_.size(); ++i) {
      if (int_slots_[i] == kNone) continue;
      const int64_t k = int_keys_[i];
      generic_.emplace(arity_ == 1 ? Row{Value::Int(k)}
                                   : Row{Value::Int(static_cast<int32_t>(k >> 32)),
                                         Value::Int(static_cast<int32_t>(k))},
                       int_slots_[i]);
    }
    int_keys_ = {};
    int_slots_ = {};
  }

  // splitmix64 finalizer: full-avalanche mix so dense key ranges (TPC-H
  // surrogate keys) spread across the table instead of clustering.
  static size_t Mix(int64_t key) {
    uint64_t x = static_cast<uint64_t>(key);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }

  // The int64 path is active exactly while int_slots_ is non-empty.
  std::vector<int64_t> int_keys_;
  std::vector<uint32_t> int_slots_;  // kNone marks an empty table cell
  size_t mask_ = 0;
  std::unordered_map<Row, uint32_t, RowHash, RowEq> generic_;
  size_t size_ = 0;
  size_t arity_ = 0;
  size_t expected_ = 0;
};

}  // namespace seltrig

#endif  // SELTRIG_TYPES_KEY_INDEX_H_
