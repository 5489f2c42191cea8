#include "audit/accessed_state.h"

#include <algorithm>

#include "storage/sensitive_id_view.h"

namespace seltrig {

namespace {

std::vector<Value> SortedValues(
    const std::unordered_set<Value, ValueHash, ValueEq>& set) {
  std::vector<Value> out(set.begin(), set.end());
  std::sort(out.begin(), out.end(),
            [](const Value& a, const Value& b) { return Value::Compare(a, b) < 0; });
  return out;
}

}  // namespace

std::vector<Row> AccessedState::ToRows() const {
  std::vector<Row> rows;
  rows.reserve(ids_.size());
  for (const Value& id : SortedValues(ids_)) {
    rows.push_back({id});
  }
  return rows;
}

std::vector<Value> AccessedState::SortedIds() const { return SortedValues(ids_); }

std::vector<Value> SensitiveIdView::SortedIds() const { return SortedValues(ids_); }

}  // namespace seltrig
