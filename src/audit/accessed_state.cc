#include "audit/accessed_state.h"

namespace seltrig {

std::vector<Row> AccessedState::ToRows() const {
  std::vector<Row> rows;
  rows.reserve(ids_.size());
  for (const Value& id : SortedValues(ids_)) {
    rows.push_back({id});
  }
  return rows;
}

std::vector<Value> AccessedState::SortedIds() const { return SortedValues(ids_); }

}  // namespace seltrig
