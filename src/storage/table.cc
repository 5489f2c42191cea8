#include "storage/table.h"

#include <algorithm>
#include <cassert>

#include "common/fault_injector.h"
#include "storage/undo_log.h"

namespace seltrig {

namespace {

// Sorted insert / erase of one row id in a key's id list. Ids mostly arrive
// in ascending order (appends), so the common insert is a push_back.
void InsertId(std::vector<size_t>* ids, size_t row_id) {
  if (ids->empty() || ids->back() < row_id) {
    ids->push_back(row_id);
    return;
  }
  ids->insert(std::lower_bound(ids->begin(), ids->end(), row_id), row_id);
}

void EraseId(std::unordered_map<Value, std::vector<size_t>, ValueHash, ValueEq>* map,
             const Value& key, size_t row_id) {
  auto it = map->find(key);
  assert(it != map->end());
  std::vector<size_t>& ids = it->second;
  auto pos = std::lower_bound(ids.begin(), ids.end(), row_id);
  assert(pos != ids.end() && *pos == row_id);
  ids.erase(pos);
  if (ids.empty()) map->erase(it);
}

}  // namespace

Table::Table(std::string name, Schema schema, int primary_key_column)
    : name_(std::move(name)), schema_(std::move(schema)), pk_col_(primary_key_column) {
  columns_.reserve(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    columns_.emplace_back(schema_.column(c).type);
  }
}

void Table::AppendSlot(const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(row[c]);
  deleted_.push_back(false);
  ++slot_count_;
}

void Table::WriteSlot(size_t row_id, const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Set(row_id, row[c]);
}

Row Table::GetRow(size_t row_id) const {
  Row row;
  MaterializeRow(row_id, &row);
  return row;
}

void Table::MaterializeRow(size_t row_id, Row* out) const {
  assert(row_id < slot_count_);
  out->clear();
  out->reserve(columns_.size());
  for (const TableColumn& col : columns_) col.AppendTo(row_id, out);
}

Result<size_t> Table::Insert(Row row) {
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kStorageAppend));
  if (row.size() != schema_.size()) {
    return Status::ExecutionError("insert into " + name_ + ": expected " +
                                  std::to_string(schema_.size()) + " values, got " +
                                  std::to_string(row.size()));
  }
  if (pk_col_ >= 0) {
    const Value& key = row[pk_col_];
    if (key.is_null()) {
      return Status::ExecutionError("insert into " + name_ + ": NULL primary key");
    }
    if (pk_index_.count(key) > 0) {
      return Status::ExecutionError("insert into " + name_ +
                                    ": duplicate primary key " + key.ToString());
    }
  }
  size_t row_id = slot_count_;
  AppendSlot(row);
  ++live_count_;
  IndexAdd(row_id);
  if (pk_col_ >= 0) pk_index_[row[pk_col_]] = row_id;
  if (undo_ != nullptr) undo_->PushInsert(this, row_id);
  return row_id;
}

Status Table::Delete(size_t row_id) {
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kStorageDelete));
  if (row_id >= slot_count_ || deleted_[row_id]) {
    return Status::ExecutionError("delete from " + name_ + ": invalid row id");
  }
  if (pk_col_ >= 0) pk_index_.erase(columns_[pk_col_].Get(row_id));
  IndexRemove(row_id);
  deleted_[row_id] = true;
  --live_count_;
  if (undo_ != nullptr) undo_->PushDelete(this, row_id);
  return Status::OK();
}

Status Table::Update(size_t row_id, Row new_row) {
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kStorageUpdate));
  if (row_id >= slot_count_ || deleted_[row_id]) {
    return Status::ExecutionError("update " + name_ + ": invalid row id");
  }
  if (new_row.size() != schema_.size()) {
    return Status::ExecutionError("update " + name_ + ": arity mismatch");
  }
  if (pk_col_ >= 0) {
    const Value old_key = columns_[pk_col_].Get(row_id);
    const Value& new_key = new_row[pk_col_];
    if (new_key.is_null()) {
      return Status::ExecutionError("update " + name_ + ": NULL primary key");
    }
    if (old_key != new_key) {
      if (pk_index_.count(new_key) > 0) {
        return Status::ExecutionError("update " + name_ + ": duplicate primary key " +
                                      new_key.ToString());
      }
      pk_index_.erase(old_key);
      pk_index_[new_key] = row_id;
    }
  }
  if (undo_ != nullptr) undo_->PushUpdate(this, row_id, GetRow(row_id));
  IndexUpdate(row_id, new_row);
  WriteSlot(row_id, new_row);
  return Status::OK();
}

void Table::UndoInsert(size_t row_id) {
  assert(row_id < slot_count_);
  if (!deleted_[row_id]) {
    if (pk_col_ >= 0) pk_index_.erase(columns_[pk_col_].Get(row_id));
    IndexRemove(row_id);
    --live_count_;
  }
  if (row_id + 1 == slot_count_) {
    // Reverse-order rollback undoes later inserts first, so the slot being
    // reverted is normally the newest and the heap shrinks back.
    for (TableColumn& col : columns_) col.PopBack();
    deleted_.pop_back();
    --slot_count_;
  } else {
    deleted_[row_id] = true;  // later slots survive: tombstone instead
  }
}

void Table::UndoDelete(size_t row_id) {
  assert(row_id < slot_count_ && deleted_[row_id]);
  deleted_[row_id] = false;
  ++live_count_;
  if (pk_col_ >= 0) pk_index_[columns_[pk_col_].Get(row_id)] = row_id;
  IndexAdd(row_id);
}

void Table::UndoUpdate(size_t row_id, Row old_row) {
  assert(row_id < slot_count_);
  if (pk_col_ >= 0) {
    pk_index_.erase(columns_[pk_col_].Get(row_id));
    pk_index_[old_row[pk_col_]] = row_id;
  }
  IndexUpdate(row_id, old_row);
  WriteSlot(row_id, old_row);
}

Result<size_t> Table::LookupByPrimaryKey(const Value& key) const {
  auto it = pk_index_.find(key);
  if (it == pk_index_.end()) {
    return Status::NotFound("no row with primary key " + key.ToString() + " in " + name_);
  }
  return it->second;
}

const Table::SecondaryIndex& Table::EnsureSecondaryIndex(int column) {
  auto [it, inserted] = secondary_indexes_.try_emplace(column);
  if (inserted) {
    const TableColumn& col = columns_[column];
    for (size_t i = 0; i < slot_count_; ++i) {
      if (!deleted_[i]) it->second[col.Get(i)].push_back(i);
    }
  }
  return it->second;
}

void Table::IndexAdd(size_t row_id) {
  MutexLock lock(&secondary_mutex_);
  for (auto& [column, index] : secondary_indexes_) {
    InsertId(&index[columns_[column].Get(row_id)], row_id);
  }
}

void Table::IndexRemove(size_t row_id) {
  MutexLock lock(&secondary_mutex_);
  for (auto& [column, index] : secondary_indexes_) {
    EraseId(&index, columns_[column].Get(row_id), row_id);
  }
}

void Table::IndexUpdate(size_t row_id, const Row& new_row) {
  MutexLock lock(&secondary_mutex_);
  for (auto& [column, index] : secondary_indexes_) {
    Value old_key = columns_[column].Get(row_id);
    const Value& new_key = new_row[column];
    if (old_key == new_key) continue;
    EraseId(&index, old_key, row_id);
    InsertId(&index[new_key], row_id);
  }
}

size_t Table::ScanLiveRange(size_t* cursor, size_t end_slot, size_t max_live,
                            std::vector<uint32_t>* out_slots) const {
  size_t appended = 0;
  size_t pos = *cursor;
  const size_t slots = std::min(end_slot, slot_count_);
  while (pos < slots && appended < max_live) {
    if (!deleted_[pos]) {
      out_slots->push_back(static_cast<uint32_t>(pos));
      ++appended;
    }
    ++pos;
  }
  *cursor = pos;
  return appended;
}

void Table::LookupBySecondary(int column, const Value& key,
                              std::vector<size_t>* out) {
  if (column == pk_col_) {
    auto it = pk_index_.find(key);
    if (it != pk_index_.end()) out->push_back(it->second);
    return;
  }
  MutexLock lock(&secondary_mutex_);
  const SecondaryIndex& index = EnsureSecondaryIndex(column);
  auto it = index.find(key);
  if (it != index.end()) out->insert(out->end(), it->second.begin(), it->second.end());
}

// Every schema mutation shifts or retypes column indexes, so all secondary
// indexes (keyed by column index) are dropped; the next probe rebuilds them.
void Table::InvalidateAfterSchemaChange() {
  MutexLock lock(&secondary_mutex_);
  secondary_indexes_.clear();
}

Status Table::AlterAddColumn(const std::string& name, TypeId type,
                             const Value& default_value) {
  bool ambiguous = false;
  if (schema_.TryResolve("", name, &ambiguous) >= 0 || ambiguous) {
    return Status::ExecutionError("alter table " + name_ + ": column '" + name +
                                  "' already exists");
  }
  Column col;
  col.name = name;
  col.type = type;
  std::vector<Column> cols = schema_.columns();
  cols.push_back(col);
  schema_ = Schema(std::move(cols));
  columns_.emplace_back(type);
  TableColumn& data = columns_.back();
  for (size_t i = 0; i < slot_count_; ++i) data.Append(default_value);
  InvalidateAfterSchemaChange();
  return Status::OK();
}

void Table::AlterDropLastColumn() {
  assert(!columns_.empty());
  std::vector<Column> cols = schema_.columns();
  cols.pop_back();
  schema_ = Schema(std::move(cols));
  columns_.pop_back();
  InvalidateAfterSchemaChange();
}

Result<Table::DroppedColumn> Table::AlterDropColumn(size_t column) {
  assert(column < columns_.size());
  if (static_cast<int>(column) == pk_col_) {
    return Status::ExecutionError("alter table " + name_ +
                                  ": cannot drop primary key column '" +
                                  schema_.column(column).name + "'");
  }
  DroppedColumn dropped{schema_.column(column), std::move(columns_[column]),
                        column};
  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(column));
  std::vector<Column> cols = schema_.columns();
  cols.erase(cols.begin() + static_cast<ptrdiff_t>(column));
  schema_ = Schema(std::move(cols));
  if (pk_col_ > static_cast<int>(column)) --pk_col_;
  InvalidateAfterSchemaChange();
  return dropped;
}

void Table::AlterRestoreColumn(DroppedColumn dropped) {
  assert(dropped.index <= columns_.size());
  std::vector<Column> cols = schema_.columns();
  cols.insert(cols.begin() + static_cast<ptrdiff_t>(dropped.index),
              dropped.schema_column);
  schema_ = Schema(std::move(cols));
  columns_.insert(columns_.begin() + static_cast<ptrdiff_t>(dropped.index),
                  std::move(dropped.data));
  if (pk_col_ >= static_cast<int>(dropped.index)) ++pk_col_;
  InvalidateAfterSchemaChange();
}

Status Table::AlterRenameColumn(size_t column, const std::string& new_name) {
  assert(column < columns_.size());
  bool ambiguous = false;
  int existing = schema_.TryResolve("", new_name, &ambiguous);
  if ((existing >= 0 && existing != static_cast<int>(column)) || ambiguous) {
    return Status::ExecutionError("alter table " + name_ + ": column '" +
                                  new_name + "' already exists");
  }
  schema_.column(column).name = new_name;
  InvalidateAfterSchemaChange();
  return Status::OK();
}

Result<TableColumn> Table::AlterRetypeColumn(size_t column, TypeId new_type) {
  assert(column < columns_.size());
  TableColumn rebuilt(new_type);
  const TableColumn& old = columns_[column];
  for (size_t i = 0; i < slot_count_; ++i) rebuilt.Append(old.Get(i));
  TableColumn old_data = std::move(columns_[column]);
  columns_[column] = std::move(rebuilt);
  schema_.column(column).type = new_type;
  InvalidateAfterSchemaChange();
  return old_data;
}

void Table::AlterRestoreColumnData(size_t column, TableColumn old_data,
                                   TypeId old_type) {
  assert(column < columns_.size());
  columns_[column] = std::move(old_data);
  schema_.column(column).type = old_type;
  InvalidateAfterSchemaChange();
}

void Table::Clear() {
  for (TableColumn& col : columns_) col.Clear();
  deleted_.clear();
  slot_count_ = 0;
  live_count_ = 0;
  pk_index_.clear();
  MutexLock lock(&secondary_mutex_);
  secondary_indexes_.clear();
}

}  // namespace seltrig
