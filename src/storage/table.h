// In-memory columnar table with stable row ids, an optional primary-key hash
// index, and secondary hash indexes that are built lazily and then maintained
// by every write.

#ifndef SELTRIG_STORAGE_TABLE_H_
#define SELTRIG_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/column_store.h"
#include "types/schema.h"
#include "types/value.h"

namespace seltrig {

class UndoLog;

// Storage is columnar: one append-only TableColumn per schema column (typed
// arrays + null bitmaps, see storage/column_store.h). A row id names the same
// slot in every column; deletes set a tombstone so row ids stay stable for
// indexes and triggers. Row images for DML, the undo log, WAL, and snapshots
// are materialized on demand through GetRow / MaterializeRow — the durability
// formats never see the columnar layout.
//
// Concurrency contract (docs/CONCURRENCY.md): reads (ScanLiveRange, GetRow,
// column_data, lookups) may run from many sessions and parallel scan workers
// at once; every mutation runs behind the engine's exclusive writer lock,
// which excludes all readers. The only mutable state reachable from the read
// path is the first, lazy build of a secondary index, which is serialized
// internally. Once built, an index is kept exact by the writers (Insert,
// Delete, Update and their Undo* inverses) and is only dropped by Clear and
// the Alter* paths.
class Table {
 public:
  // `primary_key_column` is the index of the PK column in `schema`, or -1 if
  // the table has no primary key.
  Table(std::string name, Schema schema, int primary_key_column = -1);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int primary_key_column() const { return pk_col_; }

  // Monotonic schema version: 1 at creation, bumped once per committed ALTER
  // TABLE statement. Plans stamp the version they were bound against and the
  // validator re-checks it at execute time; audit bindings and replication
  // DDL records carry it so every replica of a table converges on the same
  // (version, layout) pair.
  uint64_t schema_version() const { return schema_version_; }
  // Used by the ALTER path (commit / rollback) and by snapshot load +
  // recovery, which must restore the counter a replayed journal continues
  // from. Never decreases outside an ALTER rollback.
  void set_schema_version(uint64_t v) { schema_version_ = v; }

  // Number of live (non-deleted) rows.
  size_t live_row_count() const { return live_count_; }
  // Total slots including tombstones; valid row ids are [0, slot_count()).
  size_t slot_count() const { return slot_count_; }

  bool IsLive(size_t row_id) const { return !deleted_[row_id]; }

  // Materializes a full row image by gathering one cell from every column.
  // The cells are the exact Values that were stored (column_store.h's
  // exactness contract), so WAL images, undo entries, and snapshot lines are
  // byte-identical to the row-storage era.
  Row GetRow(size_t row_id) const;
  // Same, reusing the caller's buffer (cleared first) to avoid reallocation
  // in scan loops.
  void MaterializeRow(size_t row_id, Row* out) const;
  // Single-cell materialization.
  Value GetCell(size_t row_id, size_t column) const {
    return columns_[column].Get(row_id);
  }

  // Direct columnar access for the vectorized executor: the returned column
  // (typed array + null bitmap) stays valid until the next mutation of the
  // table — the same lifetime the old `const Row*` scan pointers had.
  const TableColumn& column_data(size_t column) const { return columns_[column]; }

  // Cursor-based batch scan: starting at *cursor, skips tombstones and
  // appends up to `max_live` live slot ids to `out_slots`, advancing *cursor
  // past every slot examined but never at or past `end_slot`. Returns the
  // number of slot ids appended; 0 means the range is exhausted. A morsel
  // worker owning [begin, end) starts its cursor at `begin`. The slot ids
  // index directly into column_data() arrays and double as the scan's
  // selection vector.
  size_t ScanLiveRange(size_t* cursor, size_t end_slot, size_t max_live,
                       std::vector<uint32_t>* out_slots) const;

  // Appends a row. Fails on arity mismatch or duplicate primary key.
  // On success returns the new row id.
  Result<size_t> Insert(Row row);

  // Tombstones a live row. Fails if the row id is invalid or already deleted.
  Status Delete(size_t row_id);

  // Replaces the contents of a live row (primary key changes are validated).
  Status Update(size_t row_id, Row new_row);

  // Primary-key point lookup; returns the row id or NotFound.
  Result<size_t> LookupByPrimaryKey(const Value& key) const;

  // Appends to `out` the live row ids whose `column` equals `key`, in
  // ascending order (the order a full scan visits them). A probe on the
  // primary-key column is answered from the primary-key index; any other
  // column uses a secondary hash index, built on the first probe and from
  // then on maintained in place by every write. Safe to call from concurrent
  // reader sessions: the lazy build is serialized.
  void LookupBySecondary(int column, const Value& key,
                         std::vector<size_t>* out)
      SELTRIG_EXCLUDES(secondary_mutex_);

  // Drops all rows and secondary indexes (used by tests and dbgen reloads).
  void Clear() SELTRIG_EXCLUDES(secondary_mutex_);

  // --- Online schema change (engine/session.cc ExecuteAlterTable) -----------
  // All Alter* mutations run behind the engine's exclusive writer lock, like
  // every other mutation. Each returns the state the caller needs to undo it,
  // so a failed mid-chain ALTER rolls back wholesale; none of them touches
  // schema_version() — the session bumps it once per committed statement.

  // A column removed by AlterDropColumn, exactly as it was: the schema entry,
  // the columnar data (moved, never copied — StringDict pointers stay valid),
  // and its original index.
  struct DroppedColumn {
    Column schema_column;
    TableColumn data;
    size_t index = 0;
  };

  // Appends a new column backfilled with `default_value` in every slot
  // (tombstoned slots included, so column arity always equals slot_count()).
  // A default that mismatches the declared type degrades the column to the
  // generic representation instead of coercing (column_store.h contract).
  Status AlterAddColumn(const std::string& name, TypeId type,
                        const Value& default_value);
  // Inverse of AlterAddColumn: removes the last column.
  void AlterDropLastColumn();

  // Removes a column. Fails on the primary-key column; shifts pk_col_ left
  // when a preceding column goes away. The removed column is returned for the
  // rollback path (AlterRestoreColumn).
  Result<DroppedColumn> AlterDropColumn(size_t column);
  // Inverse of AlterDropColumn: splices the column back at its old index.
  void AlterRestoreColumn(DroppedColumn dropped);

  Status AlterRenameColumn(size_t column, const std::string& new_name);

  // Re-declares a column's type, rebuilding its storage by re-appending every
  // stored cell: values keep their exact identity (degrade-not-coerce), only
  // the declared type — and thus the typed fast paths new values take —
  // changes. Returns the old columnar data for the rollback path.
  Result<TableColumn> AlterRetypeColumn(size_t column, TypeId new_type);
  // Inverse of AlterRetypeColumn: restores the old data + declared type.
  void AlterRestoreColumnData(size_t column, TableColumn old_data,
                              TypeId old_type);

  // --- Transactional trigger execution (engine/database.cc) -----------------
  // While an undo log is attached, every successful mutation records its
  // inverse there so the engine can roll trigger actions back atomically.
  void set_undo_log(UndoLog* undo) { undo_ = undo; }
  UndoLog* undo_log() const { return undo_; }

  // Inverse operations applied by UndoLog::RollbackTo, newest entry first.
  // They bypass journaling (rollback must not journal itself).
  void UndoInsert(size_t row_id);
  void UndoDelete(size_t row_id);
  void UndoUpdate(size_t row_id, Row old_row);

 private:
  // Key -> ascending live row ids. Every built index is exact: writers keep
  // it so in place, so an index is either absent (not yet probed) or valid.
  using SecondaryIndex =
      std::unordered_map<Value, std::vector<size_t>, ValueHash, ValueEq>;

  const SecondaryIndex& EnsureSecondaryIndex(int column)
      SELTRIG_REQUIRES(secondary_mutex_);
  // Index maintenance for one row id across every built secondary index.
  // IndexAdd runs once the row is live with its cells written, IndexRemove
  // while its cells are still in place; IndexUpdate runs before `new_row`
  // overwrites the slot and moves the id only where the indexed cell changes.
  void IndexAdd(size_t row_id) SELTRIG_EXCLUDES(secondary_mutex_);
  void IndexRemove(size_t row_id) SELTRIG_EXCLUDES(secondary_mutex_);
  void IndexUpdate(size_t row_id, const Row& new_row)
      SELTRIG_EXCLUDES(secondary_mutex_);
  void InvalidateAfterSchemaChange() SELTRIG_EXCLUDES(secondary_mutex_);
  void AppendSlot(const Row& row);
  void WriteSlot(size_t row_id, const Row& row);

  std::string name_;
  Schema schema_;
  int pk_col_;

  std::vector<TableColumn> columns_;  // one per schema column
  std::vector<bool> deleted_;
  size_t slot_count_ = 0;
  size_t live_count_ = 0;
  uint64_t schema_version_ = 1;  // bumped once per committed ALTER TABLE

  std::unordered_map<Value, size_t, ValueHash, ValueEq> pk_index_;
  // Serializes lazy secondary-index builds between concurrent readers.
  // Writers already exclude readers; they take it, uncontended, for the
  // static lock discipline.
  mutable Mutex secondary_mutex_;
  std::unordered_map<int, SecondaryIndex> secondary_indexes_
      SELTRIG_GUARDED_BY(secondary_mutex_);
  UndoLog* undo_ = nullptr;
};

}  // namespace seltrig

#endif  // SELTRIG_STORAGE_TABLE_H_
