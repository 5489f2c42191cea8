// ColumnVector: one column of a ColumnBatch flowing through the vectorized
// pipeline (exec/column_batch.h).
//
// Every read goes through one `const TableColumn&` (storage/column_store.h):
// a typed array + null bitmap + string dictionary, or the exact generic
// Value fallback (Rep::kValue). Where that column lives is the producer's
// business:
//
//  - a scan binds the table's own column (BindView): zero-copy, physical row
//    indexes are table slot ids and the batch's selection vector holds the
//    live slots. The binding stays valid until the next mutation of the
//    table;
//
//  - every other producer (joins, aggregates, sorts, projections, VALUES,
//    the row-pipeline escape hatch ExecOptions::columnar=false) appends into
//    a column the vector owns, typed by the plan node's schema (ResetOwned;
//    strings excepted, see there). A cell of another type degrades the
//    column to Rep::kValue, which keeps it exact; the next ResetOwned types
//    it again. Storage is retained
//    across resets, so a refilled batch reaches a steady state with zero
//    heap allocation.
//
// The owned column lives on the heap (allocated by the first ResetOwned and
// reused after), never inside the vector, so moving a vector (a gather
// handing batches between threads, a vector of columns reallocating) keeps
// its binding valid, and a vector stays two pointers wide. Binding a table
// column allocates nothing.
//
// Cell reads return the exact stored Value either way (column_store.h's
// exactness contract), so audit probes and row images do not depend on
// where the column lives.

#ifndef SELTRIG_EXEC_COLUMN_VECTOR_H_
#define SELTRIG_EXEC_COLUMN_VECTOR_H_

#include <cstddef>
#include <memory>

#include "storage/column_store.h"
#include "types/data_type.h"
#include "types/value.h"

namespace seltrig {

class ColumnVector {
 public:
  // The column every read goes through (bound or reset first).
  const TableColumn& data() const { return *col_; }
  // True while a table column is bound.
  bool is_view() const { return col_ != nullptr && col_ != owned_.get(); }

  // Binds table storage; the owned column keeps its storage for later reuse.
  void BindView(const TableColumn* col) { col_ = col; }

  // Switches to the owned column, emptied and typed `type` (capacity kept).
  // A string column stays generic (Rep::kValue): a dictionary rebuilt for
  // every batch hashes and copies each cell for codes only that batch uses.
  void ResetOwned(TypeId type) {
    const TypeId rep_type = type == TypeId::kString ? TypeId::kNull : type;
    if (owned_ == nullptr) {
      owned_ = std::make_unique<TableColumn>(rep_type);
    } else {
      owned_->Reset(rep_type);
    }
    col_ = owned_.get();
  }
  // The owned column, for producers that append to it after ResetOwned.
  TableColumn* owned() { return owned_.get(); }

  // --- Cell access (physical index) ------------------------------------------
  Value GetValue(size_t phys) const { return data().Get(phys); }
  // Appends the cell to *out without an intermediate temporary.
  void AppendValueTo(size_t phys, Row* out) const { data().AppendTo(phys, out); }

 private:
  // The bound table column, or owned_.get().
  const TableColumn* col_ = nullptr;
  // Allocated by the first ResetOwned. It lives on the heap, so col_ stays
  // valid when the vector moves.
  std::unique_ptr<TableColumn> owned_;
};

}  // namespace seltrig

#endif  // SELTRIG_EXEC_COLUMN_VECTOR_H_
