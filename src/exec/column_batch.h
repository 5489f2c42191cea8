// ColumnBatch: the unit of data flow in the vectorized execution pipeline —
// a set of ColumnVectors (exec/column_vector.h) plus an optional selection
// vector over physical row indexes.
//
// Every column reads through one `const TableColumn&`. Scans bind the
// table's columns (physical indexes are table slot ids, the selection holds
// the live slots); every other producer (joins, aggregates, sorts, projects,
// VALUES) appends into owned columns typed by its plan node's schema. No
// consumer needs to know which: in-place operators (filter, audit, limit,
// distinct) narrow the *selection* without touching column storage, and
// consumers see `size()` logical rows addressed through GetValue(col, i) or
// the row-materialization shim.
//
// Column storage is retained across Clear()/ResetOwned() calls, so a batch
// that is refilled every iteration reaches a steady state with zero heap
// allocation.
//
// Appending is only legal while no selection is installed: an append under a
// selection would silently corrupt the logical view, so the producer API
// asserts against it in debug builds.
//
// Thread confinement: a batch is used by one thread at a time (a serial
// statement, or a morsel worker that fills it and then hands it to the
// gathering thread after the workers join) — no locks, no annotations. A
// batch moves whole (its owned columns travel with it), and table bindings
// stay valid across workers and until the statement ends because the
// statement holds the engine's shared storage lock for its full duration
// (docs/STATIC_ANALYSIS.md).

#ifndef SELTRIG_EXEC_COLUMN_BATCH_H_
#define SELTRIG_EXEC_COLUMN_BATCH_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/column_vector.h"
#include "types/schema.h"
#include "types/value.h"

namespace seltrig {

class ColumnBatch {
 public:
  // Default logical capacity of the pipeline (ExecOptions::batch_size).
  static constexpr size_t kDefaultCapacity = 1024;

  ColumnBatch() = default;

  ColumnBatch(const ColumnBatch&) = delete;
  ColumnBatch& operator=(const ColumnBatch&) = delete;
  // Movable, so a morsel gather can hand worker batches through whole.
  ColumnBatch(ColumnBatch&&) = default;
  ColumnBatch& operator=(ColumnBatch&&) = default;

  // --- Logical (selected) view ----------------------------------------------
  size_t size() const { return has_selection_ ? selection_.size() : count_; }
  bool empty() const { return size() == 0; }
  size_t num_columns() const { return cols_.size(); }

  // Physical index backing logical row `i` (stable across selection changes;
  // used to build narrowed selections).
  size_t PhysicalIndex(size_t i) const {
    return has_selection_ ? selection_[i] : i;
  }

  const ColumnVector& column(size_t c) const { return cols_[c]; }
  ColumnVector& mutable_column(size_t c) { return cols_[c]; }

  // Cell of logical row `i`, column `c` — the exact stored Value.
  Value GetValue(size_t c, size_t i) const {
    return cols_[c].GetValue(PhysicalIndex(i));
  }

  // --- Row-materialization shim ---------------------------------------------
  // Gathers logical row `i` into *out (cleared first). Cells are the exact
  // stored Values, so consumers that need full row images (joins, sorts, DML,
  // the executor's result collection) are independent of the columnar layout.
  void MaterializeRow(size_t i, Row* out) const {
    out->clear();
    out->reserve(cols_.size());
    const size_t phys = PhysicalIndex(i);
    for (const ColumnVector& col : cols_) col.AppendValueTo(phys, out);
  }
  Row GetRow(size_t i) const {
    Row r;
    MaterializeRow(i, &r);
    return r;
  }

  // --- Producer API: owned mode ---------------------------------------------
  // Empties the batch and configures one owned column per `schema` column,
  // typed by its declared type (storage reused).
  void ResetOwned(const Schema& schema) {
    Clear();
    if (cols_.size() != schema.size()) cols_.resize(schema.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].ResetOwned(schema.column(c).type);
    }
  }

  // Appends one row by scattering its cells across the owned columns.
  // Illegal once a selection is installed (would corrupt the logical view).
  void AppendRow(const Row& src) {
    assert(!has_selection_ && "AppendRow under an installed selection");
    assert(src.size() == cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) cols_[c].owned()->Append(src[c]);
    ++count_;
  }
  void AppendRow(Row&& src) {
    assert(!has_selection_ && "AppendRow under an installed selection");
    assert(src.size() == cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) cols_[c].owned()->Append(std::move(src[c]));
    ++count_;
  }

  // Join emit: appends the concatenation of `left`'s logical row `li` and
  // `right` directly, cell by cell (no intermediate Row).
  void AppendConcat(const ColumnBatch& left, size_t li, const Row& right) {
    assert(!has_selection_ && "AppendRow under an installed selection");
    const size_t lw = left.num_columns();
    assert(lw + right.size() == cols_.size());
    const size_t phys = left.PhysicalIndex(li);
    for (size_t c = 0; c < lw; ++c) {
      cols_[c].owned()->AppendFrom(left.column(c).data(), phys);
    }
    for (size_t c = 0; c < right.size(); ++c) cols_[lw + c].owned()->Append(right[c]);
    ++count_;
  }
  // Left-outer pad: `left` row `li` concatenated with `pad` NULLs.
  void AppendConcatPad(const ColumnBatch& left, size_t li, size_t pad) {
    assert(!has_selection_ && "AppendRow under an installed selection");
    const size_t lw = left.num_columns();
    assert(lw + pad == cols_.size());
    const size_t phys = left.PhysicalIndex(li);
    for (size_t c = 0; c < lw; ++c) {
      cols_[c].owned()->AppendFrom(left.column(c).data(), phys);
    }
    for (size_t c = 0; c < pad; ++c) cols_[lw + c].owned()->Append(Value::Null());
    ++count_;
  }

  // Removes the most recently appended row (join residual rejection).
  // Illegal once a selection is installed.
  void PopRow() {
    assert(!has_selection_ && "PopRow under an installed selection");
    assert(count_ > 0);
    for (ColumnVector& col : cols_) col.owned()->PopBack();
    --count_;
  }

  // Column-at-a-time fill: after ResetOwned, the producer appends `n` cells
  // to every mutable_column(c).owned(), then declares the row count here.
  void SetOwnedRowCount(size_t n) {
    assert(!has_selection_);
    assert(std::all_of(cols_.begin(), cols_.end(),
                       [n](const ColumnVector& col) { return col.data().size() == n; }));
    count_ = n;
  }

  // --- Producer API: view mode ----------------------------------------------
  // Empties the batch and sizes it for `width` view columns; follow with
  // BindViewColumn per column and AdoptSelection for the slot ids.
  void BeginViews(size_t width) {
    Clear();
    if (cols_.size() != width) cols_.resize(width);
  }
  void BindViewColumn(size_t c, const TableColumn* col) {
    cols_[c].BindView(col);
  }
  // Keeps only the columns named by `projection` (distinct indexes), in
  // order.
  void ApplyProjection(const std::vector<int>& projection);

  // --- Selection ------------------------------------------------------------
  bool has_selection() const { return has_selection_; }

  // Installs a selection of physical indexes (ascending). An in-place filter
  // builds the narrowed vector with PhysicalIndex() and installs it here.
  void SetSelection(std::vector<uint32_t> selection) {
    selection_ = std::move(selection);
    has_selection_ = true;
  }
  // Swap-installs the selection (scan hot path: the displaced storage rides
  // back in *selection, so the scan's slot buffer and the batch's selection
  // ping-pong with zero steady-state allocation).
  void AdoptSelection(std::vector<uint32_t>* selection) {
    selection_.swap(*selection);
    has_selection_ = true;
  }

  // Keeps only the first `n` logical rows.
  void TruncateLogical(size_t n) {
    if (n >= size()) return;
    if (has_selection_) {
      selection_.resize(n);
    } else {
      count_ = n;
    }
  }

  // Drops the first `n` logical rows.
  void DropFrontLogical(size_t n);

  // Empties the batch. Column storage and mode are reconfigured by the next
  // producer fill (ResetOwned / BeginViews).
  void Clear() {
    count_ = 0;
    has_selection_ = false;
    selection_.clear();
  }

 private:
  std::vector<ColumnVector> cols_;
  size_t count_ = 0;  // physical rows in owned columns; 0 with table bindings
  std::vector<uint32_t> selection_;
  bool has_selection_ = false;
  // Scratch for ApplyProjection (storage reuse).
  std::vector<ColumnVector> proj_scratch_;
};

}  // namespace seltrig

#endif  // SELTRIG_EXEC_COLUMN_BATCH_H_
