// Vectorized physical operators. Each operator is built from a logical node
// by the Executor and pulls *batches* of rows from its children via
// NextBatch(); per-tuple virtual-call, evaluation-context, and audit-probe
// costs are amortized over ExecOptions::batch_size rows.
//
// Contract: NextBatch(out) returns false at end of stream; a true return
// means the stream continues and `out` holds zero or more logical rows
// (in-place operators like Filter may narrow a child batch to emptiness —
// callers keep pulling until false). Every operator is batch-to-batch; the
// row-at-a-time migration seam (RowOperator/RowAtATimeAdapter) is gone.

#ifndef SELTRIG_EXEC_OPERATORS_H_
#define SELTRIG_EXEC_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "exec/column_batch.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "plan/logical_plan.h"
#include "storage/table.h"
#include "types/key_index.h"
#include "types/value.h"

namespace seltrig {

// Per-operator runtime counters, surfaced by the shell's `.profile on` as an
// EXPLAIN-ANALYZE-style annotated tree. Row/batch counts are always
// maintained (two adds per batch); wall-clock time is only sampled when the
// ExecContext has profiling enabled.
struct OperatorProfile {
  uint64_t batches = 0;   // NextBatch calls that returned true
  uint64_t rows_out = 0;  // logical rows produced
  uint64_t init_ns = 0;   // time inside Init (materialization, build sides)
  uint64_t next_ns = 0;   // cumulative time inside NextBatch (incl. children)
};

class PhysicalOperator {
 public:
  PhysicalOperator(ExecContext* ctx, std::vector<const Row*> outer_rows)
      : ctx_(ctx),
        outer_rows_(std::move(outer_rows)),
        batch_capacity_(ctx->batch_size()) {}
  virtual ~PhysicalOperator();

  PhysicalOperator(const PhysicalOperator&) = delete;
  PhysicalOperator& operator=(const PhysicalOperator&) = delete;

  // Prepares the operator (and its children) for iteration.
  Status Init();
  // Produces the next batch into *out (cleared first). Returns false at end
  // of stream; true otherwise, with >= 0 logical rows in *out.
  Result<bool> NextBatch(ColumnBatch* out);

  // One-line label for profile trees, e.g. "SeqScan(customer)".
  virtual std::string DebugName() const = 0;

  // Maximum logical rows this operator places in one output batch. The
  // executor pins it to 1 on lazy spines that must replicate row-at-a-time
  // flow exactly (audit operators below an early-stopping LIMIT/max_rows).
  size_t batch_capacity() const { return batch_capacity_; }
  void set_batch_capacity(size_t capacity) {
    batch_capacity_ = capacity == 0 ? 1 : capacity;
  }

  const OperatorProfile& profile() const { return profile_; }
  const std::vector<const PhysicalOperator*>& profile_children() const {
    return profile_children_;
  }

  // The logical node this operator was lowered from (for PhysicalGatherOp:
  // the root of its logical spine). Set by Executor::BuildNode on every
  // operator it constructs; the plan validator (exec/plan_validator.h) walks
  // the physical tree through it and fails closed when it is missing.
  const LogicalOperator* logical_node() const { return logical_node_; }
  void set_logical_node(const LogicalOperator* node) { logical_node_ = node; }

  // Extra profile-tree lines this operator contributes below its own line
  // (before its children). PhysicalGatherOp reports the per-worker spine
  // operators here — summed across workers — since worker pipelines are torn
  // down before the profile is rendered.
  virtual void AppendProfileLines(int indent, std::string* out) const {
    (void)indent;
    (void)out;
  }

 protected:
  virtual Status InitImpl() = 0;
  virtual Result<bool> NextBatchImpl(ColumnBatch* out) = 0;

  // Evaluation context for expressions over `row`. Hot paths construct this
  // once per operator (InitImpl) and repoint `.row` per tuple; the context
  // copies the correlation stack, which must not happen per row.
  EvalContext MakeEvalContext(const Row* row) const {
    EvalContext ec;
    ec.row = row;
    ec.outer_rows = outer_rows_;
    ec.exec = ctx_;
    return ec;
  }

  // Emits source rows [*cursor, *cursor + batch_capacity_) of a `total`-row
  // source as one owned batch typed by `schema`; `append(i)` appends source
  // row i to `out` (or skips it) and returns a Status. Returns false, with
  // nothing emitted, once *cursor reaches `total`. The one emit loop of
  // every operator that produces from rows it holds.
  template <typename AppendFn>
  Result<bool> EmitRows(const Schema& schema, size_t total, size_t* cursor,
                        ColumnBatch* out, const AppendFn& append) {
    if (*cursor >= total) return false;
    out->ResetOwned(schema);
    const size_t end = std::min(total, *cursor + batch_capacity_);
    for (; *cursor < end; ++*cursor) SELTRIG_RETURN_IF_ERROR(append(*cursor));
    return true;
  }

  ExecContext* ctx_;
  std::vector<const Row*> outer_rows_;
  size_t batch_capacity_;
  const LogicalOperator* logical_node_ = nullptr;
  OperatorProfile profile_;
  // Child operators, registered by subclass constructors for profile trees.
  std::vector<const PhysicalOperator*> profile_children_;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

// Renders the operator tree with its runtime counters (after execution).
std::string FormatOperatorProfile(const PhysicalOperator& root);

// Finds an equality conjunct `column = <row-invariant expr>` in a scan filter
// — the shape SeqScanOp turns into a secondary-index probe. Returns the
// column index, or -1. Exposed so the parallel-scan eligibility check
// (exec/gather.cc) can prove a scan will NOT take the index path: an index
// probe examines a different slot set than a full scan, so rows_scanned
// would no longer be thread-count-invariant.
int FindIndexableScanColumn(const Expr& pred);

// Scan over a base table or virtual relation, applying the pushed
// single-table filter and the context's scan exclusions (offline auditing).
// A base table's live slot ids come from Table::ScanLiveRange or, when the
// filter has an equality conjunct `column = <row-independent expression>` (a
// constant or a correlated outer reference), from a probe of a lazily-built
// secondary hash index (what makes correlated EXISTS, e.g. TPC-H Q22, cheap).
class SeqScanOp : public PhysicalOperator {
 public:
  SeqScanOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
            const LogicalScan& node, Table* table);
  std::string DebugName() const override;

  // Restricts the scan to the slot range [begin, end) — one morsel of a
  // parallel scan — from the next Init on, so one scan can run morsel after
  // morsel. Range mode never probes the secondary index (the morsel owns its
  // slots outright; eligibility already excluded indexable filters) and is
  // only meaningful for base-table scans.
  void set_slot_range(size_t begin, size_t end) {
    slot_begin_ = begin;
    slot_end_ = end;
    range_mode_ = true;
  }

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  // Row-materializing emit (virtual scans and the row-pipeline escape
  // hatch): applies exclusions + filter to `src` and appends the (projected)
  // row to `out` when it passes.
  Result<bool> EmitIfPassing(const Row& src, ColumnBatch* out);
  // The one slot source: fills scan_slots_ with up to batch_capacity_ live
  // ids (index candidates or slot range); false once exhausted.
  bool NextSlots();
  // Columnar emit: binds zero-copy views over the table columns, installs
  // scan_slots_ as the selection, narrows it by exclusions and the filter.
  Status FillColumnarBatch(ColumnBatch* out);
  const LogicalScan& node_;
  Table* table_;  // null for virtual scans
  size_t cursor_ = 0;
  EvalContext eval_ctx_;
  // Compiled `column <cmp> constant` fast path for the fused filter.
  std::optional<SimplePredicate> simple_filter_;
  // Exclusions relevant to this scan, resolved to column indexes.
  std::vector<std::pair<int, Value>> exclusions_;
  // Index-lookup mode: the candidate row ids (ascending) to examine.
  bool index_mode_ = false;
  std::vector<size_t> candidates_;
  // Morsel range (set_slot_range); when inactive the scan covers the table.
  bool range_mode_ = false;
  size_t slot_begin_ = 0;
  size_t slot_end_ = 0;
  // Scratch buffers: live slot ids from NextSlots (ping-ponged with the
  // batch's selection via AdoptSelection), exclusion narrowing, and the
  // reused row-materialization buffers.
  std::vector<uint32_t> scan_slots_;
  std::vector<uint32_t> keep_scratch_;
  Row row_scratch_;
  Row row_proj_scratch_;
};

// In-place predicate over the child's batches: rows that fail are dropped
// from the selection vector; row storage is never copied.
class FilterOp : public PhysicalOperator {
 public:
  FilterOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
           const LogicalFilter& node, OperatorPtr child);
  std::string DebugName() const override;

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  const LogicalFilter& node_;
  OperatorPtr child_;
  EvalContext eval_ctx_;
  // Compiled `column <cmp> constant` fast path for the predicate.
  std::optional<SimplePredicate> simple_pred_;
};

// Evaluates the projection expressions column-at-a-time over the child's
// batch (EvalExprBatch) into owned columns typed by the node's schema, then
// swaps that batch in as the output — one output column per expression, no
// per-row Row temporaries.
class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
            const LogicalProject& node, OperatorPtr child);
  std::string DebugName() const override;

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  const LogicalProject& node_;
  OperatorPtr child_;
  EvalContext eval_ctx_;
  // The output being filled; it and the input batch trade storage every
  // call.
  ColumnBatch projected_;
};

// Hash join over extracted equi-key conjuncts, with residual predicate.
// Builds on the right child (with bucket capacity reserved from the build
// side's estimated cardinality), probes with batches of the left. Supports
// inner and left outer joins. Join reordering puts the smaller input on the
// right, so the build is the cheap side. Build rows are bucketed by their
// key's KeyIndex slot, so one- and two-key integer joins hash raw int64 keys
// instead of Row keys.
class HashJoinOp : public PhysicalOperator {
 public:
  HashJoinOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
             const LogicalJoin& node, OperatorPtr left, OperatorPtr right,
             std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
             ExprPtr residual);
  std::string DebugName() const override;

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  // Advances to the next probe-side row; false at end of the left stream.
  Result<bool> AdvanceLeft();
  // Evaluates `keys` for logical row `i` of `batch` into key_scratch_;
  // false when a key is NULL (the row can match nothing).
  Result<bool> EvalKeys(const std::vector<ExprPtr>& keys, const ColumnBatch& batch,
                        size_t i);

  const LogicalJoin& node_;
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;   // bound against the left child
  std::vector<ExprPtr> right_keys_;  // bound against the right child alone
  ExprPtr residual_;                 // over the concatenated row; nullable

  // Build keys -> slot, and the build rows of each slot.
  KeyIndex index_;
  std::vector<std::vector<Row>> buckets_;
  size_t right_width_ = 0;
  EvalContext eval_ctx_;
  ColumnBatch left_batch_;
  size_t left_pos_ = 0;
  bool left_done_ = false;
  // Current probe row: logical index into left_batch_; inactive between rows.
  bool have_left_ = false;
  size_t left_li_ = 0;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_idx_ = 0;
  bool left_matched_ = false;
  Row key_scratch_;
};

// Nested-loop join for non-equi conditions and cross joins; materializes the
// right child once, then streams batches of the left, emitting each
// qualifying pair directly into the output batch (append-then-pop on
// condition failure, mirroring the hash join's residual handling). Supports
// inner, left outer, and cross joins.
class NLJoinOp : public PhysicalOperator {
 public:
  NLJoinOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
           const LogicalJoin& node, OperatorPtr left, OperatorPtr right);
  std::string DebugName() const override;

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  // Advances to the next probe-side row; false at end of the left stream.
  Result<bool> AdvanceLeft();

  const LogicalJoin& node_;
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<Row> right_rows_;
  size_t right_width_ = 0;
  EvalContext eval_ctx_;
  ColumnBatch left_batch_;
  size_t left_pos_ = 0;
  bool left_done_ = false;
  // Current probe row: logical index into left_batch_; inactive between rows.
  bool have_left_ = false;
  size_t left_li_ = 0;
  size_t right_idx_ = 0;
  bool left_matched_ = false;
};

class HashAggregateOp : public PhysicalOperator {
 public:
  HashAggregateOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                  const LogicalAggregate& node, OperatorPtr child);
  std::string DebugName() const override;

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  struct AggState {
    int64_t count = 0;
    double sum_double = 0.0;
    int64_t sum_int = 0;
    bool saw_value = false;
    Value min_max;
    std::unique_ptr<std::unordered_set<Value, ValueHash, ValueEq>> distinct;
  };

  // Folds the row currently bound in `ec` into `states`.
  Status Accumulate(std::vector<AggState>* states, EvalContext& ec);
  Result<Value> Finalize(const AggregateSpec& spec, const AggState& state) const;

  const LogicalAggregate& node_;
  OperatorPtr child_;
  std::vector<Row> results_;
  size_t cursor_ = 0;
};

class SortOp : public PhysicalOperator {
 public:
  SortOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
         const LogicalSort& node, OperatorPtr child);
  std::string DebugName() const override;

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  const LogicalSort& node_;
  OperatorPtr child_;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

// OFFSET/LIMIT at batch granularity: trims the child's batches in place via
// the selection vector (an offset or limit boundary falling mid-batch cuts
// the batch, never the stream invariants).
class LimitOp : public PhysicalOperator {
 public:
  LimitOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
          const LogicalLimit& node, OperatorPtr child);
  std::string DebugName() const override;

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  const LogicalLimit& node_;
  OperatorPtr child_;
  int64_t produced_ = 0;
  int64_t skipped_ = 0;
};

class DistinctOp : public PhysicalOperator {
 public:
  DistinctOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
             OperatorPtr child);
  std::string DebugName() const override;

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  OperatorPtr child_;
  KeyIndex seen_;
  Row row_scratch_;
};

class ValuesOp : public PhysicalOperator {
 public:
  ValuesOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
           const LogicalValues& node);
  std::string DebugName() const override;

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  const LogicalValues& node_;
  size_t cursor_ = 0;
  EvalContext eval_ctx_;
  Row row_scratch_;
};

// The physical audit operator (Section IV-A2): a pass-through "data viewer"
// that probes the sensitive-ID hash set with the partition-by column of each
// row and records hits into the ACCESSED state. Probing is per batch: a
// Bloom pre-screen over the ID view (SensitiveIdView::Screen) first checks
// whether the batch can contain any sensitive ID at all and skips the exact
// probes entirely when it cannot — the common case for selective queries.
// When built without an ID view it evaluates the audit expression's
// predicate directly (the naive design ablated in the paper).
class PhysicalAuditOp : public PhysicalOperator {
 public:
  PhysicalAuditOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                  const LogicalAudit& node, OperatorPtr child);
  std::string DebugName() const override;

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  Status RecordHit(const Value& key);

  const LogicalAudit& node_;
  OperatorPtr child_;
  EvalContext eval_ctx_;
};

}  // namespace seltrig

#endif  // SELTRIG_EXEC_OPERATORS_H_
