#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "audit/accessed_state.h"
#include "catalog/catalog.h"
#include "common/bloom_filter.h"
#include "common/fault_injector.h"
#include "expr/analysis.h"
#include "storage/sensitive_id_view.h"

namespace seltrig {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Finds an equality conjunct `column = <row-invariant expr>` usable for a
// secondary-index probe. Returns the column index, or -1.
int FindIndexableConjunct(const Expr& pred, const Expr** value_expr) {
  if (pred.kind == ExprKind::kLogical && pred.logical_op == LogicalOp::kAnd) {
    int col = FindIndexableConjunct(*pred.children[0], value_expr);
    if (col >= 0) return col;
    return FindIndexableConjunct(*pred.children[1], value_expr);
  }
  if (pred.kind == ExprKind::kComparison && pred.cmp_op == CompareOp::kEq) {
    const Expr& l = *pred.children[0];
    const Expr& r = *pred.children[1];
    if (l.kind == ExprKind::kColumnRef && ExprIsRowInvariant(r)) {
      *value_expr = &r;
      return l.column_index;
    }
    if (r.kind == ExprKind::kColumnRef && ExprIsRowInvariant(l)) {
      *value_expr = &l;
      return r.column_index;
    }
  }
  return -1;
}

// Rough output-cardinality estimate for sizing hash tables before a build.
// Only has to be the right order of magnitude: it seeds reserve() calls, so
// an underestimate costs rehashes and an overestimate costs memory.
size_t EstimateCardinality(const LogicalOperator& node, ExecContext* ctx) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      if (scan.virtual_rows != nullptr) return scan.virtual_rows->size();
      Result<Table*> table = ctx->catalog()->GetTable(scan.table_name);
      size_t n = table.ok() ? (*table)->live_row_count() : 0;
      if (scan.filter != nullptr) n = n / 3 + 1;
      return n;
    }
    case PlanKind::kValues:
      return static_cast<const LogicalValues&>(node).rows.size();
    case PlanKind::kFilter:
      return EstimateCardinality(*node.children[0], ctx) / 3 + 1;
    case PlanKind::kLimit: {
      const auto& limit = static_cast<const LogicalLimit&>(node);
      size_t child = EstimateCardinality(*node.children[0], ctx);
      if (limit.limit >= 0) {
        return std::min(child, static_cast<size_t>(limit.limit));
      }
      return child;
    }
    case PlanKind::kProject:
    case PlanKind::kSort:
    case PlanKind::kDistinct:
    case PlanKind::kAudit:
      return EstimateCardinality(*node.children[0], ctx);
    case PlanKind::kAggregate:
      return EstimateCardinality(*node.children[0], ctx) / 4 + 1;
    case PlanKind::kJoin:
      return std::max(EstimateCardinality(*node.children[0], ctx),
                      EstimateCardinality(*node.children[1], ctx));
  }
  return 16;
}

void FormatProfileNode(const PhysicalOperator& op, int indent, std::string* out) {
  const OperatorProfile& p = op.profile();
  char line[256];
  std::snprintf(line, sizeof(line),
                "%*s%s  rows=%llu batches=%llu init=%.3fms next=%.3fms\n", indent * 2,
                "", op.DebugName().c_str(),
                static_cast<unsigned long long>(p.rows_out),
                static_cast<unsigned long long>(p.batches),
                static_cast<double>(p.init_ns) / 1e6,
                static_cast<double>(p.next_ns) / 1e6);
  *out += line;
  op.AppendProfileLines(indent + 1, out);
  for (const PhysicalOperator* child : op.profile_children()) {
    FormatProfileNode(*child, indent + 1, out);
  }
}

// Pulls `child` to the end of its stream, appending every logical row to
// *rows (the materializing operators' input loop).
Status DrainRows(PhysicalOperator* child, std::vector<Row>* rows) {
  ColumnBatch batch;
  while (true) {
    SELTRIG_ASSIGN_OR_RETURN(bool has, child->NextBatch(&batch));
    if (!has) return Status::OK();
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &rows->emplace_back());
    }
  }
}

Status IntegerOutOfRange() { return Status::ExecutionError("integer out of range"); }

}  // namespace

int FindIndexableScanColumn(const Expr& pred) {
  const Expr* value_expr = nullptr;
  return FindIndexableConjunct(pred, &value_expr);
}

// --- PhysicalOperator --------------------------------------------------------

PhysicalOperator::~PhysicalOperator() = default;

Status PhysicalOperator::Init() {
  if (!ctx_->collect_profile()) return InitImpl();
  uint64_t start = NowNs();
  Status status = InitImpl();
  profile_.init_ns += NowNs() - start;
  return status;
}

Result<bool> PhysicalOperator::NextBatch(ColumnBatch* out) {
  out->Clear();
  if (!ctx_->collect_profile()) {
    SELTRIG_ASSIGN_OR_RETURN(bool has, NextBatchImpl(out));
    if (has) {
      profile_.batches++;
      profile_.rows_out += out->size();
    }
    return has;
  }
  uint64_t start = NowNs();
  Result<bool> has = NextBatchImpl(out);
  profile_.next_ns += NowNs() - start;
  SELTRIG_RETURN_IF_ERROR(has.status());
  if (*has) {
    profile_.batches++;
    profile_.rows_out += out->size();
  }
  return has;
}

std::string FormatOperatorProfile(const PhysicalOperator& root) {
  std::string out;
  FormatProfileNode(root, 0, &out);
  return out;
}

// --- SeqScan -----------------------------------------------------------------

SeqScanOp::SeqScanOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                     const LogicalScan& node, Table* table)
    : PhysicalOperator(ctx, std::move(outer_rows)), node_(node), table_(table) {}

std::string SeqScanOp::DebugName() const { return node_.Describe(); }

Status SeqScanOp::InitImpl() {
  cursor_ = range_mode_ ? slot_begin_ : 0;
  exclusions_.clear();
  index_mode_ = false;
  candidates_.clear();
  eval_ctx_ = MakeEvalContext(nullptr);
  scan_slots_.reserve(batch_capacity_);
  simple_filter_.reset();
  if (node_.filter != nullptr) {
    simple_filter_ = SimplePredicate::Compile(*node_.filter);
  }
  if (table_ != nullptr) {
    for (const ScanExclusion& e : ctx_->exclusions()) {
      if (e.table == node_.table_name) {
        exclusions_.emplace_back(e.column, e.value);
      }
    }
    // A morsel-range scan walks its slots directly; index probing would
    // examine rows outside the morsel (and a different total slot set).
    if (node_.filter != nullptr && !range_mode_) {
      const Expr* value_expr = nullptr;
      int col = FindIndexableConjunct(*node_.filter, &value_expr);
      if (col >= 0) {
        eval_ctx_.row = nullptr;
        SELTRIG_ASSIGN_OR_RETURN(Value key, EvalExpr(*value_expr, eval_ctx_));
        index_mode_ = true;
        if (!key.is_null()) {
          table_->LookupBySecondary(col, key, &candidates_);
        }
      }
    }
  }
  return Status::OK();
}

Result<bool> SeqScanOp::EmitIfPassing(const Row& src, ColumnBatch* out) {
  ctx_->stats().rows_scanned++;
  for (const auto& [col, value] : exclusions_) {
    if (src[col] == value) return false;
  }
  if (node_.filter != nullptr) {
    if (simple_filter_) {
      if (!simple_filter_->Matches(src)) return false;
    } else {
      eval_ctx_.BindRow(&src);
      SELTRIG_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*node_.filter, eval_ctx_));
      if (!pass) return false;
    }
  }
  if (node_.projection.empty()) {
    out->AppendRow(src);
  } else {
    row_proj_scratch_.clear();
    row_proj_scratch_.reserve(node_.projection.size());
    for (int col : node_.projection) row_proj_scratch_.push_back(src[col]);
    out->AppendRow(std::move(row_proj_scratch_));
  }
  return true;
}

bool SeqScanOp::NextSlots() {
  scan_slots_.clear();
  if (!index_mode_) {
    size_t end_slot = range_mode_ ? slot_end_ : table_->slot_count();
    return table_->ScanLiveRange(&cursor_, end_slot, batch_capacity_, &scan_slots_) > 0;
  }
  // Exhausted only past the last candidate: a run of dead ones yields an
  // empty batch.
  if (cursor_ >= candidates_.size()) return false;
  while (cursor_ < candidates_.size() && scan_slots_.size() < batch_capacity_) {
    size_t row_id = candidates_[cursor_++];
    if (table_->IsLive(row_id)) scan_slots_.push_back(static_cast<uint32_t>(row_id));
  }
  return true;
}

Status SeqScanOp::FillColumnarBatch(ColumnBatch* out) {
  // NextSlots paces both layouts, so audit batch boundaries — and
  // audit_batches_prescreened — match the row pipeline bit-for-bit.
  ctx_->stats().rows_scanned += scan_slots_.size();

  const size_t width = table_->schema().size();
  out->BeginViews(width);
  for (size_t c = 0; c < width; ++c) {
    out->BindViewColumn(c, &table_->column_data(c));
  }
  // Swap-install the slot ids: the scan's buffer and the batch's selection
  // ping-pong, so the steady state allocates nothing.
  out->AdoptSelection(&scan_slots_);

  for (const auto& [col, value] : exclusions_) {
    size_t m = out->size();
    keep_scratch_.clear();
    keep_scratch_.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      const size_t phys = out->PhysicalIndex(i);
      if (!(out->column(static_cast<size_t>(col)).GetValue(phys) == value)) {
        keep_scratch_.push_back(static_cast<uint32_t>(phys));
      }
    }
    if (keep_scratch_.size() != m) out->AdoptSelection(&keep_scratch_);
  }
  if (node_.filter != nullptr) {
    if (simple_filter_) {
      simple_filter_->FilterBatch(out);
    } else {
      SELTRIG_RETURN_IF_ERROR(EvalPredicateBatch(*node_.filter, eval_ctx_, out));
    }
  }
  if (!node_.projection.empty()) out->ApplyProjection(node_.projection);
  return Status::OK();
}

Result<bool> SeqScanOp::NextBatchImpl(ColumnBatch* out) {
  if (node_.virtual_rows != nullptr) {
    const std::vector<Row>& rows = *node_.virtual_rows;
    return EmitRows(node_.schema, rows.size(), &cursor_, out,
                    [&](size_t i) { return EmitIfPassing(rows[i], out).status(); });
  }
  if (!NextSlots()) return false;
  if (ctx_->columnar()) {
    SELTRIG_RETURN_IF_ERROR(FillColumnarBatch(out));
    return true;
  }
  // Row-pipeline escape hatch (ExecOptions::columnar = false): materialize
  // every live row and append generically — the honest row-at-a-time
  // baseline the benchmarks compare against.
  out->ResetOwned(node_.schema);
  for (uint32_t slot : scan_slots_) {
    table_->MaterializeRow(slot, &row_scratch_);
    SELTRIG_RETURN_IF_ERROR(EmitIfPassing(row_scratch_, out).status());
  }
  return true;
}

// --- Filter ------------------------------------------------------------------

FilterOp::FilterOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                   const LogicalFilter& node, OperatorPtr child)
    : PhysicalOperator(ctx, std::move(outer_rows)), node_(node), child_(std::move(child)) {
  profile_children_ = {child_.get()};
}

std::string FilterOp::DebugName() const { return node_.Describe(); }

Status FilterOp::InitImpl() {
  eval_ctx_ = MakeEvalContext(nullptr);
  simple_pred_ = SimplePredicate::Compile(*node_.predicate);
  return child_->Init();
}

Result<bool> FilterOp::NextBatchImpl(ColumnBatch* out) {
  SELTRIG_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
  if (!has) return false;
  if (simple_pred_) {
    simple_pred_->FilterBatch(out);
    return true;
  }
  SELTRIG_RETURN_IF_ERROR(EvalPredicateBatch(*node_.predicate, eval_ctx_, out));
  return true;
}

// --- Project -----------------------------------------------------------------

ProjectOp::ProjectOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                     const LogicalProject& node, OperatorPtr child)
    : PhysicalOperator(ctx, std::move(outer_rows)), node_(node), child_(std::move(child)) {
  profile_children_ = {child_.get()};
}

std::string ProjectOp::DebugName() const { return node_.Describe(); }

Status ProjectOp::InitImpl() {
  eval_ctx_ = MakeEvalContext(nullptr);
  return child_->Init();
}

Result<bool> ProjectOp::NextBatchImpl(ColumnBatch* out) {
  SELTRIG_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
  if (!has) return false;
  size_t n = out->size();
  if (n == 0) return true;
  projected_.ResetOwned(node_.schema);
  for (size_t c = 0; c < node_.exprs.size(); ++c) {
    SELTRIG_RETURN_IF_ERROR(EvalExprBatch(*node_.exprs[c], eval_ctx_, *out,
                                          projected_.mutable_column(c).owned()));
  }
  projected_.SetOwnedRowCount(n);
  // All inputs are evaluated: the result becomes the output batch, and the
  // input's storage rides back into projected_ for reuse.
  std::swap(*out, projected_);
  return true;
}

// --- HashJoin ----------------------------------------------------------------

HashJoinOp::HashJoinOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                       const LogicalJoin& node, OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
                       ExprPtr residual)
    : PhysicalOperator(ctx, std::move(outer_rows)),
      node_(node),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)) {
  profile_children_ = {left_.get(), right_.get()};
}

std::string HashJoinOp::DebugName() const { return node_.Describe(); }

Status HashJoinOp::InitImpl() {
  SELTRIG_RETURN_IF_ERROR(left_->Init());
  SELTRIG_RETURN_IF_ERROR(right_->Init());
  eval_ctx_ = MakeEvalContext(nullptr);
  left_batch_.Clear();
  left_pos_ = 0;
  left_done_ = false;
  have_left_ = false;
  matches_ = nullptr;
  left_matched_ = false;

  // Build side: size the table from the child's estimated cardinality up
  // front (one allocation instead of a rehash cascade).
  size_t estimate = EstimateCardinality(*node_.children[1], ctx_);
  index_.Reset(estimate);
  buckets_.clear();
  buckets_.reserve(estimate);
  right_width_ = node_.children[1]->schema.size();
  ColumnBatch build_batch;
  while (true) {
    Result<bool> has = right_->NextBatch(&build_batch);
    SELTRIG_RETURN_IF_ERROR(has.status());
    if (!*has) break;
    for (size_t i = 0; i < build_batch.size(); ++i) {
      // Keys are evaluated against the batch first; only a row with a
      // matchable key is materialized.
      SELTRIG_ASSIGN_OR_RETURN(bool has_key, EvalKeys(right_keys_, build_batch, i));
      if (!has_key) continue;  // SQL equality never matches NULL keys
      auto [slot, inserted] = index_.FindOrInsert(key_scratch_);
      if (inserted) buckets_.emplace_back();
      build_batch.MaterializeRow(i, &buckets_[slot].emplace_back());
    }
  }
  return Status::OK();
}

Result<bool> HashJoinOp::EvalKeys(const std::vector<ExprPtr>& keys,
                                  const ColumnBatch& batch, size_t i) {
  key_scratch_.clear();
  key_scratch_.reserve(keys.size());
  eval_ctx_.BindBatch(&batch, i);
  for (const auto& k : keys) {
    SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, eval_ctx_));
    if (v.is_null()) return false;
    key_scratch_.push_back(std::move(v));
  }
  return true;
}

Result<bool> HashJoinOp::AdvanceLeft() {
  while (true) {
    if (left_pos_ >= left_batch_.size()) {
      if (left_done_) return false;
      SELTRIG_ASSIGN_OR_RETURN(bool has, left_->NextBatch(&left_batch_));
      left_pos_ = 0;
      if (!has) {
        left_done_ = true;
        return false;
      }
      continue;  // batch may be empty; pull again
    }
    left_li_ = left_pos_++;
    have_left_ = true;
    left_matched_ = false;
    match_idx_ = 0;
    matches_ = nullptr;

    SELTRIG_ASSIGN_OR_RETURN(bool has_key, EvalKeys(left_keys_, left_batch_, left_li_));
    if (has_key) {
      uint32_t slot = index_.Find(key_scratch_);
      if (slot != KeyIndex::kNone) matches_ = &buckets_[slot];
    }
    return true;
  }
}

Result<bool> HashJoinOp::NextBatchImpl(ColumnBatch* out) {
  out->ResetOwned(node_.schema);
  while (out->size() < batch_capacity_) {
    if (!have_left_) {
      SELTRIG_ASSIGN_OR_RETURN(bool has, AdvanceLeft());
      if (!has) break;
    }
    while (matches_ != nullptr && match_idx_ < matches_->size() &&
           out->size() < batch_capacity_) {
      const Row& right_row = (*matches_)[match_idx_++];
      out->AppendConcat(left_batch_, left_li_, right_row);
      if (residual_ != nullptr) {
        // Evaluate over the just-appended output row (append-then-pop).
        eval_ctx_.BindBatch(out, out->size() - 1);
        SELTRIG_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, eval_ctx_));
        if (!pass) {
          out->PopRow();
          continue;
        }
      }
      left_matched_ = true;
    }
    if (matches_ != nullptr && match_idx_ < matches_->size()) {
      break;  // output batch is full; resume this left row next call
    }
    // Exhausted matches for this left row.
    if (node_.join_type == JoinType::kLeft && !left_matched_) {
      if (out->size() >= batch_capacity_) break;  // pad on the next call
      out->AppendConcatPad(left_batch_, left_li_, right_width_);
      left_matched_ = true;  // padded exactly once
    }
    have_left_ = false;
  }
  return !(out->empty() && left_done_ && !have_left_ &&
           left_pos_ >= left_batch_.size());
}

// --- NLJoin ------------------------------------------------------------------

NLJoinOp::NLJoinOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                   const LogicalJoin& node, OperatorPtr left, OperatorPtr right)
    : PhysicalOperator(ctx, std::move(outer_rows)),
      node_(node),
      left_(std::move(left)),
      right_(std::move(right)) {
  profile_children_ = {left_.get(), right_.get()};
}

std::string NLJoinOp::DebugName() const { return node_.Describe(); }

Status NLJoinOp::InitImpl() {
  SELTRIG_RETURN_IF_ERROR(left_->Init());
  SELTRIG_RETURN_IF_ERROR(right_->Init());
  eval_ctx_ = MakeEvalContext(nullptr);
  left_batch_.Clear();
  left_pos_ = 0;
  left_done_ = false;
  have_left_ = false;
  right_idx_ = 0;
  left_matched_ = false;
  right_rows_.clear();
  SELTRIG_RETURN_IF_ERROR(DrainRows(right_.get(), &right_rows_));
  right_width_ = node_.children[1]->schema.size();
  return Status::OK();
}

Result<bool> NLJoinOp::AdvanceLeft() {
  while (true) {
    if (left_pos_ >= left_batch_.size()) {
      if (left_done_) return false;
      SELTRIG_ASSIGN_OR_RETURN(bool has, left_->NextBatch(&left_batch_));
      left_pos_ = 0;
      if (!has) {
        left_done_ = true;
        return false;
      }
      continue;  // batch may be empty; pull again
    }
    left_li_ = left_pos_++;
    have_left_ = true;
    left_matched_ = false;
    right_idx_ = 0;
    return true;
  }
}

Result<bool> NLJoinOp::NextBatchImpl(ColumnBatch* out) {
  out->ResetOwned(node_.schema);
  while (out->size() < batch_capacity_) {
    if (!have_left_) {
      SELTRIG_ASSIGN_OR_RETURN(bool has, AdvanceLeft());
      if (!has) break;
    }
    while (right_idx_ < right_rows_.size() && out->size() < batch_capacity_) {
      const Row& right_row = right_rows_[right_idx_++];
      out->AppendConcat(left_batch_, left_li_, right_row);
      if (node_.condition != nullptr) {
        // Evaluate over the just-appended output row (append-then-pop).
        eval_ctx_.BindBatch(out, out->size() - 1);
        SELTRIG_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*node_.condition, eval_ctx_));
        if (!pass) {
          out->PopRow();
          continue;
        }
      }
      left_matched_ = true;
    }
    if (right_idx_ < right_rows_.size()) {
      break;  // output batch is full; resume this left row next call
    }
    // Exhausted the right side for this left row.
    if (node_.join_type == JoinType::kLeft && !left_matched_) {
      if (out->size() >= batch_capacity_) break;  // pad on the next call
      out->AppendConcatPad(left_batch_, left_li_, right_width_);
      left_matched_ = true;  // padded exactly once
    }
    have_left_ = false;
  }
  return !(out->empty() && left_done_ && !have_left_ &&
           left_pos_ >= left_batch_.size());
}

// --- HashAggregate -----------------------------------------------------------

HashAggregateOp::HashAggregateOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                                 const LogicalAggregate& node, OperatorPtr child)
    : PhysicalOperator(ctx, std::move(outer_rows)), node_(node), child_(std::move(child)) {
  profile_children_ = {child_.get()};
}

std::string HashAggregateOp::DebugName() const { return node_.Describe(); }

Status HashAggregateOp::Accumulate(std::vector<AggState>* states, EvalContext& ec) {
  for (size_t i = 0; i < node_.aggregates.size(); ++i) {
    const AggregateSpec& spec = node_.aggregates[i];
    AggState& st = (*states)[i];
    if (spec.kind == AggKind::kCountStar) {
      st.count++;
      continue;
    }
    SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*spec.arg, ec));
    if (v.is_null()) continue;  // aggregates ignore NULLs
    if (spec.distinct) {
      if (st.distinct == nullptr) {
        st.distinct =
            std::make_unique<std::unordered_set<Value, ValueHash, ValueEq>>();
      }
      st.distinct->insert(std::move(v));
      continue;
    }
    switch (spec.kind) {
      case AggKind::kCount:
        st.count++;
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        st.count++;
        if (spec.kind == AggKind::kSum && spec.result_type == TypeId::kInt &&
            v.type() == TypeId::kInt &&
            __builtin_add_overflow(st.sum_int, v.AsInt(), &st.sum_int)) {
          return IntegerOutOfRange();
        }
        st.sum_double += v.NumericAsDouble();
        st.saw_value = true;
        break;
      case AggKind::kMin:
        if (!st.saw_value || Value::Compare(v, st.min_max) < 0) st.min_max = v;
        st.saw_value = true;
        break;
      case AggKind::kMax:
        if (!st.saw_value || Value::Compare(v, st.min_max) > 0) st.min_max = v;
        st.saw_value = true;
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

Result<Value> HashAggregateOp::Finalize(const AggregateSpec& spec,
                                        const AggState& st) const {
  if (spec.distinct) {
    size_t n = st.distinct == nullptr ? 0 : st.distinct->size();
    switch (spec.kind) {
      case AggKind::kCount:
        return Value::Int(static_cast<int64_t>(n));
      case AggKind::kSum: {
        if (n == 0) return Value::Null();
        if (spec.result_type == TypeId::kInt) {
          int64_t sum = 0;
          for (const Value& v : *st.distinct) {
            if (__builtin_add_overflow(sum, v.AsInt(), &sum)) return IntegerOutOfRange();
          }
          return Value::Int(sum);
        }
        double sum = 0;
        for (const Value& v : *st.distinct) sum += v.NumericAsDouble();
        return Value::Double(sum);
      }
      case AggKind::kAvg: {
        if (n == 0) return Value::Null();
        double sum = 0;
        for (const Value& v : *st.distinct) sum += v.NumericAsDouble();
        return Value::Double(sum / static_cast<double>(n));
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        if (n == 0) return Value::Null();
        const Value* best = nullptr;
        for (const Value& v : *st.distinct) {
          if (best == nullptr ||
              (spec.kind == AggKind::kMin ? Value::Compare(v, *best) < 0
                                          : Value::Compare(v, *best) > 0)) {
            best = &v;
          }
        }
        return *best;
      }
      default:
        return Value::Null();
    }
  }
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int(st.count);
    case AggKind::kSum:
      if (!st.saw_value) return Value::Null();
      if (spec.result_type == TypeId::kInt) return Value::Int(st.sum_int);
      return Value::Double(st.sum_double);
    case AggKind::kAvg:
      if (st.count == 0) return Value::Null();
      return Value::Double(st.sum_double / static_cast<double>(st.count));
    case AggKind::kMin:
    case AggKind::kMax:
      if (!st.saw_value) return Value::Null();
      return st.min_max;
  }
  return Value::Null();
}

Status HashAggregateOp::InitImpl() {
  SELTRIG_RETURN_IF_ERROR(child_->Init());
  results_.clear();
  cursor_ = 0;

  // Group rows by their key's KeyIndex slot. Slots are dense and in
  // first-seen order, which is the (deterministic) output order.
  KeyIndex group_index;
  group_index.Reset(256);
  std::vector<Row> group_keys;
  std::vector<std::vector<AggState>> group_states;

  EvalContext ec = MakeEvalContext(nullptr);
  ColumnBatch batch;
  Row key;
  while (true) {
    Result<bool> has = child_->NextBatch(&batch);
    SELTRIG_RETURN_IF_ERROR(has.status());
    if (!*has) break;
    for (size_t r = 0; r < batch.size(); ++r) {
      ec.BindBatch(&batch, r);
      key.clear();
      for (const auto& g : node_.group_exprs) {
        Result<Value> v = EvalExpr(*g, ec);
        SELTRIG_RETURN_IF_ERROR(v.status());
        key.push_back(std::move(*v));
      }
      auto [group, inserted] = group_index.FindOrInsert(key);
      if (inserted) {
        group_keys.push_back(key);
        group_states.emplace_back(node_.aggregates.size());
      }
      SELTRIG_RETURN_IF_ERROR(Accumulate(&group_states[group], ec));
    }
  }

  // Scalar aggregation over an empty input still yields one row.
  if (group_keys.empty() && node_.group_exprs.empty()) {
    group_keys.emplace_back();
    group_states.emplace_back(node_.aggregates.size());
  }

  results_.reserve(group_keys.size());
  for (size_t g = 0; g < group_keys.size(); ++g) {
    Row out = group_keys[g];
    out.reserve(out.size() + node_.aggregates.size());
    for (size_t i = 0; i < node_.aggregates.size(); ++i) {
      SELTRIG_ASSIGN_OR_RETURN(Value v, Finalize(node_.aggregates[i], group_states[g][i]));
      out.push_back(std::move(v));
    }
    results_.push_back(std::move(out));
  }
  return Status::OK();
}

Result<bool> HashAggregateOp::NextBatchImpl(ColumnBatch* out) {
  return EmitRows(node_.schema, results_.size(), &cursor_, out, [&](size_t i) {
    out->AppendRow(std::move(results_[i]));
    return Status::OK();
  });
}

// --- Sort ----------------------------------------------------------------

SortOp::SortOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
               const LogicalSort& node, OperatorPtr child)
    : PhysicalOperator(ctx, std::move(outer_rows)), node_(node), child_(std::move(child)) {
  profile_children_ = {child_.get()};
}

std::string SortOp::DebugName() const { return node_.Describe(); }

Status SortOp::InitImpl() {
  SELTRIG_RETURN_IF_ERROR(child_->Init());
  rows_.clear();
  cursor_ = 0;
  SELTRIG_RETURN_IF_ERROR(DrainRows(child_.get(), &rows_));
  // Precompute key values per row to keep the comparator total and cheap.
  size_t nkeys = node_.keys.size();
  EvalContext ec = MakeEvalContext(nullptr);
  std::vector<std::vector<Value>> keys(rows_.size());
  for (size_t r = 0; r < rows_.size(); ++r) {
    ec.BindRow(&rows_[r]);
    keys[r].reserve(nkeys);
    for (const SortKey& k : node_.keys) {
      Result<Value> v = EvalExpr(*k.expr, ec);
      SELTRIG_RETURN_IF_ERROR(v.status());
      keys[r].push_back(std::move(*v));
    }
  }
  std::vector<size_t> order(rows_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < nkeys; ++k) {
      int c = Value::Compare(keys[a][k], keys[b][k]);
      if (c != 0) return node_.keys[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (size_t i : order) sorted.push_back(std::move(rows_[i]));
  rows_ = std::move(sorted);
  return Status::OK();
}

Result<bool> SortOp::NextBatchImpl(ColumnBatch* out) {
  return EmitRows(node_.schema, rows_.size(), &cursor_, out, [&](size_t i) {
    out->AppendRow(std::move(rows_[i]));
    return Status::OK();
  });
}

// --- Limit ---------------------------------------------------------------

LimitOp::LimitOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                 const LogicalLimit& node, OperatorPtr child)
    : PhysicalOperator(ctx, std::move(outer_rows)), node_(node), child_(std::move(child)) {
  profile_children_ = {child_.get()};
}

std::string LimitOp::DebugName() const { return node_.Describe(); }

Status LimitOp::InitImpl() {
  produced_ = 0;
  skipped_ = 0;
  return child_->Init();
}

Result<bool> LimitOp::NextBatchImpl(ColumnBatch* out) {
  if (node_.limit >= 0 && produced_ >= node_.limit) return false;
  SELTRIG_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
  if (!has) return false;
  if (skipped_ < node_.offset) {
    size_t drop = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(out->size()), node_.offset - skipped_));
    out->DropFrontLogical(drop);
    skipped_ += static_cast<int64_t>(drop);
  }
  if (node_.limit >= 0) {
    int64_t remaining = node_.limit - produced_;
    if (static_cast<int64_t>(out->size()) > remaining) {
      out->TruncateLogical(static_cast<size_t>(remaining));
    }
  }
  produced_ += static_cast<int64_t>(out->size());
  return true;
}

// --- Distinct --------------------------------------------------------------

DistinctOp::DistinctOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                       OperatorPtr child)
    : PhysicalOperator(ctx, std::move(outer_rows)), child_(std::move(child)) {
  profile_children_ = {child_.get()};
}

std::string DistinctOp::DebugName() const { return "Distinct"; }

Status DistinctOp::InitImpl() {
  seen_.Reset(0);
  return child_->Init();
}

Result<bool> DistinctOp::NextBatchImpl(ColumnBatch* out) {
  SELTRIG_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
  if (!has) return false;
  size_t n = out->size();
  std::vector<uint32_t> keep;
  keep.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out->MaterializeRow(i, &row_scratch_);
    if (seen_.FindOrInsert(row_scratch_).second) {
      keep.push_back(static_cast<uint32_t>(out->PhysicalIndex(i)));
    }
  }
  if (keep.size() != n) out->SetSelection(std::move(keep));
  return true;
}

// --- Values ----------------------------------------------------------------

ValuesOp::ValuesOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                   const LogicalValues& node)
    : PhysicalOperator(ctx, std::move(outer_rows)), node_(node) {}

std::string ValuesOp::DebugName() const { return node_.Describe(); }

Status ValuesOp::InitImpl() {
  cursor_ = 0;
  eval_ctx_ = MakeEvalContext(nullptr);
  return Status::OK();
}

Result<bool> ValuesOp::NextBatchImpl(ColumnBatch* out) {
  return EmitRows(node_.schema, node_.rows.size(), &cursor_, out, [&](size_t i) {
    row_scratch_.clear();
    row_scratch_.reserve(node_.rows[i].size());
    eval_ctx_.BindRow(nullptr);
    for (const auto& e : node_.rows[i]) {
      SELTRIG_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, eval_ctx_));
      row_scratch_.push_back(std::move(v));
    }
    out->AppendRow(std::move(row_scratch_));
    return Status::OK();
  });
}

// --- PhysicalAuditOp ---------------------------------------------------------

namespace {

// Bloom pre-screen over the key column, hashing typed cells directly — no
// Value construction per row. The per-type hashes mirror Value::Hash exactly
// (ints hash through double so Int(2) and Double(2.0) screen identically;
// dates/bools hash their int64 slot), so the screen's one-sided error is the
// generic path's. Strings and degraded columns hash per-cell Values.
bool AnyKeyMaybeInScreen(const ColumnBatch& batch, const TableColumn& key_col,
                         const BloomFilter& screen) {
  const size_t n = batch.size();
  const NullBits& nulls = key_col.nulls();
  const bool has_nulls = nulls.any();
  if (key_col.rep() == TableColumn::Rep::kInt64) {
    const int64_t* data = key_col.ints();
    const bool hash_as_double = key_col.type() == TypeId::kInt;
    for (size_t i = 0; i < n; ++i) {
      const size_t phys = batch.PhysicalIndex(i);
      if (has_nulls && nulls.Test(phys)) continue;
      const size_t h = hash_as_double
                           ? std::hash<double>{}(static_cast<double>(data[phys]))
                           : std::hash<int64_t>{}(data[phys]);
      if (screen.MayContain(static_cast<uint64_t>(h))) return true;
    }
    return false;
  }
  if (key_col.rep() == TableColumn::Rep::kDouble) {
    const double* data = key_col.doubles();
    for (size_t i = 0; i < n; ++i) {
      const size_t phys = batch.PhysicalIndex(i);
      if (has_nulls && nulls.Test(phys)) continue;
      if (screen.MayContain(static_cast<uint64_t>(std::hash<double>{}(data[phys])))) {
        return true;
      }
    }
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    const Value key = key_col.Get(batch.PhysicalIndex(i));
    if (!key.is_null() && screen.MayContain(static_cast<uint64_t>(key.Hash()))) {
      return true;
    }
  }
  return false;
}

}  // namespace

PhysicalAuditOp::PhysicalAuditOp(ExecContext* ctx, std::vector<const Row*> outer_rows,
                                 const LogicalAudit& node, OperatorPtr child)
    : PhysicalOperator(ctx, std::move(outer_rows)), node_(node), child_(std::move(child)) {
  profile_children_ = {child_.get()};
}

std::string PhysicalAuditOp::DebugName() const { return node_.Describe(); }

Status PhysicalAuditOp::InitImpl() {
  eval_ctx_ = MakeEvalContext(nullptr);
  return child_->Init();
}

Status PhysicalAuditOp::RecordHit(const Value& key) {
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kAuditRecord));
  ctx_->stats().audit_probe_hits++;
  if (!ctx_->accessed()->GetOrCreate(node_.audit_name).Record(key) &&
      ctx_->accessed()->overflow_policy() == AccessedOverflowPolicy::kFail) {
    return Status::ResourceExhausted(
        "ACCESSED cardinality cap exceeded for audit expression '" +
        node_.audit_name + "'");
  }
  return Status::OK();
}

Result<bool> PhysicalAuditOp::NextBatchImpl(ColumnBatch* out) {
  SELTRIG_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
  if (!has) return false;
  size_t n = out->size();
  ctx_->stats().rows_through_audit_ops += n;

  AccessedStateRegistry* registry = ctx_->accessed();
  if (registry == nullptr || node_.key_column < 0 || n == 0) {
    return true;  // pass-through: the audit operator is a no-op for the query
  }
  const int kc = node_.key_column;
  if (kc >= static_cast<int>(out->num_columns())) return true;
  const TableColumn& key_col = out->column(static_cast<size_t>(kc)).data();

  // Bloom pre-screen (exact ID-view probes only): one pass over the batch's
  // key column against the view's summary. A clean batch — the common case
  // for selective queries — skips the exact probes and the ACCESSED
  // bookkeeping entirely; the filter's one-sided error keeps ACCESSED exact.
  if (node_.id_view != nullptr && node_.bloom == nullptr) {
    const BloomFilter* screen = node_.id_view->Screen();
    if (screen != nullptr && !AnyKeyMaybeInScreen(*out, key_col, *screen)) {
      ctx_->stats().audit_batches_prescreened++;
      return true;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    const Value key = key_col.Get(out->PhysicalIndex(i));
    if (key.is_null()) continue;
    bool hit;
    if (node_.bloom != nullptr) {
      hit = node_.bloom->MayContain(static_cast<uint64_t>(key.Hash()));
    } else if (node_.id_view != nullptr) {
      hit = node_.id_view->Contains(key);
    } else if (node_.fallback_predicate != nullptr) {
      eval_ctx_.BindBatch(out, i);
      SELTRIG_ASSIGN_OR_RETURN(hit,
                               EvalPredicate(*node_.fallback_predicate, eval_ctx_));
    } else {
      hit = false;
    }
    if (hit) {
      SELTRIG_RETURN_IF_ERROR(RecordHit(key));
    }
  }
  return true;
}

}  // namespace seltrig
