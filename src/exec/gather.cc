#include "exec/gather.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "audit/accessed_state.h"
#include "common/thread_pool.h"
#include "expr/analysis.h"

namespace seltrig {

const LogicalScan* ParallelSpineScan(const LogicalOperator& node) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      if (scan.virtual_rows != nullptr) return nullptr;
      if (scan.filter != nullptr) {
        if (ContainsSubquery(*scan.filter)) return nullptr;
        if (FindIndexableScanColumn(*scan.filter) >= 0) return nullptr;
      }
      return &scan;
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const LogicalFilter&>(node);
      if (filter.predicate != nullptr && ContainsSubquery(*filter.predicate)) {
        return nullptr;
      }
      return ParallelSpineScan(*node.children[0]);
    }
    case PlanKind::kProject: {
      const auto& project = static_cast<const LogicalProject&>(node);
      for (const ExprPtr& e : project.exprs) {
        if (e != nullptr && ContainsSubquery(*e)) return nullptr;
      }
      return ParallelSpineScan(*node.children[0]);
    }
    case PlanKind::kAudit: {
      const auto& audit = static_cast<const LogicalAudit&>(node);
      if (audit.fallback_predicate != nullptr &&
          ContainsSubquery(*audit.fallback_predicate)) {
        return nullptr;
      }
      return ParallelSpineScan(*node.children[0]);
    }
    default:
      // Joins, aggregates, sorts, limits, distinct, values: serial path.
      return nullptr;
  }
}

namespace {

// Builds a worker-private copy of the spine and points *scan_op at its scan,
// which each morsel re-ranges. Only the node kinds ParallelSpineScan admits
// can appear here.
OperatorPtr BuildSpine(ExecContext* ctx, const LogicalOperator& node,
                       Table* table, SeqScanOp** scan_op) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      auto op = std::make_unique<SeqScanOp>(ctx, std::vector<const Row*>{},
                                            scan, table);
      *scan_op = op.get();
      return op;
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const LogicalFilter&>(node);
      return std::make_unique<FilterOp>(
          ctx, std::vector<const Row*>{}, filter,
          BuildSpine(ctx, *node.children[0], table, scan_op));
    }
    case PlanKind::kProject: {
      const auto& project = static_cast<const LogicalProject&>(node);
      return std::make_unique<ProjectOp>(
          ctx, std::vector<const Row*>{}, project,
          BuildSpine(ctx, *node.children[0], table, scan_op));
    }
    case PlanKind::kAudit: {
      const auto& audit = static_cast<const LogicalAudit&>(node);
      return std::make_unique<PhysicalAuditOp>(
          ctx, std::vector<const Row*>{}, audit,
          BuildSpine(ctx, *node.children[0], table, scan_op));
    }
    default:
      return nullptr;  // unreachable: eligibility checked the tree
  }
}

}  // namespace

PhysicalGatherOp::PhysicalGatherOp(ExecContext* ctx,
                                   const LogicalOperator& spine,
                                   const LogicalScan& scan, Table* table)
    : PhysicalOperator(ctx, {}), spine_(spine), scan_(scan), table_(table) {}

std::string PhysicalGatherOp::DebugName() const {
  return "Gather(threads=" + std::to_string(workers_used_ > 0
                                                ? workers_used_
                                                : ctx_->num_threads()) +
         ")";
}

void PhysicalGatherOp::AppendProfileLines(int indent, std::string* out) const {
  for (const SpineStat& s : spine_stats_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%*s%s  rows=%llu batches=%llu init=%.3fms next=%.3fms "
                  "[sum of %d workers]\n",
                  indent * 2, "", s.name.c_str(),
                  static_cast<unsigned long long>(s.profile.rows_out),
                  static_cast<unsigned long long>(s.profile.batches),
                  static_cast<double>(s.profile.init_ns) / 1e6,
                  static_cast<double>(s.profile.next_ns) / 1e6, workers_used_);
    *out += line;
    ++indent;
  }
}

Status PhysicalGatherOp::InitImpl() {
  batches_.clear();
  cursor_ = 0;
  spine_stats_.clear();

  const size_t slots = table_->slot_count();
  const size_t morsel_count = (slots + kMorselSlots - 1) / kMorselSlots;
  if (morsel_count == 0) {
    workers_used_ = 0;
    return Status::OK();
  }
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(ctx_->num_threads(), 1)), morsel_count));
  workers_used_ = workers;

  struct WorkerState {
    std::unique_ptr<ExecContext> ctx;
    AccessedStateRegistry registry;
    Status status = Status::OK();
    // Built on the worker's first morsel, then re-ranged and re-initialized
    // for each further one; its profile counters accumulate across morsels.
    OperatorPtr root;
    SeqScanOp* scan = nullptr;
  };
  std::vector<WorkerState> states(static_cast<size_t>(workers));
  // Output batches per morsel: concatenating in morsel order reproduces the
  // serial scan order exactly, independent of which worker ran which morsel.
  std::vector<std::vector<ColumnBatch>> morsel_batches(morsel_count);
  std::atomic<size_t> next_morsel{0};
  const bool track_accessed = ctx_->accessed() != nullptr;

  for (auto& ws : states) {
    ws.ctx = std::make_unique<ExecContext>(ctx_->catalog(), ctx_->session());
    for (const ScanExclusion& e : ctx_->exclusions()) ws.ctx->AddExclusion(e);
    ws.ctx->set_batch_size(ctx_->batch_size());
    ws.ctx->set_columnar(ctx_->columnar());
    ws.ctx->set_collect_profile(ctx_->collect_profile());
    // Thread-local ACCESSED partition, uncapped: the deterministic merge
    // below re-applies the union; eligibility guaranteed no cap is active.
    if (track_accessed) ws.ctx->set_accessed(&ws.registry);
  }

  auto run_worker = [&](int w) {
    WorkerState& ws = states[static_cast<size_t>(w)];
    while (true) {
      const size_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
      if (m >= morsel_count) return;
      if (ws.root == nullptr) {
        ws.root = BuildSpine(ws.ctx.get(), spine_, table_, &ws.scan);
        if (ws.root == nullptr) {
          ws.status = Status::Internal("gather: unbuildable spine node");
          return;
        }
      }
      const size_t begin = m * kMorselSlots;
      ws.scan->set_slot_range(begin, std::min(begin + kMorselSlots, slots));
      Status init = ws.root->Init();
      if (!init.ok()) {
        if (ws.status.ok()) ws.status = init;
        return;
      }
      while (true) {
        ColumnBatch batch;
        Result<bool> has = ws.root->NextBatch(&batch);
        if (!has.ok()) {
          if (ws.status.ok()) ws.status = has.status();
          return;
        }
        if (!*has) break;
        if (!batch.empty()) morsel_batches[m].push_back(std::move(batch));
      }
    }
  };

  ThreadPool::Shared().RunAndWait(workers, run_worker);

  // --- Deterministic merge (all on the calling thread) -----------------------
  // Errors: first failing worker by index wins, so the surfaced error does
  // not depend on scheduling.
  for (const WorkerState& ws : states) {
    if (!ws.status.ok()) return ws.status;
  }
  // Stats are sums over a fixed partition of the slots, so each total is
  // identical to the serial run's regardless of morsel assignment.
  for (WorkerState& ws : states) {
    ExecStats& total = ctx_->stats();
    const ExecStats& s = ws.ctx->stats();
    total.rows_scanned += s.rows_scanned;
    total.rows_through_audit_ops += s.rows_through_audit_ops;
    total.audit_probe_hits += s.audit_probe_hits;
    total.subquery_executions += s.subquery_executions;
    total.audit_batches_prescreened += s.audit_batches_prescreened;
  }
  // ACCESSED: union the thread-local partitions into the query's registry in
  // worker-index order. Set union is commutative and the registry is
  // uncapped, so the merged state equals the serial state bit for bit.
  if (track_accessed) {
    for (WorkerState& ws : states) {
      for (const auto& [name, state] : ws.registry.states()) {
        AccessedState& dst = ctx_->accessed()->GetOrCreate(name);
        for (const Value& id : state.ids()) dst.Record(id);
      }
    }
  }
  // Worker profiles: sum position-wise (root first) across workers, before
  // their spines are destroyed (every worker built the same spine shape).
  for (const WorkerState& ws : states) {
    const PhysicalOperator* op = ws.root.get();
    for (size_t pos = 0; op != nullptr; ++pos) {
      if (spine_stats_.size() <= pos) {
        spine_stats_.push_back({op->DebugName(), {}});
      }
      OperatorProfile& agg = spine_stats_[pos].profile;
      agg.batches += op->profile().batches;
      agg.rows_out += op->profile().rows_out;
      agg.init_ns += op->profile().init_ns;
      agg.next_ns += op->profile().next_ns;
      op = op->profile_children().empty() ? nullptr : op->profile_children()[0];
    }
  }

  for (auto& m : morsel_batches) {
    for (ColumnBatch& b : m) batches_.push_back(std::move(b));
  }
  return Status::OK();
}

Result<bool> PhysicalGatherOp::NextBatchImpl(ColumnBatch* out) {
  if (cursor_ >= batches_.size()) return false;
  *out = std::move(batches_[cursor_++]);
  return true;
}

}  // namespace seltrig
