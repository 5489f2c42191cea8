// Morsel-driven parallel scan (docs/CONCURRENCY.md). A scan→filter→project→
// audit spine over one base table is split into contiguous slot-range morsels
// handed out to a shared worker pool; each worker runs a private copy of the
// spine with thread-local ExecStats and a thread-local ACCESSED partition.
// PhysicalGatherOp merges everything deterministically after the workers
// join, so result rows, ACCESSED, and rows_scanned are bit-for-bit identical
// to the serial execution at any thread count.

#ifndef SELTRIG_EXEC_GATHER_H_
#define SELTRIG_EXEC_GATHER_H_

#include <string>
#include <vector>

#include "exec/operators.h"

namespace seltrig {

// Slots per morsel. Small enough that a 40k-row table yields ~10 work units
// for load balancing, large enough to amortize per-morsel pipeline setup.
inline constexpr size_t kMorselSlots = 4096;

// Eligibility probe: returns the base-table scan at the bottom of `node` iff
// the whole tree is a parallelizable spine — a chain of Filter/Project/Audit
// over a Scan of a real table — and nothing in it is order- or
// pacing-sensitive. Returns nullptr (→ serial execution) when the tree
// contains any other operator, a virtual-table scan, a subquery (would need
// the executor's subquery runner and its shared materialization cache), or a
// scan filter with an indexable equality conjunct (the index probe examines
// a different slot set than a full scan, breaking rows_scanned invariance).
const LogicalScan* ParallelSpineScan(const LogicalOperator& node);

// Replaces an eligible spine: fans morsels out to ThreadPool::Shared(),
// keeps every worker's output batches as produced, then hands them out whole
// in morsel order (view batches stay zero-copy table bindings). The executor
// mounts it only for uncorrelated, uncapped-spine plans when
// ExecContext::num_threads() > 1 and any attached ACCESSED registry is
// uncapped (see Executor::BuildNode).
class PhysicalGatherOp : public PhysicalOperator {
 public:
  PhysicalGatherOp(ExecContext* ctx, const LogicalOperator& spine,
                   const LogicalScan& scan, Table* table);
  std::string DebugName() const override;

  // Reports the per-worker spine operators, summed across workers, since the
  // worker pipelines are torn down before the profile tree is rendered.
  void AppendProfileLines(int indent, std::string* out) const override;

  // The logical spine this gather replaces. The plan validator walks it in
  // place of physical children (worker pipelines are private to InitImpl).
  const LogicalOperator& spine() const { return spine_; }

 protected:
  Status InitImpl() override;
  Result<bool> NextBatchImpl(ColumnBatch* out) override;

 private:
  const LogicalOperator& spine_;
  const LogicalScan& scan_;
  Table* table_;

  std::vector<ColumnBatch> batches_;  // worker output batches, morsel order
  size_t cursor_ = 0;
  int workers_used_ = 0;

  // One entry per spine position (root first), profiles summed over workers.
  struct SpineStat {
    std::string name;
    OperatorProfile profile;
  };
  std::vector<SpineStat> spine_stats_;
};

}  // namespace seltrig

#endif  // SELTRIG_EXEC_GATHER_H_
