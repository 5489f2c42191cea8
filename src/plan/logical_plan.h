// Logical query plans. The binder produces these; the optimizer rewrites
// them; audit placement instruments them; the executor lowers them to
// physical operators.

#ifndef SELTRIG_PLAN_LOGICAL_PLAN_H_
#define SELTRIG_PLAN_LOGICAL_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "types/schema.h"

namespace seltrig {

class BloomFilter;      // common/bloom_filter.h
class SensitiveIdView;  // storage/sensitive_id_view.h

enum class PlanKind : uint8_t {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kDistinct,
  kValues,
  kAudit,
};

enum class JoinType : uint8_t { kInner, kLeft, kCross };

enum class AggKind : uint8_t { kCountStar, kCount, kSum, kAvg, kMin, kMax };

// One aggregate computed by a LogicalAggregate, e.g. SUM(l_extendedprice).
struct AggregateSpec {
  AggKind kind = AggKind::kCountStar;
  bool distinct = false;
  ExprPtr arg;  // null for COUNT(*)
  std::string name;
  TypeId result_type = TypeId::kInt;

  AggregateSpec Clone() const;
};

struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

// Base class. `children` and `schema` are public for the benefit of the
// rewrite passes (optimizer, audit placement), which restructure trees
// heavily; all nodes are passive data plus a virtual Clone/Describe.
class LogicalOperator {
 public:
  explicit LogicalOperator(PlanKind kind) : kind_(kind) {}
  virtual ~LogicalOperator();

  LogicalOperator(const LogicalOperator&) = delete;
  LogicalOperator& operator=(const LogicalOperator&) = delete;

  PlanKind kind() const { return kind_; }

  // One-line description, e.g. "HashJoin (c_custkey = o_custkey)".
  virtual std::string Describe() const = 0;

  // Deep copy of the node tree. Expressions are deep-copied; plans inside
  // subquery expressions are shared (placement re-clones them explicitly).
  virtual std::shared_ptr<LogicalOperator> Clone() const = 0;

  std::vector<std::shared_ptr<LogicalOperator>> children;
  Schema schema;

 protected:
  void CloneCommonInto(LogicalOperator* copy) const;

 private:
  PlanKind kind_;
};

using PlanPtr = std::shared_ptr<LogicalOperator>;

// Base-table scan, optionally with a pushed-down single-table predicate
// (bound against the table schema).
class LogicalScan : public LogicalOperator {
 public:
  LogicalScan() : LogicalOperator(PlanKind::kScan) {}
  std::string Describe() const override;
  PlanPtr Clone() const override;

  std::string table_name;  // lower-case catalog name
  std::string alias;       // lower-case binding qualifier
  // Catalog table's schema_version() at bind time (0 for virtual tables).
  // The plan validator fails a plan closed when this no longer matches the
  // live catalog at execute time — a stale plan surviving an ALTER TABLE
  // would read columns by now-wrong indexes.
  uint64_t schema_version = 0;
  // Pushed single-table predicate, always bound against the FULL base
  // schema (it is evaluated before the output projection is applied).
  ExprPtr filter;  // nullable
  // When non-null the scan reads this in-memory relation instead of the
  // catalog table (virtual tables: ACCESSED, NEW/OLD row sets). The pointed-to
  // rows must outlive every execution of the plan.
  const std::vector<Row>* virtual_rows = nullptr;
  // Output projection installed by column pruning: base-schema column indexes
  // to emit, in order. Empty = emit every column. `schema` always describes
  // the projected output.
  std::vector<int> projection;

  // Base-schema index of output column `out`, accounting for the projection.
  int BaseColumn(int out) const {
    return projection.empty() ? out : projection[static_cast<size_t>(out)];
  }
};

class LogicalFilter : public LogicalOperator {
 public:
  LogicalFilter() : LogicalOperator(PlanKind::kFilter) {}
  std::string Describe() const override;
  PlanPtr Clone() const override;

  ExprPtr predicate;
  // True for filters lowered from audit operators (the unsafe
  // "audit-as-filter" mode reproducing Section IV-B). Guarded optimizer rules
  // must not reason about such predicates.
  bool audit_derived = false;
};

class LogicalProject : public LogicalOperator {
 public:
  LogicalProject() : LogicalOperator(PlanKind::kProject) {}
  std::string Describe() const override;
  PlanPtr Clone() const override;

  std::vector<ExprPtr> exprs;  // one per output column; schema names them
};

class LogicalJoin : public LogicalOperator {
 public:
  LogicalJoin() : LogicalOperator(PlanKind::kJoin) {}
  std::string Describe() const override;
  PlanPtr Clone() const override;

  JoinType join_type = JoinType::kInner;
  ExprPtr condition;  // bound against Concat(left, right); null for cross
};

class LogicalAggregate : public LogicalOperator {
 public:
  LogicalAggregate() : LogicalOperator(PlanKind::kAggregate) {}
  std::string Describe() const override;
  PlanPtr Clone() const override;

  std::vector<ExprPtr> group_exprs;
  std::vector<AggregateSpec> aggregates;
};

class LogicalSort : public LogicalOperator {
 public:
  LogicalSort() : LogicalOperator(PlanKind::kSort) {}
  std::string Describe() const override;
  PlanPtr Clone() const override;

  std::vector<SortKey> keys;
};

class LogicalLimit : public LogicalOperator {
 public:
  LogicalLimit() : LogicalOperator(PlanKind::kLimit) {}
  std::string Describe() const override;
  PlanPtr Clone() const override;

  int64_t limit = -1;  // -1 = unlimited
  int64_t offset = 0;
};

class LogicalDistinct : public LogicalOperator {
 public:
  LogicalDistinct() : LogicalOperator(PlanKind::kDistinct) {}
  std::string Describe() const override;
  PlanPtr Clone() const override;
};

// Constant relation (INSERT ... VALUES, SELECT without FROM).
class LogicalValues : public LogicalOperator {
 public:
  LogicalValues() : LogicalOperator(PlanKind::kValues) {}
  std::string Describe() const override;
  PlanPtr Clone() const override;

  std::vector<std::vector<ExprPtr>> rows;
};

// The audit operator (Section III-B): a schema-preserving no-op that probes
// the sensitive-ID view with `key_column` of every passing row and records
// hits in the ACCESSED state for `audit_name`.
class LogicalAudit : public LogicalOperator {
 public:
  LogicalAudit() : LogicalOperator(PlanKind::kAudit) {}
  std::string Describe() const override;
  PlanPtr Clone() const override;

  std::string audit_name;
  int key_column = -1;
  // Borrowed from the AuditManager; outlives any plan referencing it. When
  // null the operator evaluates `fallback_predicate` instead (the naive
  // physical design ablated in Section IV-A).
  const SensitiveIdView* id_view = nullptr;
  ExprPtr fallback_predicate;  // bound against child output; nullable
  // When set, the operator probes this Bloom summary instead of the exact
  // ID view (Section IV-A2's big-set fallback; Bloom collisions become audit
  // false positives, never false negatives).
  std::shared_ptr<const BloomFilter> bloom;
};

// Renders the plan as an indented tree (EXPLAIN-style).
std::string PlanToString(const LogicalOperator& root, bool with_schema = false);

// Invokes `fn` on every expression slot of `node` (not of its children).
// Used by rewrite passes and correlation analysis.
void VisitNodeExprs(LogicalOperator& node, const std::function<void(ExprPtr&)>& fn);
void VisitNodeExprs(const LogicalOperator& node,
                    const std::function<void(const Expr&)>& fn);

// The maximum number of scope levels the plan's outer references escape
// beyond the plan itself (recursing into nested subquery plans). 0 means the
// plan is self-contained; >0 means it is correlated with enclosing queries.
int MaxEscapeLevel(const LogicalOperator& plan);

// Invokes `fn` on every column index of `expr` that resolves against the
// expression's own scope: kColumnRef nodes, plus outer references inside
// nested subquery plans whose levels_up climbs back out to this scope. This
// is the complete set of indexes that must be rewritten when the scope's
// schema changes (column pruning, join reordering).
void VisitScopeColumnRefs(Expr& expr, const std::function<void(int&)>& fn);

// Same, for an entire plan at a given nesting depth (depth 1 = the plan is
// directly nested in the scope being rewritten).
void VisitPlanScopeColumnRefs(LogicalOperator& plan, int depth,
                              const std::function<void(int&)>& fn);

}  // namespace seltrig

#endif  // SELTRIG_PLAN_LOGICAL_PLAN_H_
