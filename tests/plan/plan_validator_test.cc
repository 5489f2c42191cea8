// Tests of the plan-invariant linter (exec/plan_validator.h): hand-built
// violating physical plans must be rejected with diagnostics naming the
// broken invariant. That the plans the engine actually produces for the
// TPC-H corpus validate cleanly, under every executor setting, is checked by
// tests/tpch/corpus_differential_test.cc, which runs with the linter on.

#include "exec/plan_validator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/gather.h"
#include "exec/operators.h"
#include "plan/logical_plan.h"

namespace seltrig {
namespace {

class PlanValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    schema.AddColumn({"id", "patient", TypeId::kInt, false});
    schema.AddColumn({"name", "patient", TypeId::kString, false});
    auto created = catalog_.CreateTable("patient", schema, 0);
    ASSERT_TRUE(created.ok());
    table_ = *created;
  }

  // Fresh logical scan of the patient table (nodes must outlive the physical
  // tree, so they are parked in owned_).
  LogicalScan* MakeScan() {
    auto scan = std::make_shared<LogicalScan>();
    scan->table_name = "patient";
    scan->schema = table_->schema();
    owned_.push_back(scan);
    return scan.get();
  }

  LogicalAudit* MakeAudit(PlanPtr child) {
    auto audit = std::make_shared<LogicalAudit>();
    audit->audit_name = "aud";
    audit->key_column = 0;
    audit->schema = child->schema;
    audit->children = {std::move(child)};
    owned_.push_back(audit);
    return audit.get();
  }

  PlanPtr Own(LogicalOperator* node) {
    for (const PlanPtr& p : owned_) {
      if (p.get() == node) return p;
    }
    return nullptr;
  }

  static PlanValidation ExpectAudit() {
    PlanValidation validation;
    validation.expected.push_back({"aud", "patient"});
    return validation;
  }

  Catalog catalog_;
  Table* table_ = nullptr;
  SessionContext session_;
  std::vector<PlanPtr> owned_;
};

// Violation (i): the audit operator covers only one branch of a join; the
// other branch scans the sensitive table unaudited.
TEST_F(PlanValidatorTest, RejectsAuditDroppedFromJoinBranch) {
  LogicalScan* audited_scan = MakeScan();
  LogicalAudit* audit = MakeAudit(Own(audited_scan));
  LogicalScan* bare_scan = MakeScan();
  auto join = std::make_shared<LogicalJoin>();
  join->join_type = JoinType::kCross;
  join->children = {Own(audit), Own(bare_scan)};
  join->schema = audit->schema;
  for (const Column& col : bare_scan->schema.columns()) {
    join->schema.AddColumn(col);
  }

  ExecContext ctx(&catalog_, &session_);
  Executor executor(&ctx);
  auto root = executor.Build(*join, {});
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  PlanValidation validation = ExpectAudit();
  Status status = ValidatePhysicalPlan(**root, &validation, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInternal) << status.ToString();
  EXPECT_NE(status.message().find("audit-domination"), std::string::npos)
      << status.ToString();

  // The same plan is legal under the kHighestNode ablation, which may drop
  // the audit; the linter must not flag it.
  validation.check_domination = false;
  validation.check_commutativity = false;
  EXPECT_TRUE(ValidatePhysicalPlan(**root, &validation, {}).ok());
}

// Violation (ii): the audit operator hoisted above a top-k (ORDER BY+LIMIT),
// which it does not commute with — the audit would only see the surviving k
// rows instead of everything the query read.
TEST_F(PlanValidatorTest, RejectsAuditHoistedAboveTopK) {
  LogicalScan* scan = MakeScan();
  auto sort = std::make_shared<LogicalSort>();
  sort->children = {Own(scan)};
  sort->schema = scan->schema;
  owned_.push_back(sort);
  auto limit = std::make_shared<LogicalLimit>();
  limit->limit = 3;
  limit->children = {sort};
  limit->schema = sort->schema;
  owned_.push_back(limit);
  LogicalAudit* audit = MakeAudit(limit);

  ExecContext ctx(&catalog_, &session_);
  Executor executor(&ctx);
  auto root = executor.Build(*audit, {});
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  PlanValidation validation = ExpectAudit();
  Status status = ValidatePhysicalPlan(**root, &validation, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInternal) << status.ToString();
  EXPECT_NE(status.message().find("audit-commutativity"), std::string::npos)
      << status.ToString();

  // Deliberate under the kHighestNode ablation.
  validation.check_commutativity = false;
  EXPECT_TRUE(ValidatePhysicalPlan(**root, &validation, {}).ok());
}

// Violation (iii): an audited early-stop spine whose operators run at full
// batch capacity. Built by hand — the executor pins these spines to capacity
// 1, so the violating tree cannot come out of BuildNode.
TEST_F(PlanValidatorTest, RejectsUncappedAuditedLimitSpine) {
  LogicalScan* scan = MakeScan();
  LogicalAudit* audit = MakeAudit(Own(scan));
  auto limit = std::make_shared<LogicalLimit>();
  limit->limit = 5;
  limit->children = {Own(audit)};
  limit->schema = audit->schema;
  owned_.push_back(limit);

  ExecContext ctx(&catalog_, &session_);
  auto scan_op = std::make_unique<SeqScanOp>(&ctx, std::vector<const Row*>{},
                                             *scan, table_);
  scan_op->set_logical_node(scan);
  auto audit_op = std::make_unique<PhysicalAuditOp>(
      &ctx, std::vector<const Row*>{}, *audit, std::move(scan_op));
  audit_op->set_logical_node(audit);
  LimitOp limit_op(&ctx, {}, *limit, std::move(audit_op));
  limit_op.set_logical_node(limit.get());

  // Default batch capacity (1024) on every spine operator: pacing below the
  // LIMIT diverges from row-at-a-time flow, so ACCESSED would too.
  PlanValidation validation = ExpectAudit();
  Status status = ValidatePhysicalPlan(limit_op, &validation, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInternal) << status.ToString();
  EXPECT_NE(status.message().find("exact-spine-cap"), std::string::npos)
      << status.ToString();

  // The universal checks also run with no placement expectations installed
  // (the subquery-plan configuration).
  EXPECT_FALSE(ValidatePhysicalPlan(limit_op, nullptr, {}).ok());
}

// Invariant 5: a plan bound before an ALTER TABLE carries stale column
// indexes; with the live catalog supplied, the validator fails it closed.
TEST_F(PlanValidatorTest, RejectsStaleSchemaVersionScan) {
  LogicalScan* scan = MakeScan();
  scan->schema_version = table_->schema_version();

  ExecContext ctx(&catalog_, &session_);
  Executor executor(&ctx);
  auto root = executor.Build(*scan, {});
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  PlanExecutionInfo info;
  info.catalog = &catalog_;
  EXPECT_TRUE(ValidatePhysicalPlan(**root, nullptr, info).ok());

  table_->set_schema_version(table_->schema_version() + 1);
  Status stale = ValidatePhysicalPlan(**root, nullptr, info);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), ErrorCode::kInternal) << stale.ToString();
  EXPECT_NE(stale.message().find("schema-version"), std::string::npos)
      << stale.ToString();

  // Without a catalog (hand-built plans) or at version 0 (virtual tables)
  // the check is skipped.
  EXPECT_TRUE(ValidatePhysicalPlan(**root, nullptr, {}).ok());
  const uint64_t bound = scan->schema_version;
  scan->schema_version = 0;
  EXPECT_TRUE(ValidatePhysicalPlan(**root, nullptr, info).ok());
  scan->schema_version = bound;

  // A DROP TABLE + re-CREATE leaves plans bound to the old entry stale too:
  // the table disappearing entirely is the degenerate case.
  ASSERT_TRUE(catalog_.DropTable("patient").ok());
  Status gone = ValidatePhysicalPlan(**root, nullptr, info);
  ASSERT_FALSE(gone.ok());
  EXPECT_NE(gone.message().find("no longer exists"), std::string::npos)
      << gone.ToString();
}

// The executor's own lowering of the same audited-LIMIT plan pins the spine
// to capacity 1 and passes.
TEST_F(PlanValidatorTest, AcceptsExecutorBuiltAuditedLimitSpine) {
  LogicalScan* scan = MakeScan();
  LogicalAudit* audit = MakeAudit(Own(scan));
  auto limit = std::make_shared<LogicalLimit>();
  limit->limit = 5;
  limit->children = {Own(audit)};
  limit->schema = audit->schema;
  owned_.push_back(limit);

  ExecContext ctx(&catalog_, &session_);
  Executor executor(&ctx);
  auto root = executor.Build(*limit, {});
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  PlanValidation validation = ExpectAudit();
  Status status = ValidatePhysicalPlan(**root, &validation, {});
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// A max_rows prefix-abort is an early stop at the root: an audited spine left
// at full capacity is rejected, and the executor's capacity-1 lowering of the
// same plan passes.
TEST_F(PlanValidatorTest, MaxRowsPrefixAbortRequiresExactSpine) {
  LogicalScan* scan = MakeScan();
  LogicalAudit* audit = MakeAudit(Own(scan));

  ExecContext ctx(&catalog_, &session_);
  auto scan_op = std::make_unique<SeqScanOp>(&ctx, std::vector<const Row*>{},
                                             *scan, table_);
  scan_op->set_logical_node(scan);
  PhysicalAuditOp audit_op(&ctx, {}, *audit, std::move(scan_op));
  audit_op.set_logical_node(audit);

  PlanExecutionInfo info;
  info.max_rows = 5;
  Status status = ValidatePhysicalPlan(audit_op, nullptr, info);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("exact-spine-cap"), std::string::npos)
      << status.ToString();
  // No early stop: full capacity is the point of the vectorized engine.
  EXPECT_TRUE(ValidatePhysicalPlan(audit_op, nullptr, {}).ok());
}

// Gather-safety checks: the morsel gather is rejected under a correlated
// execution or a capped ACCESSED registry (the executor never mounts it
// there), and its logical spine participates in domination checking.
TEST_F(PlanValidatorTest, GatherSafetyAndSpineDomination) {
  LogicalScan* scan = MakeScan();
  LogicalAudit* audit = MakeAudit(Own(scan));

  ExecContext ctx(&catalog_, &session_);
  PhysicalGatherOp gather(&ctx, *audit, *scan, table_);
  gather.set_logical_node(audit);

  PlanValidation validation = ExpectAudit();
  EXPECT_TRUE(ValidatePhysicalPlan(gather, &validation, {}).ok());

  PlanExecutionInfo correlated;
  correlated.correlated = true;
  Status status = ValidatePhysicalPlan(gather, &validation, correlated);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("gather-safety"), std::string::npos)
      << status.ToString();

  PlanExecutionInfo capped;
  capped.accessed_capacity = 8;
  status = ValidatePhysicalPlan(gather, &validation, capped);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("gather-safety"), std::string::npos)
      << status.ToString();

  // Bare scan spine (no audit): domination fails through the gather too.
  LogicalScan* bare = MakeScan();
  PhysicalGatherOp bare_gather(&ctx, *bare, *bare, table_);
  bare_gather.set_logical_node(bare);
  status = ValidatePhysicalPlan(bare_gather, &validation, {});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("audit-domination"), std::string::npos)
      << status.ToString();
}

// Fail-closed introspection: an operator with no logical node attached is an
// executor bug, not a pass.
TEST_F(PlanValidatorTest, RejectsOperatorWithoutLogicalNode) {
  LogicalScan* scan = MakeScan();
  ExecContext ctx(&catalog_, &session_);
  SeqScanOp scan_op(&ctx, {}, *scan, table_);
  Status status = ValidatePhysicalPlan(scan_op, nullptr, {});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("introspection"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace seltrig
