// PhysicalGatherOp unit tests over hand-built spines on a multi-morsel table:
// worker batches are handed through whole, so a scan→filter→audit spine
// still yields zero-copy view columns at 2 threads, a computed projection
// still yields owned columns, and rows, ACCESSED and rows_scanned equal the
// serial run.

#include "exec/gather.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "audit/accessed_state.h"
#include "catalog/catalog.h"
#include "exec/executor.h"
#include "expr/expr.h"
#include "storage/sensitive_id_view.h"

namespace seltrig {
namespace {

// Three morsels: two full and one partial.
constexpr int64_t kRows = 2 * static_cast<int64_t>(kMorselSlots) + 1500;

class GatherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    schema.AddColumn({"id", "t", TypeId::kInt, false});
    schema.AddColumn({"v", "t", TypeId::kInt, false});
    auto table = catalog_.CreateTable("t", schema, 0);
    ASSERT_TRUE(table.ok());
    table_ = *table;
    for (int64_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE(table_->Insert({Value::Int(i), Value::Int(i % 97)}).ok());
      // Every fifth id is sensitive, in every morsel.
      if (i % 5 == 0) view_.Add(Value::Int(i));
    }
    scan_ = std::make_shared<LogicalScan>();
    scan_->table_name = "t";
    scan_->alias = "t";
    scan_->schema = schema;
  }

  // scan → filter (10 <= v < 60) → audit on id.
  std::shared_ptr<LogicalAudit> FilterAuditSpine() {
    auto filter = std::make_shared<LogicalFilter>();
    filter->predicate =
        MakeAnd(MakeComparison(CompareOp::kGe, MakeColumnRef(1, TypeId::kInt),
                               MakeLiteral(Value::Int(10))),
                MakeComparison(CompareOp::kLt, MakeColumnRef(1, TypeId::kInt),
                               MakeLiteral(Value::Int(60))));
    filter->schema = scan_->schema;
    filter->children = {scan_};
    auto audit = std::make_shared<LogicalAudit>();
    audit->audit_name = "e";
    audit->key_column = 0;
    audit->id_view = &view_;
    audit->schema = scan_->schema;
    audit->children = {filter};
    return audit;
  }

  // Pulls every batch of a 2-thread gather over `spine`; `check` sees each
  // batch before its rows are collected.
  template <typename CheckFn>
  std::vector<Row> RunGather(const LogicalOperator& spine, ExecContext* ctx,
                             const CheckFn& check) {
    ctx->set_num_threads(2);
    PhysicalGatherOp gather(ctx, spine, *scan_, table_);
    EXPECT_TRUE(gather.Init().ok());
    EXPECT_EQ(gather.DebugName(), "Gather(threads=2)");
    std::vector<Row> rows;
    ColumnBatch batch;
    while (true) {
      Result<bool> has = gather.NextBatch(&batch);
      EXPECT_TRUE(has.ok()) << has.status().ToString();
      if (!has.ok() || !*has) break;
      check(batch);
      for (size_t i = 0; i < batch.size(); ++i) rows.push_back(batch.GetRow(i));
    }
    return rows;
  }

  std::vector<Row> RunSerial(const LogicalOperator& spine, ExecContext* ctx) {
    Executor executor(ctx);
    auto rows = executor.ExecutePlan(spine, {});
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? *rows : std::vector<Row>{};
  }

  Catalog catalog_;
  SessionContext session_;
  Table* table_ = nullptr;
  SensitiveIdView view_;
  std::shared_ptr<LogicalScan> scan_;
};

TEST_F(GatherTest, ViewSpineHandsOutViewBatches) {
  auto spine = FilterAuditSpine();
  ExecContext serial_ctx(&catalog_, &session_);
  AccessedStateRegistry serial_accessed;
  serial_ctx.set_accessed(&serial_accessed);
  const std::vector<Row> serial = RunSerial(*spine, &serial_ctx);
  ASSERT_FALSE(serial.empty());

  ExecContext ctx(&catalog_, &session_);
  AccessedStateRegistry accessed;
  ctx.set_accessed(&accessed);
  const std::vector<Row> rows = RunGather(*spine, &ctx, [](const ColumnBatch& b) {
    ASSERT_EQ(b.num_columns(), 2u);
    for (size_t c = 0; c < b.num_columns(); ++c) {
      EXPECT_TRUE(b.column(c).is_view()) << "column " << c;
    }
  });

  EXPECT_EQ(rows, serial);
  ASSERT_NE(accessed.Find("e"), nullptr);
  ASSERT_NE(serial_accessed.Find("e"), nullptr);
  EXPECT_EQ(accessed.Find("e")->ids(), serial_accessed.Find("e")->ids());
  EXPECT_EQ(ctx.stats().rows_scanned, serial_ctx.stats().rows_scanned);
  EXPECT_EQ(ctx.stats().rows_through_audit_ops,
            serial_ctx.stats().rows_through_audit_ops);
  EXPECT_EQ(ctx.stats().audit_probe_hits, serial_ctx.stats().audit_probe_hits);
}

TEST_F(GatherTest, ComputedProjectHandsOutOwnedBatches) {
  // audit spine → project (id, v * 2 + 1).
  auto project = std::make_shared<LogicalProject>();
  project->exprs.push_back(MakeColumnRef(0, TypeId::kInt));
  project->exprs.push_back(MakeArith(
      ArithOp::kAdd,
      MakeArith(ArithOp::kMul, MakeColumnRef(1, TypeId::kInt),
                MakeLiteral(Value::Int(2))),
      MakeLiteral(Value::Int(1))));
  project->schema.AddColumn({"id", "t", TypeId::kInt, false});
  project->schema.AddColumn({"w", "", TypeId::kInt, false});
  project->children = {FilterAuditSpine()};

  ExecContext serial_ctx(&catalog_, &session_);
  const std::vector<Row> serial = RunSerial(*project, &serial_ctx);
  ASSERT_FALSE(serial.empty());

  ExecContext ctx(&catalog_, &session_);
  const std::vector<Row> rows = RunGather(*project, &ctx, [](const ColumnBatch& b) {
    ASSERT_EQ(b.num_columns(), 2u);
    for (size_t c = 0; c < b.num_columns(); ++c) {
      EXPECT_FALSE(b.column(c).is_view()) << "column " << c;
    }
  });
  EXPECT_EQ(rows, serial);
  EXPECT_EQ(ctx.stats().rows_scanned, serial_ctx.stats().rows_scanned);
}

}  // namespace
}  // namespace seltrig
