// Unit tests for ColumnBatch / ColumnVector: table bindings and owned typed
// columns, the selection-vector contract, the row-materialization shim, join
// emits, and storage reuse across Clear()/ResetOwned().

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>
#include <vector>

#include "exec/column_batch.h"
#include "storage/column_store.h"
#include "types/schema.h"
#include "types/value.h"

namespace seltrig {
namespace {

// A schema of unnamed columns of the given declared types.
Schema Types(std::initializer_list<TypeId> types) {
  Schema schema;
  for (TypeId t : types) schema.AddColumn(Column{"", "", t, false});
  return schema;
}

const Schema kIntString = Types({TypeId::kInt, TypeId::kString});
const Schema kInt = Types({TypeId::kInt});

Row MakeRow(int64_t id, const char* name) {
  Row r;
  r.push_back(Value::Int(id));
  r.push_back(Value::String(name));
  return r;
}

TEST(ColumnBatchTest, OwnedAppendAndMaterialize) {
  ColumnBatch batch;
  batch.ResetOwned(kIntString);
  batch.AppendRow(MakeRow(1, "a"));
  batch.AppendRow(MakeRow(2, "b"));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.GetValue(0, 1), Value::Int(2));
  Row r;
  batch.MaterializeRow(0, &r);
  EXPECT_EQ(r, MakeRow(1, "a"));
}

TEST(ColumnBatchTest, SelectionNarrowsLogicalView) {
  ColumnBatch batch;
  batch.ResetOwned(kInt);
  for (int64_t i = 0; i < 5; ++i) {
    Row r;
    r.push_back(Value::Int(i));
    batch.AppendRow(std::move(r));
  }
  batch.SetSelection({1, 3});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.GetValue(0, 0), Value::Int(1));
  EXPECT_EQ(batch.GetValue(0, 1), Value::Int(3));
  EXPECT_EQ(batch.PhysicalIndex(1), 3u);
  // Truncation and front-drops operate on the logical (selected) view.
  batch.TruncateLogical(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.GetValue(0, 0), Value::Int(1));
}

TEST(ColumnBatchTest, DropFrontLogicalWithoutSelection) {
  ColumnBatch batch;
  batch.ResetOwned(kInt);
  for (int64_t i = 0; i < 4; ++i) {
    Row r;
    r.push_back(Value::Int(i));
    batch.AppendRow(std::move(r));
  }
  batch.DropFrontLogical(3);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.GetValue(0, 0), Value::Int(3));
}

TEST(ColumnBatchTest, ViewModeBindsTableStorage) {
  TableColumn ids(TypeId::kInt);
  TableColumn names(TypeId::kString);
  for (int64_t i = 0; i < 4; ++i) {
    ids.Append(Value::Int(i * 10));
    names.Append(i == 2 ? Value::Null() : Value::String("n"));
  }
  ColumnBatch batch;
  batch.BeginViews(2);
  batch.BindViewColumn(0, &ids);
  batch.BindViewColumn(1, &names);
  std::vector<uint32_t> slots = {0, 2, 3};
  batch.AdoptSelection(&slots);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.GetValue(0, 1), Value::Int(20));
  EXPECT_TRUE(batch.GetValue(1, 1).is_null());
  // The shim gathers exact stored values through the selection.
  Row r;
  batch.MaterializeRow(2, &r);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], Value::Int(30));
}

TEST(ColumnBatchTest, ApplyProjectionReordersViewColumns) {
  TableColumn a(TypeId::kInt);
  TableColumn b(TypeId::kInt);
  a.Append(Value::Int(1));
  b.Append(Value::Int(2));
  ColumnBatch batch;
  batch.BeginViews(2);
  batch.BindViewColumn(0, &a);
  batch.BindViewColumn(1, &b);
  std::vector<uint32_t> slots = {0};
  batch.AdoptSelection(&slots);
  batch.ApplyProjection({1, 0});
  ASSERT_EQ(batch.num_columns(), 2u);
  EXPECT_EQ(batch.GetValue(0, 0), Value::Int(2));
  EXPECT_EQ(batch.GetValue(1, 0), Value::Int(1));
}

TEST(ColumnBatchTest, AppendConcatAndPad) {
  ColumnBatch left;
  left.ResetOwned(kIntString);
  left.AppendRow(MakeRow(7, "x"));

  ColumnBatch out;
  out.ResetOwned(Types({TypeId::kInt, TypeId::kString, TypeId::kInt}));
  Row right;
  right.push_back(Value::Int(99));
  out.AppendConcat(left, 0, right);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.GetValue(0, 0), Value::Int(7));
  EXPECT_EQ(out.GetValue(2, 0), Value::Int(99));

  out.AppendConcatPad(left, 0, 1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.GetValue(2, 1).is_null());

  // Residual rejection: the just-appended row pops cleanly.
  out.PopRow();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.GetValue(2, 0), Value::Int(99));
}

TEST(ColumnBatchTest, OwnedColumnsAreTypedBySchema) {
  ColumnBatch batch;
  batch.ResetOwned(Types({TypeId::kInt, TypeId::kString, TypeId::kDouble, TypeId::kDate}));
  Row row = MakeRow(5, "s");
  row.push_back(Value::Double(2.5));
  row.push_back(Value::Null());
  batch.AppendRow(row);
  EXPECT_FALSE(batch.column(0).is_view());
  EXPECT_EQ(batch.column(0).data().rep(), TableColumn::Rep::kInt64);
  // Strings stay generic Values in a batch (no per-batch dictionary).
  EXPECT_EQ(batch.column(1).data().rep(), TableColumn::Rep::kValue);
  EXPECT_EQ(batch.column(2).data().rep(), TableColumn::Rep::kDouble);
  EXPECT_EQ(batch.column(3).data().rep(), TableColumn::Rep::kInt64);
  EXPECT_EQ(batch.column(3).data().type(), TypeId::kDate);
  EXPECT_EQ(batch.GetRow(0), row);

  // A column-at-a-time fill declares its row count, even at zero width
  // (COUNT(*) pipelines).
  ColumnBatch zero;
  zero.ResetOwned(Schema());
  zero.SetOwnedRowCount(3);
  EXPECT_EQ(zero.size(), 3u);
  EXPECT_EQ(zero.num_columns(), 0u);
}

TEST(ColumnBatchTest, MismatchedCellDegradesAndReadsBackExactly) {
  ColumnBatch batch;
  batch.ResetOwned(kInt);
  Row a = {Value::Int(7)};
  Row b = {Value::Double(7.0)};  // equal under Compare, but another type
  Row c = {Value::String("x")};
  batch.AppendRow(a);
  batch.AppendRow(b);
  batch.AppendRow(c);
  EXPECT_EQ(batch.column(0).data().rep(), TableColumn::Rep::kValue);
  // Each cell keeps its own type tag, not just its Compare-equal value.
  EXPECT_EQ(batch.GetValue(0, 0).type(), TypeId::kInt);
  EXPECT_EQ(batch.GetValue(0, 1).type(), TypeId::kDouble);
  EXPECT_EQ(batch.GetValue(0, 1).AsDouble(), 7.0);
  EXPECT_EQ(batch.GetValue(0, 2), Value::String("x"));
}

TEST(ColumnBatchTest, ResetOwnedRetypesADegradedColumn) {
  ColumnBatch batch;
  batch.ResetOwned(kInt);
  batch.AppendRow(Row{Value::String("degrades")});
  ASSERT_EQ(batch.column(0).data().rep(), TableColumn::Rep::kValue);
  batch.ResetOwned(kInt);
  EXPECT_EQ(batch.column(0).data().rep(), TableColumn::Rep::kInt64);
  EXPECT_EQ(batch.column(0).data().size(), 0u);
  batch.AppendRow(Row{Value::Int(3)});
  EXPECT_EQ(batch.column(0).data().rep(), TableColumn::Rep::kInt64);
  EXPECT_EQ(batch.GetValue(0, 0), Value::Int(3));
  // A schema of another type retypes the same storage.
  batch.ResetOwned(Types({TypeId::kDouble}));
  EXPECT_EQ(batch.column(0).data().rep(), TableColumn::Rep::kDouble);
}

TEST(ColumnBatchTest, MovedBatchKeepsOwnedCells) {
  TableColumn ids(TypeId::kInt);
  ids.Append(Value::Int(40));
  std::vector<ColumnBatch> batches;
  for (int64_t b = 0; b < 4; ++b) {
    ColumnBatch batch;
    batch.ResetOwned(kIntString);
    batch.AppendRow(MakeRow(b, "moved"));
    batch.AppendRow(MakeRow(b + 10, "twice"));
    batch.SetSelection({1});
    batches.push_back(std::move(batch));  // reallocation moves earlier batches
  }
  ColumnBatch view;
  view.BeginViews(1);
  view.BindViewColumn(0, &ids);
  std::vector<uint32_t> slots = {0};
  view.AdoptSelection(&slots);
  batches.push_back(std::move(view));
  ColumnBatch last = std::move(batches[3]);
  EXPECT_EQ(last.GetRow(0), MakeRow(13, "twice"));
  for (int64_t b = 0; b < 3; ++b) {
    ASSERT_EQ(batches[b].size(), 1u);
    EXPECT_EQ(batches[b].GetRow(0), MakeRow(b + 10, "twice"));
  }
  EXPECT_EQ(batches[4].GetValue(0, 0), Value::Int(40));
}

TEST(ColumnBatchTest, ClearRetainsStorageAndResetsSelection) {
  ColumnBatch batch;
  batch.ResetOwned(kInt);
  Row r;
  r.push_back(Value::Int(1));
  batch.AppendRow(std::move(r));
  batch.SetSelection({0});
  batch.Clear();
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_FALSE(batch.has_selection());
  // Refill after Clear: appends are legal again (no stale selection).
  batch.ResetOwned(kInt);
  Row r2;
  r2.push_back(Value::Int(2));
  batch.AppendRow(std::move(r2));
  EXPECT_EQ(batch.GetValue(0, 0), Value::Int(2));
}

}  // namespace
}  // namespace seltrig
