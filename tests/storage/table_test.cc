#include "storage/table.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "storage/undo_log.h"

namespace seltrig {
namespace {

Schema TwoColumnSchema() {
  Schema s;
  s.AddColumn({"id", "", TypeId::kInt, false});
  s.AddColumn({"name", "", TypeId::kString, false});
  return s;
}

std::vector<size_t> Lookup(Table& t, int column, const Value& key) {
  std::vector<size_t> ids;
  t.LookupBySecondary(column, key, &ids);
  return ids;
}

TEST(TableTest, InsertAndRead) {
  Table t("t", TwoColumnSchema(), 0);
  auto id = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(t.live_row_count(), 1u);
  EXPECT_TRUE(t.IsLive(*id));
  EXPECT_EQ(t.GetRow(*id)[1].AsString(), "a");
}

TEST(TableTest, ArityMismatchRejected) {
  Table t("t", TwoColumnSchema(), 0);
  EXPECT_FALSE(t.Insert({Value::Int(1)}).ok());
}

TEST(TableTest, DuplicatePrimaryKeyRejected) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  EXPECT_FALSE(t.Insert({Value::Int(1), Value::String("b")}).ok());
  EXPECT_EQ(t.live_row_count(), 1u);
}

TEST(TableTest, NullPrimaryKeyRejected) {
  Table t("t", TwoColumnSchema(), 0);
  EXPECT_FALSE(t.Insert({Value::Null(), Value::String("a")}).ok());
}

TEST(TableTest, NoPrimaryKeyAllowsDuplicates) {
  Table t("t", TwoColumnSchema(), -1);
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  EXPECT_EQ(t.live_row_count(), 2u);
}

TEST(TableTest, DeleteTombstones) {
  Table t("t", TwoColumnSchema(), 0);
  auto id = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(t.Delete(*id).ok());
  EXPECT_FALSE(t.IsLive(*id));
  EXPECT_EQ(t.live_row_count(), 0u);
  EXPECT_EQ(t.slot_count(), 1u);  // slot remains
  EXPECT_FALSE(t.Delete(*id).ok());  // double delete
}

TEST(TableTest, DeleteFreesPrimaryKey) {
  Table t("t", TwoColumnSchema(), 0);
  auto id = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(t.Delete(*id).ok());
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::String("b")}).ok());
}

TEST(TableTest, PrimaryKeyLookup) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(5), Value::String("x")}).ok());
  auto row_id = t.LookupByPrimaryKey(Value::Int(5));
  ASSERT_TRUE(row_id.ok());
  EXPECT_EQ(t.GetRow(*row_id)[1].AsString(), "x");
  EXPECT_FALSE(t.LookupByPrimaryKey(Value::Int(6)).ok());
}

TEST(TableTest, UpdateInPlace) {
  Table t("t", TwoColumnSchema(), 0);
  auto id = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(t.Update(*id, {Value::Int(1), Value::String("b")}).ok());
  EXPECT_EQ(t.GetRow(*id)[1].AsString(), "b");
}

TEST(TableTest, UpdatePrimaryKeyMovesIndex) {
  Table t("t", TwoColumnSchema(), 0);
  auto id = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(t.Update(*id, {Value::Int(2), Value::String("a")}).ok());
  EXPECT_FALSE(t.LookupByPrimaryKey(Value::Int(1)).ok());
  EXPECT_TRUE(t.LookupByPrimaryKey(Value::Int(2)).ok());
}

TEST(TableTest, UpdateToConflictingKeyRejected) {
  Table t("t", TwoColumnSchema(), 0);
  auto a = t.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("b")}).ok());
  EXPECT_FALSE(t.Update(*a, {Value::Int(2), Value::String("a")}).ok());
}

TEST(TableTest, SecondaryIndexLookup) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("y")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(3), Value::String("x")}).ok());
  EXPECT_EQ(Lookup(t, 1, Value::String("x")), (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(Lookup(t, 1, Value::String("z")).empty());
  // The primary-key column is answered from the primary-key index.
  EXPECT_EQ(Lookup(t, 0, Value::Int(2)), (std::vector<size_t>{1}));
  EXPECT_TRUE(Lookup(t, 0, Value::Int(4)).empty());
}

TEST(TableTest, SecondaryIndexInvalidatedByWrites) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("x")}).ok());
  EXPECT_EQ(Lookup(t, 1, Value::String("x")).size(), 1u);
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("x")}).ok());
  EXPECT_EQ(Lookup(t, 1, Value::String("x")).size(), 2u);
  auto row_id = t.LookupByPrimaryKey(Value::Int(1));
  ASSERT_TRUE(t.Delete(*row_id).ok());
  EXPECT_EQ(Lookup(t, 1, Value::String("x")).size(), 1u);
}

TEST(TableTest, AlterAddColumnBackfillsAndUndoes) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("b")}).ok());
  ASSERT_TRUE(t.AlterAddColumn("score", TypeId::kInt, Value::Int(7)).ok());
  EXPECT_EQ(t.schema().size(), 3u);
  auto id = t.LookupByPrimaryKey(Value::Int(1));
  EXPECT_EQ(t.GetRow(*id)[2].AsInt(), 7);
  // A second column with no default backfills NULL.
  ASSERT_TRUE(t.AlterAddColumn("note", TypeId::kString, Value::Null()).ok());
  EXPECT_TRUE(t.GetRow(*id)[3].is_null());
  t.AlterDropLastColumn();
  t.AlterDropLastColumn();
  EXPECT_EQ(t.schema().size(), 2u);
  EXPECT_EQ(t.GetRow(*id).size(), 2u);
}

TEST(TableTest, AlterDropAndRestoreColumn) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  Result<Table::DroppedColumn> dropped = t.AlterDropColumn(1);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->index, 1u);
  EXPECT_EQ(t.schema().size(), 1u);
  auto id = t.LookupByPrimaryKey(Value::Int(1));
  EXPECT_EQ(t.GetRow(*id).size(), 1u);
  t.AlterRestoreColumn(std::move(*dropped));
  EXPECT_EQ(t.schema().size(), 2u);
  EXPECT_EQ(t.GetRow(*id)[1].AsString(), "a");
}

TEST(TableTest, AlterDropPrimaryKeyRejected) {
  Table t("t", TwoColumnSchema(), 0);
  EXPECT_FALSE(t.AlterDropColumn(0).ok());
}

TEST(TableTest, AlterDropShiftsPrimaryKeyIndex) {
  Schema schema;
  Column a;
  a.name = "a";
  a.type = TypeId::kString;
  schema.AddColumn(a);
  Column key;
  key.name = "id";
  key.type = TypeId::kInt;
  schema.AddColumn(key);
  Table t("t", std::move(schema), 1);
  ASSERT_TRUE(t.Insert({Value::String("x"), Value::Int(1)}).ok());
  Result<Table::DroppedColumn> dropped = t.AlterDropColumn(0);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(t.primary_key_column(), 0);
  EXPECT_TRUE(t.LookupByPrimaryKey(Value::Int(1)).ok());
  t.AlterRestoreColumn(std::move(*dropped));
  EXPECT_EQ(t.primary_key_column(), 1);
  EXPECT_TRUE(t.LookupByPrimaryKey(Value::Int(1)).ok());
}

TEST(TableTest, AlterRenameColumn) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.AlterRenameColumn(1, "label").ok());
  EXPECT_EQ(t.schema().column(1).name, "label");
}

TEST(TableTest, AlterRetypeAndRestoreColumn) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  Result<TableColumn> old_data = t.AlterRetypeColumn(1, TypeId::kInt);
  ASSERT_TRUE(old_data.ok());
  EXPECT_EQ(t.schema().column(1).type, TypeId::kInt);
  // Degrade-not-coerce: the stored value keeps its identity.
  auto id = t.LookupByPrimaryKey(Value::Int(1));
  EXPECT_EQ(t.GetRow(*id)[1].AsString(), "a");
  t.AlterRestoreColumnData(1, std::move(*old_data), TypeId::kString);
  EXPECT_EQ(t.schema().column(1).type, TypeId::kString);
  EXPECT_EQ(t.GetRow(*id)[1].AsString(), "a");
}

TEST(TableTest, SchemaVersionIsSessionControlled) {
  Table t("t", TwoColumnSchema(), 0);
  EXPECT_EQ(t.schema_version(), 1u);
  // Alter primitives never bump the version; only the session does, once
  // per committed statement.
  ASSERT_TRUE(t.AlterAddColumn("x", TypeId::kInt, Value::Null()).ok());
  EXPECT_EQ(t.schema_version(), 1u);
  t.set_schema_version(2);
  EXPECT_EQ(t.schema_version(), 2u);
}

TEST(TableTest, ClearResets) {
  Table t("t", TwoColumnSchema(), 0);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
  t.Clear();
  EXPECT_EQ(t.live_row_count(), 0u);
  EXPECT_EQ(t.slot_count(), 0u);
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::String("a")}).ok());
}

// Randomized index maintenance against a brute-force oracle: after every
// step, a probe of every column for every key of its domain must return
// exactly the live rows holding that key, in ascending row-id order — the
// order a freshly built index, and a full scan, produce.
class IndexOracle {
 public:
  explicit IndexOracle(uint32_t seed) : rng_(seed), table_("t", MakeSchema(), 0) {}

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      ASSERT_NO_FATAL_FAILURE(Step());
      ASSERT_NO_FATAL_FAILURE(Check(step));
    }
  }

 private:
  static constexpr int kKeys = 40;

  static Schema MakeSchema() {
    Schema s;
    s.AddColumn({"id", "", TypeId::kInt, false});
    s.AddColumn({"grp", "", TypeId::kInt, true});
    s.AddColumn({"tag", "", TypeId::kString, true});
    s.AddColumn({"n", "", TypeId::kInt, true});
    return s;
  }

  // Every value a cell of `column` can hold.
  static std::vector<Value> Domain(size_t column) {
    std::vector<Value> values{Value::Null()};
    switch (column) {
      case 0:
        for (int k = 0; k < kKeys; ++k) values.push_back(Value::Int(k));
        break;
      case 1:
        for (int g = 0; g < 4; ++g) values.push_back(Value::Int(g));
        break;
      case 2:
        for (const char* tag : {"", "p", "q"}) values.push_back(Value::String(tag));
        break;
      default:
        for (int n = 0; n < 8; ++n) values.push_back(Value::Int(n));
        break;
    }
    return values;
  }

  Value RandomCell(size_t column) {
    std::vector<Value> values = Domain(column);
    if (column == 0) values.erase(values.begin());  // the key is never NULL
    return values[Pick(values.size())];
  }

  Row RandomRow() {
    Row row;
    for (size_t c = 0; c < 4; ++c) row.push_back(RandomCell(c));
    return row;
  }

  size_t Pick(size_t n) { return std::uniform_int_distribution<size_t>(0, n - 1)(rng_); }

  // A random live row id, or slot_count() when the table is empty.
  size_t RandomLiveRow() {
    std::vector<size_t> live;
    for (size_t i = 0; i < table_.slot_count(); ++i) {
      if (table_.IsLive(i)) live.push_back(i);
    }
    return live.empty() ? table_.slot_count() : live[Pick(live.size())];
  }

  // One row write; errors (duplicate or missing keys) are part of the mix.
  void Write() {
    switch (Pick(3)) {
      case 0:
        (void)table_.Insert(RandomRow());
        break;
      case 1:
        (void)table_.Delete(RandomLiveRow());
        break;
      default: {
        size_t row_id = RandomLiveRow();
        if (row_id == table_.slot_count()) break;
        Row row = table_.GetRow(row_id);
        // Change one indexed or non-indexed cell, the key included.
        size_t column = Pick(4);
        row[column] = RandomCell(column);
        (void)table_.Update(row_id, std::move(row));
        break;
      }
    }
  }

  void Step() {
    const size_t choice = Pick(100);
    if (choice < 75) {
      Write();
    } else if (choice < 90) {
      // A trigger-style transaction: writes under an undo log, then undone.
      UndoLog undo;
      table_.set_undo_log(&undo);
      const size_t savepoint = undo.Savepoint();
      for (size_t i = 0, n = 1 + Pick(6); i < n; ++i) Write();
      std::vector<std::string> touched;
      ASSERT_TRUE(undo.RollbackTo(savepoint, &touched).ok());
      table_.set_undo_log(nullptr);
    } else if (choice < 98) {
      switch (Pick(3)) {
        case 0:
          ASSERT_TRUE(table_.AlterAddColumn("extra", TypeId::kInt, Value::Int(0)).ok());
          table_.AlterDropLastColumn();
          break;
        case 1:
          ASSERT_TRUE(table_.AlterRenameColumn(2, "label").ok());
          ASSERT_TRUE(table_.AlterRenameColumn(2, "tag").ok());
          break;
        default: {
          Result<Table::DroppedColumn> dropped = table_.AlterDropColumn(3);
          ASSERT_TRUE(dropped.ok());
          table_.AlterRestoreColumn(std::move(*dropped));
          break;
        }
      }
    } else {
      table_.Clear();
    }
  }

  void Check(int step) {
    for (size_t column = 0; column < 4; ++column) {
      for (const Value& key : Domain(column)) {
        std::vector<size_t> expected;
        for (size_t i = 0; i < table_.slot_count(); ++i) {
          if (table_.IsLive(i) && table_.GetCell(i, column) == key) expected.push_back(i);
        }
        ASSERT_EQ(Lookup(table_, static_cast<int>(column), key), expected)
            << "step " << step << ", column " << column << ", key " << key.ToString();
      }
    }
  }

  std::mt19937 rng_;
  Table table_;
};

TEST(TableTest, SecondaryIndexesMatchBruteForceOracle) {
  for (uint32_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    IndexOracle oracle(seed);
    ASSERT_NO_FATAL_FAILURE(oracle.Run(600));
  }
}

}  // namespace
}  // namespace seltrig
