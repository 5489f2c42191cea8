// Physical-operator unit tests over hand-built logical nodes (below the SQL
// surface): exclusions, index-lookup scans, join edge cases, a key-equality
// oracle for every hash lookup, audit op behavior without a registry.

#include "exec/operators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>

#include "audit/accessed_state.h"
#include "catalog/catalog.h"
#include "common/bloom_filter.h"
#include "exec/executor.h"
#include "expr/analysis.h"
#include "storage/sensitive_id_view.h"

namespace seltrig {
namespace {

class OperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    schema.AddColumn({"id", "t", TypeId::kInt, false});
    schema.AddColumn({"v", "t", TypeId::kInt, false});
    auto table = catalog_.CreateTable("t", schema, 0);
    ASSERT_TRUE(table.ok());
    table_ = *table;
    for (int64_t i = 1; i <= 6; ++i) {
      ASSERT_TRUE(table_->Insert({Value::Int(i), Value::Int(i * 10)}).ok());
    }
  }

  std::shared_ptr<LogicalScan> MakeScan() {
    auto scan = std::make_shared<LogicalScan>();
    scan->table_name = "t";
    scan->alias = "t";
    scan->schema = table_->schema();
    return scan;
  }

  std::vector<Row> Run(const LogicalOperator& plan,
                       ExecContext* ctx_override = nullptr) {
    ExecContext local(&catalog_, &session_);
    ExecContext* ctx = ctx_override != nullptr ? ctx_override : &local;
    Executor executor(ctx);
    auto rows = executor.ExecutePlan(plan, {});
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? *rows : std::vector<Row>{};
  }

  Catalog catalog_;
  SessionContext session_;
  Table* table_ = nullptr;
};

TEST_F(OperatorsTest, ScanEmitsAllRows) {
  auto scan = MakeScan();
  EXPECT_EQ(Run(*scan).size(), 6u);
}

TEST_F(OperatorsTest, ScanSkipsTombstones) {
  auto row_id = table_->LookupByPrimaryKey(Value::Int(3));
  ASSERT_TRUE(row_id.ok());
  ASSERT_TRUE(table_->Delete(*row_id).ok());
  auto scan = MakeScan();
  EXPECT_EQ(Run(*scan).size(), 5u);
}

TEST_F(OperatorsTest, ScanAppliesExclusions) {
  ExecContext ctx(&catalog_, &session_);
  ScanExclusion ex;
  ex.table = "t";
  ex.column = 0;
  ex.value = Value::Int(4);
  ctx.AddExclusion(ex);
  auto scan = MakeScan();
  std::vector<Row> rows = Run(*scan, &ctx);
  EXPECT_EQ(rows.size(), 5u);
  for (const Row& r : rows) EXPECT_NE(r[0].AsInt(), 4);
}

TEST_F(OperatorsTest, ScanProjectionSubset) {
  auto scan = MakeScan();
  scan->projection = {1};
  Schema projected;
  projected.AddColumn(scan->schema.column(1));
  scan->schema = projected;
  std::vector<Row> rows = Run(*scan);
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0].size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 10);
}

TEST_F(OperatorsTest, ScanIndexModeViaEqualityFilter) {
  auto scan = MakeScan();
  scan->filter = MakeComparison(CompareOp::kEq, MakeColumnRef(0, TypeId::kInt, "id"),
                                MakeLiteral(Value::Int(5)));
  ExecContext ctx(&catalog_, &session_);
  std::vector<Row> rows;
  {
    Executor executor(&ctx);
    auto r = executor.ExecutePlan(*scan, {});
    ASSERT_TRUE(r.ok());
    rows = *r;
  }
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 5);
  // The index path examines only matching rows, not the full table.
  EXPECT_LT(ctx.stats().rows_scanned, 6u);

  // A non-key column with duplicates: ids 2, 7, 8 and 9 all have v = 20, and
  // id 7 is deleted before the probe.
  for (int64_t id : {7, 8, 9}) {
    ASSERT_TRUE(table_->Insert({Value::Int(id), Value::Int(20)}).ok());
  }
  auto slot_of = [&](int64_t id) {
    auto row_id = table_->LookupByPrimaryKey(Value::Int(id));
    EXPECT_TRUE(row_id.ok());
    return row_id.ok() ? static_cast<uint32_t>(*row_id) : 0u;
  };
  ASSERT_TRUE(table_->Delete(slot_of(7)).ok());
  auto by_v = MakeScan();
  by_v->filter = MakeComparison(CompareOp::kEq, MakeColumnRef(1, TypeId::kInt, "v"),
                                MakeLiteral(Value::Int(20)));
  // Drives the scan directly in `layout_ctx` and returns its rows (and, into
  // `slots` when given, each row's physical index); columnar batches must be
  // all views, and no batch may exceed the context's batch size.
  auto probe = [&](ExecContext* layout_ctx, std::vector<uint32_t>* slots) {
    SeqScanOp op(layout_ctx, {}, *by_v, table_);
    EXPECT_TRUE(op.Init().ok());
    std::vector<Row> out;
    ColumnBatch batch;
    while (true) {
      Result<bool> has = op.NextBatch(&batch);
      EXPECT_TRUE(has.ok()) << has.status().ToString();
      if (!has.ok() || !*has) break;
      EXPECT_LE(batch.size(), layout_ctx->batch_size());
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        EXPECT_EQ(batch.column(c).is_view(), layout_ctx->columnar()) << "column " << c;
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        if (slots != nullptr) slots->push_back(static_cast<uint32_t>(batch.PhysicalIndex(i)));
        out.push_back(batch.GetRow(i));
      }
    }
    return out;
  };
  // Batches of 2, so the three live candidates span two batches.
  ExecContext row_ctx(&catalog_, &session_);
  row_ctx.set_columnar(false);
  row_ctx.set_batch_size(2);
  const std::vector<Row> row_rows = probe(&row_ctx, nullptr);
  ExecContext col_ctx(&catalog_, &session_);
  col_ctx.set_batch_size(2);
  std::vector<uint32_t> col_slots;
  const std::vector<Row> col_rows = probe(&col_ctx, &col_slots);
  // The live candidates become the view batch's selection.
  EXPECT_EQ(col_slots, (std::vector<uint32_t>{slot_of(2), slot_of(8), slot_of(9)}));
  ASSERT_EQ(col_rows.size(), 3u);
  EXPECT_EQ(col_rows, row_rows);
  // rows_scanned counts live candidates only, in both layouts.
  EXPECT_EQ(col_ctx.stats().rows_scanned, 3u);
  EXPECT_EQ(row_ctx.stats().rows_scanned, 3u);

  // A scan exclusion on the probed table still removes its row.
  ExecContext excl_ctx(&catalog_, &session_);
  ScanExclusion ex;
  ex.table = "t";
  ex.column = 0;
  ex.value = Value::Int(8);
  excl_ctx.AddExclusion(ex);
  std::vector<uint32_t> excl_slots;
  const std::vector<Row> excl_rows = probe(&excl_ctx, &excl_slots);
  EXPECT_EQ(excl_slots, (std::vector<uint32_t>{slot_of(2), slot_of(9)}));
  ASSERT_EQ(excl_rows.size(), 2u);
  for (const Row& r : excl_rows) EXPECT_NE(r[0].AsInt(), 8);
  EXPECT_EQ(excl_ctx.stats().rows_scanned, 3u);
}

TEST_F(OperatorsTest, HashJoinSkipsNullKeys) {
  Schema rschema;
  rschema.AddColumn({"rid", "r", TypeId::kInt, false});
  auto rtable = catalog_.CreateTable("r", rschema, -1);
  ASSERT_TRUE(rtable.ok());
  ASSERT_TRUE((*rtable)->Insert({Value::Int(1)}).ok());
  ASSERT_TRUE((*rtable)->Insert({Value::Null()}).ok());

  auto left = MakeScan();
  auto right = std::make_shared<LogicalScan>();
  right->table_name = "r";
  right->alias = "r";
  right->schema = rschema;

  auto join = std::make_shared<LogicalJoin>();
  join->join_type = JoinType::kInner;
  join->schema = Schema::Concat(left->schema, right->schema);
  join->children = {left, right};
  join->condition = MakeComparison(CompareOp::kEq, MakeColumnRef(0, TypeId::kInt),
                                   MakeColumnRef(2, TypeId::kInt));
  // NULL keys never match.
  EXPECT_EQ(Run(*join).size(), 1u);
}

// Every executor hash lookup keys through one KeyIndex: hash join, GROUP BY,
// DISTINCT and the IN subquery. Each is checked here against a brute-force
// oracle under Value::Compare, over hand-filled tables whose column 0 tags
// the rows and whose next columns hold the keys.
class KeyOracleTest : public OperatorsTest {
 protected:
  static constexpr int64_t kWide = 5'000'000'000;  // beyond int32, exact as a double
  // Beyond 2^53: Value::Compare widens it to the double 2^53, so it equals
  // Double(2^53) without being that double's int64 value.
  static constexpr int64_t kInexact = (int64_t{1} << 53) + 1;

  std::shared_ptr<LogicalScan> Fill(const std::vector<Row>& rows) {
    const std::string name = "k" + std::to_string(tables_++);
    Schema schema;
    for (size_t c = 0; c < rows.front().size(); ++c) {
      schema.AddColumn({"c" + std::to_string(c), name, TypeId::kInt, true});
    }
    auto table = catalog_.CreateTable(name, schema, -1);
    EXPECT_TRUE(table.ok());
    for (const Row& row : rows) EXPECT_TRUE((*table)->Insert(row).ok());
    auto scan = std::make_shared<LogicalScan>();
    scan->table_name = name;
    scan->alias = name;
    scan->schema = schema;
    return scan;
  }

  // `n` rows tagged from `tag0` with `nkeys` key columns. The first `fast`
  // rows draw only int32-range ints (the int64 path); the rest also draw
  // integral and fractional doubles, wide ints (one beyond 2^53), a string,
  // a bool and NULL, so an index migrates mid-stream and later ints must
  // find earlier slots.
  static std::vector<Row> Stream(size_t nkeys, size_t fast, size_t n, int64_t tag0,
                                 uint32_t seed) {
    const std::vector<Value> ints = {Value::Int(-7), Value::Int(0), Value::Int(1),
                                     Value::Int(2), Value::Int(3)};
    const std::vector<Value> mixed = {
        Value::Int(1),
        Value::Int(2),
        Value::Int(-7),
        Value::Double(2.0),
        Value::Double(-7.0),
        Value::Double(2.5),
        Value::Int(kWide),
        Value::Double(static_cast<double>(kWide)),
        Value::Int(kInexact),
        Value::Double(static_cast<double>(kInexact)),
        Value::String("2"),
        Value::Bool(true),
        Value::Null()};
    std::mt19937 rng(seed);
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      const std::vector<Value>& pool = i < fast ? ints : mixed;
      Row row = {Value::Int(tag0 + static_cast<int64_t>(i))};
      for (size_t k = 0; k < nkeys; ++k) row.push_back(pool[rng() % pool.size()]);
      rows.push_back(std::move(row));
    }
    return rows;
  }

  // Key columns [1, 1 + nkeys) of `a` and `b` compare equal; NULL equals
  // NULL only when `null_matches` (grouping), never for SQL equality.
  static bool KeysEqual(const Row& a, const Row& b, size_t nkeys, bool null_matches) {
    for (size_t k = 1; k <= nkeys; ++k) {
      if (!null_matches && (a[k].is_null() || b[k].is_null())) return false;
      if (Value::Compare(a[k], b[k]) != 0) return false;
    }
    return true;
  }

  // The same value of the same type (a group keeps its first-seen key).
  static bool Identical(const Value& a, const Value& b) {
    return a.type() == b.type() && Value::Compare(a, b) == 0;
  }

  static std::vector<std::pair<int64_t, int64_t>> Tags(const std::vector<Row>& rows,
                                                       size_t right_tag) {
    std::vector<std::pair<int64_t, int64_t>> tags;
    for (const Row& row : rows) tags.emplace_back(row[0].AsInt(), row[right_tag].AsInt());
    std::sort(tags.begin(), tags.end());
    return tags;
  }

  // Inner join on key columns 1..nkeys of each side, as a bag of tag pairs.
  // `probe` is the left (probe) input, `build` the right (build) input.
  void ExpectJoinMatchesOracle(const std::vector<Row>& probe, const std::vector<Row>& build,
                               size_t nkeys) {
    auto join = std::make_shared<LogicalJoin>();
    join->join_type = JoinType::kInner;
    join->children = {Fill(probe), Fill(build)};
    join->schema = Schema::Concat(join->children[0]->schema, join->children[1]->schema);
    const size_t width = probe.front().size();
    std::vector<ExprPtr> keys;
    for (size_t k = 1; k <= nkeys; ++k) {
      keys.push_back(MakeComparison(CompareOp::kEq,
                                    MakeColumnRef(static_cast<int>(k), TypeId::kInt),
                                    MakeColumnRef(static_cast<int>(width + k), TypeId::kInt)));
    }
    join->condition = CombineConjuncts(std::move(keys));

    std::vector<std::pair<int64_t, int64_t>> expected;
    for (const Row& l : probe) {
      for (const Row& r : build) {
        if (KeysEqual(l, r, nkeys, false)) expected.emplace_back(l[0].AsInt(), r[0].AsInt());
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(Tags(Run(*join), width), expected);
  }

  // GROUP BY key columns 1..nkeys with COUNT(*) and SUM(tag): one row per
  // group, keyed by its first-seen key, in first-seen order.
  void ExpectGroupByMatchesOracle(const std::vector<Row>& rows, size_t nkeys) {
    auto agg = std::make_shared<LogicalAggregate>();
    agg->children = {Fill(rows)};
    for (size_t k = 1; k <= nkeys; ++k) {
      agg->group_exprs.push_back(MakeColumnRef(static_cast<int>(k), TypeId::kInt));
      agg->schema.AddColumn({"c" + std::to_string(k), "", TypeId::kInt, true});
    }
    AggregateSpec count;
    count.name = "n";
    agg->aggregates.push_back(std::move(count));
    AggregateSpec sum;
    sum.kind = AggKind::kSum;
    sum.arg = MakeColumnRef(0, TypeId::kInt);
    sum.name = "tags";
    agg->aggregates.push_back(std::move(sum));
    agg->schema.AddColumn({"n", "", TypeId::kInt, false});
    agg->schema.AddColumn({"tags", "", TypeId::kInt, true});

    std::vector<Row> groups;  // first-seen key row, count, tag sum
    std::vector<std::pair<int64_t, int64_t>> totals;
    for (const Row& row : rows) {
      size_t g = 0;
      while (g < groups.size() && !KeysEqual(groups[g], row, nkeys, true)) ++g;
      if (g == groups.size()) {
        groups.push_back(row);
        totals.emplace_back(0, 0);
      }
      totals[g].first++;
      totals[g].second += row[0].AsInt();
    }
    const std::vector<Row> out = Run(*agg);
    ASSERT_EQ(out.size(), groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      for (size_t k = 0; k < nkeys; ++k) {
        EXPECT_TRUE(Identical(out[g][k], groups[g][k + 1]))
            << "group " << g << ": " << RowToString(out[g]) << " vs "
            << RowToString(groups[g]);
      }
      EXPECT_EQ(out[g][nkeys].AsInt(), totals[g].first) << "group " << g;
      EXPECT_EQ(out[g][nkeys + 1].AsInt(), totals[g].second) << "group " << g;
    }
  }

  // DISTINCT over key columns 1..nkeys: each key's first occurrence, in
  // input order.
  void ExpectDistinctMatchesOracle(const std::vector<Row>& rows, size_t nkeys) {
    auto keys = std::make_shared<LogicalProject>();
    keys->children = {Fill(rows)};
    for (size_t k = 1; k <= nkeys; ++k) {
      keys->exprs.push_back(MakeColumnRef(static_cast<int>(k), TypeId::kInt));
      keys->schema.AddColumn({"c" + std::to_string(k), "", TypeId::kInt, true});
    }
    auto distinct = std::make_shared<LogicalDistinct>();
    distinct->schema = keys->schema;
    distinct->children = {keys};

    std::vector<Row> firsts;
    for (const Row& row : rows) {
      bool seen = false;
      for (const Row& f : firsts) seen = seen || KeysEqual(f, row, nkeys, true);
      if (!seen) firsts.push_back(row);
    }
    const std::vector<Row> out = Run(*distinct);
    ASSERT_EQ(out.size(), firsts.size());
    for (size_t i = 0; i < firsts.size(); ++i) {
      for (size_t k = 0; k < nkeys; ++k) {
        EXPECT_TRUE(Identical(out[i][k], firsts[i][k + 1]))
            << "row " << i << ": " << RowToString(out[i]) << " vs " << RowToString(firsts[i]);
      }
    }
  }

  // `c1 [NOT] IN (SELECT c1 FROM set)` for every probe row, three-valued:
  // NULL for a NULL probe, or for no match against a set holding a NULL.
  void ExpectInMatchesOracle(const std::vector<Row>& probe, const std::vector<Row>& set,
                             bool negated) {
    auto values = std::make_shared<LogicalProject>();
    values->children = {Fill(set)};
    values->exprs.push_back(MakeColumnRef(1, TypeId::kInt));
    values->schema.AddColumn({"c1", "", TypeId::kInt, true});
    auto in = std::make_unique<Expr>(ExprKind::kSubquery);
    in->result_type = TypeId::kBool;
    in->subquery_kind = SubqueryKind::kIn;
    in->negated = negated;
    in->subquery_plan = values;
    in->children.push_back(MakeColumnRef(1, TypeId::kInt));
    auto project = std::make_shared<LogicalProject>();
    project->children = {Fill(probe)};
    project->exprs.push_back(MakeColumnRef(0, TypeId::kInt));
    project->exprs.push_back(std::move(in));
    project->schema.AddColumn({"tag", "", TypeId::kInt, false});
    project->schema.AddColumn({"in", "", TypeId::kBool, true});

    const std::vector<Row> out = Run(*project);
    ASSERT_EQ(out.size(), probe.size());
    for (size_t i = 0; i < probe.size(); ++i) {
      const Value& p = probe[i][1];
      bool found = false;
      bool set_has_null = false;
      for (const Row& s : set) {
        set_has_null = set_has_null || s[1].is_null();
        found = found || (!s[1].is_null() && Value::Compare(p, s[1]) == 0);
      }
      Value expected = Value::Bool(negated);
      if (p.is_null() || (!found && set_has_null)) {
        expected = Value::Null();
      } else if (found) {
        expected = Value::Bool(!negated);
      }
      EXPECT_TRUE(Identical(out[i][1], expected))
          << p.ToString() << (negated ? " NOT IN" : " IN") << ": got "
          << out[i][1].ToString() << ", want " << expected.ToString();
    }
  }

  int tables_ = 0;
};

// Two-key hash joins `l.a = r.a AND l.b = r.b` on hand-picked keys.
class PairKeyJoinTest : public KeyOracleTest {
 protected:
  void ExpectMatchesOracle(const std::vector<Row>& probe, const std::vector<Row>& build) {
    ExpectJoinMatchesOracle(probe, build, 2);
  }
};

TEST_F(PairKeyJoinTest, NullInEitherKeyComponentNeverMatches) {
  ExpectMatchesOracle(
      {{Value::Int(1), Value::Int(1), Value::Int(2)},
       {Value::Int(2), Value::Null(), Value::Int(2)},
       {Value::Int(3), Value::Int(1), Value::Null()}},
      {{Value::Int(10), Value::Int(1), Value::Int(2)},
       {Value::Int(11), Value::Null(), Value::Int(2)},
       {Value::Int(12), Value::Int(1), Value::Null()},
       {Value::Int(13), Value::Null(), Value::Null()}});
}

TEST_F(PairKeyJoinTest, ComponentOutsideInt32DegradesMidBuild) {
  // The int32-packable rows come first, so the build starts on the packed
  // path and migrates its entries to the generic table at the wide key.
  const int64_t wide = int64_t{1} << 40;
  ExpectMatchesOracle(
      {{Value::Int(1), Value::Int(1), Value::Int(2)},
       {Value::Int(2), Value::Int(3), Value::Int(-4)},
       {Value::Int(3), Value::Int(5), Value::Int(wide)},
       {Value::Int(4), Value::Int(INT32_MIN), Value::Int(INT32_MAX)},
       {Value::Int(5), Value::Int(1), Value::Int(wide + 2)}},
      {{Value::Int(10), Value::Int(1), Value::Int(2)},
       {Value::Int(11), Value::Int(3), Value::Int(-4)},
       {Value::Int(12), Value::Int(INT32_MIN), Value::Int(INT32_MAX)},
       {Value::Int(13), Value::Int(5), Value::Int(wide)},
       {Value::Int(14), Value::Int(1), Value::Int(2)}});
  // A wide probe key against an all-packable build matches nothing.
  ExpectMatchesOracle(
      {{Value::Int(1), Value::Int(wide), Value::Int(2)},
       {Value::Int(2), Value::Int(1), Value::Int(2)}},
      {{Value::Int(10), Value::Int(1), Value::Int(2)},
       {Value::Int(11), Value::Int(static_cast<int32_t>(wide)), Value::Int(2)}});
}

TEST_F(PairKeyJoinTest, IntAndDoubleKeysCompareEqual) {
  // Doubles on the probe side: integral ones find their Int build keys,
  // fractional and out-of-range ones find nothing.
  ExpectMatchesOracle(
      {{Value::Int(1), Value::Double(1.0), Value::Int(2)},
       {Value::Int(2), Value::Int(1), Value::Double(2.5)},
       {Value::Int(3), Value::Double(3.0), Value::Double(-4.0)},
       {Value::Int(4), Value::Double(1e12), Value::Int(2)},
       {Value::Int(5), Value::String("1"), Value::Int(2)}},
      {{Value::Int(10), Value::Int(1), Value::Int(2)},
       {Value::Int(11), Value::Int(3), Value::Int(-4)}});
  // A Double on the build side degrades to the generic table, which keeps
  // the same equality.
  ExpectMatchesOracle(
      {{Value::Int(1), Value::Int(1), Value::Int(2)},
       {Value::Int(2), Value::Int(3), Value::Int(-4)}},
      {{Value::Int(10), Value::Int(1), Value::Int(2)},
       {Value::Int(11), Value::Double(3.0), Value::Int(-4)}});
}

TEST_F(PairKeyJoinTest, DuplicateBuildKeysAllMatch) {
  ExpectMatchesOracle(
      {{Value::Int(1), Value::Int(7), Value::Int(8)},
       {Value::Int(2), Value::Int(7), Value::Int(8)},
       {Value::Int(3), Value::Int(8), Value::Int(7)}},
      {{Value::Int(10), Value::Int(7), Value::Int(8)},
       {Value::Int(11), Value::Int(7), Value::Int(8)},
       {Value::Int(12), Value::Int(7), Value::Int(8)},
       {Value::Int(13), Value::Int(8), Value::Int(7)}});
}

TEST_F(KeyOracleTest, OneAndTwoKeyJoins) {
  for (size_t nkeys : {1u, 2u}) {
    SCOPED_TRACE("keys " + std::to_string(nkeys));
    const std::vector<Row> probe = Stream(nkeys, 8, 64, 0, 1);
    // An all-int build stays on the int64 path for every probe, integral
    // doubles included; a mixed build migrates mid-build.
    ExpectJoinMatchesOracle(probe, Stream(nkeys, 48, 48, 1000, 2), nkeys);
    ExpectJoinMatchesOracle(probe, Stream(nkeys, 12, 48, 1000, 3), nkeys);
  }
  // An int beyond 2^53 is the only build key off the int64 path, and it
  // equals the double it widens to.
  const Value inexact_double = Value::Double(static_cast<double>(kInexact));
  ExpectJoinMatchesOracle({{Value::Int(1), inexact_double}, {Value::Int(2), Value::Int(3)}},
                          {{Value::Int(10), Value::Int(3)}, {Value::Int(11), Value::Int(kInexact)}},
                          1);
}

TEST_F(KeyOracleTest, OneAndTwoExpressionGroupBy) {
  for (size_t nkeys : {1u, 2u}) {
    SCOPED_TRACE("keys " + std::to_string(nkeys));
    ExpectGroupByMatchesOracle(Stream(nkeys, 64, 64, 0, 4), nkeys);
    for (uint32_t seed : {5u, 6u, 7u}) {
      ExpectGroupByMatchesOracle(Stream(nkeys, 10, 80, 0, seed), nkeys);
    }
  }
  // A NULL group and a double key arriving after the int64 path started.
  ExpectGroupByMatchesOracle({{Value::Int(1), Value::Int(7)},
                              {Value::Int(2), Value::Null()},
                              {Value::Int(3), Value::Int(7)},
                              {Value::Int(4), Value::Double(7.0)},
                              {Value::Int(5), Value::Null()},
                              {Value::Int(6), Value::Int(8)},
                              {Value::Int(7), Value::Double(8.0)}},
                             1);
}

TEST_F(KeyOracleTest, Distinct) {
  for (size_t nkeys : {1u, 2u, 3u}) {
    SCOPED_TRACE("keys " + std::to_string(nkeys));
    ExpectDistinctMatchesOracle(Stream(nkeys, 64, 64, 0, 8), nkeys);
    ExpectDistinctMatchesOracle(Stream(nkeys, 10, 80, 0, 9), nkeys);
  }
}

TEST_F(KeyOracleTest, InAndNotInSubqueries) {
  std::vector<Row> probe = Stream(1, 0, 64, 0, 10);
  probe.push_back({Value::Int(64), Value::Double(static_cast<double>(kInexact))});
  // An all-int set (probed on the int64 path), a set that migrates
  // mid-build, one holding a NULL, and one whose only key off the int64
  // path is an int beyond 2^53.
  const std::vector<std::vector<Row>> sets = {
      Stream(1, 24, 24, 100, 11),
      Stream(1, 6, 24, 100, 12),
      {{Value::Int(100), Value::Int(2)}, {Value::Int(101), Value::Null()}},
      {{Value::Int(100), Value::Int(3)}, {Value::Int(101), Value::Int(kInexact)}}};
  for (size_t i = 0; i < sets.size(); ++i) {
    for (bool negated : {false, true}) {
      SCOPED_TRACE("set " + std::to_string(i) + (negated ? " NOT IN" : " IN"));
      ExpectInMatchesOracle(probe, sets[i], negated);
    }
  }
}

TEST_F(OperatorsTest, LeftJoinAgainstEmptyRightPadsAllRows) {
  Schema rschema;
  rschema.AddColumn({"rid", "r", TypeId::kInt, false});
  auto rtable = catalog_.CreateTable("r", rschema, -1);
  ASSERT_TRUE(rtable.ok());

  auto left = MakeScan();
  auto right = std::make_shared<LogicalScan>();
  right->table_name = "r";
  right->alias = "r";
  right->schema = rschema;

  auto join = std::make_shared<LogicalJoin>();
  join->join_type = JoinType::kLeft;
  join->schema = Schema::Concat(left->schema, right->schema);
  join->children = {left, right};
  join->condition = MakeComparison(CompareOp::kEq, MakeColumnRef(0, TypeId::kInt),
                                   MakeColumnRef(2, TypeId::kInt));
  std::vector<Row> rows = Run(*join);
  ASSERT_EQ(rows.size(), 6u);
  for (const Row& r : rows) {
    ASSERT_EQ(r.size(), 3u);
    EXPECT_TRUE(r[2].is_null());
  }
}

TEST_F(OperatorsTest, LimitWithOffset) {
  auto scan = MakeScan();
  auto limit = std::make_shared<LogicalLimit>();
  limit->limit = 2;
  limit->offset = 3;
  limit->schema = scan->schema;
  limit->children = {scan};
  std::vector<Row> rows = Run(*limit);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 4);
  EXPECT_EQ(rows[1][0].AsInt(), 5);
}

TEST_F(OperatorsTest, AuditOpWithoutRegistryIsPureNoOp) {
  SensitiveIdView view;
  view.Add(Value::Int(1));
  auto scan = MakeScan();
  auto audit = std::make_shared<LogicalAudit>();
  audit->audit_name = "e";
  audit->key_column = 0;
  audit->id_view = &view;
  audit->schema = scan->schema;
  audit->children = {scan};
  // No registry installed: rows still flow, nothing is recorded, no crash.
  EXPECT_EQ(Run(*audit).size(), 6u);
}

TEST_F(OperatorsTest, AuditOpRecordsHitsAndCountsRows) {
  SensitiveIdView view;
  view.Add(Value::Int(2));
  view.Add(Value::Int(5));
  auto scan = MakeScan();
  auto audit = std::make_shared<LogicalAudit>();
  audit->audit_name = "e";
  audit->key_column = 0;
  audit->id_view = &view;
  audit->schema = scan->schema;
  audit->children = {scan};

  ExecContext ctx(&catalog_, &session_);
  AccessedStateRegistry registry;
  ctx.set_accessed(&registry);
  EXPECT_EQ(Run(*audit, &ctx).size(), 6u);
  const AccessedState* state = registry.Find("e");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->size(), 2u);
  EXPECT_TRUE(state->Contains(Value::Int(2)));
  EXPECT_EQ(ctx.stats().rows_through_audit_ops, 6u);
  EXPECT_EQ(ctx.stats().audit_probe_hits, 2u);
}

TEST_F(OperatorsTest, AuditOpIgnoresNullKeys) {
  Schema nschema;
  nschema.AddColumn({"k", "n", TypeId::kInt, false});
  auto ntable = catalog_.CreateTable("n", nschema, -1);
  ASSERT_TRUE(ntable.ok());
  ASSERT_TRUE((*ntable)->Insert({Value::Null()}).ok());
  ASSERT_TRUE((*ntable)->Insert({Value::Int(1)}).ok());

  SensitiveIdView view;
  view.Add(Value::Int(1));
  auto scan = std::make_shared<LogicalScan>();
  scan->table_name = "n";
  scan->alias = "n";
  scan->schema = nschema;
  auto audit = std::make_shared<LogicalAudit>();
  audit->audit_name = "e";
  audit->key_column = 0;
  audit->id_view = &view;
  audit->schema = nschema;
  audit->children = {scan};

  ExecContext ctx(&catalog_, &session_);
  AccessedStateRegistry registry;
  ctx.set_accessed(&registry);
  Run(*audit, &ctx);
  EXPECT_EQ(registry.Find("e")->size(), 1u);
}

TEST_F(OperatorsTest, AuditAboveHashJoinScreensTypedJoinOutput) {
  // hcn placement: the audit operator reads the join's output, whose owned
  // columns are typed by the join's schema. The Bloom screen over them must
  // skip exactly the batches a per-Value screen (Value::Hash) would, and
  // ACCESSED must hold exactly the sensitive keys that flowed.
  Schema rschema;
  rschema.AddColumn({"rid", "r", TypeId::kInt, false});
  auto rtable = catalog_.CreateTable("r", rschema, -1);
  ASSERT_TRUE(rtable.ok());
  for (int64_t i = 1; i <= 6; ++i) ASSERT_TRUE((*rtable)->Insert({Value::Int(i)}).ok());

  SensitiveIdView view;
  view.Add(Value::Int(5));
  for (int64_t id = 1000; id < 1020; ++id) view.Add(Value::Int(id));
  const BloomFilter* screen = view.Screen();
  ASSERT_NE(screen, nullptr);

  auto right = std::make_shared<LogicalScan>();
  right->table_name = "r";
  right->alias = "r";
  right->schema = rschema;
  auto join = std::make_shared<LogicalJoin>();
  join->join_type = JoinType::kInner;
  join->schema = Schema::Concat(table_->schema(), rschema);
  join->children = {MakeScan(), right};
  join->condition = MakeComparison(CompareOp::kEq, MakeColumnRef(0, TypeId::kInt),
                                   MakeColumnRef(2, TypeId::kInt));
  auto audit = std::make_shared<LogicalAudit>();
  audit->audit_name = "e";
  audit->key_column = 0;
  audit->id_view = &view;
  audit->schema = join->schema;
  audit->children = {join};

  ExecContext ctx(&catalog_, &session_);
  ctx.set_batch_size(2);
  AccessedStateRegistry registry;
  ctx.set_accessed(&registry);
  const std::vector<Row> rows = Run(*audit, &ctx);
  ASSERT_EQ(rows.size(), 6u);
  // The join emits t's rows in scan order, two per batch.
  uint64_t expected_prescreened = 0;
  for (size_t b = 0; b < rows.size(); b += 2) {
    if (!screen->MayContain(static_cast<uint64_t>(rows[b][0].Hash())) &&
        !screen->MayContain(static_cast<uint64_t>(rows[b + 1][0].Hash()))) {
      ++expected_prescreened;
    }
  }
  EXPECT_GT(expected_prescreened, 0u);
  EXPECT_EQ(ctx.stats().audit_batches_prescreened, expected_prescreened);
  EXPECT_EQ(ctx.stats().rows_through_audit_ops, 6u);
  const AccessedState* state = registry.Find("e");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->size(), 1u);
  EXPECT_TRUE(state->Contains(Value::Int(5)));
}

TEST_F(OperatorsTest, DistinctDeduplicatesNulls) {
  Schema nschema;
  nschema.AddColumn({"k", "n", TypeId::kInt, false});
  auto ntable = catalog_.CreateTable("n", nschema, -1);
  ASSERT_TRUE(ntable.ok());
  ASSERT_TRUE((*ntable)->Insert({Value::Null()}).ok());
  ASSERT_TRUE((*ntable)->Insert({Value::Null()}).ok());
  ASSERT_TRUE((*ntable)->Insert({Value::Int(1)}).ok());

  auto scan = std::make_shared<LogicalScan>();
  scan->table_name = "n";
  scan->alias = "n";
  scan->schema = nschema;
  auto distinct = std::make_shared<LogicalDistinct>();
  distinct->schema = nschema;
  distinct->children = {scan};
  EXPECT_EQ(Run(*distinct).size(), 2u);
}

TEST_F(OperatorsTest, SortDescendingWithNullsFirstInTotalOrder) {
  Schema nschema;
  nschema.AddColumn({"k", "n", TypeId::kInt, false});
  auto ntable = catalog_.CreateTable("n", nschema, -1);
  ASSERT_TRUE(ntable.ok());
  ASSERT_TRUE((*ntable)->Insert({Value::Int(2)}).ok());
  ASSERT_TRUE((*ntable)->Insert({Value::Null()}).ok());
  ASSERT_TRUE((*ntable)->Insert({Value::Int(7)}).ok());

  auto scan = std::make_shared<LogicalScan>();
  scan->table_name = "n";
  scan->alias = "n";
  scan->schema = nschema;
  auto sort = std::make_shared<LogicalSort>();
  sort->keys.push_back(SortKey{MakeColumnRef(0, TypeId::kInt), false});
  sort->schema = nschema;
  sort->children = {scan};
  std::vector<Row> rows = Run(*sort);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt(), 7);
  EXPECT_EQ(rows[1][0].AsInt(), 2);
  EXPECT_TRUE(rows[2][0].is_null());  // NULL sorts first ascending, last desc
}

TEST_F(OperatorsTest, ValuesOperatorEvaluatesExpressions) {
  auto values = std::make_shared<LogicalValues>();
  values->schema.AddColumn({"x", "", TypeId::kInt, false});
  std::vector<ExprPtr> row1;
  row1.push_back(MakeArith(ArithOp::kAdd, MakeLiteral(Value::Int(1)),
                           MakeLiteral(Value::Int(2))));
  values->rows.push_back(std::move(row1));
  std::vector<Row> rows = Run(*values);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 3);
}

}  // namespace
}  // namespace seltrig
