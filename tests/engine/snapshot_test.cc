#include "engine/snapshot.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/table.h"

namespace seltrig {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("seltrig_snap_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Saves a one-table snapshot, then replaces t.csv with `csv` as a hand
  // edit would, and returns the status of loading it into a fresh database.
  Status LoadEditedSnapshot(const std::string& csv) {
    Database original;
    EXPECT_TRUE(original.Execute("CREATE TABLE t (id INT PRIMARY KEY, d DOUBLE)").ok());
    EXPECT_TRUE(SaveSnapshot(&original, dir_.string()).ok());
    std::ofstream(dir_ / "t.csv", std::ios::trunc) << csv;
    Database restored;
    return LoadSnapshot(&restored, dir_.string());
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotTest, RoundTripPreservesDataAndTypes) {
  Database original;
  ASSERT_TRUE(original.ExecuteScript(R"sql(
    CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR,
                           bal DOUBLE, joined DATE, active BOOLEAN);
    INSERT INTO patients VALUES
      (1, 'Alice', 10.25, DATE '2020-02-29', TRUE),
      (2, 'comma, quote" and
newline', -0.5, NULL, FALSE),
      (3, NULL, NULL, DATE '1995-03-15', NULL);
    CREATE TABLE empty_table (x INT, y VARCHAR);
  )sql").ok());
  ASSERT_TRUE(SaveSnapshot(&original, dir_.string()).ok());

  Database restored;
  ASSERT_TRUE(LoadSnapshot(&restored, dir_.string()).ok());

  auto a = original.Execute("SELECT * FROM patients ORDER BY patientid");
  auto b = restored.Execute("SELECT * FROM patients ORDER BY patientid");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->rows.size(), b->rows.size());
  for (size_t i = 0; i < a->rows.size(); ++i) {
    EXPECT_TRUE(RowEq{}(a->rows[i], b->rows[i])) << "row " << i;
  }
  // Schema survived, including the primary key (duplicate insert rejected).
  EXPECT_FALSE(restored.Execute("INSERT INTO patients VALUES (1, 'x', 0, NULL, TRUE)")
                   .ok());
  // Empty tables round-trip too.
  auto empty = restored.Execute("SELECT COUNT(*) FROM empty_table");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->rows[0][0].AsInt(), 0);
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST_F(SnapshotTest, DoublesRoundTripBitForBit) {
  const std::vector<double> values = {173665.47, 0.1234567891, 1e-300, -0.0,
                                      9007199254740994.0 /* 2^53 + 2 */};
  Database original;
  ASSERT_TRUE(original.Execute("CREATE TABLE t (id INT PRIMARY KEY, d DOUBLE)").ok());
  Table* source = original.catalog()->GetTable("t").value();
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(source->Insert({Value::Int(static_cast<int64_t>(i)),
                                Value::Double(values[i])}).ok());
  }
  ASSERT_TRUE(SaveSnapshot(&original, dir_.string()).ok());

  Database restored;
  ASSERT_TRUE(LoadSnapshot(&restored, dir_.string()).ok());
  Table* table = restored.catalog()->GetTable("t").value();
  ASSERT_EQ(table->live_row_count(), values.size());
  for (size_t row_id = 0; row_id < table->slot_count(); ++row_id) {
    const Row row = table->GetRow(row_id);
    const double expected = values[static_cast<size_t>(row[0].AsInt())];
    ASSERT_EQ(row[1].type(), TypeId::kDouble);
    EXPECT_EQ(Bits(row[1].AsDouble()), Bits(expected)) << RowToString(row);
  }
}

TEST_F(SnapshotTest, EmptyStringStaysDistinctFromNull) {
  Database original;
  ASSERT_TRUE(original.ExecuteScript(R"sql(
    CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR);
    INSERT INTO t VALUES (1, ''), (2, NULL);
  )sql").ok());
  ASSERT_TRUE(SaveSnapshot(&original, dir_.string()).ok());

  Database restored;
  ASSERT_TRUE(LoadSnapshot(&restored, dir_.string()).ok());
  auto r = restored.Execute("SELECT id, s IS NULL FROM t ORDER BY id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_FALSE(r->rows[0][1].AsBool());
  EXPECT_TRUE(r->rows[1][1].AsBool());
}

TEST_F(SnapshotTest, LoadErrorsNameTheFileAndRecord) {
  struct Case {
    const char* csv;
    const char* detail;
  };
  for (const Case& c : {Case{"id,d\n1,1.5\nx,2\n", "is not an INT"},
                        Case{"id,d\n1,1.5\n2\n", "has 1 fields"},
                        Case{"id,d\n1,1.5\n1,2.5\n", "duplicate primary key"}}) {
    Status status = LoadEditedSnapshot(c.csv);
    ASSERT_FALSE(status.ok()) << c.csv;
    EXPECT_NE(status.message().find("t.csv: CSV record 3: "), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find(c.detail), std::string::npos) << status.message();
  }
}

TEST_F(SnapshotTest, AuditPolicyReappliesOverRestoredData) {
  Database original;
  ASSERT_TRUE(original.ExecuteScript(R"sql(
    CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR);
    INSERT INTO patients VALUES (1, 'Alice'), (2, 'Bob');
  )sql").ok());
  ASSERT_TRUE(SaveSnapshot(&original, dir_.string()).ok());

  Database restored;
  ASSERT_TRUE(LoadSnapshot(&restored, dir_.string()).ok());
  // Policy is applied post-load; the ID view materializes from restored data.
  ASSERT_TRUE(restored.Execute(
      "CREATE AUDIT EXPRESSION e AS SELECT * FROM patients WHERE name = 'Alice' "
      "FOR SENSITIVE TABLE patients PARTITION BY patientid").ok());
  EXPECT_EQ(restored.audit_manager()->Find("e")->view().size(), 1u);
}

TEST_F(SnapshotTest, LoadIntoConflictingCatalogFails) {
  Database original;
  ASSERT_TRUE(original.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(SaveSnapshot(&original, dir_.string()).ok());
  Database conflicting;
  ASSERT_TRUE(conflicting.Execute("CREATE TABLE t (x INT)").ok());
  EXPECT_FALSE(LoadSnapshot(&conflicting, dir_.string()).ok());
}

TEST_F(SnapshotTest, MissingDirectoryReported) {
  Database db;
  EXPECT_FALSE(LoadSnapshot(&db, (dir_ / "nope").string()).ok());
}

}  // namespace
}  // namespace seltrig
