#include "engine/csv_loader.h"

#include <gtest/gtest.h>

#include <cmath>

namespace seltrig {
namespace {

class CsvLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(
        "CREATE TABLE people (id INT PRIMARY KEY, name VARCHAR, bal DOUBLE, "
        "joined DATE, active BOOLEAN)").ok());
  }

  Database db_;
};

TEST_F(CsvLoaderTest, LoadsTypedRows) {
  auto loaded = LoadCsvIntoTable(&db_, "people",
                                 "id,name,bal,joined,active\n"
                                 "1,Alice,10.5,2020-01-15,true\n"
                                 "2,\"Bob, Jr.\",-3.25,2021-06-30,false\n",
                                 /*has_header=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2);
  auto r = db_.Execute("SELECT name, bal, YEAR(joined), active FROM people "
                       "WHERE id = 2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsString(), "Bob, Jr.");
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), -3.25);
  EXPECT_EQ(r->rows[0][2].AsInt(), 2021);
  EXPECT_FALSE(r->rows[0][3].AsBool());
}

TEST_F(CsvLoaderTest, DoublesLoadExactly) {
  auto loaded = LoadCsvIntoTable(&db_, "people",
                                 "1,a,173665.47,,\n"
                                 "2,b,-0.0,,\n",
                                 /*has_header=*/false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto r = db_.Execute("SELECT bal FROM people ORDER BY id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsDouble(), 173665.47);  // exact, not within ULPs
  EXPECT_TRUE(std::signbit(r->rows[1][0].AsDouble()));
}

TEST_F(CsvLoaderTest, QuotedEmptyFieldIsAnEmptyString) {
  auto loaded = LoadCsvIntoTable(&db_, "people", "5,\"\",,,\n", /*has_header=*/false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto r = db_.Execute("SELECT name FROM people WHERE id = 5");
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->rows[0][0].is_null());
  EXPECT_EQ(r->rows[0][0].AsString(), "");
}

TEST_F(CsvLoaderTest, EmptyFieldsBecomeNull) {
  auto loaded = LoadCsvIntoTable(&db_, "people", "3,,,,\n", /*has_header=*/false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto r = db_.Execute("SELECT name, bal FROM people WHERE id = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows[0][0].is_null());
  EXPECT_TRUE(r->rows[0][1].is_null());
}

TEST_F(CsvLoaderTest, HeaderMismatchRejected) {
  EXPECT_FALSE(LoadCsvIntoTable(&db_, "people", "id,wrong,bal,joined,active\n1,a,1,,",
                                true).ok());
  EXPECT_FALSE(LoadCsvIntoTable(&db_, "people", "id,name\n1,a", true).ok());
}

TEST_F(CsvLoaderTest, TypeErrorsRejected) {
  EXPECT_FALSE(
      LoadCsvIntoTable(&db_, "people", "abc,x,1.0,2020-01-01,true", false).ok());
  EXPECT_FALSE(
      LoadCsvIntoTable(&db_, "people", "1,x,notanumber,2020-01-01,true", false).ok());
  EXPECT_FALSE(
      LoadCsvIntoTable(&db_, "people", "1,x,1.0,2020-13-01,true", false).ok());
  EXPECT_FALSE(  // out of INT range: rejected, not clamped
      LoadCsvIntoTable(&db_, "people", "99999999999999999999,x,1.0,,", false).ok());
}

TEST_F(CsvLoaderTest, QuotesInStringsSurviveRoundTrip) {
  auto loaded = LoadCsvIntoTable(&db_, "people",
                                 "4,\"O'Malley \"\"Big O\"\"\",0,2020-01-01,true\n",
                                 false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto r = db_.Execute("SELECT name FROM people WHERE id = 4");
  EXPECT_EQ(r->rows[0][0].AsString(), "O'Malley \"Big O\"");
}

TEST_F(CsvLoaderTest, LoadFiresTriggersAndMaintainsViews) {
  ASSERT_TRUE(db_.Execute(
      "CREATE AUDIT EXPRESSION rich AS SELECT * FROM people WHERE bal > 100.0 "
      "FOR SENSITIVE TABLE people PARTITION BY id").ok());
  ASSERT_TRUE(db_.Execute("CREATE TABLE inserts_seen (id INT)").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t ON people AFTER INSERT AS "
      "INSERT INTO inserts_seen VALUES (new.id)").ok());
  auto loaded = LoadCsvIntoTable(&db_, "people",
                                 "10,rich,500.0,2020-01-01,true\n"
                                 "11,poor,5.0,2020-01-01,true\n",
                                 false);
  ASSERT_TRUE(loaded.ok());
  auto seen = db_.Execute("SELECT COUNT(*) FROM inserts_seen");
  EXPECT_EQ(seen->rows[0][0].AsInt(), 2);
  EXPECT_EQ(db_.audit_manager()->Find("rich")->view().size(), 1u);
}

TEST_F(CsvLoaderTest, MissingFileReported) {
  EXPECT_FALSE(LoadCsvFileIntoTable(&db_, "people", "/nonexistent.csv", true).ok());
}

}  // namespace
}  // namespace seltrig
