#include "common/csv.h"

#include <gtest/gtest.h>

namespace seltrig {
namespace {

TEST(CsvTest, SimpleFields) {
  auto r = ParseCsvLine("a,b,c");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, EmptyFields) {
  auto r = ParseCsvLine("a,,c,");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "", "c", ""}));
}

TEST(CsvTest, QuotedFields) {
  auto r = ParseCsvLine("\"hello, world\",\"say \"\"hi\"\"\",plain");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[0], "hello, world");
  EXPECT_EQ((*r)[1], "say \"hi\"");
  EXPECT_EQ((*r)[2], "plain");
}

TEST(CsvTest, ReportsWhichFieldsWereQuoted) {
  std::vector<bool> quoted;
  auto r = ParseCsvLine("a,\"\",,\"b\"", &quoted);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "", "", "b"}));
  EXPECT_EQ(quoted, (std::vector<bool>{false, true, false, true}));
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  EXPECT_FALSE(ParseCsvLine("\"oops,b").ok());
}

TEST(CsvTest, SplitRecordsHonorsQuotedNewlines) {
  std::vector<std::string> records =
      SplitCsvRecords("a,b\n\"multi\nline\",c\nlast,row\n");
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1], "\"multi\nline\",c");
}

TEST(CsvTest, SplitHandlesCrlf) {
  std::vector<std::string> records = SplitCsvRecords("a,b\r\nc,d\r\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "a,b");
  EXPECT_EQ(records[1], "c,d");
}

TEST(CsvTest, NoTrailingNewline) {
  std::vector<std::string> records = SplitCsvRecords("a,b\nc,d");
  EXPECT_EQ(records.size(), 2u);
}

}  // namespace
}  // namespace seltrig
