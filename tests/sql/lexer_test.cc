#include "sql/lexer.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace seltrig {
namespace {

std::vector<Token> MustTokenize(const std::string& sql) {
  auto r = Tokenize(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : std::vector<Token>{};
}

TEST(LexerTest, KeywordsAndIdentifiers) {
  auto toks = MustTokenize("SELECT name FROM Patients");
  ASSERT_EQ(toks.size(), 5u);  // incl. EOF
  EXPECT_EQ(toks[0].type, TokenType::kKeyword);
  EXPECT_EQ(toks[0].text, "select");
  EXPECT_EQ(toks[1].type, TokenType::kIdentifier);
  EXPECT_EQ(toks[1].text, "name");
  EXPECT_EQ(toks[3].text, "patients");
  EXPECT_EQ(toks[4].type, TokenType::kEof);
}

TEST(LexerTest, Numbers) {
  auto toks = MustTokenize("1 42 3.14 1e3 2.5E-2");
  EXPECT_EQ(toks[0].type, TokenType::kInteger);
  EXPECT_EQ(toks[0].int_value, 1);
  EXPECT_EQ(toks[1].int_value, 42);
  EXPECT_EQ(toks[2].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(toks[2].float_value, 3.14);
  EXPECT_DOUBLE_EQ(toks[3].float_value, 1000.0);
  EXPECT_DOUBLE_EQ(toks[4].float_value, 0.025);
}

TEST(LexerTest, IntegerLiteralRange) {
  auto toks = MustTokenize("9223372036854775807 9223372036854775808");
  EXPECT_EQ(toks[0].int_value, INT64_MAX);
  // 2^63 fits only negated; the token carries it as INT64_MIN for the parser.
  EXPECT_EQ(toks[1].type, TokenType::kInteger);
  EXPECT_EQ(toks[1].int_value, INT64_MIN);
  // Beyond 2^63 is a parse error, not a saturated INT64_MAX.
  for (const char* sql : {"SELECT 9223372036854775809", "SELECT 99999999999999999999"}) {
    auto r = Tokenize(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), ErrorCode::kParseError);
    EXPECT_NE(r.status().message().find("integer literal out of range"), std::string::npos);
  }
}

TEST(LexerTest, Strings) {
  auto toks = MustTokenize("'hello' 'it''s'");
  EXPECT_EQ(toks[0].type, TokenType::kString);
  EXPECT_EQ(toks[0].text, "hello");
  EXPECT_EQ(toks[1].text, "it's");
}

TEST(LexerTest, UnterminatedString) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, Operators) {
  auto toks = MustTokenize("= <> != < <= > >= + - * /");
  EXPECT_EQ(toks[0].text, "=");
  EXPECT_EQ(toks[1].text, "<>");
  EXPECT_EQ(toks[2].text, "<>");  // != normalizes
  EXPECT_EQ(toks[3].text, "<");
  EXPECT_EQ(toks[4].text, "<=");
  EXPECT_EQ(toks[5].text, ">");
  EXPECT_EQ(toks[6].text, ">=");
}

TEST(LexerTest, Punctuation) {
  auto toks = MustTokenize("(a, b.c);");
  EXPECT_EQ(toks[0].type, TokenType::kLParen);
  EXPECT_EQ(toks[2].type, TokenType::kComma);
  EXPECT_EQ(toks[4].type, TokenType::kDot);
  EXPECT_EQ(toks[6].type, TokenType::kRParen);
  EXPECT_EQ(toks[7].type, TokenType::kSemicolon);
}

TEST(LexerTest, LineComments) {
  auto toks = MustTokenize("SELECT -- this is a comment\n 1");
  EXPECT_EQ(toks[0].text, "select");
  EXPECT_EQ(toks[1].type, TokenType::kInteger);
}

TEST(LexerTest, CommentVsMinus) {
  auto toks = MustTokenize("1 - 2");
  EXPECT_EQ(toks[1].type, TokenType::kOperator);
  EXPECT_EQ(toks[1].text, "-");
}

TEST(LexerTest, UnexpectedCharacter) {
  EXPECT_FALSE(Tokenize("SELECT @x").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

TEST(LexerTest, EmptyInputYieldsEof) {
  auto toks = MustTokenize("   ");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].type, TokenType::kEof);
}

TEST(LexerTest, IsKeyword) {
  EXPECT_TRUE(IsKeyword("select"));
  EXPECT_TRUE(IsKeyword("exists"));
  EXPECT_FALSE(IsKeyword("custkey"));
}

}  // namespace
}  // namespace seltrig
