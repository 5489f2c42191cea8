// SQL tokenizer. Identifiers and keywords are case-insensitive; identifiers
// are normalized to lower case.

#ifndef SELTRIG_SQL_LEXER_H_
#define SELTRIG_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace seltrig {

enum class TokenType : uint8_t {
  kIdentifier,
  kKeyword,  // normalized lower-case keyword in `text`
  kInteger,
  kFloat,
  kString,  // contents without quotes, '' unescaped
  kOperator,  // = <> != < <= > >= + - * /
  kLParen,
  kRParen,
  kComma,
  kDot,
  kSemicolon,
  kEof,
};

struct Token {
  TokenType type = TokenType::kEof;
  std::string text;   // identifier/keyword (lower-case), operator, or string body
  // kInteger: the literal's value. Literals are unsigned, and the lexer
  // rejects one above 2^63; 2^63 itself (9223372036854775808) is stored as
  // INT64_MIN and is in range only as the operand of a unary minus, which
  // the parser checks.
  int64_t int_value = 0;
  double float_value = 0.0;
  int position = 0;  // byte offset, for error messages
};

// Tokenizes `sql`. The token stream always ends with a kEof token.
Result<std::vector<Token>> Tokenize(const std::string& sql);

// True if `word` (lower-case) is a reserved SQL keyword in this dialect.
bool IsKeyword(const std::string& word);

}  // namespace seltrig

#endif  // SELTRIG_SQL_LEXER_H_
