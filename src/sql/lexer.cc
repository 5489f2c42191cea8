#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <unordered_set>

#include "common/string_util.h"

namespace seltrig {

namespace {

const std::unordered_set<std::string>& KeywordSet() {
  static const auto* kKeywords = new std::unordered_set<std::string>{
      "select", "distinct", "top",       "from",      "where",     "group",
      "by",     "having",   "order",     "asc",       "desc",      "limit",
      "offset", "as",       "and",       "or",        "not",       "in",
      "exists", "between",  "like",      "is",        "null",      "true",
      "false",  "case",     "when",      "then",      "else",      "end",
      "join",   "inner",    "left",      "outer",     "on",        "insert",
      "into",   "values",   "update",    "set",       "delete",    "create",
      "table",  "primary",  "key",       "drop",      "trigger",   "audit",
      "expression",         "for",       "sensitive", "partition", "access",
      "to",     "after",    "date",      "if",        "notify",    "begin",
      "before", "raise",  "explain",
  };
  return *kKeywords;
}

}  // namespace

bool IsKeyword(const std::string& word) { return KeywordSet().count(word) > 0; }

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();

  auto error_at = [&](size_t pos, const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(pos));
  };

  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comments
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.position = static_cast<int>(i);

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) || sql[i] == '_')) {
        ++i;
      }
      tok.text = ToLower(sql.substr(start, i - start));
      tok.type = IsKeyword(tok.text) ? TokenType::kKeyword : TokenType::kIdentifier;
      tokens.push_back(std::move(tok));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        is_float = true;
        ++i;
        if (i < n && (sql[i] == '+' || sql[i] == '-')) ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      std::string text = sql.substr(start, i - start);
      if (is_float) {
        tok.type = TokenType::kFloat;
        tok.float_value = std::strtod(text.c_str(), nullptr);
      } else {
        tok.type = TokenType::kInteger;
        uint64_t magnitude = 0;
        const std::from_chars_result parsed =
            std::from_chars(text.data(), text.data() + text.size(), magnitude);
        if (parsed.ec != std::errc() || magnitude > uint64_t{1} << 63) {
          return error_at(tok.position, "integer literal out of range: " + text);
        }
        // 2^63 wraps to INT64_MIN, which the parser accepts only negated.
        tok.int_value = static_cast<int64_t>(magnitude);
      }
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }

    if (c == '\'') {
      ++i;
      std::string body;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            body += '\'';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        body += sql[i];
        ++i;
      }
      if (!closed) return error_at(tok.position, "unterminated string literal");
      tok.type = TokenType::kString;
      tok.text = std::move(body);
      tokens.push_back(std::move(tok));
      continue;
    }

    switch (c) {
      case '(':
        tok.type = TokenType::kLParen;
        ++i;
        break;
      case ')':
        tok.type = TokenType::kRParen;
        ++i;
        break;
      case ',':
        tok.type = TokenType::kComma;
        ++i;
        break;
      case '.':
        tok.type = TokenType::kDot;
        ++i;
        break;
      case ';':
        tok.type = TokenType::kSemicolon;
        ++i;
        break;
      case '=':
        tok.type = TokenType::kOperator;
        tok.text = "=";
        ++i;
        break;
      case '+':
      case '*':
      case '/':
      case '-':
        tok.type = TokenType::kOperator;
        tok.text = std::string(1, c);
        ++i;
        break;
      case '<':
        tok.type = TokenType::kOperator;
        ++i;
        if (i < n && sql[i] == '=') {
          tok.text = "<=";
          ++i;
        } else if (i < n && sql[i] == '>') {
          tok.text = "<>";
          ++i;
        } else {
          tok.text = "<";
        }
        break;
      case '>':
        tok.type = TokenType::kOperator;
        ++i;
        if (i < n && sql[i] == '=') {
          tok.text = ">=";
          ++i;
        } else {
          tok.text = ">";
        }
        break;
      case '!':
        ++i;
        if (i < n && sql[i] == '=') {
          tok.type = TokenType::kOperator;
          tok.text = "<>";
          ++i;
        } else {
          return error_at(tok.position, "unexpected character '!'");
        }
        break;
      default:
        return error_at(tok.position, std::string("unexpected character '") + c + "'");
    }
    tokens.push_back(std::move(tok));
  }

  Token eof;
  eof.type = TokenType::kEof;
  eof.position = static_cast<int>(n);
  tokens.push_back(std::move(eof));
  return tokens;
}

}  // namespace seltrig
