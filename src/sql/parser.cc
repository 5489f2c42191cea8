#include "sql/parser.h"

#include <cstdint>
#include <unordered_set>
#include <utility>

#include "types/date.h"

namespace seltrig {

namespace ast {
Expression::~Expression() = default;
Statement::~Statement() = default;
}  // namespace ast

namespace {

using ast::ExprNode;
using ast::ExprType;
using ast::Expression;
using ast::StatementPtr;

// Keywords that may also appear as identifiers (column/table/trigger names);
// notably "date", since audit-log tables conventionally carry a Date column,
// and "notify", the paper's example trigger name.
const std::unordered_set<std::string>& SoftKeywords() {
  static const auto* kSoft = new std::unordered_set<std::string>{
      "date",      "key",   "access", "to",     "top",
      "partition", "after", "expression", "notify",
  };
  return *kSoft;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const std::string& sql)
      : tokens_(std::move(tokens)), sql_(sql) {}

  Result<StatementPtr> ParseSingleStatement() {
    SELTRIG_ASSIGN_OR_RETURN(StatementPtr stmt, ParseSpannedStatement());
    while (Check(TokenType::kSemicolon)) Advance();
    if (!Check(TokenType::kEof)) {
      return Error("unexpected trailing input");
    }
    return stmt;
  }

  Result<std::vector<StatementPtr>> ParseScript() {
    std::vector<StatementPtr> stmts;
    while (Check(TokenType::kSemicolon)) Advance();
    while (!Check(TokenType::kEof)) {
      SELTRIG_ASSIGN_OR_RETURN(StatementPtr stmt, ParseSpannedStatement());
      stmts.push_back(std::move(stmt));
      bool saw_semi = false;
      while (Check(TokenType::kSemicolon)) {
        Advance();
        saw_semi = true;
      }
      if (!saw_semi && !Check(TokenType::kEof)) {
        return Error("expected ';' between statements");
      }
    }
    return stmts;
  }

 private:
  // Parses one statement and records its source span (first token up to the
  // terminating semicolon / end of input) in Statement::source.
  Result<StatementPtr> ParseSpannedStatement() {
    size_t begin = static_cast<size_t>(Peek().position);
    SELTRIG_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement());
    size_t end = static_cast<size_t>(Peek().position);
    if (begin <= end && end <= sql_.size()) {
      std::string span = sql_.substr(begin, end - begin);
      while (!span.empty() && (span.back() == ' ' || span.back() == '\t' ||
                               span.back() == '\n' || span.back() == '\r')) {
        span.pop_back();
      }
      stmt->source = std::move(span);
    }
    return stmt;
  }

  // --- token helpers --------------------------------------------------------
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    if (i >= tokens_.size()) return tokens_.back();
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool Check(TokenType t) const { return Peek().type == t; }
  bool CheckKeyword(const std::string& kw, int ahead = 0) const {
    return Peek(ahead).type == TokenType::kKeyword && Peek(ahead).text == kw;
  }
  bool MatchKeyword(const std::string& kw) {
    if (CheckKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool CheckOperator(const std::string& op) const {
    return Peek().type == TokenType::kOperator && Peek().text == op;
  }
  bool MatchOperator(const std::string& op) {
    if (CheckOperator(op)) {
      Advance();
      return true;
    }
    return false;
  }
  bool Match(TokenType t) {
    if (Check(t)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " (near offset " +
                              std::to_string(Peek().position) + ", token '" +
                              Peek().text + "')");
  }
  // Consumes an unsigned integer literal; 2^63 (INT64_MIN, see Token) is out
  // of range here.
  Result<int64_t> TakeInteger() {
    if (Peek().int_value == INT64_MIN) return Error("integer literal out of range");
    return Advance().int_value;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!MatchKeyword(kw)) return Error("expected '" + kw + "'");
    return Status::OK();
  }
  Status Expect(TokenType t, const std::string& what) {
    if (!Match(t)) return Error("expected " + what);
    return Status::OK();
  }
  // An identifier, also accepting soft keywords.
  Result<std::string> ParseIdentifier(const std::string& what) {
    if (Check(TokenType::kIdentifier) ||
        (Check(TokenType::kKeyword) && SoftKeywords().count(Peek().text) > 0)) {
      return Advance().text;
    }
    return Error("expected " + what);
  }
  bool CheckIdentifierLike() const {
    return Check(TokenType::kIdentifier) ||
           (Check(TokenType::kKeyword) && SoftKeywords().count(Peek().text) > 0);
  }
  // Statement words that are not reserved keywords (ALTER, ADD, COLUMN,
  // RENAME, RETYPE, DEFAULT tokenize as plain identifiers): matched by text
  // regardless of token class, so they stay usable as ordinary identifiers
  // everywhere else.
  bool CheckWord(const std::string& w, int ahead = 0) const {
    const Token& t = Peek(ahead);
    return (t.type == TokenType::kIdentifier || t.type == TokenType::kKeyword) &&
           t.text == w;
  }
  bool MatchWord(const std::string& w) {
    if (CheckWord(w)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectWord(const std::string& w) {
    if (!MatchWord(w)) return Error("expected '" + w + "'");
    return Status::OK();
  }

  // --- statements -----------------------------------------------------------
  Result<StatementPtr> ParseStatement() {
    if (CheckKeyword("select")) {
      auto wrapper = std::make_unique<ast::SelectWrapper>();
      SELTRIG_ASSIGN_OR_RETURN(wrapper->select, ParseSelect());
      return StatementPtr(std::move(wrapper));
    }
    if (CheckKeyword("insert")) return ParseInsert();
    if (CheckKeyword("update")) return ParseUpdate();
    if (CheckKeyword("delete")) return ParseDelete();
    if (CheckKeyword("create")) return ParseCreate();
    if (CheckKeyword("drop")) return ParseDrop();
    if (CheckKeyword("if")) return ParseIf();
    if (CheckKeyword("notify")) return ParseNotify();
    if (CheckKeyword("raise")) return ParseRaise();
    if (CheckKeyword("explain")) {
      Advance();
      auto stmt = std::make_unique<ast::ExplainStatement>();
      SELTRIG_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
      return StatementPtr(std::move(stmt));
    }
    // ALTER is not a reserved keyword; dispatch on the word so that no
    // existing identifier use changes meaning.
    if (CheckWord("alter")) return ParseAlterTable();
    return Error("expected a statement");
  }

  Result<std::unique_ptr<ast::SelectStatement>> ParseSelect() {
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("select"));
    auto select = std::make_unique<ast::SelectStatement>();
    if (MatchKeyword("distinct")) select->distinct = true;
    if (MatchKeyword("top")) {
      if (!Check(TokenType::kInteger)) return Error("expected integer after TOP");
      SELTRIG_ASSIGN_OR_RETURN(select->limit, TakeInteger());
    }
    // Select list.
    while (true) {
      ast::SelectItem item;
      if (CheckOperator("*")) {
        Advance();
        item.is_star = true;
      } else if (CheckIdentifierLike() && Peek(1).type == TokenType::kDot &&
                 Peek(2).type == TokenType::kOperator && Peek(2).text == "*") {
        item.is_star = true;
        item.star_qualifier = Advance().text;
        Advance();  // dot
        Advance();  // star
      } else {
        SELTRIG_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("as")) {
          SELTRIG_ASSIGN_OR_RETURN(item.alias, ParseIdentifier("alias"));
        } else if (CheckIdentifierLike()) {
          item.alias = Advance().text;
        }
      }
      select->items.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
    // FROM.
    if (MatchKeyword("from")) {
      while (true) {
        SELTRIG_ASSIGN_OR_RETURN(ast::FromClause fc, ParseFromClause());
        select->from.push_back(std::move(fc));
        if (!Match(TokenType::kComma)) break;
      }
    }
    if (MatchKeyword("where")) {
      SELTRIG_ASSIGN_OR_RETURN(select->where, ParseExpr());
    }
    if (MatchKeyword("group")) {
      SELTRIG_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        SELTRIG_ASSIGN_OR_RETURN(ExprNode e, ParseExpr());
        select->group_by.push_back(std::move(e));
        if (!Match(TokenType::kComma)) break;
      }
    }
    if (MatchKeyword("having")) {
      SELTRIG_ASSIGN_OR_RETURN(select->having, ParseExpr());
    }
    if (MatchKeyword("order")) {
      SELTRIG_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        ast::OrderByItem item;
        SELTRIG_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("desc")) {
          item.ascending = false;
        } else {
          MatchKeyword("asc");
        }
        select->order_by.push_back(std::move(item));
        if (!Match(TokenType::kComma)) break;
      }
    }
    if (MatchKeyword("limit")) {
      if (select->limit >= 0) return Error("both TOP and LIMIT specified");
      if (!Check(TokenType::kInteger)) return Error("expected integer after LIMIT");
      SELTRIG_ASSIGN_OR_RETURN(select->limit, TakeInteger());
    }
    return select;
  }

  Result<ast::TableRef> ParseTableRef() {
    ast::TableRef ref;
    if (Check(TokenType::kLParen)) {
      Advance();
      SELTRIG_ASSIGN_OR_RETURN(ref.derived, ParseSelect());
      SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      MatchKeyword("as");
      SELTRIG_ASSIGN_OR_RETURN(ref.alias, ParseIdentifier("derived table alias"));
      return ref;
    }
    SELTRIG_ASSIGN_OR_RETURN(ref.table, ParseIdentifier("table name"));
    if (MatchKeyword("as")) {
      SELTRIG_ASSIGN_OR_RETURN(ref.alias, ParseIdentifier("table alias"));
    } else if (CheckIdentifierLike()) {
      ref.alias = Advance().text;
    } else {
      ref.alias = ref.table;
    }
    return ref;
  }

  Result<ast::FromClause> ParseFromClause() {
    ast::FromClause fc;
    SELTRIG_ASSIGN_OR_RETURN(fc.base, ParseTableRef());
    while (CheckKeyword("join") || CheckKeyword("inner") || CheckKeyword("left")) {
      ast::JoinClause join;
      if (MatchKeyword("left")) {
        MatchKeyword("outer");
        join.kind = ast::JoinClause::Kind::kLeft;
      } else {
        MatchKeyword("inner");
        join.kind = ast::JoinClause::Kind::kInner;
      }
      SELTRIG_RETURN_IF_ERROR(ExpectKeyword("join"));
      SELTRIG_ASSIGN_OR_RETURN(join.table, ParseTableRef());
      SELTRIG_RETURN_IF_ERROR(ExpectKeyword("on"));
      SELTRIG_ASSIGN_OR_RETURN(join.condition, ParseExpr());
      fc.joins.push_back(std::move(join));
    }
    return fc;
  }

  Result<StatementPtr> ParseInsert() {
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("insert"));
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("into"));
    auto stmt = std::make_unique<ast::InsertStatement>();
    SELTRIG_ASSIGN_OR_RETURN(stmt->table, ParseIdentifier("table name"));
    if (Check(TokenType::kLParen)) {
      Advance();
      while (true) {
        SELTRIG_ASSIGN_OR_RETURN(std::string col, ParseIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
        if (!Match(TokenType::kComma)) break;
      }
      SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    if (MatchKeyword("values")) {
      while (true) {
        SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
        std::vector<ExprNode> row;
        while (true) {
          SELTRIG_ASSIGN_OR_RETURN(ExprNode e, ParseExpr());
          row.push_back(std::move(e));
          if (!Match(TokenType::kComma)) break;
        }
        SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        stmt->values_rows.push_back(std::move(row));
        if (!Match(TokenType::kComma)) break;
      }
    } else if (CheckKeyword("select")) {
      SELTRIG_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    } else {
      return Error("expected VALUES or SELECT in INSERT");
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseUpdate() {
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("update"));
    auto stmt = std::make_unique<ast::UpdateStatement>();
    SELTRIG_ASSIGN_OR_RETURN(stmt->table, ParseIdentifier("table name"));
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("set"));
    while (true) {
      SELTRIG_ASSIGN_OR_RETURN(std::string col, ParseIdentifier("column name"));
      if (!MatchOperator("=")) return Error("expected '=' in SET clause");
      SELTRIG_ASSIGN_OR_RETURN(ExprNode e, ParseExpr());
      stmt->assignments.emplace_back(std::move(col), std::move(e));
      if (!Match(TokenType::kComma)) break;
    }
    if (MatchKeyword("where")) {
      SELTRIG_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDelete() {
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("delete"));
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("from"));
    auto stmt = std::make_unique<ast::DeleteStatement>();
    SELTRIG_ASSIGN_OR_RETURN(stmt->table, ParseIdentifier("table name"));
    if (MatchKeyword("where")) {
      SELTRIG_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreate() {
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("create"));
    if (MatchKeyword("table")) return ParseCreateTable();
    if (MatchKeyword("audit")) {
      SELTRIG_RETURN_IF_ERROR(ExpectKeyword("expression"));
      return ParseCreateAuditExpression();
    }
    if (MatchKeyword("trigger")) return ParseCreateTrigger();
    return Error("expected TABLE, AUDIT EXPRESSION or TRIGGER after CREATE");
  }

  Result<TypeId> ParseColumnType() {
    SELTRIG_ASSIGN_OR_RETURN(std::string t, ParseIdentifier("column type"));
    // Optional (p[, s]) length/precision, accepted and ignored.
    if (Check(TokenType::kLParen)) {
      Advance();
      while (!Check(TokenType::kRParen) && !Check(TokenType::kEof)) Advance();
      SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    if (t == "int" || t == "integer" || t == "bigint" || t == "smallint") {
      return TypeId::kInt;
    }
    if (t == "double" || t == "float" || t == "decimal" || t == "numeric" || t == "real") {
      return TypeId::kDouble;
    }
    if (t == "varchar" || t == "char" || t == "text" || t == "string") {
      return TypeId::kString;
    }
    if (t == "date") return TypeId::kDate;
    if (t == "boolean" || t == "bool") return TypeId::kBool;
    return Status::ParseError("unknown column type: " + t);
  }

  Result<StatementPtr> ParseCreateTable() {
    auto stmt = std::make_unique<ast::CreateTableStatement>();
    SELTRIG_ASSIGN_OR_RETURN(stmt->table, ParseIdentifier("table name"));
    SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    while (true) {
      ast::ColumnDef col;
      SELTRIG_ASSIGN_OR_RETURN(col.name, ParseIdentifier("column name"));
      SELTRIG_ASSIGN_OR_RETURN(col.type, ParseColumnType());
      if (MatchKeyword("primary")) {
        SELTRIG_RETURN_IF_ERROR(ExpectKeyword("key"));
        col.primary_key = true;
      }
      stmt->columns.push_back(std::move(col));
      if (!Match(TokenType::kComma)) break;
    }
    SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreateAuditExpression() {
    auto stmt = std::make_unique<ast::CreateAuditExpressionStatement>();
    SELTRIG_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("audit expression name"));
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("as"));
    SELTRIG_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("for"));
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("sensitive"));
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("table"));
    SELTRIG_ASSIGN_OR_RETURN(stmt->sensitive_table, ParseIdentifier("sensitive table"));
    Match(TokenType::kComma);  // optional comma before PARTITION BY
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("partition"));
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("by"));
    SELTRIG_ASSIGN_OR_RETURN(stmt->partition_by, ParseIdentifier("partition column"));
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreateTrigger() {
    auto stmt = std::make_unique<ast::CreateTriggerStatement>();
    SELTRIG_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("trigger name"));
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("on"));
    if (MatchKeyword("access")) {
      SELTRIG_RETURN_IF_ERROR(ExpectKeyword("to"));
      stmt->is_select_trigger = true;
      SELTRIG_ASSIGN_OR_RETURN(stmt->audit_expression,
                               ParseIdentifier("audit expression name"));
      if (MatchKeyword("before")) stmt->before = true;
    } else {
      SELTRIG_ASSIGN_OR_RETURN(stmt->table, ParseIdentifier("table name"));
      SELTRIG_RETURN_IF_ERROR(ExpectKeyword("after"));
      if (MatchKeyword("insert")) {
        stmt->event = ast::DmlEvent::kInsert;
      } else if (MatchKeyword("update")) {
        stmt->event = ast::DmlEvent::kUpdate;
      } else if (MatchKeyword("delete")) {
        stmt->event = ast::DmlEvent::kDelete;
      } else {
        return Error("expected INSERT, UPDATE or DELETE after AFTER");
      }
    }
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("as"));
    bool block = MatchKeyword("begin");
    while (true) {
      SELTRIG_ASSIGN_OR_RETURN(StatementPtr action, ParseSpannedStatement());
      stmt->actions.push_back(std::move(action));
      while (Match(TokenType::kSemicolon)) {
      }
      if (block) {
        if (MatchKeyword("end")) break;
        if (Check(TokenType::kEof)) return Error("expected END");
      } else {
        if (Check(TokenType::kEof)) break;
      }
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDrop() {
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("drop"));
    if (MatchKeyword("table")) {
      auto stmt = std::make_unique<ast::DropStatement>(ast::StatementKind::kDropTable);
      SELTRIG_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("table name"));
      return StatementPtr(std::move(stmt));
    }
    if (MatchKeyword("trigger")) {
      auto stmt = std::make_unique<ast::DropStatement>(ast::StatementKind::kDropTrigger);
      SELTRIG_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("trigger name"));
      return StatementPtr(std::move(stmt));
    }
    if (MatchKeyword("audit")) {
      SELTRIG_RETURN_IF_ERROR(ExpectKeyword("expression"));
      auto stmt =
          std::make_unique<ast::DropStatement>(ast::StatementKind::kDropAuditExpression);
      SELTRIG_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("audit expression name"));
      return StatementPtr(std::move(stmt));
    }
    return Error("expected TABLE, TRIGGER or AUDIT EXPRESSION after DROP");
  }

  // ALTER TABLE t <action> [, <action> ...]
  //   ADD    [COLUMN] name type [DEFAULT expr]
  //   DROP   [COLUMN] name
  //   RENAME [COLUMN] name TO new_name
  //   RETYPE [COLUMN] name [TO] type
  Result<StatementPtr> ParseAlterTable() {
    SELTRIG_RETURN_IF_ERROR(ExpectWord("alter"));
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("table"));
    auto stmt = std::make_unique<ast::AlterTableStatement>();
    SELTRIG_ASSIGN_OR_RETURN(stmt->table, ParseIdentifier("table name"));
    while (true) {
      ast::AlterTableStatement::Action action;
      if (MatchWord("add")) {
        action.kind = ast::AlterTableStatement::Action::Kind::kAdd;
        MatchWord("column");
        SELTRIG_ASSIGN_OR_RETURN(action.name, ParseIdentifier("column name"));
        SELTRIG_ASSIGN_OR_RETURN(action.type, ParseColumnType());
        if (MatchWord("default")) {
          SELTRIG_ASSIGN_OR_RETURN(action.default_value, ParseExpr());
        }
      } else if (MatchKeyword("drop")) {
        action.kind = ast::AlterTableStatement::Action::Kind::kDrop;
        MatchWord("column");
        SELTRIG_ASSIGN_OR_RETURN(action.name, ParseIdentifier("column name"));
      } else if (MatchWord("rename")) {
        action.kind = ast::AlterTableStatement::Action::Kind::kRename;
        MatchWord("column");
        SELTRIG_ASSIGN_OR_RETURN(action.name, ParseIdentifier("column name"));
        SELTRIG_RETURN_IF_ERROR(ExpectKeyword("to"));
        SELTRIG_ASSIGN_OR_RETURN(action.new_name, ParseIdentifier("new column name"));
      } else if (MatchWord("retype")) {
        action.kind = ast::AlterTableStatement::Action::Kind::kRetype;
        MatchWord("column");
        SELTRIG_ASSIGN_OR_RETURN(action.name, ParseIdentifier("column name"));
        MatchKeyword("to");
        SELTRIG_ASSIGN_OR_RETURN(action.type, ParseColumnType());
      } else {
        return Error("expected ADD, DROP, RENAME or RETYPE");
      }
      stmt->actions.push_back(std::move(action));
      if (!Match(TokenType::kComma)) break;
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseIf() {
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("if"));
    auto stmt = std::make_unique<ast::IfStatement>();
    // The condition is an ordinary (usually parenthesized) expression; this
    // also admits the paper's `IF (SELECT ... ) NOTIFY ...` form, where the
    // condition is a boolean scalar subquery.
    SELTRIG_ASSIGN_OR_RETURN(stmt->condition, ParseExpr());
    MatchKeyword("then");
    SELTRIG_ASSIGN_OR_RETURN(stmt->then_branch, ParseSpannedStatement());
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseNotify() {
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("notify"));
    auto stmt = std::make_unique<ast::NotifyStatement>();
    SELTRIG_ASSIGN_OR_RETURN(stmt->message, ParseExpr());
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseRaise() {
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("raise"));
    auto stmt = std::make_unique<ast::RaiseStatement>();
    SELTRIG_ASSIGN_OR_RETURN(stmt->message, ParseExpr());
    return StatementPtr(std::move(stmt));
  }

  // --- expressions ----------------------------------------------------------
  Result<ExprNode> ParseExpr() { return ParseOr(); }

  Result<ExprNode> ParseOr() {
    SELTRIG_ASSIGN_OR_RETURN(ExprNode lhs, ParseAnd());
    while (MatchKeyword("or")) {
      SELTRIG_ASSIGN_OR_RETURN(ExprNode rhs, ParseAnd());
      lhs = MakeBinary("or", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprNode> ParseAnd() {
    SELTRIG_ASSIGN_OR_RETURN(ExprNode lhs, ParseNot());
    while (MatchKeyword("and")) {
      SELTRIG_ASSIGN_OR_RETURN(ExprNode rhs, ParseNot());
      lhs = MakeBinary("and", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprNode> ParseNot() {
    // NOT EXISTS is a primary form (negated existential), not a NOT wrapper.
    if (CheckKeyword("not") && CheckKeyword("exists", 1)) {
      return ParseComparison();
    }
    if (MatchKeyword("not")) {
      SELTRIG_ASSIGN_OR_RETURN(ExprNode operand, ParseNot());
      auto e = std::make_unique<Expression>(ExprType::kUnaryOp);
      e->op = "not";
      e->children.push_back(std::move(operand));
      return e;
    }
    return ParseComparison();
  }

  Result<ExprNode> ParseComparison() {
    SELTRIG_ASSIGN_OR_RETURN(ExprNode lhs, ParseAdditive());
    // Postfix predicates: IS [NOT] NULL, [NOT] BETWEEN/IN/LIKE.
    while (true) {
      if (CheckKeyword("is")) {
        Advance();
        bool negated = MatchKeyword("not");
        SELTRIG_RETURN_IF_ERROR(ExpectKeyword("null"));
        auto e = std::make_unique<Expression>(ExprType::kIsNull);
        e->negated = negated;
        e->children.push_back(std::move(lhs));
        lhs = std::move(e);
        continue;
      }
      bool negated = false;
      if (CheckKeyword("not") &&
          (CheckKeyword("between", 1) || CheckKeyword("in", 1) || CheckKeyword("like", 1))) {
        Advance();
        negated = true;
      }
      if (MatchKeyword("between")) {
        SELTRIG_ASSIGN_OR_RETURN(ExprNode lo, ParseAdditive());
        SELTRIG_RETURN_IF_ERROR(ExpectKeyword("and"));
        SELTRIG_ASSIGN_OR_RETURN(ExprNode hi, ParseAdditive());
        auto e = std::make_unique<Expression>(ExprType::kBetween);
        e->negated = negated;
        e->children.push_back(std::move(lhs));
        e->children.push_back(std::move(lo));
        e->children.push_back(std::move(hi));
        lhs = std::move(e);
        continue;
      }
      if (MatchKeyword("in")) {
        SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after IN"));
        if (CheckKeyword("select")) {
          auto e = std::make_unique<Expression>(ExprType::kInSubquery);
          e->negated = negated;
          e->children.push_back(std::move(lhs));
          SELTRIG_ASSIGN_OR_RETURN(e->subquery, ParseSelect());
          SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          lhs = std::move(e);
        } else {
          auto e = std::make_unique<Expression>(ExprType::kInList);
          e->negated = negated;
          e->children.push_back(std::move(lhs));
          while (true) {
            SELTRIG_ASSIGN_OR_RETURN(ExprNode item, ParseExpr());
            e->children.push_back(std::move(item));
            if (!Match(TokenType::kComma)) break;
          }
          SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          lhs = std::move(e);
        }
        continue;
      }
      if (MatchKeyword("like")) {
        SELTRIG_ASSIGN_OR_RETURN(ExprNode pattern, ParseAdditive());
        auto e = std::make_unique<Expression>(ExprType::kLike);
        e->negated = negated;
        e->children.push_back(std::move(lhs));
        e->children.push_back(std::move(pattern));
        lhs = std::move(e);
        continue;
      }
      if (negated) return Error("expected BETWEEN, IN or LIKE after NOT");
      break;
    }
    // Binary comparisons (non-associative chain, applied left to right).
    while (Check(TokenType::kOperator) &&
           (Peek().text == "=" || Peek().text == "<>" || Peek().text == "<" ||
            Peek().text == "<=" || Peek().text == ">" || Peek().text == ">=")) {
      std::string op = Advance().text;
      SELTRIG_ASSIGN_OR_RETURN(ExprNode rhs, ParseAdditive());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprNode> ParseAdditive() {
    SELTRIG_ASSIGN_OR_RETURN(ExprNode lhs, ParseMultiplicative());
    while (CheckOperator("+") || CheckOperator("-")) {
      std::string op = Advance().text;
      SELTRIG_ASSIGN_OR_RETURN(ExprNode rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprNode> ParseMultiplicative() {
    SELTRIG_ASSIGN_OR_RETURN(ExprNode lhs, ParseUnary());
    while (CheckOperator("*") || CheckOperator("/")) {
      std::string op = Advance().text;
      SELTRIG_ASSIGN_OR_RETURN(ExprNode rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprNode> ParseUnary() {
    if (MatchOperator("-")) {
      if (Check(TokenType::kInteger) && Peek().int_value == INT64_MIN) {
        // -9223372036854775808: the one literal whose magnitude fits int64
        // only negated.
        auto e = std::make_unique<Expression>(ExprType::kIntLiteral);
        e->int_value = Advance().int_value;
        return ExprNode(std::move(e));
      }
      SELTRIG_ASSIGN_OR_RETURN(ExprNode operand, ParseUnary());
      auto e = std::make_unique<Expression>(ExprType::kUnaryOp);
      e->op = "-";
      e->children.push_back(std::move(operand));
      return e;
    }
    if (MatchOperator("+")) return ParseUnary();
    return ParsePrimary();
  }

  Result<ExprNode> ParsePrimary() {
    // Literals.
    if (Check(TokenType::kInteger)) {
      auto e = std::make_unique<Expression>(ExprType::kIntLiteral);
      SELTRIG_ASSIGN_OR_RETURN(e->int_value, TakeInteger());
      return ExprNode(std::move(e));
    }
    if (Check(TokenType::kFloat)) {
      auto e = std::make_unique<Expression>(ExprType::kFloatLiteral);
      e->float_value = Advance().float_value;
      return ExprNode(std::move(e));
    }
    if (Check(TokenType::kString)) {
      auto e = std::make_unique<Expression>(ExprType::kStringLiteral);
      e->string_value = Advance().text;
      return ExprNode(std::move(e));
    }
    if (CheckKeyword("null")) {
      Advance();
      return ExprNode(std::make_unique<Expression>(ExprType::kNullLiteral));
    }
    if (CheckKeyword("true") || CheckKeyword("false")) {
      auto e = std::make_unique<Expression>(ExprType::kBoolLiteral);
      e->bool_value = Advance().text == "true";
      return ExprNode(std::move(e));
    }
    // DATE 'yyyy-mm-dd' (the keyword is soft, so only treat it as a literal
    // prefix when followed by a string).
    if (CheckKeyword("date") && Peek(1).type == TokenType::kString) {
      Advance();
      std::string text = Advance().text;
      SELTRIG_ASSIGN_OR_RETURN(int32_t days, ParseDate(text));
      auto e = std::make_unique<Expression>(ExprType::kDateLiteral);
      e->int_value = days;
      return ExprNode(std::move(e));
    }
    if (MatchKeyword("case")) return ParseCase();
    if (CheckKeyword("exists") ||
        (CheckKeyword("not") && CheckKeyword("exists", 1))) {
      bool negated = MatchKeyword("not");
      SELTRIG_RETURN_IF_ERROR(ExpectKeyword("exists"));
      SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after EXISTS"));
      auto e = std::make_unique<Expression>(ExprType::kExists);
      e->negated = negated;
      SELTRIG_ASSIGN_OR_RETURN(e->subquery, ParseSelect());
      SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return ExprNode(std::move(e));
    }
    if (Check(TokenType::kLParen)) {
      Advance();
      if (CheckKeyword("select")) {
        auto e = std::make_unique<Expression>(ExprType::kScalarSubquery);
        SELTRIG_ASSIGN_OR_RETURN(e->subquery, ParseSelect());
        SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return ExprNode(std::move(e));
      }
      SELTRIG_ASSIGN_OR_RETURN(ExprNode inner, ParseExpr());
      SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return inner;
    }
    // Identifier: column ref, qualified column ref, or function call.
    if (CheckIdentifierLike()) {
      std::string first = Advance().text;
      if (Check(TokenType::kLParen)) {
        Advance();
        auto e = std::make_unique<Expression>(ExprType::kFunctionCall);
        e->name = first;
        if (CheckOperator("*")) {
          Advance();
          e->children.push_back(std::make_unique<Expression>(ExprType::kStar));
        } else if (!Check(TokenType::kRParen)) {
          if (MatchKeyword("distinct")) e->distinct = true;
          while (true) {
            SELTRIG_ASSIGN_OR_RETURN(ExprNode arg, ParseExpr());
            e->children.push_back(std::move(arg));
            if (!Match(TokenType::kComma)) break;
          }
        }
        SELTRIG_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return ExprNode(std::move(e));
      }
      auto e = std::make_unique<Expression>(ExprType::kColumnRef);
      if (Check(TokenType::kDot)) {
        Advance();
        e->qualifier = first;
        SELTRIG_ASSIGN_OR_RETURN(e->name, ParseIdentifier("column name"));
      } else {
        e->name = first;
      }
      return ExprNode(std::move(e));
    }
    return Error("expected an expression");
  }

  Result<ExprNode> ParseCase() {
    auto e = std::make_unique<Expression>(ExprType::kCase);
    while (MatchKeyword("when")) {
      SELTRIG_ASSIGN_OR_RETURN(ExprNode when, ParseExpr());
      SELTRIG_RETURN_IF_ERROR(ExpectKeyword("then"));
      SELTRIG_ASSIGN_OR_RETURN(ExprNode then, ParseExpr());
      e->children.push_back(std::move(when));
      e->children.push_back(std::move(then));
    }
    if (e->children.empty()) return Error("CASE requires at least one WHEN");
    if (MatchKeyword("else")) {
      SELTRIG_ASSIGN_OR_RETURN(ExprNode els, ParseExpr());
      e->has_else = true;
      e->children.push_back(std::move(els));
    }
    SELTRIG_RETURN_IF_ERROR(ExpectKeyword("end"));
    return ExprNode(std::move(e));
  }

  static ExprNode MakeBinary(const std::string& op, ExprNode lhs, ExprNode rhs) {
    auto e = std::make_unique<Expression>(ExprType::kBinaryOp);
    e->op = op;
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }

  std::vector<Token> tokens_;
  const std::string& sql_;
  size_t pos_ = 0;
};

}  // namespace

Result<ast::StatementPtr> ParseSql(const std::string& sql) {
  SELTRIG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), sql);
  return parser.ParseSingleStatement();
}

Result<std::vector<ast::StatementPtr>> ParseSqlScript(const std::string& sql) {
  SELTRIG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), sql);
  return parser.ParseScript();
}

}  // namespace seltrig
