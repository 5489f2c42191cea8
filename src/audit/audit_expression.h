// Audit expressions (Section II-A): declarative specifications of sensitive
// data, compiled to materialized sensitive-ID views (Section IV-A1) that are
// maintained incrementally under DML.

#ifndef SELTRIG_AUDIT_AUDIT_EXPRESSION_H_
#define SELTRIG_AUDIT_AUDIT_EXPRESSION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "expr/expr.h"
#include "sql/ast.h"
#include "storage/sensitive_id_view.h"

namespace seltrig {

// A registered audit expression: its defining query, the sensitive table, the
// partition-by key, and the compiled ID view.
class AuditExpressionDef {
 public:
  const std::string& name() const { return name_; }
  const std::string& sensitive_table() const { return sensitive_table_; }
  const std::string& partition_by() const { return partition_by_; }
  int partition_column() const { return partition_column_; }
  const SensitiveIdView& view() const { return view_; }
  SensitiveIdView* mutable_view() { return &view_; }

  // Bound predicate over the sensitive table's schema, or null when the
  // audit expression joins other tables (then only full rebuild maintenance
  // applies and the static auditor cannot reason about it).
  const Expr* single_table_predicate() const { return single_table_predicate_.get(); }

  // Lower-cased names of all tables referenced by the definition.
  const std::vector<std::string>& referenced_tables() const {
    return referenced_tables_;
  }

  // The CREATE AUDIT EXPRESSION statement's own SQL, as parsed (empty for
  // hand-built ASTs). Snapshots with include_policy and the journal replay
  // this text to restore the definition.
  const std::string& definition_sql() const { return definition_sql_; }

  // schema_version() of the sensitive table this definition is currently
  // bound against. Set at CREATE and refreshed by a successful
  // RebindAfterAlter; the shell surfaces it next to each trigger's bound
  // version.
  uint64_t bound_schema_version() const { return bound_schema_version_; }

 private:
  friend class AuditManager;

  std::string name_;
  std::string sensitive_table_;
  std::string partition_by_;
  std::string definition_sql_;
  uint64_t bound_schema_version_ = 0;
  int partition_column_ = -1;
  ExprPtr single_table_predicate_;
  std::vector<std::string> referenced_tables_;
  // The defining SELECT, rewritten to produce only the partition-by key.
  std::unique_ptr<ast::SelectStatement> id_select_;
  SensitiveIdView view_;
};

// Registry and maintenance engine for audit expressions.
class AuditManager {
 public:
  AuditManager(Catalog* catalog, SessionContext* session)
      : catalog_(catalog), session_(session) {}

  AuditManager(const AuditManager&) = delete;
  AuditManager& operator=(const AuditManager&) = delete;

  // Registers the audit expression and materializes its ID view.
  Status CreateAuditExpression(ast::CreateAuditExpressionStatement stmt);

  Status DropAuditExpression(const std::string& name);

  const AuditExpressionDef* Find(const std::string& name) const;
  AuditExpressionDef* FindMutable(const std::string& name);

  std::vector<const AuditExpressionDef*> All() const;

  // Incremental view maintenance, invoked by the Database after DML commits.
  // Single-table audit expressions are maintained per-row; expressions with
  // joins fall back to a full recompute when any referenced table changes.
  Status OnInsert(const std::string& table, const Row& row);
  Status OnDelete(const std::string& table, const Row& row);
  Status OnUpdate(const std::string& table, const Row& old_row, const Row& new_row);

  // Recomputes the view from scratch by executing the defining query.
  // Exposed as the maintenance test oracle.
  Status RebuildView(AuditExpressionDef* def);

  // --- Online schema change (engine/session.cc ExecuteAlterTable) -----------

  // Column renames produced by one ALTER TABLE chain: original name -> final
  // name, for every surviving column whose name changed.
  using ColumnRenames = std::vector<std::pair<std::string, std::string>>;

  // Re-binds every audit expression that references `table` against the
  // table's post-ALTER schema: rewrites renamed column references in the
  // defining AST, re-resolves the partition key, re-binds the single-table
  // maintenance predicate, stamps bound_schema_version, and rebuilds the ID
  // views. All-or-nothing: on any failure (e.g. the definition references a
  // dropped column) every definition is restored to its pre-call binding and
  // the error propagates — the session then rolls the storage change back
  // wholesale, so the ALTER fails closed rather than orphaning a view.
  Status RebindAfterAlter(const std::string& table, const ColumnRenames& renames);

  // Detaches a definition during ALTER (cascade-drop of an expression whose
  // partition key the change destroys, allowed only when no live trigger
  // depends on it). The session keeps the returned definition until the
  // statement commits so a later failure can RestoreDetached it.
  std::unique_ptr<AuditExpressionDef> DetachForAlter(const std::string& name);
  void RestoreDetached(std::unique_ptr<AuditExpressionDef> def);

 private:
  Status MaintainRow(AuditExpressionDef* def, const std::string& table,
                     const Row& row, bool inserted);

  Catalog* catalog_;
  SessionContext* session_;
  std::unordered_map<std::string, std::unique_ptr<AuditExpressionDef>> defs_;
};

}  // namespace seltrig

#endif  // SELTRIG_AUDIT_AUDIT_EXPRESSION_H_
