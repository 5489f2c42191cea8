#include "engine/database.h"

#include <filesystem>
#include <utility>

#include "engine/snapshot.h"
#include "sql/parser.h"

namespace seltrig {

Database::Database()
    : default_session_(new Session(this)),
      audit_(&catalog_, default_session_->context()) {
  // Fail-closed re-arm after online schema changes: a quarantined SELECT
  // trigger whose audit expression was cascade-dropped by an ALTER TABLE must
  // not resume firing; one whose expression was successfully rebound picks up
  // the expression's current bound schema version on re-arm.
  triggers_.set_rearm_validator([this](TriggerDef* def) -> Status {
    if (!def->is_select_trigger) {
      Result<Table*> table = catalog_.GetTable(def->table);
      if (!table.ok()) {
        return Status::FailedPrecondition(
            "cannot re-arm trigger '" + def->name + "': table '" + def->table +
            "' no longer exists; drop and recreate the trigger");
      }
      def->bound_schema_version = (*table)->schema_version();
      return Status::OK();
    }
    const AuditExpressionDef* expr = audit_.Find(def->audit_expression);
    if (expr == nullptr) {
      return Status::FailedPrecondition(
          "cannot re-arm trigger '" + def->name + "': audit expression '" +
          def->audit_expression +
          "' no longer exists (dropped or cascade-dropped by ALTER TABLE); "
          "drop and recreate the trigger");
    }
    def->bound_schema_version = expr->bound_schema_version();
    return Status::OK();
  });
}

Database::~Database() = default;

std::unique_ptr<Session> Database::CreateSession() {
  return std::make_unique<Session>(this);
}

Result<QueryResult> Database::Execute(const std::string& sql) {
  return default_session_->Execute(sql);
}

Result<StatementResult> Database::ExecuteWithOptions(const std::string& sql,
                                                     const ExecOptions& options) {
  return default_session_->ExecuteWithOptions(sql, options);
}

Status Database::ExecuteScript(const std::string& sql) {
  return default_session_->ExecuteScript(sql);
}

SessionContext* Database::session() { return default_session_->context(); }

const std::vector<std::string>& Database::notifications() const {
  return default_session_->notifications();
}

void Database::ClearNotifications() { default_session_->ClearNotifications(); }

Status Database::EnableWal(const std::string& dir, uint64_t epoch) {
  if (wal_ != nullptr) return Status::InvalidArgument("WAL already enabled");
  if (dir.empty()) return Status::InvalidArgument("WAL directory is empty");
  SELTRIG_ASSIGN_OR_RETURN(wal_, WalWriter::Open(dir + "/wal", epoch));
  data_dir_ = dir;
  return Status::OK();
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "CHECKPOINT requires a journaled database (Database::EnableWal)");
  }
  // The writer lock freezes table state and keeps sessions out of Append, so
  // the snapshot and the journal cut are mutually consistent: everything
  // committed before the checkpoint is in the snapshot, everything after is
  // in segments >= the recorded sequence.
  WriterMutexLock lock(&storage_mutex_);
  uint64_t new_seq = 0;
  SELTRIG_RETURN_IF_ERROR(wal_->Rotate(&new_seq));  // syncs the old segment
  SnapshotOptions opts;
  opts.include_policy = true;
  opts.wal_seq = new_seq;
  SELTRIG_RETURN_IF_ERROR(SaveSnapshot(this, data_dir_ + "/snapshot", opts));
  // Only after the snapshot is atomically in place may the journal history
  // it supersedes be dropped.
  return wal_->DeleteSegmentsBelow(new_seq);
}

Result<PlanPtr> Database::PlanSelect(const std::string& sql,
                                     const OptimizerOptions& options) {
  SELTRIG_ASSIGN_OR_RETURN(ast::StatementPtr stmt, ParseSql(sql));
  if (stmt->kind != ast::StatementKind::kSelect) {
    return Status::InvalidArgument("PlanSelect expects a SELECT statement");
  }
  auto& wrapper = static_cast<ast::SelectWrapper&>(*stmt);
  ReaderMutexLock lock(&storage_mutex_);
  Binder binder(&catalog_);
  SELTRIG_ASSIGN_OR_RETURN(PlanPtr plan, binder.BindSelect(*wrapper.select));
  return OptimizePlan(std::move(plan), AuditAwareOptimizerOptions(options));
}

OptimizerOptions Database::AuditAwareOptimizerOptions(OptimizerOptions options) const {
  options.catalog = &catalog_;
  for (const AuditExpressionDef* def : audit_.All()) {
    options.audit_keys.push_back(
        {def->sensitive_table(), def->partition_column(), def->partition_by()});
  }
  return options;
}

}  // namespace seltrig
