#include "engine/audit_log.h"

#include "common/string_util.h"
#include "types/date.h"

namespace seltrig {

Status AuditLogger::EnsureTable() {
  if (db_->catalog()->HasTable(table_)) return Status::OK();
  return db_
      ->Execute("CREATE TABLE " + table_ +
                " (ts VARCHAR, userid VARCHAR, sql VARCHAR, pid INT, day DATE)")
      .status();
}

Status AuditLogger::Install(const std::string& audit_expression) {
  std::string expr = ToLower(audit_expression);
  const AuditExpressionDef* def = db_->audit_manager()->Find(expr);
  if (def == nullptr) {
    return Status::NotFound("audit expression not found: " + audit_expression);
  }
  SELTRIG_RETURN_IF_ERROR(EnsureTable());
  return db_
      ->Execute("CREATE TRIGGER log_" + expr + " ON ACCESS TO " + expr +
                " AS INSERT INTO " + table_ +
                " SELECT now(), user_id(), sql_text(), " + def->partition_by() +
                ", current_date() FROM accessed")
      .status();
}

Status AuditLogger::Uninstall(const std::string& audit_expression) {
  return db_->Execute("DROP TRIGGER log_" + ToLower(audit_expression)).status();
}

Result<std::vector<AuditLogEntry>> AuditLogger::DisclosureReport(const Value& id) {
  // Read the raw table directly: the report itself must not fire triggers or
  // perturb the log (and the ID may be of any key type).
  SELTRIG_ASSIGN_OR_RETURN(Table * table, db_->catalog()->GetTable(table_));
  std::vector<AuditLogEntry> entries;
  for (size_t row_id = 0; row_id < table->slot_count(); ++row_id) {
    if (!table->IsLive(row_id)) continue;
    const Row& row = table->GetRow(row_id);
    if (row[3] != id) continue;
    AuditLogEntry entry;
    entry.timestamp = row[0].is_null() ? "" : row[0].AsString();
    entry.user = row[1].is_null() ? "" : row[1].AsString();
    entry.sql = row[2].is_null() ? "" : row[2].AsString();
    entry.partition_id = row[3];
    entry.day = row[4].is_null() ? 0 : row[4].AsDate();
    entries.push_back(std::move(entry));
  }
  return entries;
}

Result<int64_t> AuditLogger::DistinctAccessesBy(const std::string& user, int32_t day) {
  ExecOptions options;
  options.enable_select_triggers = false;  // reporting must not re-trigger
  SELTRIG_ASSIGN_OR_RETURN(
      StatementResult result,
      db_->ExecuteWithOptions("SELECT COUNT(DISTINCT pid) FROM " + table_ +
                                  " WHERE userid = '" + user + "' AND day = DATE '" +
                                  FormatDate(day) + "'",
                              options));
  return result.result.rows[0][0].AsInt();
}

Result<QueryResult> AuditLogger::AccessRanking() {
  ExecOptions options;
  options.enable_select_triggers = false;
  SELTRIG_ASSIGN_OR_RETURN(
      StatementResult result,
      db_->ExecuteWithOptions(
          "SELECT userid, COUNT(DISTINCT pid) AS individuals FROM " + table_ +
              " GROUP BY userid ORDER BY individuals DESC, userid",
          options));
  return std::move(result.result);
}

}  // namespace seltrig
