// Convenience layer for the paper's canonical auditing deployment
// (Section II-C / Figure 1): a standard access-log table, a helper that
// installs the logging SELECT trigger for an audit expression, and the
// queries a compliance officer runs against the log -- including the HIPAA
// disclosure report of Example 1.1.

#ifndef SELTRIG_ENGINE_AUDIT_LOG_H_
#define SELTRIG_ENGINE_AUDIT_LOG_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"

namespace seltrig {

// One parsed audit-log entry.
struct AuditLogEntry {
  std::string timestamp;
  std::string user;
  std::string sql;
  Value partition_id;
  int32_t day = 0;
};

class AuditLogger {
 public:
  // Manages the log table `table_name` in `db` (created on Install if
  // absent). The schema is (ts VARCHAR, userid VARCHAR, sql VARCHAR,
  // pid <key type>, day DATE).
  AuditLogger(Database* db, std::string table_name = "seltrig_access_log")
      : db_(db), table_(std::move(table_name)) {}

  // Creates the log table (if needed) and a SELECT trigger
  // `log_<audit expression>` that appends one row per accessed ID.
  Status Install(const std::string& audit_expression);

  // Removes the trigger installed for `audit_expression` (the log table and
  // its contents are preserved).
  Status Uninstall(const std::string& audit_expression);

  // All log entries for one individual's partition-by ID, oldest first --
  // the HIPAA "who saw my record" disclosure report (Example 1.1).
  Result<std::vector<AuditLogEntry>> DisclosureReport(const Value& id);

  // Distinct individuals accessed by `user` on `day`; powers
  // more-than-N-records-per-day alerting (Section II-C's Notify trigger).
  Result<int64_t> DistinctAccessesBy(const std::string& user, int32_t day);

  // Users ordered by the number of distinct individuals accessed
  // (Section I's "patients accessed by each doctor, ordered").
  Result<QueryResult> AccessRanking();

  const std::string& table_name() const { return table_; }

 private:
  Status EnsureTable();

  Database* db_;
  std::string table_;
};

}  // namespace seltrig

#endif  // SELTRIG_ENGINE_AUDIT_LOG_H_
