// Umbrella header for the seltrig library: SELECT triggers for data auditing
// (reproduction of Fabbri, Ramamurthy & Kaushik, ICDE 2013) on top of a
// self-contained in-memory SQL engine.
//
// Typical usage:
//
//   seltrig::Database db;
//   db.Execute("CREATE TABLE patients(patientid INT PRIMARY KEY, name VARCHAR)");
//   db.Execute("INSERT INTO patients VALUES (1, 'Alice')");
//   db.Execute("CREATE AUDIT EXPRESSION audit_alice AS "
//              "SELECT * FROM patients WHERE name = 'Alice' "
//              "FOR SENSITIVE TABLE patients PARTITION BY patientid");
//   db.Execute("CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
//              "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid "
//              "FROM accessed");
//   db.Execute("SELECT * FROM patients WHERE patientid = 1");  // fires trigger

#ifndef SELTRIG_SELTRIG_H_
#define SELTRIG_SELTRIG_H_

#include "audit/accessed_state.h"
#include "audit/audit_expression.h"
#include "audit/offline_auditor.h"
#include "audit/placement.h"
#include "audit/rewrite_auditor.h"
#include "audit/static_auditor.h"
#include "audit/trigger.h"
#include "binder/binder.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/audit_log.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "engine/session.h"
#include "exec/executor.h"
#include "expr/analysis.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "optimizer/optimizer.h"
#include "plan/logical_plan.h"
#include "sql/parser.h"
#include "storage/sensitive_id_view.h"
#include "storage/table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "types/date.h"
#include "types/schema.h"
#include "types/value.h"

#endif  // SELTRIG_SELTRIG_H_
