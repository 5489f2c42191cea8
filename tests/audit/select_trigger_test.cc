// End-to-end SELECT triggers (Section II): ACCESSED state, log actions,
// cascading, abort semantics, session functions.

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/database.h"
#include "types/date.h"

namespace seltrig {
namespace {

class SelectTriggerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, age INT, zip INT);
      CREATE TABLE disease (patientid INT, disease VARCHAR);
      CREATE TABLE log (ts VARCHAR, userid VARCHAR, sql VARCHAR, patientid INT,
                        day DATE);
      INSERT INTO patients VALUES (1, 'Alice', 34, 98101), (2, 'Bob', 27, 98102),
                                  (3, 'Carol', 45, 98101);
      INSERT INTO disease VALUES (1, 'cancer'), (2, 'flu'), (3, 'cancer');
    )sql").ok());
    ASSERT_TRUE(db_.Execute(
        "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients "
        "WHERE name = 'Alice' FOR SENSITIVE TABLE patients PARTITION BY patientid").ok());
    db_.session()->user = "dr_house";
    db_.session()->now = "2026-07-07 10:00:00";
    auto d = ParseDate("2026-07-07");
    ASSERT_TRUE(d.ok());
    db_.session()->current_date = *d;
  }

  int64_t LogCount() {
    auto r = db_.Execute("SELECT COUNT(*) FROM log");
    EXPECT_TRUE(r.ok());
    return r->rows[0][0].AsInt();
  }

  Database db_;
};

TEST_F(SelectTriggerTest, BasicLogAction) {
  // Section II-C's Log_Alice_Accesses trigger, verbatim modulo dialect.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid, "
      "current_date() FROM accessed").ok());

  const std::string query = "SELECT * FROM patients WHERE patientid = 1";
  ASSERT_TRUE(db_.Execute(query).ok());

  auto log = db_.Execute("SELECT ts, userid, sql, patientid FROM log");
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->rows.size(), 1u);
  EXPECT_EQ(log->rows[0][0].AsString(), "2026-07-07 10:00:00");
  EXPECT_EQ(log->rows[0][1].AsString(), "dr_house");
  EXPECT_EQ(log->rows[0][2].AsString(), query);
  EXPECT_EQ(log->rows[0][3].AsInt(), 1);
}

TEST_F(SelectTriggerTest, NoAccessMeansEmptyLog) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid, "
      "current_date() FROM accessed").ok());
  ASSERT_TRUE(db_.Execute("SELECT * FROM patients WHERE patientid = 2").ok());
  EXPECT_EQ(LogCount(), 0);
}

TEST_F(SelectTriggerTest, SubqueryAccessDetected) {
  // The paper's Example 1.2: Alice's record influences the result even though
  // it only appears inside a subexpression.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid, "
      "current_date() FROM accessed").ok());
  ASSERT_TRUE(db_.Execute(
      "SELECT 1 FROM patients WHERE EXISTS "
      "(SELECT * FROM patients p, disease d WHERE p.patientid = d.patientid "
      " AND name = 'Alice' AND disease = 'cancer')").ok());
  EXPECT_EQ(LogCount(), 1);
}

TEST_F(SelectTriggerTest, TriggerFiresOnPrefixAbort) {
  // Section II: "The action executes even if the query is aborted to account
  // for queries that read a subset of the result."
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid, "
      "current_date() FROM accessed").ok());
  ExecOptions options;
  options.max_rows = 1;
  // A grouped query: the aggregate drains its input eagerly, so Alice's row
  // flows through the audit operator (below the group-by) even though the
  // client reads a single result row and aborts.
  auto r = db_.ExecuteWithOptions(
      "SELECT zip, COUNT(*) FROM patients GROUP BY zip ORDER BY zip DESC", options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->result.rows.size(), 1u);  // client aborted after one group
  EXPECT_EQ(LogCount(), 1);
}

TEST_F(SelectTriggerTest, PrefixAbortDoesNotReachNestedSelects) {
  // max_rows models the client reading a result prefix, so it bounds only
  // the top-level SELECT. A SELECT inside a trigger action reads its whole
  // input, and a cascaded audit over that input must see every row.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE visits (visitid INT PRIMARY KEY, patientid INT, note VARCHAR);
    CREATE TABLE vlog (visitid INT);
    INSERT INTO visits VALUES (10, 1, 'checkup'), (11, 2, 'flu shot'),
                              (12, 3, 'x-ray');
  )sql").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE AUDIT EXPRESSION audit_visits AS SELECT * FROM visits "
      "FOR SENSITIVE TABLE visits PARTITION BY visitid").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_visits ON ACCESS TO audit_visits AS "
      "INSERT INTO vlog SELECT visitid FROM accessed").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER read_visits ON ACCESS TO audit_alice AS "
      "IF ((SELECT COUNT(*) FROM accessed) > 0) "
      "SELECT visitid, note FROM visits").ok());

  ExecOptions options;
  options.max_rows = 1;
  auto r = db_.ExecuteWithOptions("SELECT name FROM patients WHERE patientid = 1",
                                  options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result.rows.size(), 1u);
  auto vlog = db_.Execute("SELECT visitid FROM vlog ORDER BY visitid");
  ASSERT_TRUE(vlog.ok());
  ASSERT_EQ(vlog->rows.size(), 3u);
  EXPECT_EQ(vlog->rows[0][0].AsInt(), 10);
  EXPECT_EQ(vlog->rows[2][0].AsInt(), 12);
}

TEST_F(SelectTriggerTest, JoinActionOverAccessed) {
  // Section II-C's Log_Cancer_Dept_Accesses shape: the action joins ACCESSED
  // with another table.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE departments (patientid INT, deptid INT);
    CREATE TABLE dept_log (deptid INT);
    INSERT INTO departments VALUES (1, 10), (1, 11), (3, 10);
  )sql").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE AUDIT EXPRESSION audit_cancer AS SELECT p.* FROM patients p, disease d "
      "WHERE p.patientid = d.patientid AND disease = 'cancer' "
      "FOR SENSITIVE TABLE patients PARTITION BY patientid").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_dept ON ACCESS TO audit_cancer AS "
      "INSERT INTO dept_log SELECT DISTINCT d.deptid "
      "FROM accessed a, departments d WHERE a.patientid = d.patientid").ok());

  ASSERT_TRUE(db_.Execute("SELECT * FROM patients WHERE zip = 98101").ok());
  auto r = db_.Execute("SELECT deptid FROM dept_log ORDER BY deptid");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);  // depts 10 and 11 (Alice + Carol accessed)
  EXPECT_EQ(r->rows[0][0].AsInt(), 10);
  EXPECT_EQ(r->rows[1][0].AsInt(), 11);
}

TEST_F(SelectTriggerTest, CascadeIntoDmlTriggerNotify) {
  // Section II-C's Notify trigger: a SELECT trigger writes the log; an INSERT
  // trigger on the log counts distinct patients per user/day and notifies.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid, "
      "current_date() FROM accessed").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER notify ON log AFTER INSERT AS "
      "IF ((SELECT COUNT(DISTINCT patientid) FROM log "
      "     WHERE day = new.day AND userid = new.userid) > 0) "
      "NOTIFY 'sensitive access by ' ").ok());
  ASSERT_TRUE(db_.Execute("SELECT * FROM patients WHERE name = 'Alice'").ok());
  EXPECT_EQ(LogCount(), 1);
  EXPECT_EQ(db_.notifications().size(), 1u);
}

TEST_F(SelectTriggerTest, MultipleAuditExpressionsIndependentStates) {
  ASSERT_TRUE(db_.Execute(
      "CREATE AUDIT EXPRESSION audit_bob AS SELECT * FROM patients "
      "WHERE name = 'Bob' FOR SENSITIVE TABLE patients PARTITION BY patientid").ok());
  ExecOptions options;
  options.instrument_all_audit_expressions = true;
  auto r = db_.ExecuteWithOptions("SELECT * FROM patients WHERE age < 40", options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->accessed["audit_alice"].size(), 1u);
  EXPECT_EQ(r->accessed["audit_alice"][0].AsInt(), 1);
  ASSERT_EQ(r->accessed["audit_bob"].size(), 1u);
  EXPECT_EQ(r->accessed["audit_bob"][0].AsInt(), 2);
}

TEST_F(SelectTriggerTest, TriggerOnUnknownExpressionRejected) {
  EXPECT_FALSE(db_.Execute(
      "CREATE TRIGGER t ON ACCESS TO nonexistent AS NOTIFY 'x'").ok());
}

TEST_F(SelectTriggerTest, UninstrumentedWhenNoTriggers) {
  // Without triggers (and without instrument_all), queries are not
  // instrumented: zero audit overhead for unaudited workloads.
  auto r = db_.ExecuteWithOptions("SELECT * FROM patients", ExecOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->accessed.empty());
  EXPECT_EQ(r->stats.rows_through_audit_ops, 0u);
}

TEST_F(SelectTriggerTest, DmlRefreshesViewSeenByLaterQueries) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid, "
      "current_date() FROM accessed").ok());
  // Rename Bob to Alice: the audit expression must now cover him.
  ASSERT_TRUE(db_.Execute("UPDATE patients SET name = 'Alice' WHERE patientid = 2").ok());
  ASSERT_TRUE(db_.Execute("SELECT * FROM patients WHERE patientid = 2").ok());
  auto r = db_.Execute("SELECT patientid FROM log");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 2);
}

TEST_F(SelectTriggerTest, ActionSqlTextIsAuditedQueryText) {
  // Cascading actions still report the *audited* statement via SQL_TEXT().
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid, "
      "current_date() FROM accessed").ok());
  const std::string query = "SELECT name FROM patients WHERE patientid = 1";
  ASSERT_TRUE(db_.Execute(query).ok());
  auto r = db_.Execute("SELECT sql FROM log");
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), query);
}

TEST_F(SelectTriggerTest, ScriptSqlTextIsPerStatement) {
  // Inside a script, SQL_TEXT() is the audited statement's own text, not the
  // whole script.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid, "
      "current_date() FROM accessed").ok());
  const std::string query = "SELECT name FROM patients WHERE patientid = 1";
  ASSERT_TRUE(db_.ExecuteScript(
      "INSERT INTO disease VALUES (4, 'flu');\n  " + query + ";").ok());
  auto r = db_.Execute("SELECT sql FROM log");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), query);
}

TEST_F(SelectTriggerTest, BeforeTriggerDeniesQuery) {
  // The Section II future-work variant: a BEFORE trigger guarding Alice's
  // record denies any query that accesses it.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER guard_alice ON ACCESS TO audit_alice BEFORE AS "
      "IF ((SELECT COUNT(*) FROM accessed) > 0) "
      "RAISE 'access to restricted record denied'").ok());
  auto denied = db_.Execute("SELECT * FROM patients WHERE patientid = 1");
  ASSERT_FALSE(denied.ok());
  EXPECT_NE(denied.status().message().find("denied"), std::string::npos);

  // Queries not touching Alice pass through.
  auto allowed = db_.Execute("SELECT * FROM patients WHERE patientid = 2");
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(allowed->rows.size(), 1u);
}

TEST_F(SelectTriggerTest, BeforeTriggerRunsBeforeAfterTriggers) {
  // A denying BEFORE trigger suppresses the AFTER trigger's log write.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid, "
      "current_date() FROM accessed").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER guard_alice ON ACCESS TO audit_alice BEFORE AS "
      "IF ((SELECT COUNT(*) FROM accessed) > 0) RAISE 'denied'").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM patients WHERE patientid = 1").ok());
  EXPECT_EQ(LogCount(), 0);
}

TEST_F(SelectTriggerTest, BeforeTriggerDenyRollsBackPartialWrites) {
  // A BEFORE trigger that writes a provisional row and then denies: the deny
  // must also unwind the write (trigger action lists are atomic).
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER guard_alice ON ACCESS TO audit_alice BEFORE AS BEGIN "
      "INSERT INTO log SELECT now(), user_id(), sql_text(), patientid, "
      "current_date() FROM accessed; "
      "IF ((SELECT COUNT(*) FROM accessed) > 0) RAISE 'denied'; END").ok());
  auto denied = db_.Execute("SELECT * FROM patients WHERE patientid = 1");
  ASSERT_FALSE(denied.ok());
  EXPECT_NE(denied.status().message().find("denied"), std::string::npos);
  EXPECT_EQ(LogCount(), 0) << "provisional write survived the deny";

  // An allowed query commits the same trigger's write.
  ASSERT_TRUE(db_.Execute("SELECT * FROM patients WHERE patientid = 2").ok());
  EXPECT_EQ(LogCount(), 0);  // Bob is not covered by audit_alice
}

TEST_F(SelectTriggerTest, BeforeTriggerDenyIgnoresFailOpenPolicy) {
  // RAISE in the BEFORE phase is a *deny*, not an audit failure: fail-open
  // must not swallow it and release the result anyway.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER guard_alice ON ACCESS TO audit_alice BEFORE AS "
      "IF ((SELECT COUNT(*) FROM accessed) > 0) RAISE 'denied'").ok());
  ExecOptions options;
  options.audit_failure_policy = AuditFailurePolicy::kFailOpen;
  auto denied =
      db_.ExecuteWithOptions("SELECT * FROM patients WHERE patientid = 1", options);
  ASSERT_FALSE(denied.ok());
  EXPECT_NE(denied.status().message().find("denied"), std::string::npos);
}

TEST_F(SelectTriggerTest, BeforeTriggerWarningViaNotify) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER warn_alice ON ACCESS TO audit_alice BEFORE AS "
      "IF ((SELECT COUNT(*) FROM accessed) > 0) "
      "NOTIFY 'warning: you are accessing sensitive data'").ok());
  auto r = db_.Execute("SELECT * FROM patients WHERE patientid = 1");
  ASSERT_TRUE(r.ok());  // warned, not denied
  EXPECT_EQ(r->rows.size(), 1u);
  ASSERT_EQ(db_.notifications().size(), 1u);
}

TEST_F(SelectTriggerTest, BloomModeNeverMissesAccesses) {
  // Bloom probing (Section IV-A2's large-set fallback) may add false
  // positives but must contain every exact-mode hit.
  ExecOptions exact;
  exact.instrument_all_audit_expressions = true;
  ExecOptions bloom = exact;
  bloom.use_bloom_filters = true;
  bloom.bloom_fp_rate = 0.05;

  const char* queries[] = {
      "SELECT * FROM patients WHERE patientid = 1",
      "SELECT * FROM patients WHERE age < 40",
      "SELECT COUNT(*) FROM patients",
  };
  for (const char* sql : queries) {
    auto e = db_.ExecuteWithOptions(sql, exact);
    auto b = db_.ExecuteWithOptions(sql, bloom);
    ASSERT_TRUE(e.ok());
    ASSERT_TRUE(b.ok());
    const auto& exact_ids = e->accessed["audit_alice"];
    const auto& bloom_ids = b->accessed["audit_alice"];
    for (const Value& id : exact_ids) {
      EXPECT_NE(std::find(bloom_ids.begin(), bloom_ids.end(), id), bloom_ids.end())
          << sql;
    }
    // Results themselves are identical (the operator stays a no-op).
    ASSERT_EQ(e->result.rows.size(), b->result.rows.size());
  }
}

TEST_F(SelectTriggerTest, BloomModeShowsInExplain) {
  ExecOptions options;
  options.instrument_all_audit_expressions = true;
  options.use_bloom_filters = true;
  auto r = db_.ExecuteWithOptions("EXPLAIN SELECT * FROM patients", options);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->plan_text.find("(bloom)"), std::string::npos);
}

TEST_F(SelectTriggerTest, PredicateModeAuditOperator) {
  // Ablation: audit operator evaluating the predicate directly instead of
  // probing the ID view must produce identical ACCESSED state.
  ExecOptions with_view;
  with_view.instrument_all_audit_expressions = true;
  ExecOptions without_view = with_view;
  without_view.use_id_views = false;

  const std::string sql = "SELECT * FROM patients WHERE age < 40";
  auto a = db_.ExecuteWithOptions(sql, with_view);
  auto b = db_.ExecuteWithOptions(sql, without_view);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->accessed["audit_alice"], b->accessed["audit_alice"]);
}

}  // namespace
}  // namespace seltrig
