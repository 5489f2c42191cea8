// INSERT/UPDATE/DELETE, DDL, and DML trigger tests.

#include <gtest/gtest.h>

#include "engine/database.h"

namespace seltrig {
namespace {

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE emp (empid INT PRIMARY KEY, name VARCHAR, salary DOUBLE, dept VARCHAR);
      INSERT INTO emp VALUES (1, 'ann', 100.0, 'eng'), (2, 'bo', 200.0, 'eng'),
                             (3, 'cy', 300.0, 'hr');
    )sql").ok());
  }

  int64_t Count(const std::string& table) {
    auto r = db_.Execute("SELECT COUNT(*) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  }

  Database db_;
};

TEST_F(DmlTest, InsertValues) {
  auto r = db_.Execute("INSERT INTO emp VALUES (4, 'di', 150.0, 'hr')");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 1);
  EXPECT_EQ(Count("emp"), 4);
}

TEST_F(DmlTest, InsertColumnSubset) {
  ASSERT_TRUE(db_.Execute("INSERT INTO emp (empid, name) VALUES (5, 'ed')").ok());
  auto r = db_.Execute("SELECT salary FROM emp WHERE empid = 5");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows[0][0].is_null());
}

TEST_F(DmlTest, InsertIntCoercesToDouble) {
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (6, 'fi', 123, 'eng')").ok());
  auto r = db_.Execute("SELECT salary FROM emp WHERE empid = 6");
  EXPECT_DOUBLE_EQ(r->rows[0][0].AsDouble(), 123.0);
}

TEST_F(DmlTest, InsertTypeMismatchRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (7, 'gi', 'abc', 'hr')").ok());
}

TEST_F(DmlTest, InsertDuplicateKeyRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (1, 'dup', 0.0, 'x')").ok());
}

TEST_F(DmlTest, InsertSelect) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE rich (empid INT, name VARCHAR)").ok());
  auto r = db_.Execute(
      "INSERT INTO rich SELECT empid, name FROM emp WHERE salary >= 200.0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->affected_rows, 2);
  EXPECT_EQ(Count("rich"), 2);
}

TEST_F(DmlTest, InsertArityMismatchRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO emp (empid, name) VALUES (8)").ok());
}

TEST_F(DmlTest, UpdateWithFilter) {
  auto r = db_.Execute("UPDATE emp SET salary = salary * 2 WHERE dept = 'eng'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 2);
  auto check = db_.Execute("SELECT salary FROM emp WHERE empid = 1");
  EXPECT_DOUBLE_EQ(check->rows[0][0].AsDouble(), 200.0);
  auto untouched = db_.Execute("SELECT salary FROM emp WHERE empid = 3");
  EXPECT_DOUBLE_EQ(untouched->rows[0][0].AsDouble(), 300.0);
}

TEST_F(DmlTest, UpdateAllRows) {
  auto r = db_.Execute("UPDATE emp SET dept = 'all'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 3);
}

TEST_F(DmlTest, UpdateAssignmentsSeeOldRow) {
  // Swap-style update: both assignments read the pre-update values.
  ASSERT_TRUE(db_.Execute("CREATE TABLE pair (id INT PRIMARY KEY, a INT, b INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO pair VALUES (1, 10, 20)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE pair SET a = b, b = a").ok());
  auto r = db_.Execute("SELECT a, b FROM pair");
  EXPECT_EQ(r->rows[0][0].AsInt(), 20);
  EXPECT_EQ(r->rows[0][1].AsInt(), 10);
}

TEST_F(DmlTest, DeleteWithFilter) {
  auto r = db_.Execute("DELETE FROM emp WHERE salary < 250.0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 2);
  EXPECT_EQ(Count("emp"), 1);
}

TEST_F(DmlTest, DeleteThenReinsertSameKey) {
  ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE empid = 1").ok());
  EXPECT_TRUE(db_.Execute("INSERT INTO emp VALUES (1, 'new', 1.0, 'x')").ok());
}

TEST_F(DmlTest, CreateTableDuplicateRejected) {
  EXPECT_FALSE(db_.Execute("CREATE TABLE emp (x INT)").ok());
}

TEST_F(DmlTest, DropTable) {
  ASSERT_TRUE(db_.Execute("DROP TABLE emp").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM emp").ok());
}

// --- DML triggers -------------------------------------------------------

class DmlTriggerTest : public DmlTest {
 protected:
  void SetUp() override {
    DmlTest::SetUp();
    ASSERT_TRUE(db_.Execute(
        "CREATE TABLE audit_log (op VARCHAR, empid INT, old_salary DOUBLE, "
        "new_salary DOUBLE)").ok());
  }
};

TEST_F(DmlTriggerTest, AfterInsertTriggerSeesNewRow) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_ins ON emp AFTER INSERT AS "
      "INSERT INTO audit_log VALUES ('ins', new.empid, NULL, new.salary)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (10, 'x', 50.0, 'hr')").ok());
  auto r = db_.Execute("SELECT empid, new_salary FROM audit_log WHERE op = 'ins'");
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 10);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 50.0);
}

TEST_F(DmlTriggerTest, AfterUpdateTriggerSeesOldAndNew) {
  // The paper's canonical UPDATE-audit task: log salary changes > 50%.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_upd ON emp AFTER UPDATE AS "
      "IF (new.salary > old.salary * 1.5) "
      "INSERT INTO audit_log VALUES ('upd', new.empid, old.salary, new.salary)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE emp SET salary = salary * 2 WHERE empid = 1").ok());
  ASSERT_TRUE(db_.Execute("UPDATE emp SET salary = salary * 1.1 WHERE empid = 2").ok());
  auto r = db_.Execute("SELECT empid, old_salary, new_salary FROM audit_log");
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(r->rows[0][2].AsDouble(), 200.0);
}

TEST_F(DmlTriggerTest, AfterDeleteTriggerSeesOldRow) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_del ON emp AFTER DELETE AS "
      "INSERT INTO audit_log VALUES ('del', old.empid, old.salary, NULL)").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE dept = 'eng'").ok());
  auto r = db_.Execute("SELECT COUNT(*) FROM audit_log WHERE op = 'del'");
  EXPECT_EQ(r->rows[0][0].AsInt(), 2);
}

TEST_F(DmlTriggerTest, TriggerFiresPerRow) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_ins ON emp AFTER INSERT AS "
      "INSERT INTO audit_log VALUES ('ins', new.empid, NULL, NULL)").ok());
  ASSERT_TRUE(db_.Execute(
      "INSERT INTO emp VALUES (20, 'a', 1.0, 'x'), (21, 'b', 2.0, 'x')").ok());
  EXPECT_EQ(Count("audit_log"), 2);
}

TEST_F(DmlTriggerTest, CascadingTriggers) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE second_level (n INT)").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t1 ON emp AFTER INSERT AS "
      "INSERT INTO audit_log VALUES ('ins', new.empid, NULL, NULL)").ok());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t2 ON audit_log AFTER INSERT AS "
      "INSERT INTO second_level VALUES (new.empid)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (30, 'c', 3.0, 'y')").ok());
  EXPECT_EQ(Count("second_level"), 1);
}

TEST_F(DmlTriggerTest, InfiniteCascadeIsCut) {
  // A self-triggering insert chain must hit the depth limit, not hang.
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_loop ON audit_log AFTER INSERT AS "
      "INSERT INTO audit_log VALUES ('loop', new.empid, NULL, NULL)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO audit_log VALUES ('x', 1, NULL, NULL)").ok());
}

TEST_F(DmlTriggerTest, NotifyAction) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_notify ON emp AFTER DELETE AS "
      "NOTIFY 'employee removed'").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE empid = 1").ok());
  ASSERT_EQ(db_.notifications().size(), 1u);
  EXPECT_EQ(db_.notifications()[0], "employee removed");
}

TEST_F(DmlTriggerTest, DropTriggerStopsFiring) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_ins ON emp AFTER INSERT AS "
      "INSERT INTO audit_log VALUES ('ins', new.empid, NULL, NULL)").ok());
  ASSERT_TRUE(db_.Execute("DROP TRIGGER t_ins").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (40, 'z', 1.0, 'q')").ok());
  EXPECT_EQ(Count("audit_log"), 0);
}

TEST_F(DmlTriggerTest, FailedTriggerUpdateOfIndexedColumnRollsBackIndex) {
  // The dept probe builds a secondary index; the trigger moves a row to a
  // new dept and then fails, so the rollback must move the index entry back.
  auto ids = [&](const std::string& dept) {
    auto r = db_.Execute("SELECT empid FROM emp WHERE dept = '" + dept + "'");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<int64_t> out;
    for (const Row& row : r->rows) out.push_back(row[0].AsInt());
    return out;
  };
  ASSERT_EQ(ids("eng"), (std::vector<int64_t>{1, 2}));
  ASSERT_TRUE(ids("ops").empty());
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER t_move ON audit_log AFTER INSERT AS BEGIN "
      "UPDATE emp SET dept = 'ops' WHERE empid = new.empid; "
      "RAISE 'denied'; END").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO audit_log VALUES ('x', 1, NULL, NULL)").ok());
  EXPECT_EQ(ids("eng"), (std::vector<int64_t>{1, 2}));
  EXPECT_TRUE(ids("ops").empty());
  EXPECT_EQ(Count("audit_log"), 0);
  // A committed move is visible through the same maintained index.
  ASSERT_TRUE(db_.Execute("UPDATE emp SET dept = 'ops' WHERE empid = 2").ok());
  EXPECT_EQ(ids("eng"), (std::vector<int64_t>{1}));
  EXPECT_EQ(ids("ops"), (std::vector<int64_t>{2}));
}

// Statements that evaluate expressions outside a SELECT pipeline -- IF
// conditions, NOTIFY, RAISE, ALTER ... DEFAULT -- and UPDATE/DELETE whose
// WHERE runs subqueries share the session's executor settings with every
// other statement. Their rows, notifications, errors and trigger effects
// must not depend on those settings.
std::string RunStatementScript(size_t batch_size, bool columnar) {
  const char* const kScript[] = {
      "CREATE TABLE emp (empid INT PRIMARY KEY, name VARCHAR, salary DOUBLE, "
      "dept VARCHAR)",
      "INSERT INTO emp VALUES (1, 'ann', 100.0, 'eng'), (2, 'bo', 200.0, 'eng'), "
      "(3, 'cy', 300.0, 'hr'), (4, 'di', 400.0, 'hr'), (5, 'ed', 500.0, 'ops'), "
      "(6, 'fi', 600.0, 'ops'), (7, 'gu', 700.0, 'eng')",
      "CREATE TABLE depts (dept VARCHAR, budget INT)",
      "INSERT INTO depts VALUES ('eng', 10), ('hr', 20)",
      "CREATE TABLE vlog (op VARCHAR, empid INT, salary DOUBLE)",
      "CREATE TRIGGER log_upd ON emp AFTER UPDATE AS "
      "INSERT INTO vlog VALUES ('upd', new.empid, new.salary)",
      "CREATE TRIGGER log_del ON emp AFTER DELETE AS BEGIN "
      "INSERT INTO vlog VALUES ('del', old.empid, old.salary); "
      "IF (old.salary > (SELECT AVG(salary) FROM emp)) NOTIFY old.name; END",
      "IF ((SELECT COUNT(*) FROM emp WHERE dept IN (SELECT dept FROM depts)) > 3) "
      "NOTIFY (SELECT MAX(name) FROM emp)",
      "IF ((SELECT COUNT(*) FROM emp) > 100) NOTIFY 'never'",
      "NOTIFY (SELECT SUM(salary) FROM emp WHERE dept = 'ops')",
      "UPDATE emp SET salary = salary + (SELECT MAX(budget) FROM depts) "
      "WHERE dept IN (SELECT dept FROM depts)",
      "UPDATE emp SET salary = salary * 2 "
      "WHERE salary > (SELECT AVG(e2.salary) FROM emp e2 WHERE e2.dept = emp.dept)",
      "DELETE FROM emp WHERE EXISTS "
      "(SELECT * FROM depts d WHERE d.dept = emp.dept AND d.budget > 15)",
      "ALTER TABLE emp ADD COLUMN bonus DOUBLE DEFAULT 7",
      "ALTER TABLE emp ADD COLUMN grade INT DEFAULT 'x'",
      "IF ((SELECT COUNT(*) FROM vlog WHERE op = 'del') > 0) "
      "RAISE (SELECT MIN(name) FROM emp)",
      "RAISE (SELECT COUNT(*) FROM vlog)",
      "SELECT * FROM emp ORDER BY empid",
      "SELECT * FROM vlog ORDER BY op, empid",
  };
  Database db;
  ExecOptions options;
  options.batch_size = batch_size;
  options.columnar = columnar;
  std::string transcript;
  for (const char* sql : kScript) {
    Result<StatementResult> r = db.ExecuteWithOptions(sql, options);
    transcript += std::string(sql) + "\n-> ";
    if (!r.ok()) {
      transcript += r.status().ToString() + "\n";
      continue;
    }
    transcript += std::to_string(r->result.affected_rows) + " affected\n";
    transcript += r->result.ToString(/*max_rows=*/100);
  }
  for (const std::string& n : db.notifications()) transcript += "notify: " + n + "\n";
  return transcript;
}

TEST(StatementOptionsParityTest, StandaloneExpressionsAndDmlIgnoreLayout) {
  const std::string baseline = RunStatementScript(/*batch_size=*/1024, /*columnar=*/true);
  // The script exercises what it claims to: both IF arms, all three
  // notification sources, both ALTER outcomes and both RAISEs.
  EXPECT_NE(baseline.find("notify: gu\n"), std::string::npos) << baseline;
  EXPECT_NE(baseline.find("notify: 1100"), std::string::npos) << baseline;
  EXPECT_EQ(baseline.find("notify: never"), std::string::npos) << baseline;
  EXPECT_NE(baseline.find("cannot initialize column 'grade'"), std::string::npos)
      << baseline;
  EXPECT_NE(baseline.find("ExecutionError: ann"), std::string::npos) << baseline;
  EXPECT_NE(baseline.find("| bonus\n"), std::string::npos) << baseline;
  EXPECT_NE(baseline.find("\n-> 3 affected\n"), std::string::npos) << baseline;
  for (size_t batch_size : {size_t{1}, size_t{1024}}) {
    for (bool columnar : {true, false}) {
      EXPECT_EQ(RunStatementScript(batch_size, columnar), baseline)
          << "batch_size " << batch_size << " columnar " << columnar;
    }
  }
}

}  // namespace
}  // namespace seltrig
