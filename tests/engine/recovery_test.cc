#include "engine/recovery.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/file_util.h"
#include "engine/database.h"
#include "engine/snapshot.h"
#include "storage/table.h"
#include "storage/wal.h"
#include "tpch/dbgen.h"
#include "../storage/legacy_wal_record.h"

namespace seltrig {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("seltrig_rec_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    FaultInjector::Instance().Reset();
  }
  void TearDown() override {
    FaultInjector::Instance().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<Database> OpenDurable() {
    Result<std::unique_ptr<Database>> db = Database::Recover(dir_);
    EXPECT_TRUE(db.ok()) << db.status().message();
    return db.ok() ? std::move(*db) : nullptr;
  }

  static void SetUpAuditedSchema(Database* db) {
    ASSERT_TRUE(db->ExecuteScript(R"sql(
      CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR,
                             diagnosis VARCHAR);
      CREATE TABLE log (ts VARCHAR, userid VARCHAR, sql VARCHAR, patientid INT);
      INSERT INTO patients VALUES (1, 'Alice', 'flu'), (2, 'Bob', 'cold');
      CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients
        WHERE name = 'Alice' FOR SENSITIVE TABLE patients PARTITION BY patientid;
      CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS INSERT INTO log
        SELECT now(), user_id(), sql_text(), patientid FROM accessed;
    )sql").ok());
  }

  // Counts without firing SELECT triggers: a plain COUNT(*) over the audited
  // table would itself append an audit-log row and skew the log counts.
  static int64_t Count(Database* db, const std::string& table) {
    ExecOptions options;
    options.enable_select_triggers = false;
    auto r = db->ExecuteWithOptions("SELECT COUNT(*) FROM " + table, options);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return r.ok() ? r->result.rows[0][0].AsInt() : -1;
  }

  using TableRows = std::map<std::string, std::vector<Row>>;

  // Every table's live rows, sorted, read from storage (no SELECT trigger
  // fires): two databases holding the same data compare equal however their
  // slots are ordered.
  static TableRows Contents(Database* db) {
    TableRows contents;
    for (const std::string& name : db->catalog()->TableNames()) {
      Table* table = db->catalog()->GetTable(name).value();
      std::vector<Row>& rows = contents[name];
      for (size_t row_id = 0; row_id < table->slot_count(); ++row_id) {
        if (table->IsLive(row_id)) rows.push_back(table->GetRow(row_id));
      }
      std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return std::lexicographical_compare(
            a.begin(), a.end(), b.begin(), b.end(),
            [](const Value& x, const Value& y) { return Value::Compare(x, y) < 0; });
      });
    }
    return contents;
  }

  static void ExpectSameContents(const TableRows& actual, const TableRows& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (const auto& [name, rows] : expected) {
      auto it = actual.find(name);
      ASSERT_NE(it, actual.end()) << name;
      ASSERT_EQ(it->second.size(), rows.size()) << name;
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(RowEq{}(it->second[i], rows[i])) << name << ": " << RowToString(it->second[i])
                                                      << " vs " << RowToString(rows[i]);
      }
    }
  }

  std::string dir_;
};

TEST_F(RecoveryTest, FreshDirectoryYieldsEmptyJournaledDatabase) {
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> db = Database::Recover(dir_, &stats);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.commits_replayed, 0u);
  EXPECT_NE((*db)->wal(), nullptr);
  EXPECT_TRUE((*db)->catalog()->TableNames().empty());
  // And it is immediately usable.
  EXPECT_TRUE((*db)->Execute("CREATE TABLE t (x INT)").ok());
}

TEST_F(RecoveryTest, CommittedStatementsAndPolicySurviveReopen) {
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    SetUpAuditedSchema(db.get());
    // Audited SELECT: its trigger writes one log row inside the same commit.
    ASSERT_TRUE(db->Execute("SELECT name FROM patients WHERE patientid = 1").ok());
    ASSERT_TRUE(db->Execute("UPDATE patients SET diagnosis = 'measles' "
                            "WHERE patientid = 2").ok());
  }

  RecoveryStats stats;
  Result<std::unique_ptr<Database>> reopened = Database::Recover(dir_, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  Database* db = reopened->get();
  EXPECT_GE(stats.commits_replayed, 6u);
  EXPECT_FALSE(stats.truncated_torn_tail);

  EXPECT_EQ(Count(db, "patients"), 2);
  EXPECT_EQ(Count(db, "log"), 1);
  auto diag = db->Execute("SELECT diagnosis FROM patients WHERE patientid = 2");
  ASSERT_TRUE(diag.ok());
  EXPECT_EQ(diag->rows[0][0].AsString(), "measles");

  // The policy was re-armed, not just the data: a fresh audited SELECT fires
  // the recovered trigger and appends a second audit-log row.
  ASSERT_TRUE(db->Execute("SELECT name FROM patients WHERE patientid = 1").ok());
  EXPECT_EQ(Count(db, "log"), 2);
}

TEST_F(RecoveryTest, JournalOfLegacyRecordsStillRecovers) {
  // A journal written before compact records existed: write one with this
  // build, re-encode every record in the legacy format, then recover it.
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    SetUpAuditedSchema(db.get());
    ASSERT_TRUE(db->Execute("SELECT name FROM patients WHERE patientid = 1").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO patients VALUES (-7, '', 'x')").ok());
    ASSERT_TRUE(db->Execute("UPDATE patients SET diagnosis = 'measles' "
                            "WHERE patientid = 2").ok());
  }
  Result<std::vector<WalSegment>> segments = ListWalSegments(dir_ + "/wal");
  ASSERT_TRUE(segments.ok());
  uint64_t legacy_commits = 0;
  for (const WalSegment& segment : *segments) {
    Result<WalSegmentContents> contents = ReadWalSegment(segment.path);
    ASSERT_TRUE(contents.ok());
    ASSERT_FALSE(contents->torn);
    std::string file = WalSegmentHeader(contents->seq, contents->epoch);
    for (const std::vector<WalOp>& commit : contents->commits) {
      file += legacy_wal::EncodeRecord(commit);
      ++legacy_commits;
    }
    std::ofstream(segment.path, std::ios::binary | std::ios::trunc)
        .write(file.data(), static_cast<std::streamsize>(file.size()));
  }

  RecoveryStats stats;
  Result<std::unique_ptr<Database>> reopened = Database::Recover(dir_, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  Database* db = reopened->get();
  EXPECT_EQ(stats.commits_replayed, legacy_commits);
  EXPECT_FALSE(stats.truncated_torn_tail);
  EXPECT_EQ(Count(db, "patients"), 3);
  EXPECT_EQ(Count(db, "log"), 1);
  auto diag = db->Execute("SELECT diagnosis FROM patients WHERE patientid = 2");
  ASSERT_TRUE(diag.ok());
  EXPECT_EQ(diag->rows[0][0].AsString(), "measles");
  auto negative = db->Execute("SELECT name FROM patients WHERE patientid = -7");
  ASSERT_TRUE(negative.ok());
  ASSERT_EQ(negative->rows.size(), 1u);
  EXPECT_EQ(negative->rows[0][0].AsString(), "");
  // The trigger was re-armed from the legacy journal, and new commits append
  // compact records behind the legacy ones.
  ASSERT_TRUE(db->Execute("SELECT name FROM patients WHERE patientid = 1").ok());
  EXPECT_EQ(Count(db, "log"), 2);
}

TEST_F(RecoveryTest, JournalOfCompactRecordsStillRecovers) {
  // A journal written by a build whose compact records spelled every string
  // out: write one with this build (the audited SELECT's record repeats its
  // statement text once per logged row), re-encode every record that way,
  // then recover it.
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    SetUpAuditedSchema(db.get());
    ASSERT_TRUE(db->Execute("INSERT INTO patients VALUES (3, 'Alice', 'cough'), "
                            "(4, 'Alice', 'flu'), (5, 'Alice', '')").ok());
    ASSERT_TRUE(db->Execute("SELECT name, diagnosis FROM patients "
                            "WHERE name = 'Alice'").ok());
    ASSERT_TRUE(db->Execute("UPDATE patients SET diagnosis = 'measles' "
                            "WHERE patientid = 2").ok());
    ASSERT_EQ(Count(db.get(), "log"), 4);
  }
  Result<std::vector<WalSegment>> segments = ListWalSegments(dir_ + "/wal");
  ASSERT_TRUE(segments.ok());
  uint64_t commits = 0;
  size_t shared_bytes = 0;
  size_t unshared_bytes = 0;
  for (const WalSegment& segment : *segments) {
    Result<WalSegmentContents> contents = ReadWalSegment(segment.path);
    ASSERT_TRUE(contents.ok());
    ASSERT_FALSE(contents->torn);
    std::string file = WalSegmentHeader(contents->seq, contents->epoch);
    for (const std::vector<WalOp>& commit : contents->commits) {
      file += compact_wal::EncodeRecord(commit);
      shared_bytes += EncodeWalRecord(commit).size();
      ++commits;
    }
    unshared_bytes += file.size() - kWalSegmentHeaderSize;
    std::ofstream(segment.path, std::ios::binary | std::ios::trunc)
        .write(file.data(), static_cast<std::streamsize>(file.size()));
  }
  EXPECT_LT(shared_bytes, unshared_bytes) << "the audited SELECT repeats strings";

  RecoveryStats stats;
  Result<std::unique_ptr<Database>> reopened = Database::Recover(dir_, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  Database* db = reopened->get();
  EXPECT_EQ(stats.commits_replayed, commits);
  EXPECT_FALSE(stats.truncated_torn_tail);
  EXPECT_EQ(Count(db, "patients"), 5);
  EXPECT_EQ(Count(db, "log"), 4);
  ExecOptions quiet;
  quiet.enable_select_triggers = false;
  auto logged = db->ExecuteWithOptions(
      "SELECT patientid, sql FROM log ORDER BY patientid", quiet);
  ASSERT_TRUE(logged.ok()) << logged.status().message();
  ASSERT_EQ(logged->result.rows.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(logged->result.rows[i][0].AsInt(), static_cast<int64_t>(i == 0 ? 1 : i + 2));
  }
  EXPECT_EQ(logged->result.rows[0][1], logged->result.rows[3][1]);
  EXPECT_NE(logged->result.rows[0][1].AsString().find("WHERE name = 'Alice'"),
            std::string::npos);
  auto diag = db->Execute("SELECT diagnosis FROM patients WHERE patientid = 2");
  ASSERT_TRUE(diag.ok());
  EXPECT_EQ(diag->rows[0][0].AsString(), "measles");
  // The trigger was re-armed from the recovered journal, and new commits
  // append records with references behind the re-encoded ones.
  ASSERT_TRUE(db->Execute("SELECT name FROM patients WHERE patientid = 1").ok());
  EXPECT_EQ(Count(db, "log"), 5);
}

TEST_F(RecoveryTest, AlterTableReplaysToTheSameCatalogVersion) {
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    SetUpAuditedSchema(db.get());
    ASSERT_TRUE(db->Execute("ALTER TABLE patients ADD COLUMN severity INT "
                            "DEFAULT 1, RENAME COLUMN severity TO sev").ok());
    ASSERT_TRUE(db->Execute("ALTER TABLE patients RETYPE COLUMN sev DOUBLE").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO patients VALUES (3, 'Carol', 'ok', 7)")
                    .ok());
  }

  RecoveryStats stats;
  Result<std::unique_ptr<Database>> reopened = Database::Recover(dir_, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  Database* db = reopened->get();

  auto table = db->catalog()->GetTable("patients");
  ASSERT_TRUE(table.ok());
  // Two committed ALTER statements = exactly two version steps, chain
  // length notwithstanding.
  EXPECT_EQ((*table)->schema_version(), 3u);
  EXPECT_EQ((*table)->schema().size(), 4u);
  EXPECT_EQ((*table)->schema().column(3).name, "sev");
  EXPECT_EQ((*table)->schema().column(3).type, TypeId::kDouble);
  EXPECT_EQ(Count(db, "patients"), 3);

  // The recovered policy rebinds against the final schema: this audited
  // SELECT (patient 1 is in the view) fires the trigger.
  auto backfilled = db->Execute("SELECT sev FROM patients WHERE patientid = 1");
  ASSERT_TRUE(backfilled.ok());
  EXPECT_EQ(backfilled->rows[0][0].AsInt(), 1);
  EXPECT_EQ(Count(db, "log"), 1);

  ASSERT_TRUE(db->Execute("SELECT name FROM patients WHERE patientid = 1").ok());
  EXPECT_EQ(Count(db, "log"), 2);
}

TEST_F(RecoveryTest, SchemaVersionSurvivesCheckpointManifest) {
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    SetUpAuditedSchema(db.get());
    ASSERT_TRUE(db->Execute("ALTER TABLE patients ADD COLUMN sev INT "
                            "DEFAULT 0").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // Post-checkpoint journal tail on top of the snapshot's version.
    ASSERT_TRUE(db->Execute("ALTER TABLE patients DROP COLUMN sev").ok());
  }

  RecoveryStats stats;
  Result<std::unique_ptr<Database>> reopened = Database::Recover(dir_, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  auto table = (*reopened)->catalog()->GetTable("patients");
  ASSERT_TRUE(table.ok());
  // Version 2 restored from the snapshot manifest, then the replayed DROP
  // lands on 3 — not a fresh table's 1 + 1.
  EXPECT_EQ((*table)->schema_version(), 3u);
  EXPECT_EQ((*table)->schema().size(), 3u);
  // Trigger bindings recreated during policy replay carry the live version.
  const TriggerDef* def = (*reopened)->trigger_manager()->Find("log_alice");
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->bound_schema_version, 3u);
}

TEST_F(RecoveryTest, TornTailIsDroppedAndRepaired) {
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (x INT)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (2)").ok());
  }
  // Tear the last few bytes off the newest segment, as a crash mid-append
  // would.
  auto segments = *ListWalSegments(dir_ + "/wal");
  ASSERT_FALSE(segments.empty());
  const std::string last = segments.back().path;
  const uint64_t size = std::filesystem::file_size(last);
  ASSERT_TRUE(TruncateFile(last, size - 3).ok());

  RecoveryStats stats;
  Result<std::unique_ptr<Database>> reopened = Database::Recover(dir_, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE(stats.truncated_torn_tail);
  // The torn statement (INSERT 2) is gone; everything before it survived.
  auto rows = (*reopened)->Execute("SELECT x FROM t");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt(), 1);

  // The tear was truncated away: a second recovery sees a clean journal.
  reopened->reset();
  RecoveryStats again;
  Result<std::unique_ptr<Database>> second = Database::Recover(dir_, &again);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(again.truncated_torn_tail);
  EXPECT_EQ(Count(second->get(), "t"), 1);
}

TEST_F(RecoveryTest, CheckpointBoundsTheJournalAndRecoversFromSnapshot) {
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    SetUpAuditedSchema(db.get());
    ASSERT_TRUE(db->Execute("SELECT name FROM patients WHERE patientid = 1").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // Covered segments are gone; exactly the fresh one remains.
    auto segments = *ListWalSegments(dir_ + "/wal");
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].seq, (*ReadSnapshotManifest(dir_ + "/snapshot")).wal_seq);
    // Post-checkpoint statements land in the new segment.
    ASSERT_TRUE(db->Execute("INSERT INTO patients VALUES (3, 'Carol', 'ok')").ok());
  }

  RecoveryStats stats;
  Result<std::unique_ptr<Database>> reopened = Database::Recover(dir_, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  Database* db = reopened->get();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_GT(stats.snapshot_wal_seq, 0u);
  EXPECT_EQ(stats.commits_replayed, 1u);  // only the post-checkpoint INSERT

  EXPECT_EQ(Count(db, "patients"), 3);
  EXPECT_EQ(Count(db, "log"), 1);  // the pre-checkpoint audited SELECT's row
  // Policy came back through the snapshot's policy section.
  ASSERT_TRUE(db->Execute("SELECT name FROM patients WHERE patientid = 1").ok());
  EXPECT_EQ(Count(db, "log"), 2);
  // The new sensitive row is in the rebuilt ID view: Carol is not audited,
  // Alice still is.
  ASSERT_NE(db->audit_manager()->Find("audit_alice"), nullptr);
}

TEST_F(RecoveryTest, CheckpointRequiresTheJournal) {
  Database plain;
  EXPECT_FALSE(plain.Checkpoint().ok());
}

TEST_F(RecoveryTest, PolicyIsExcludedFromSnapshotsByDefault) {
  Database db;
  SetUpAuditedSchema(&db);
  const std::string snap = dir_ + "/snapshot";
  ASSERT_TRUE(SaveSnapshot(&db, snap).ok());
  std::string schema = *ReadFileToString(snap + "/schema.sql");
  // SECURITY: without include_policy the snapshot must not reveal what is
  // audited or what the triggers do.
  EXPECT_EQ(schema.find("AUDIT EXPRESSION"), std::string::npos);
  EXPECT_EQ(schema.find("CREATE TRIGGER"), std::string::npos);

  SnapshotOptions options;
  options.include_policy = true;
  ASSERT_TRUE(SaveSnapshot(&db, snap, options).ok());
  schema = *ReadFileToString(snap + "/schema.sql");
  EXPECT_NE(schema.find("CREATE AUDIT EXPRESSION"), std::string::npos);
  EXPECT_NE(schema.find("CREATE TRIGGER"), std::string::npos);
}

TEST_F(RecoveryTest, QuarantineStateSurvivesJournalReplayAndCheckpoint) {
  ExecOptions fail_open;
  fail_open.audit_failure_policy = AuditFailurePolicy::kFailOpen;
  fail_open.guards.fail_open_retries = 1;
  fail_open.guards.quarantine_after = 1;
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    SetUpAuditedSchema(db.get());
    fault::ScopedFault fail(fault_points::kTriggerAction, FaultInjector::FailAlways());
    FaultInjector::Instance().Enable(true);
    auto r = db->ExecuteWithOptions("SELECT name FROM patients WHERE patientid = 1",
                                    fail_open);
    ASSERT_TRUE(r.ok()) << r.status().message();
  }
  FaultInjector::Instance().Reset();

  // Journal replay path: the kTriggerState record restores the breaker.
  {
    std::unique_ptr<Database> reopened = OpenDurable();
    ASSERT_NE(reopened, nullptr);
    auto quarantined = reopened->trigger_manager()->Quarantined();
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(quarantined[0]->name, "log_alice");
    // The loss ledger replayed with it.
    EXPECT_GE(Count(reopened.get(), Database::kAuditErrorsTable), 1);
    // Checkpoint now, so the next recovery exercises the MANIFEST path.
    ASSERT_TRUE(reopened->Checkpoint().ok());
  }
  std::unique_ptr<Database> from_snapshot = OpenDurable();
  ASSERT_NE(from_snapshot, nullptr);
  auto quarantined = from_snapshot->trigger_manager()->Quarantined();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0]->name, "log_alice");
  EXPECT_GE(Count(from_snapshot.get(), Database::kAuditErrorsTable), 1);
}

TEST_F(RecoveryTest, InterruptedSwapRollsBackToTheOldSnapshot) {
  // Simulate a crash between SaveSnapshot's two renames: the previous
  // snapshot sits at snapshot.old and <dir>/snapshot is gone. Recovery must
  // roll back to it; the journal segments it needs still exist (they are
  // deleted only after a checkpoint fully succeeds).
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (x INT)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (2)").ok());
  }
  std::filesystem::rename(dir_ + "/snapshot", dir_ + "/snapshot.old");

  std::unique_ptr<Database> recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(Count(recovered.get(), "t"), 2);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/snapshot/schema.sql"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/snapshot.old"));
}

TEST_F(RecoveryTest, StaleOldSnapshotBesideANewOneIsDropped) {
  // Crash after the new snapshot was swapped in but before the old one was
  // removed: both directories exist. The new snapshot wins; .old goes.
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (x INT)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  std::filesystem::create_directories(dir_ + "/snapshot.old");
  std::ofstream(dir_ + "/snapshot.old/schema.sql") << "CREATE TABLE stale (x INT);\n";

  std::unique_ptr<Database> recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(Count(recovered.get(), "t"), 1);
  EXPECT_FALSE(recovered->catalog()->GetTable("stale").ok());
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/snapshot.old"));
}

TEST_F(RecoveryTest, CutlessSnapshotOverAnExistingJournalIsRefused) {
  // A plain SaveSnapshot dropped at <dir>/snapshot of a journaled database
  // records no journal cut; replaying the journal over it would double-apply
  // every commit. Recovery must refuse loudly rather than guess wal_seq 0.
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (x INT)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
  }
  Database plain;
  ASSERT_TRUE(plain.Execute("CREATE TABLE u (y INT)").ok());
  ASSERT_TRUE(SaveSnapshot(&plain, dir_ + "/snapshot").ok());

  Result<std::unique_ptr<Database>> refused = Database::Recover(dir_);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("journal cut"), std::string::npos)
      << refused.status().message();

  // The legacy shape — no MANIFEST at all — is refused the same way.
  std::filesystem::remove(dir_ + "/snapshot/MANIFEST");
  refused = Database::Recover(dir_);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("journal cut"), std::string::npos);
}

TEST_F(RecoveryTest, BootstrapFromPlainSnapshotStampsTheJournalCut) {
  // Seeding a fresh durable directory from a plain snapshot is legitimate —
  // there is no journal yet. The first recovery must stamp the cut so later
  // recoveries replay the journal exactly once instead of refusing.
  Database plain;
  ASSERT_TRUE(plain.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(plain.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(SaveSnapshot(&plain, dir_ + "/snapshot").ok());

  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(Count(db.get(), "t"), 1);
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (2)").ok());
  }
  EXPECT_GE((*ReadSnapshotManifest(dir_ + "/snapshot")).wal_seq, 1u);

  RecoveryStats stats;
  Result<std::unique_ptr<Database>> reopened = Database::Recover(dir_, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(stats.commits_replayed, 1u);  // only the post-bootstrap INSERT
  EXPECT_EQ(Count(reopened->get(), "t"), 2);  // no double-applied rows
}

TEST_F(RecoveryTest, FailedStatementLeavesNoTraceInMemoryOrJournal) {
  std::unique_ptr<Database> db = OpenDurable();
  ASSERT_NE(db, nullptr);
  SetUpAuditedSchema(db.get());

  {
    // Fail-closed journaling: if the commit record cannot be appended, the
    // statement must fail and roll back wholesale.
    fault::ScopedFault fail(fault_points::kWalAppend, FaultInjector::FailOnce());
    FaultInjector::Instance().Enable(true);
    auto r = db->Execute("INSERT INTO patients VALUES (3, 'Carol', 'ok')");
    EXPECT_FALSE(r.ok());
  }
  FaultInjector::Instance().Reset();
  EXPECT_EQ(Count(db.get(), "patients"), 2);

  db.reset();
  std::unique_ptr<Database> reopened = OpenDurable();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(Count(reopened.get(), "patients"), 2);
}

TEST_F(RecoveryTest, BulkLoadWithoutCheckpointIsDetectedOnReplay) {
  // Bulk loaders write tables directly, behind the journal's back. If such a
  // load is not followed by a CHECKPOINT, later journaled DML can reference
  // rows the journal never saw; replay must fail loudly rather than guess.
  std::unique_ptr<Database> db = OpenDurable();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (x INT PRIMARY KEY, y VARCHAR)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1, 'a')").ok());
  {
    std::unique_lock lock(db->storage_mutex());
    Table* table = *db->catalog()->GetTable("t");
    ASSERT_TRUE(table->Insert({Value::Int(7), Value::String("ghost")}).ok());
  }
  ASSERT_TRUE(db->Execute("DELETE FROM t WHERE x = 7").ok());
  db.reset();

  // Replay: the journaled DELETE references a row (7, 'ghost') that no
  // journaled statement created.
  Result<std::unique_ptr<Database>> reopened = Database::Recover(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("CHECKPOINT"), std::string::npos)
      << reopened.status().message();
}

TEST_F(RecoveryTest, CheckpointAfterBulkLoadMakesItDurable) {
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(tpch::LoadTpch(db.get(), {/*scale_factor=*/0.002}).ok());
    // The loaders write tables directly; the journal knows nothing. The
    // checkpoint captures the loaded state so recovery starts from it.
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Execute("DELETE FROM region WHERE r_regionkey = 0").ok());
  }
  std::unique_ptr<Database> reopened = OpenDurable();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(Count(reopened.get(), "region"), 4);
  EXPECT_GT(Count(reopened.get(), "customer"), 0);
}

// Differential: the same TPC-H query answers the same before and after a
// checkpoint + crash-free recovery cycle.
TEST_F(RecoveryTest, TpchQueriesMatchAfterRecovery) {
  const char* kQuery =
      "SELECT c_mktsegment, COUNT(*) FROM customer "
      "GROUP BY c_mktsegment ORDER BY c_mktsegment";
  const char* kExactQueries[] = {
      "SELECT * FROM orders ORDER BY o_orderkey",
      "SELECT * FROM lineitem ORDER BY l_orderkey, l_linenumber"};
  std::vector<std::string> before;
  std::vector<std::vector<Row>> exact_before;
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(tpch::LoadTpch(db.get(), {/*scale_factor=*/0.002}).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Execute(
        "INSERT INTO customer SELECT c_custkey + 1000000, c_name, c_address, "
        "c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment "
        "FROM customer WHERE c_custkey < 10").ok());
    auto r = db->Execute(kQuery);
    ASSERT_TRUE(r.ok());
    for (const Row& row : r->rows) before.push_back(RowToString(row));
    for (const char* query : kExactQueries) {
      auto all = db->Execute(query);
      ASSERT_TRUE(all.ok()) << query;
      exact_before.push_back(std::move(all->rows));
    }
  }
  std::unique_ptr<Database> reopened = OpenDurable();
  ASSERT_NE(reopened, nullptr);
  auto r = reopened->Execute(kQuery);
  ASSERT_TRUE(r.ok());
  std::vector<std::string> after;
  for (const Row& row : r->rows) after.push_back(RowToString(row));
  EXPECT_EQ(before, after);
  // Every cell of the checkpointed tables, DOUBLE prices included, comes back
  // exactly (RowToString would round them to six digits).
  for (size_t q = 0; q < std::size(kExactQueries); ++q) {
    auto all = reopened->Execute(kExactQueries[q]);
    ASSERT_TRUE(all.ok()) << kExactQueries[q];
    ASSERT_EQ(all->rows.size(), exact_before[q].size()) << kExactQueries[q];
    size_t mismatches = 0;
    for (size_t i = 0; i < all->rows.size(); ++i) {
      if (!RowEq{}(all->rows[i], exact_before[q][i])) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << kExactQueries[q];
  }
}

// A checkpoint must restore DOUBLEs with every digit: a later UPDATE or
// DELETE is journaled with the exact old-row image, and replay must find
// that row in the restored snapshot.
TEST_F(RecoveryTest, UpdatesOfCheckpointedDoublesReplay) {
  TableRows live;
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->ExecuteScript(R"sql(
      CREATE TABLE t (id INT PRIMARY KEY, d DOUBLE);
      INSERT INTO t VALUES (1, 173665.47), (2, 0.1234567891), (3, 1e-300),
                           (4, -0.0), (5, 9007199254740994.0);
    )sql").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Execute("UPDATE t SET id = 10 WHERE id = 1").ok());
    ASSERT_TRUE(db->Execute("UPDATE t SET d = d * 2 WHERE id = 2").ok());
    ASSERT_TRUE(db->Execute("DELETE FROM t WHERE id = 3").ok());
    ASSERT_TRUE(db->Execute("DELETE FROM t WHERE id = 5").ok());
    live = Contents(db.get());
  }
  std::unique_ptr<Database> recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectSameContents(Contents(recovered.get()), live);
}

// A snapshot loaded into an already journaled database (the shell's .wal,
// then .open) appends its rows outside the journal; the load's closing
// checkpoint makes them durable, so a later UPDATE replays over them.
TEST_F(RecoveryTest, SnapshotLoadedIntoJournaledDatabaseSurvivesReopen) {
  const std::string snapshot = dir_ + "_plain_snapshot";
  {
    Database source;
    ASSERT_TRUE(source.ExecuteScript(R"sql(
      CREATE TABLE t (id INT PRIMARY KEY, d DOUBLE);
      INSERT INTO t VALUES (1, 173665.47), (2, 2.5);
    )sql").ok());
    ASSERT_TRUE(SaveSnapshot(&source, snapshot).ok());
  }
  TableRows live;
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(LoadSnapshot(db.get(), snapshot).ok());
    ASSERT_TRUE(db->Execute("UPDATE t SET d = 3 WHERE id = 1").ok());
    live = Contents(db.get());
  }
  std::filesystem::remove_all(snapshot);
  std::unique_ptr<Database> recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectSameContents(Contents(recovered.get()), live);
}

// A load into a journaled database that fails part way still checkpoints:
// the first table's rows are in storage, and a later UPDATE of one of them
// is journaled against a row image that replay must find.
TEST_F(RecoveryTest, FailedSnapshotLoadIntoJournaledDatabaseSurvivesReopen) {
  const std::string snapshot = dir_ + "_plain_snapshot";
  {
    Database source;
    ASSERT_TRUE(source.ExecuteScript(R"sql(
      CREATE TABLE a (id INT PRIMARY KEY, d DOUBLE);
      CREATE TABLE b (id INT PRIMARY KEY, name VARCHAR);
      INSERT INTO a VALUES (1, 1.5), (2, 2.5);
      INSERT INTO b VALUES (1, 'x');
    )sql").ok());
    ASSERT_TRUE(SaveSnapshot(&source, snapshot).ok());
  }
  std::ofstream(snapshot + "/b.csv", std::ios::trunc) << "id,name\n1,x\nbad,y\n";
  TableRows live;
  {
    std::unique_ptr<Database> db = OpenDurable();
    ASSERT_NE(db, nullptr);
    Status loaded = LoadSnapshot(db.get(), snapshot);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.message().find("b.csv: CSV record 3"), std::string::npos)
        << loaded.message();
    ASSERT_EQ(Count(db.get(), "a"), 2);
    ASSERT_TRUE(db->Execute("UPDATE a SET d = 3 WHERE id = 1").ok());
    live = Contents(db.get());
  }
  std::filesystem::remove_all(snapshot);
  std::unique_ptr<Database> recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectSameContents(Contents(recovered.get()), live);
}

}  // namespace
}  // namespace seltrig
