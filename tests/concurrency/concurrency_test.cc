// Concurrency suite (`ctest -L concurrency`): the shared-catalog/session
// split under real threads.
//
//  - N concurrent sessions: SELECT-trigger firing, morsel-parallel gathers
//    from several sessions sharing one worker pool, and readers interleaved
//    with DML writers maintaining the sensitive-ID view.
//  - Trigger circuit breaker raced from many sessions: quarantine trips
//    exactly once, Rearm restores firing.
//  - The worker pool's RunAndWait runs each index exactly once, including
//    the ones the calling thread claims because no pool thread woke in time.
//
// Run these under the `tsan` CMake preset to get ThreadSanitizer coverage of
// the storage reader-writer lock, the trigger registry, and the gather merge.
// The thread-count differential over the TPC-H corpus (1 / 2 / 4 / 8 morsel
// workers) lives in tests/tpch/corpus_differential_test.cc, which the preset
// also runs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/database.h"
#include "storage/wal.h"

namespace seltrig {
namespace {

// ThreadPool::RunAndWait: every index runs exactly once, whether a pool
// thread or the caller claims it, and all have finished when it returns (each
// index sleeps, so pool threads are still busy when the caller runs out of
// indexes). A pool of 2 under 8 indexes leaves tokens that wake after the
// call returned; they must not touch the caller's state (each round's `hits`
// is freed before the next, so ASan/TSan see a stray write).
TEST(ThreadPoolTest, RunAndWaitRunsEachIndexOnce) {
  ThreadPool pool(2);
  for (int round = 0; round < 100; ++round) {
    for (int n : {1, 2, 3, 8}) {
      std::vector<int> hits(static_cast<size_t>(n), 0);
      pool.RunAndWait(n, [&](int i) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++hits[static_cast<size_t>(i)];
      });
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<size_t>(i)], 1)
            << "index " << i << " of " << n << ", round " << round;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent sessions against one shared Database.

class ConcurrentSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, zip INT);
      CREATE TABLE log (userid VARCHAR, patientid INT);
      INSERT INTO patients VALUES (1, 'Alice', 98101), (2, 'Bob', 98102),
                                  (3, 'Carol', 98101);
    )sql").ok());
    ASSERT_TRUE(db_.Execute(
        "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients "
        "WHERE name = 'Alice' FOR SENSITIVE TABLE patients PARTITION BY patientid").ok());
  }

  int64_t LogCount() {
    auto r = db_.Execute("SELECT COUNT(*) FROM log");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows[0][0].AsInt() : -1;
  }

  Database db_;
};

// Eight sessions hammer the audited row at once; every run must fire the
// SELECT trigger exactly once, so the log ends up with exactly
// sessions x iterations rows despite the interleaving.
TEST_F(ConcurrentSessionTest, SelectTriggersFireOncePerQueryAcrossSessions) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "INSERT INTO log SELECT user_id(), patientid FROM accessed").ok());

  constexpr int kSessions = 8;
  constexpr int kIterations = 5;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) sessions.push_back(db_.CreateSession());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      sessions[static_cast<size_t>(i)]->context()->user =
          "user" + std::to_string(i);
      for (int j = 0; j < kIterations; ++j) {
        auto r = sessions[static_cast<size_t>(i)]->Execute(
            "SELECT * FROM patients WHERE patientid = 1");
        if (!r.ok() || r->rows.size() != 1) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(LogCount(), kSessions * kIterations);
  // Every session contributed its own share under its own user.
  auto per_user = db_.Execute(
      "SELECT userid, COUNT(*) FROM log GROUP BY userid ORDER BY userid");
  ASSERT_TRUE(per_user.ok());
  ASSERT_EQ(per_user->rows.size(), static_cast<size_t>(kSessions));
  for (const auto& row : per_user->rows) {
    EXPECT_EQ(row[1].AsInt(), kIterations);
  }
}

// Several sessions run morsel-parallel gathers at once (sharing the process
// worker pool); each must match the serial answer computed up front.
TEST_F(ConcurrentSessionTest, ParallelGathersFromConcurrentSessionsMatchSerial) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE wide (id INT PRIMARY KEY, v INT)").ok());
  std::string insert;
  for (int i = 1; i <= 20000; ++i) {
    if (insert.empty()) insert = "INSERT INTO wide VALUES ";
    insert.append("(").append(std::to_string(i)).append(", ")
        .append(std::to_string(i % 997)).append(")");
    if (i % 1000 == 0) {
      ASSERT_TRUE(db_.Execute(insert).ok());
      insert.clear();
    } else {
      insert += ", ";
    }
  }
  ASSERT_TRUE(db_.Execute(
      "CREATE AUDIT EXPRESSION audit_wide AS SELECT * FROM wide WHERE v < 10 "
      "FOR SENSITIVE TABLE wide PARTITION BY id").ok());

  const std::string sql = "SELECT v FROM wide WHERE v >= 900";
  ExecOptions serial;
  serial.enable_select_triggers = false;
  serial.instrument_all_audit_expressions = true;
  auto baseline = db_.ExecuteWithOptions(sql, serial);
  ASSERT_TRUE(baseline.ok());

  constexpr int kSessions = 6;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) sessions.push_back(db_.CreateSession());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      ExecOptions options = serial;
      options.num_threads = (i % 2 == 0) ? 4 : 8;
      for (int j = 0; j < 3; ++j) {
        auto r = sessions[static_cast<size_t>(i)]->ExecuteWithOptions(sql, options);
        if (!r.ok() || r->result.rows != baseline->result.rows ||
            r->accessed != baseline->accessed ||
            r->stats.rows_scanned != baseline->stats.rows_scanned) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// DML writers extend the sensitive partition (incremental ID-view
// maintenance, serialized behind the writer lock) while reader sessions keep
// querying. No reader may error, and the final view must reflect every write.
TEST_F(ConcurrentSessionTest, ViewMaintenanceRacesReaders) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kRowsPerWriter = 40;

  std::vector<std::unique_ptr<Session>> writers, readers;
  for (int i = 0; i < kWriters; ++i) writers.push_back(db_.CreateSession());
  for (int i = 0; i < kReaders; ++i) readers.push_back(db_.CreateSession());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kRowsPerWriter; ++i) {
        // Every inserted row is named Alice: each insert must extend the
        // audit_alice ID view before the writer lock is released.
        int id = 100 + w * 1000 + i;
        auto r = writers[static_cast<size_t>(w)]->Execute(
            "INSERT INTO patients VALUES (" + std::to_string(id) +
            ", 'Alice', 98103)");
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (int rd = 0; rd < kReaders; ++rd) {
    threads.emplace_back([&, rd] {
      ExecOptions options;
      options.enable_select_triggers = false;
      options.instrument_all_audit_expressions = true;
      for (int i = 0; i < 20; ++i) {
        auto r = readers[static_cast<size_t>(rd)]->ExecuteWithOptions(
            "SELECT COUNT(*) FROM patients WHERE name = 'Alice'", options);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiescent check: the view saw every maintenance step.
  ExecOptions options;
  options.enable_select_triggers = false;
  options.instrument_all_audit_expressions = true;
  auto r = db_.ExecuteWithOptions("SELECT * FROM patients WHERE name = 'Alice'",
                                  options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.rows.size(), 1u + kWriters * kRowsPerWriter);
  EXPECT_EQ(r->accessed.at("audit_alice").size(), 1u + kWriters * kRowsPerWriter);
}

// The circuit breaker raced from many sessions: a trigger whose action always
// RAISEs under fail-open must end up quarantined (threshold crossed exactly
// once, no lost updates on the failure counter), queries keep succeeding, and
// Rearm restores firing.
TEST_F(ConcurrentSessionTest, QuarantineRaceAndRearm) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
      "RAISE 'audit backend down'").ok());

  ExecOptions options;
  options.audit_failure_policy = AuditFailurePolicy::kFailOpen;
  options.guards.fail_open_retries = 0;
  options.guards.quarantine_after = 3;

  constexpr int kSessions = 8;
  constexpr int kIterations = 4;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) sessions.push_back(db_.CreateSession());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      for (int j = 0; j < kIterations; ++j) {
        auto r = sessions[static_cast<size_t>(i)]->ExecuteWithOptions(
            "SELECT * FROM patients WHERE patientid = 1", options);
        // Fail-open: the query itself must succeed even while the action fails.
        if (!r.ok() || r->result.rows.size() != 1) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const TriggerDef* def = db_.trigger_manager()->Find("log_alice");
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->quarantined.load());
  EXPECT_FALSE(def->enabled.load());
  EXPECT_GE(def->consecutive_failures, options.guards.quarantine_after);

  // Rearm clears quarantine and the counter; the trigger fires (and fails)
  // again on the next audited query.
  ASSERT_TRUE(db_.trigger_manager()->Rearm("log_alice").ok());
  EXPECT_FALSE(def->quarantined.load());
  EXPECT_TRUE(def->enabled.load());
  EXPECT_EQ(def->consecutive_failures, 0);
  ASSERT_TRUE(db_.ExecuteWithOptions("SELECT * FROM patients WHERE patientid = 1",
                                     options).ok());
  EXPECT_EQ(def->consecutive_failures, 1);
}

// Checkpoints race live journaled sessions: writers keep committing while
// another thread checkpoints repeatedly, so commits land on both sides of
// several snapshot/segment boundaries. Every acknowledged write must be
// present both in the live database and after recovering the directory.
TEST(DurableConcurrencyTest, CheckpointRacesActiveSessions) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("seltrig_ckptrace_" + std::to_string(::getpid()))).string();
  std::filesystem::remove_all(dir);

  constexpr int kWriters = 4;
  constexpr int kRowsPerWriter = 40;
  constexpr int kCheckpoints = 6;
  {
    Result<std::unique_ptr<Database>> opened = Database::Recover(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    std::unique_ptr<Database> db = std::move(*opened);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT PRIMARY KEY, writer INT)").ok());

    std::vector<std::unique_ptr<Session>> sessions;
    for (int i = 0; i < kWriters; ++i) sessions.push_back(db->CreateSession());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kWriters; ++i) {
      threads.emplace_back([&, i] {
        for (int j = 0; j < kRowsPerWriter; ++j) {
          auto r = sessions[static_cast<size_t>(i)]->Execute(
              "INSERT INTO t VALUES (" + std::to_string(i * 1000 + j) + ", " +
              std::to_string(i) + ")");
          if (!r.ok()) failures.fetch_add(1);
        }
      });
    }
    threads.emplace_back([&] {
      for (int c = 0; c < kCheckpoints; ++c) {
        Status s = db->Checkpoint();
        if (!s.ok()) failures.fetch_add(1);
        std::this_thread::yield();
      }
    });
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);
    auto live = db->Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(live->rows[0][0].AsInt(), kWriters * kRowsPerWriter);
  }

  Result<std::unique_ptr<Database>> recovered = Database::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  auto total = (*recovered)->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total->rows[0][0].AsInt(), kWriters * kRowsPerWriter);
  // Per-writer counts survived intact too.
  auto per_writer = (*recovered)->Execute(
      "SELECT writer, COUNT(*) FROM t GROUP BY writer ORDER BY writer");
  ASSERT_TRUE(per_writer.ok());
  ASSERT_EQ(per_writer->rows.size(), static_cast<size_t>(kWriters));
  for (const auto& row : per_writer->rows) {
    EXPECT_EQ(row[1].AsInt(), kRowsPerWriter);
  }
  recovered->reset();
  std::filesystem::remove_all(dir);
}

// Regression for a race the thread-safety annotation pass surfaced
// (docs/STATIC_ANALYSIS.md): WalWriter::current_seq() used to read seq_
// without the mutex, racing Rotate's segment swap. Readers poll the sequence
// while a committer appends and the main thread rotates; under the tsan
// preset the original unlocked read is reported as a data race.
TEST(DurableConcurrencyTest, CurrentSeqRacesRotateAndCommit) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("seltrig_walrace_" + std::to_string(::getpid()))).string();
  std::filesystem::remove_all(dir);
  Result<std::unique_ptr<WalWriter>> opened = WalWriter::Open(dir + "/wal");
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<WalWriter> writer = std::move(*opened);
  writer->set_sync_mode(WalSyncMode::kBatch);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load()) {
      uint64_t seq = writer->current_seq();
      EXPECT_GE(seq, last);  // segment sequences only move forward
      last = seq;
    }
  });
  std::thread committer([&] {
    while (!stop.load()) {
      if (!writer->Commit({WalOp::Statement("NOTIFY 'race'")}).ok()) break;
    }
  });
  for (int i = 0; i < 16; ++i) {
    uint64_t new_seq = 0;
    ASSERT_TRUE(writer->Rotate(&new_seq).ok());
  }
  stop.store(true);
  committer.join();
  reader.join();
  writer.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace seltrig
