// seltrig_crashtest: kill-point crash-recovery harness for the durable audit
// journal (storage/wal.h, engine/recovery.h; docs/DURABILITY.md).
//
// For every storage/journal/schema-change fault point and every Nth hit, the
// harness forks a child that opens a durable database, runs a fixed audited
// workload, and records an fsynced acknowledgement after each statement the
// engine reports committed. The armed fault kills the child mid-flight
// (std::_Exit -- no destructors, no flushes, exactly like a crash). The
// parent then recovers the directory and checks the durability invariant:
//
//   the recovered state equals the state after some prefix of the workload,
//   and that prefix covers every acknowledged statement -- including the
//   audit-log row written by the SELECT trigger of every acknowledged SELECT.
//
// At most one statement can be in flight when the child dies, so the prefix
// is either exactly the acknowledged statements or those plus one (committed
// to the journal but killed before the acknowledgement was recorded). Any
// other state -- a lost acknowledged write, a surviving half-statement -- is
// a durability bug and fails the run.
//
// A separate trial covers the fail-open loss ledger: a SELECT whose trigger
// always fails is acknowledged with its loss recorded in seltrig_audit_errors
// and its trigger quarantined; the child is then killed and the parent checks
// that the loss row and the quarantine state both survive recovery.
//
// Exit codes inside a trial child: FaultInjector::kCrashExitCode (137) means
// the armed fault fired; 42 means the workload completed without the fault
// firing (the Nth-hit sweep for that point is exhausted -- the parent still
// verifies full recovery); anything else is a harness failure.
//
// Replication mode (--replication) runs a two-node kill matrix instead: for
// every replication.* and journal fault point, in both sync and async ack
// modes, a primary process (Database + LogShipper over a unix socket) runs
// the workload against a follower process (ReplicaApplier), with the point
// armed to crash either the primary or the follower at its Nth hit. The
// parent then PROMOTES the follower directory and checks the acked-prefix
// invariant: the promoted state equals the state after some workload prefix,
// and under sync ack mode that prefix covers every statement acknowledged
// while the follower was in the sync quorum — rows, audit log, and ACCESSED
// bit-for-bit. The primary directory must independently recover to its own
// locally-acknowledged prefix, as in the single-node sweep.
//
// Election mode (--replication --nodes 3) runs a three-node kill matrix over
// the automatic leader election layer (replication/election.h). Every node is
// a full ElectionNode — election bus and replication endpoint on unix
// sockets, sync ack mode — and NO process ever calls Database::Promote: every
// promotion in the matrix is the election layer's own doing. Whichever node
// currently leads drives a monotonically keyed audited workload; the armed
// fault SIGKILLs one node at the Nth hit of each replication/election fault
// point (or, in the partition trials, silently drops its outbound election
// traffic for a stretch — a severed link instead of a crash). The parent then
// asserts the three failover invariants:
//
//   (a) a leader emerges within a bounded number of election timeouts, both
//       at cold start and after the victim dies;
//   (b) every statement acknowledged while a follower was in the sync quorum
//       (leader + follower = a majority) survives into the final leader's
//       state — rows, audit-log rows, and the exact committed values;
//   (c) the healed victim rejoins as a follower and converges onto the new
//       history: any forked suffix it committed while deposed (encoded in a
//       per-(node, epoch) diagnosis tag) must be resynced away, never acked
//       into the new timeline.
//
// Election timeouts and vote-spread jitter are seeded from --seed, so a
// failing trial sequence replays deterministically.
//
// Layout: each matrix is a table of scenarios (a label stem, the fault hits to
// sweep, and a per-trial function returning crashed, exhausted or failed),
// and one sweep runner, RunMatrix, runs any table: seeded shuffle, one fresh
// directory per trial label, the --only filter and --trials budget, --keep
// cleanup, counting, and the summary line. A scenario's hit sweep ends at its
// first exhausted or failed trial. Every trial process is a Child, which is
// SIGKILLed and reaped if it outlives its trial.
//
// Usage: seltrig_crashtest [--quick] [--keep] [--dir DIR] [--seed N]
//                          [--replication [--nodes 2|3]] [--trials N]
//                          [--only LABEL-PREFIX]
//   --quick        sweep only the first few hits of each point (CI smoke mode)
//   --keep         keep trial directories, including on failure (default:
//                  removed; failures print the label so a --keep rerun can
//                  reproduce them)
//   --dir          parent directory for trial state (default: a fresh temp dir)
//   --seed         deterministic trial-order seed (default 1; the sweep order
//                  is a seeded shuffle, so two runs with the same seed execute
//                  identical trial sequences; also seeds election timeouts)
//   --replication  run the two-node replication kill matrix
//   --nodes        with --replication: cluster size (2 = operator-promoted
//                  pair, 3 = automatic-election matrix; default 2)
//   --trials       cap the number of trials (0 = the mode's default: the
//                  full sweep, or 8 for --quick --nodes 3)
//   --only         run only trials whose label starts with this prefix
//                  (e.g. `--only wal.append#3` reruns one failing trial)

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/fault_injector.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "replication/applier.h"
#include "replication/election.h"
#include "replication/shipper.h"
#include "replication/transport.h"
#include "storage/table.h"
#include "storage/wal.h"
#include "types/value.h"

namespace seltrig {
namespace {

constexpr int kSweepExhausted = 42;
constexpr int kHarnessError = 70;
// Unarmed trials never fire; bound the sweep in case a point goes dead.
constexpr uint64_t kMaxNth = 64;
constexpr uint64_t kQuickNthLimit = 3;

// A checkpoint marker in the workload: the child calls Database::Checkpoint()
// (there is no SQL form in Database::Execute; the shell intercepts the word).
constexpr const char* kCheckpointMarker = "@checkpoint";

// The audited schema, shared by the fixed workload and the election matrix's
// per-leader setup.
constexpr const char* kCreatePatients =
    "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, "
    "diagnosis VARCHAR)";
constexpr const char* kCreateLog =
    "CREATE TABLE log (ts VARCHAR, userid VARCHAR, sql VARCHAR, patientid INT)";
constexpr const char* kCreateAuditAlice =
    "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients WHERE "
    "name = 'Alice' FOR SENSITIVE TABLE patients PARTITION BY patientid";
constexpr const char* kCreateLogAlice =
    "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS INSERT INTO log "
    "SELECT now(), user_id(), sql_text(), patientid FROM accessed";

// The audited workload. Every statement is deterministic apart from now(),
// which the verifier excludes from comparison. `patients` has a PRIMARY KEY
// so replay exercises the keyed row-image lookup; `log` has none, covering
// the full-scan image lookup.
const std::vector<std::string>& Workload() {
  static const std::vector<std::string> workload = {
      kCreatePatients,
      kCreateLog,
      "INSERT INTO patients VALUES (1, 'Alice', 'flu')",
      "INSERT INTO patients VALUES (2, 'Bob', 'cold')",
      kCreateAuditAlice,
      kCreateLogAlice,
      "SELECT name FROM patients WHERE patientid = 1",
      "UPDATE patients SET diagnosis = 'measles' WHERE patientid = 2",
      "INSERT INTO patients VALUES (3, 'Carol', 'checkup')",
      // Online schema change on the audited table with its SELECT trigger
      // live: the ALTER journals as a logical DDL record and bumps the
      // schema version, which the following checkpoint must persist in the
      // snapshot manifest. The catalog.alter.* kill points fire inside it.
      "ALTER TABLE patients ADD COLUMN severity INT DEFAULT 0",
      kCheckpointMarker,
      "SELECT diagnosis FROM patients WHERE name = 'Alice'",
      // A chained change (rename + int->double retype) is a single version
      // step; recovery replays it as one statement.
      "ALTER TABLE patients RENAME COLUMN severity TO sev, "
      "RETYPE COLUMN sev DOUBLE",
      "DELETE FROM patients WHERE patientid = 3",
      // A second checkpoint replaces the first snapshot, so the kill-point
      // sweep reaches every window of the rename-aside swap (snapshot.swap):
      // crash with only the old snapshot, with only snapshot.old, and with
      // both present. Recovery must resolve each state.
      kCheckpointMarker,
      // Drop the added column again (leaving only post-snapshot DDL in the
      // journal tail) before the final insert, which targets the original
      // three-column shape.
      "ALTER TABLE patients DROP COLUMN sev",
      "INSERT INTO patients VALUES (4, 'Dave', 'flu')",
  };
  return workload;
}

// Fault points swept with a crash-at-Nth-hit schedule. wal.torn is special:
// it is armed with an error schedule and the journal writer itself turns the
// firing into a half-written record followed by _Exit (see WalWriter::Append).
const std::vector<std::string>& SweepPoints() {
  static const std::vector<std::string> points = {
      fault_points::kWalAppend,  fault_points::kWalFsync,      fault_points::kWalRotate, fault_points::kWalTorn,
      fault_points::kStorageAppend, fault_points::kTriggerAction, fault_points::kSnapshotWrite, fault_points::kSnapshotSwap,
      // Online schema change: a kill inside ALTER TABLE (before its DDL
      // record commits) must recover to the pre-ALTER state with the old
      // schema version; a kill after must replay to the bumped version.
      fault_points::kCatalogAlterValidate, fault_points::kCatalogAlterApply, fault_points::kCatalogAlterRebind,
  };
  return points;
}

// The two-node matrix sweeps every replication fault point plus the journal
// points that fire on the primary while it is being shipped from. Points
// that never fire in the victim process exhaust at the first hit count and
// cost one trial.
const std::vector<std::string>& ReplicationSweepPoints() {
  static const std::vector<std::string> points = {
      fault_points::kReplicationSend,      fault_points::kReplicationRecv,  fault_points::kReplicationApply,
      fault_points::kReplicationAck,       fault_points::kReplicationDrop,  fault_points::kReplicationDelay,
      fault_points::kReplicationDuplicate, fault_points::kReplicationReorder, fault_points::kReplicationTorn,
      fault_points::kWalAppend,            fault_points::kWalFsync,         fault_points::kWalRotate,
      fault_points::kWalTorn,
  };
  return points;
}

// Deterministic Fisher-Yates: the trial order is a pure function of the
// seed, so a failing sequence reproduces with the same --seed.
template <typename T>
void SeededShuffle(std::vector<T>* items, uint64_t seed) {
  uint64_t rng = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  for (size_t i = items->size(); i > 1; --i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    std::swap((*items)[i - 1], (*items)[(rng >> 33) % i]);
  }
}

// ---------------------------------------------------------------------------
// Trial plumbing shared by all three matrices.

// How one trial ended. A crashed trial lets the sweep go on to the next hit;
// an exhausted one (the armed point never fired) or a failed one ends it.
enum class Outcome { kCrashed, kExhausted, kFailed };

Outcome Verified(bool ok, Outcome outcome) {
  return ok ? outcome : Outcome::kFailed;
}

// One trial: its label (what --only matches and a FAIL line names), its
// fresh directory, and the hit its fault is armed at.
struct Trial {
  std::string label;
  std::string dir;
  uint64_t hit = 0;
};

// A forked child process running `body`, which _Exits with body's return
// value. A Child still running when it goes out of scope is SIGKILLed and
// reaped, so no trial path can leak a process.
//
// No Database object (and thus no engine thread) exists in the parent when
// forking: every verifier database is created and destroyed between trials,
// and the lazy shared scan pool is never started under default ExecOptions.
class Child {
 public:
  explicit Child(const std::function<int()>& body) : pid_(::fork()) {
    if (pid_ == 0) std::_Exit(body());
    if (pid_ < 0) std::perror("fork");
  }
  ~Child() { Kill(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool running() const { return pid_ > 0; }
  // Blocks until the child exits; returns its exit code (-1 when it died by
  // a signal or never started).
  int Wait() { return *Reap(0); }
  // The exit code once the child has exited; std::nullopt while it runs.
  std::optional<int> Poll() { return Reap(WNOHANG); }
  // A SIGKILL from the harness is one more crash the recovery path must
  // absorb: anything acknowledged is already fsynced.
  void Kill() {
    if (!running()) return;
    ::kill(pid_, SIGKILL);
    Reap(0);
  }

 private:
  std::optional<int> Reap(int flags) {
    if (!running()) return exit_code_;
    int status = 0;
    const pid_t reaped = ::waitpid(pid_, &status, flags);
    if (reaped == 0) return std::nullopt;
    pid_ = -1;
    exit_code_ = reaped > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return exit_code_;
  }

  pid_t pid_;
  int exit_code_ = -1;
};

// Partition trials drop this many consecutive outbound election frames in
// the victim: at a 15 ms heartbeat interval that is a multi-second severed
// link — long enough for the survivors to depose a partitioned leader.
constexpr uint64_t kPartitionDrops = 300;

// Arms `point` at its `hit`th hit. Call it after the child's (journal-
// writing) open or start, so setup I/O cannot trip the fault. wal.torn gets
// an error schedule, which the journal writer turns into a torn record and
// _Exit; a partition trial gets an error schedule that the election bus turns
// into kPartitionDrops silent drops of outbound frames; every other point
// crashes the process.
void ArmFault(const std::string& point, uint64_t hit, bool partition = false) {
  FaultInjector::Schedule schedule = FaultInjector::CrashNth(hit);
  if (partition) {
    schedule = FaultInjector::FailTimes(kPartitionDrops);
    schedule.nth = hit;
    schedule.code = ErrorCode::kUnavailable;
  } else if (point == fault_points::kWalTorn) {
    schedule = FaultInjector::FailNth(hit);
  }
  FaultInjector::Instance().Arm(point, schedule);
}

// Appends one line to the acknowledgement file at `path` and fsyncs it. Only
// once this returns true may the harness count the statement as promised.
bool AppendAck(const std::string& path, const std::string& line) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) return false;
  const std::string out = line + "\n";
  const bool ok = ::write(fd, out.data(), out.size()) ==
                      static_cast<ssize_t>(out.size()) &&
                  ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// Verification and key-probe reads must not perturb the state they measure:
// scanning the audited table with triggers enabled would append fresh
// audit-log rows.
ExecOptions QuietRead() {
  ExecOptions options;
  options.enable_select_triggers = false;
  return options;
}

Status RunWorkloadStatement(Database* db, const std::string& stmt) {
  if (stmt == kCheckpointMarker) return db->Checkpoint();
  return db->Execute(stmt).status();
}

// ---------------------------------------------------------------------------
// Single-node children: run the workload against a durable database,
// acknowledging each committed statement through an fsynced file, until the
// armed fault kills us.

int RunWorkloadChild(const std::string& dir, const std::string& point,
                     uint64_t nth) {
  Result<std::unique_ptr<Database>> opened = Database::Recover(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "child: open failed: %s\n",
                 opened.status().message().c_str());
    return kHarnessError;
  }
  std::unique_ptr<Database> db = std::move(*opened);
  ArmFault(point, nth);

  for (size_t i = 0; i < Workload().size(); ++i) {
    Status s = RunWorkloadStatement(db.get(), Workload()[i]);
    if (!s.ok()) {
      // Crash schedules never surface as errors; an error here means the
      // workload itself is broken.
      std::fprintf(stderr, "child: statement %zu failed: %s\n", i,
                   s.message().c_str());
      return kHarnessError;
    }
    // The engine acknowledged the statement (its journal record is durable
    // per the sync mode); only now may the harness count it as promised.
    if (!AppendAck(dir + "/acks", std::to_string(i))) return kHarnessError;
  }
  return kSweepExhausted;
}

// Loss-ledger child: an audited SELECT under fail-open whose trigger always
// fails is acknowledged with a loss row and a quarantined trigger; then a
// crash on the very next journal append kills the process.
int RunLossChild(const std::string& dir) {
  Result<std::unique_ptr<Database>> opened = Database::Recover(dir);
  if (!opened.ok()) return kHarnessError;
  std::unique_ptr<Database> db = std::move(*opened);

  for (size_t i = 0; i < 6; ++i) {  // tables, rows, policy -- no SELECTs yet
    if (!db->Execute(Workload()[i]).ok()) return kHarnessError;
  }

  ExecOptions options;
  options.audit_failure_policy = AuditFailurePolicy::kFailOpen;
  options.guards.fail_open_retries = 1;
  options.guards.quarantine_after = 1;
  FaultInjector::Instance().Arm(fault_points::kTriggerAction, FaultInjector::FailAlways());
  Result<StatementResult> r =
      db->ExecuteWithOptions("SELECT name FROM patients WHERE patientid = 1",
                             options);
  FaultInjector::Instance().Disarm(fault_points::kTriggerAction);
  if (!r.ok()) {
    std::fprintf(stderr, "child: fail-open select failed: %s\n",
                 r.status().message().c_str());
    return kHarnessError;
  }

  // The loss row and quarantine transition are acknowledged; persist the ack,
  // then die on the next statement's journal append.
  if (!AppendAck(dir + "/acks", "loss")) return kHarnessError;
  ArmFault(fault_points::kWalAppend, 1);
  (void)db->Execute("INSERT INTO patients VALUES (9, 'Zed', 'checkup')");
  return kHarnessError;  // the append above must have crashed the process
}

// ---------------------------------------------------------------------------
// Parent side: recover and verify.

// Deterministic projection of the database state: every column except the
// wall-clock audit timestamp, rows sorted. Two databases that ran the same
// statement prefix produce identical projections.
std::vector<std::string> StateProjection(Database* db) {
  std::vector<std::string> out;
  for (const char* query :
       {"SELECT patientid, name, diagnosis FROM patients",
        "SELECT userid, sql, patientid FROM log"}) {
    auto r = db->ExecuteWithOptions(query, QuietRead());
    if (!r.ok()) {
      out.push_back(std::string("<error: ") + r.status().message() + ">");
      continue;
    }
    std::vector<std::string> rows;
    rows.reserve(r->result.rows.size());
    for (const Row& row : r->result.rows) rows.push_back(RowToString(row));
    std::sort(rows.begin(), rows.end());
    out.push_back(query);
    out.insert(out.end(), rows.begin(), rows.end());
  }
  // Schema versions are part of the recovered state: an ALTER that replays
  // must land the catalog on exactly the version the reference prefix has.
  // Sorted — catalog enumeration order differs between a freshly built and
  // a recovered database, and the projection is compared line by line.
  std::vector<std::string> tables = db->catalog()->TableNames();
  std::sort(tables.begin(), tables.end());
  for (const std::string& name : tables) {
    auto table = db->catalog()->GetTable(name);
    if (!table.ok()) continue;
    out.push_back("schema_version " + name + " = " +
                  std::to_string((*table)->schema_version()));
  }
  return out;
}

// State after running the first `prefix` workload statements on a fresh
// in-memory database (the verifier's reference; checkpoints are no-ops for
// logical state).
std::vector<std::string> ReferenceProjection(size_t prefix) {
  Database db;
  for (size_t i = 0; i < prefix; ++i) {
    if (Workload()[i] == kCheckpointMarker) continue;
    Status s = db.Execute(Workload()[i]).status();
    if (!s.ok()) {
      return {std::string("<reference error at ") + std::to_string(i) + ": " +
              s.message() + ">"};
    }
  }
  return StateProjection(&db);
}

size_t CountLines(const std::string& path) {
  std::ifstream in(path);
  size_t count = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++count;
  }
  return count;
}

void PrintProjection(const char* label, const std::vector<std::string>& state) {
  std::fprintf(stderr, "  %s:\n", label);
  for (const std::string& line : state) std::fprintf(stderr, "    %s\n", line.c_str());
}

bool VerifyWorkloadTrial(const std::string& dir, const std::string& label,
                         bool completed) {
  const size_t acked = CountLines(dir + "/acks");
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> recovered = Database::Recover(dir, &stats);
  if (!recovered.ok()) {
    std::fprintf(stderr, "FAIL %s: recovery failed after %zu acks: %s\n",
                 label.c_str(), acked, recovered.status().message().c_str());
    return false;
  }
  std::vector<std::string> actual = StateProjection(recovered->get());

  // The recovered state must be a workload prefix covering every ack: the
  // acknowledged statements alone, or those plus the one in-flight statement
  // whose journal record became durable before the kill.
  const size_t limit = Workload().size();
  if (completed && acked != limit) {
    std::fprintf(stderr, "FAIL %s: child completed but acked %zu/%zu\n",
                 label.c_str(), acked, limit);
    return false;
  }
  std::vector<size_t> candidates = {std::min(acked, limit)};
  if (acked + 1 <= limit) candidates.push_back(acked + 1);
  for (size_t prefix : candidates) {
    if (actual == ReferenceProjection(prefix)) return true;
  }

  std::fprintf(stderr,
               "FAIL %s: recovered state matches no acceptable prefix "
               "(acked=%zu, commits_replayed=%llu, torn_tail=%d)\n",
               label.c_str(), acked,
               static_cast<unsigned long long>(stats.commits_replayed),
               stats.truncated_torn_tail ? 1 : 0);
  PrintProjection("recovered", actual);
  PrintProjection("expected (acked prefix)", ReferenceProjection(candidates[0]));
  return false;
}

bool VerifyLossTrial(const std::string& dir) {
  std::ifstream acks(dir + "/acks");
  std::string line;
  if (!std::getline(acks, line) || line != "loss") {
    std::fprintf(stderr, "FAIL loss: child never acknowledged the loss row\n");
    return false;
  }
  Result<std::unique_ptr<Database>> recovered = Database::Recover(dir);
  if (!recovered.ok()) {
    std::fprintf(stderr, "FAIL loss: recovery failed: %s\n",
                 recovered.status().message().c_str());
    return false;
  }
  Database* db = recovered->get();

  Result<QueryResult> losses = db->Execute(
      std::string("SELECT trigger_name, quarantined FROM ") +
      Database::kAuditErrorsTable);
  if (!losses.ok() || losses->rows.empty()) {
    std::fprintf(stderr,
                 "FAIL loss: acknowledged loss row missing after recovery\n");
    return false;
  }
  if (losses->rows[0][0].AsString() != "log_alice") {
    std::fprintf(stderr, "FAIL loss: loss row names trigger '%s'\n",
                 losses->rows[0][0].AsString().c_str());
    return false;
  }
  std::vector<const TriggerDef*> quarantined = db->trigger_manager()->Quarantined();
  if (quarantined.size() != 1 || quarantined[0]->name != "log_alice") {
    std::fprintf(stderr,
                 "FAIL loss: quarantine state did not survive recovery\n");
    return false;
  }
  // The unacknowledged INSERT the child died inside must have left no trace.
  Result<QueryResult> zed =
      db->Execute("SELECT name FROM patients WHERE patientid = 9");
  if (!zed.ok() || !zed->rows.empty()) {
    std::fprintf(stderr, "FAIL loss: unacknowledged INSERT survived the crash\n");
    return false;
  }
  return true;
}

Outcome RunWorkloadTrial(const Trial& trial, const std::string& point) {
  Child child([&] { return RunWorkloadChild(trial.dir, point, trial.hit); });
  const int exit_code = child.Wait();
  if (exit_code == kSweepExhausted) {
    // The point never fired at this hit count: the workload completed.
    // Recovery of the completed run must reproduce the full prefix.
    return Verified(VerifyWorkloadTrial(trial.dir, trial.label + " (completed)",
                                        /*completed=*/true),
                    Outcome::kExhausted);
  }
  if (exit_code != FaultInjector::kCrashExitCode) {
    std::fprintf(stderr, "FAIL %s: unexpected child exit %d\n",
                 trial.label.c_str(), exit_code);
    return Outcome::kFailed;
  }
  return Verified(VerifyWorkloadTrial(trial.dir, trial.label, /*completed=*/false),
                  Outcome::kCrashed);
}

Outcome RunLossTrial(const Trial& trial) {
  Child child([&] { return RunLossChild(trial.dir); });
  const int exit_code = child.Wait();
  if (exit_code != FaultInjector::kCrashExitCode) {
    std::fprintf(stderr, "FAIL loss: child exit %d (wanted %d)\n", exit_code,
                 FaultInjector::kCrashExitCode);
    return Outcome::kFailed;
  }
  return Verified(VerifyLossTrial(trial.dir), Outcome::kCrashed);
}

// ---------------------------------------------------------------------------
// Replication matrix: a primary process ships the journal to a follower
// process over a unix socket; the armed fault crashes one of them.

// The primary child: runs the workload with a LogShipper attached, recording
// two fsynced ack streams — "acks" (every locally committed statement, the
// single-node durability promise) and, under sync mode, "racks" (statements
// acknowledged while the follower was in the sync quorum: exactly those the
// acked-prefix invariant obliges the promoted follower to retain).
int RunReplicationPrimary(const std::string& dir, const std::string& socket_path,
                          const std::string& point, uint64_t nth, bool arm_here,
                          bool sync_mode) {
  Result<std::unique_ptr<Database>> opened = Database::Recover(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "primary: open failed: %s\n",
                 opened.status().message().c_str());
    return kHarnessError;
  }
  std::unique_ptr<Database> db = std::move(*opened);

  ShipperOptions sopts;
  sopts.ack_mode =
      sync_mode ? ReplicationAckMode::kSync : ReplicationAckMode::kAsync;
  sopts.heartbeat_interval_ms = 20;
  sopts.ack_timeout_ms = 200;  // one bounded stall when the follower dies
  sopts.initial_backoff_ms = 2;
  sopts.max_backoff_ms = 50;
  LogShipper shipper(db.get(), sopts);
  shipper.AddFollower("f1",
                      [socket_path] { return ConnectLocalSocket(socket_path); });

  if (arm_here) ArmFault(point, nth);

  for (size_t i = 0; i < Workload().size(); ++i) {
    Status s = RunWorkloadStatement(db.get(), Workload()[i]);
    if (!s.ok()) {
      std::fprintf(stderr, "primary: statement %zu failed: %s\n", i,
                   s.message().c_str());
      return kHarnessError;
    }
    if (!AppendAck(dir + "/acks", std::to_string(i))) return kHarnessError;
    if (sync_mode) {
      // A sync Execute returns only once every non-degraded follower acked
      // (or after degrading the laggard). So at this point either the
      // follower holds the statement durably, or it is marked degraded and
      // the statement is outside the sync guarantee — record it only in the
      // first case.
      std::vector<FollowerStatus> followers = shipper.Followers();
      if (!followers.empty() && !followers[0].degraded &&
          !AppendAck(dir + "/racks", std::to_string(i))) {
        return kHarnessError;
      }
    }
  }

  // Drain the tail so deep-Nth sweeps reach late hits; give up quickly once
  // the follower is gone.
  for (int i = 0; i < 100 && !shipper.AllCaughtUp(); ++i) {
    std::vector<FollowerStatus> followers = shipper.Followers();
    if (!followers.empty() && !followers[0].connected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  shipper.Stop();
  return kSweepExhausted;
}

// The follower child: serves the socket until killed. Every (re)connect from
// the primary restarts the applier on the fresh channel.
int RunReplicationFollower(const std::string& dir, const std::string& socket_path,
                           const std::string& point, uint64_t nth,
                           bool arm_here) {
  Result<std::unique_ptr<LocalSocketServer>> server =
      LocalSocketServer::Listen(socket_path);
  if (!server.ok()) {
    std::fprintf(stderr, "follower: listen failed: %s\n",
                 server.status().message().c_str());
    return kHarnessError;
  }
  Result<std::unique_ptr<ReplicaApplier>> applier = ReplicaApplier::Open(dir);
  if (!applier.ok()) {
    std::fprintf(stderr, "follower: open failed: %s\n",
                 applier.status().message().c_str());
    return kHarnessError;
  }
  if (arm_here) ArmFault(point, nth);
  for (;;) {
    Result<std::shared_ptr<FrameChannel>> channel = (*server)->Accept(200);
    if (channel.status().code() == ErrorCode::kDeadlineExceeded) continue;
    if (!channel.ok()) return kHarnessError;
    (*applier)->Start(*channel);
  }
}

// Promotes the follower directory and checks the acked-prefix invariant.
// `min_prefix` is the sync-mode floor (0 under async: any prefix is legal,
// only prefix-ness itself is required).
bool VerifyPromotedFollower(const std::string& follower_dir,
                            const std::string& label, size_t min_prefix) {
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> promoted =
      Database::Promote(follower_dir, &stats);
  if (!promoted.ok()) {
    std::fprintf(stderr, "FAIL %s: follower promotion failed: %s\n",
                 label.c_str(), promoted.status().message().c_str());
    return false;
  }
  std::vector<std::string> actual = StateProjection(promoted->get());
  const size_t limit = Workload().size();
  for (size_t prefix = std::min(min_prefix, limit); prefix <= limit; ++prefix) {
    if (actual == ReferenceProjection(prefix)) return true;
  }
  std::fprintf(stderr,
               "FAIL %s: promoted follower matches no workload prefix >= %zu "
               "(commits_replayed=%llu, epoch=%llu)\n",
               label.c_str(), min_prefix,
               static_cast<unsigned long long>(stats.commits_replayed),
               static_cast<unsigned long long>(stats.max_epoch));
  PrintProjection("promoted follower", actual);
  PrintProjection("expected floor (sync-acked prefix)",
                  ReferenceProjection(std::min(min_prefix, limit)));
  return false;
}

// One replication matrix trial: fork the follower, fork the primary, let the
// armed fault kill its victim, then verify both directories.
Outcome RunReplicationTrial(const Trial& trial, const std::string& point,
                            bool victim_primary, bool sync_mode) {
  const std::string primary_dir = trial.dir + "/primary";
  const std::string follower_dir = trial.dir + "/follower";
  const std::string socket_path = trial.dir + "/sock";
  std::error_code ec;
  std::filesystem::create_directories(primary_dir, ec);
  std::filesystem::create_directories(follower_dir, ec);

  Child follower([&] {
    return RunReplicationFollower(follower_dir, socket_path, point, trial.hit,
                                  /*arm_here=*/!victim_primary);
  });
  Child primary([&] {
    return RunReplicationPrimary(primary_dir, socket_path, point, trial.hit,
                                 /*arm_here=*/victim_primary, sync_mode);
  });
  const int primary_exit = primary.Wait();
  // The follower either crashed on its armed point or is still serving.
  const bool follower_crashed =
      follower.Poll() == FaultInjector::kCrashExitCode;
  follower.Kill();

  Outcome outcome = Outcome::kExhausted;
  if (victim_primary) {
    if (primary_exit == FaultInjector::kCrashExitCode) {
      outcome = Outcome::kCrashed;
    } else if (primary_exit != kSweepExhausted) {
      std::fprintf(stderr, "FAIL %s: unexpected primary exit %d\n",
                   trial.label.c_str(), primary_exit);
      return Outcome::kFailed;
    }
  } else {
    if (primary_exit != kSweepExhausted) {
      // With the fault armed in the follower, the primary must always ride
      // out the loss and complete (graceful degradation).
      std::fprintf(stderr, "FAIL %s: primary exit %d with healthy journal\n",
                   trial.label.c_str(), primary_exit);
      return Outcome::kFailed;
    }
    if (follower_crashed) outcome = Outcome::kCrashed;
  }

  // The primary's own directory must recover to its locally-acked prefix,
  // exactly as in the single-node sweep.
  if (!VerifyWorkloadTrial(primary_dir, trial.label + " [primary]",
                           /*completed=*/primary_exit == kSweepExhausted)) {
    return Outcome::kFailed;
  }
  // The promoted follower must be an acked-prefix replay. Under sync mode
  // the prefix floor is the statements acknowledged while the follower was
  // in the sync quorum; under async any prefix is acceptable.
  const size_t min_prefix =
      sync_mode ? CountLines(primary_dir + "/racks") : 0;
  return Verified(VerifyPromotedFollower(follower_dir,
                                         trial.label + " [follower]",
                                         min_prefix),
                  outcome);
}

// ---------------------------------------------------------------------------
// Three-node election matrix (--replication --nodes 3). See the file comment:
// three ElectionNode processes, a leader-driven workload, a SIGKILL (or a
// dropped-link window) at every replication/election fault point, and the
// three failover invariants checked offline. Database::Promote is never
// called anywhere in this matrix.

// Points swept with a crash-at-Nth-hit schedule in one victim node. The
// election.* points cover the election layer itself (a candidate dying inside
// a campaign, a voter dying between persisting and sending a grant, ...); the
// replication/journal points cover a leader or follower dying mid-shipment.
const std::vector<std::string>& ElectionSweepPoints() {
  static const std::vector<std::string> points = {
      fault_points::kElectionTimeout, fault_points::kElectionVoteDrop, fault_points::kElectionPartition,
      fault_points::kElectionStaleCandidate,
      fault_points::kReplicationSend, fault_points::kReplicationApply, fault_points::kReplicationAck,
      fault_points::kWalAppend,       fault_points::kWalFsync,         fault_points::kWalTorn,
  };
  return points;
}

// Bounded-convergence budgets. The election timeout range below is
// [60, 180] ms, so the election bound allows on the order of a hundred
// back-to-back timed-out elections before the harness calls liveness broken.
constexpr int64_t kElectionBoundMs = 20000;
constexpr int64_t kConvergeBoundMs = 15000;
// How long a crash trial waits for the armed point to fire before declaring
// the Nth sweep for that configuration exhausted.
constexpr int64_t kCrashWaitMs = 8000;

// True when at least one follower is in the sync quorum. A kSync Execute
// returns only once every non-degraded follower acked, so if one is still
// non-degraded afterwards, leader + that follower — a majority of three —
// hold the statement durably, and any future leader must retain it (the
// voter up-to-dateness gate guarantees every election quorum overlaps it).
bool AnySyncFollower(ElectionNode* node) {
  for (const FollowerStatus& f : node->FollowerStatuses()) {
    if (!f.degraded) return true;
  }
  return false;
}

// Per-node status file, written atomically (tmp + rename) every driver loop
// so the parent can observe roles and journal positions without a channel to
// the child.
void WriteNodeStatus(const std::string& dir, uint64_t beat,
                     const ElectionInfo& info) {
  const std::string tmp = dir + "/status.tmp";
  const std::string line =
      std::to_string(beat) + " " + ElectionRoleName(info.role) + " " +
      std::to_string(info.epoch) + " " + std::to_string(info.term) + " " +
      std::to_string(info.position.epoch) + " " +
      std::to_string(info.position.seq) + " " +
      std::to_string(info.position.offset) + " " +
      std::to_string(info.elections_started) + " " +
      std::to_string(info.pre_votes_granted) + " " +
      std::to_string(info.votes_granted) + " " +
      std::to_string(info.stale_candidates_rejected) + " " +
      std::to_string(info.steps_down) + " " +
      (info.health.ok() ? "ok" : info.health.message()) + "\n";
  int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return;
  (void)::write(fd, line.data(), line.size());
  ::close(fd);
  ::rename(tmp.c_str(), (dir + "/status").c_str());
}

struct NodeStatus {
  bool valid = false;
  uint64_t beat = 0;
  std::string role;
  uint64_t epoch = 0;
  uint64_t term = 0;
  WalPosition position;
};

NodeStatus ReadNodeStatus(const std::string& dir) {
  NodeStatus s;
  std::ifstream in(dir + "/status");
  if (in >> s.beat >> s.role >> s.epoch >> s.term >> s.position.epoch >>
      s.position.seq >> s.position.offset) {
    s.valid = true;
  }
  return s;
}

// One node of the three-node cluster: a full ElectionNode over unix-socket
// transports plus a leader-driven workload. Whichever node leads appends
// monotonically keyed rows (each leader continues at max(key) + 1 over its
// own recovered state) and reads each one back through the SELECT trigger.
// The diagnosis column encodes (node, epoch), so a forked row that survived
// failover shows up as a value mismatch in the offline verification. Two
// fsynced streams accumulate per node (appended — a restarted victim keeps
// its history): "acks" for locally committed statements and "racks" for
// statements committed while a follower was in the sync quorum.
int RunElectionNode(const std::vector<std::string>& ids, size_t index,
                    const std::string& trial_dir, uint64_t seed,
                    const std::string& point, uint64_t nth, bool arm_here,
                    bool partition_trial) {
  const std::string dir = trial_dir + "/" + ids[index];
  std::map<std::string, std::string> peer_bus;
  std::map<std::string, std::string> peer_repl;
  std::vector<std::string> peers;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i == index) continue;
    peers.push_back(ids[i]);
    peer_bus[ids[i]] = trial_dir + "/b" + std::to_string(i);
    peer_repl[ids[i]] = trial_dir + "/r" + std::to_string(i);
  }

  Result<std::unique_ptr<ElectionBus>> bus = CreateSocketElectionBus(
      trial_dir + "/b" + std::to_string(index), peer_bus);
  if (!bus.ok()) {
    std::fprintf(stderr, "%s: bus listen failed: %s\n", ids[index].c_str(),
                 bus.status().message().c_str());
    return kHarnessError;
  }

  ElectionOptions opts;
  opts.id = ids[index];
  opts.dir = dir;
  opts.peers = peers;
  opts.heartbeat_interval_ms = 15;
  opts.election_timeout_min_ms = 60;
  opts.election_timeout_max_ms = 180;
  opts.poll_interval_ms = 2;
  opts.seed = seed;  // --seed drives the timeout and vote-jitter streams
  opts.replication_listen_path = trial_dir + "/r" + std::to_string(index);
  opts.shipper.ack_mode = ReplicationAckMode::kSync;
  opts.shipper.heartbeat_interval_ms = 15;
  opts.shipper.ack_timeout_ms = 400;
  opts.shipper.initial_backoff_ms = 2;
  opts.shipper.max_backoff_ms = 50;

  Result<std::unique_ptr<ElectionNode>> node = ElectionNode::Start(
      std::move(opts), std::move(*bus),
      [peer_repl](
          const std::string& peer) -> Result<std::shared_ptr<FrameChannel>> {
        auto it = peer_repl.find(peer);
        if (it == peer_repl.end()) {
          return Status(ErrorCode::kNotFound, "unknown peer " + peer);
        }
        return ConnectLocalSocket(it->second);
      });
  if (!node.ok()) {
    std::fprintf(stderr, "%s: start failed: %s\n", ids[index].c_str(),
                 node.status().message().c_str());
    return kHarnessError;
  }

  // A partitioned node that leads keeps committing un-replicated local
  // records until the survivors depose it, which is exactly the forked
  // suffix the rejoin verification must prove dies.
  if (arm_here) ArmFault(point, nth, partition_trial);

  const std::string pause_path = trial_dir + "/pause";
  uint64_t beat = 0;
  uint64_t setup_epoch = 0;
  for (;;) {
    ElectionInfo info = (*node)->info();
    WriteNodeStatus(dir, ++beat, info);
    std::shared_ptr<Database> db = std::filesystem::exists(pause_path)
                                       ? nullptr
                                       : (*node)->leader_database();
    if (!db) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (info.epoch != setup_epoch) {
      // The idempotent schema setup, rerun once per stint of leadership.
      // After a failover the journal already holds all of it and every
      // statement fails as a duplicate, which is harmless: the workload
      // INSERT below is the real probe of a usable leader.
      for (const char* stmt :
           {kCreatePatients, kCreateLog, kCreateAuditAlice, kCreateLogAlice}) {
        (void)db->Execute(stmt);
      }
      setup_epoch = info.epoch;
    }
    // Next key: continue the sequence from this leader's own state.
    Result<StatementResult> keys =
        db->ExecuteWithOptions("SELECT patientid FROM patients", QuietRead());
    if (!keys.ok()) {
      db.reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    int64_t next = 1;
    for (const Row& row : keys->result.rows) {
      next = std::max(next, row[0].AsInt() + 1);
    }
    const std::string k = std::to_string(next);
    const std::string tag = ids[index] + "e" + std::to_string(info.epoch);
    Status ins = db->Execute("INSERT INTO patients VALUES (" + k +
                             ", 'Alice', '" + tag + "')")
                     .status();
    if (ins.ok()) {
      if (!AppendAck(dir + "/acks", "i " + k + " " + tag)) return kHarnessError;
      if (AnySyncFollower(node->get()) &&
          !AppendAck(dir + "/racks", "i " + k + " " + tag)) {
        return kHarnessError;
      }
      // The audited read-back: its SELECT trigger appends the log row in the
      // same statement, so a racked "s" line obliges the new history to hold
      // that audit-log row too.
      Status sel = db->Execute("SELECT diagnosis FROM patients WHERE "
                               "patientid = " + k)
                       .status();
      if (sel.ok()) {
        if (!AppendAck(dir + "/acks", "s " + k + " " + tag)) return kHarnessError;
        if (AnySyncFollower(node->get()) &&
            !AppendAck(dir + "/racks", "s " + k + " " + tag)) {
          return kHarnessError;
        }
      }
    }
    db.reset();  // never outlive the statement: step-down drains holders
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Offline verification of a finished trial: recover every directory with
// plain Database::Recover (never Promote) and check invariants (b) and (c).
bool VerifyElectionTrial(const std::string& dir,
                         const std::vector<std::string>& ids,
                         const std::string& label, size_t leader) {
  struct NodeState {
    std::map<int64_t, std::string> patients;  // key -> "name|diagnosis"
    std::map<std::string, size_t> log;        // "userid|sql|patientid" -> n
  };
  std::vector<NodeState> states(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    Result<std::unique_ptr<Database>> db = Database::Recover(dir + "/" + ids[i]);
    if (!db.ok()) {
      std::fprintf(stderr, "FAIL %s: %s failed to recover: %s\n",
                   label.c_str(), ids[i].c_str(),
                   db.status().message().c_str());
      return false;
    }
    Result<StatementResult> pr = (*db)->ExecuteWithOptions(
        "SELECT patientid, name, diagnosis FROM patients", QuietRead());
    if (pr.ok()) {
      for (const Row& row : pr->result.rows) {
        states[i].patients[row[0].AsInt()] =
            row[1].AsString() + "|" + row[2].AsString();
      }
    }
    Result<StatementResult> lr = (*db)->ExecuteWithOptions(
        "SELECT userid, sql, patientid FROM log", QuietRead());
    if (lr.ok()) {
      for (const Row& row : lr->result.rows) {
        ++states[i].log[row[0].AsString() + "|" + row[1].AsString() + "|" +
                        std::to_string(row[2].AsInt())];
      }
    }
  }
  const NodeState& final_leader = states[leader];

  // (b) acked-prefix across the transition: every sync-quorum-acknowledged
  // statement — recorded by whichever node led at the time — must survive in
  // the final leader with the exact committed values.
  for (size_t i = 0; i < ids.size(); ++i) {
    std::ifstream racks(dir + "/" + ids[i] + "/racks");
    std::string kind, tag;
    int64_t k = 0;
    while (racks >> kind >> k >> tag) {
      auto it = final_leader.patients.find(k);
      if (it == final_leader.patients.end() ||
          it->second != "Alice|" + tag) {
        std::fprintf(stderr,
                     "FAIL %s: sync-acked row %lld (%s, acked on %s) missing "
                     "or rewritten in the final leader\n",
                     label.c_str(), static_cast<long long>(k), tag.c_str(),
                     ids[i].c_str());
        return false;
      }
      if (kind == "s") {
        // The SELECT's trigger row must have survived with it.
        const std::string sql =
            "SELECT diagnosis FROM patients WHERE patientid = " +
            std::to_string(k);
        bool found = false;
        for (const auto& [line, count] : final_leader.log) {
          (void)count;
          if (line.find("|" + sql + "|" + std::to_string(k)) !=
              std::string::npos) {
            found = true;
            break;
          }
        }
        if (!found) {
          std::fprintf(stderr,
                       "FAIL %s: audit-log row of sync-acked SELECT %lld "
                       "missing in the final leader\n",
                       label.c_str(), static_cast<long long>(k));
          return false;
        }
      }
    }
  }

  // (c) no forked suffix survives: every other directory must be a subset of
  // the final leader's history. A row a deposed leader committed alone and
  // the new timeline rewrote would surface here with a mismatched
  // (node, epoch) tag.
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i == leader) continue;
    for (const auto& [k, row] : states[i].patients) {
      auto it = final_leader.patients.find(k);
      if (it == final_leader.patients.end() || it->second != row) {
        std::fprintf(stderr,
                     "FAIL %s: %s holds forked patients row %lld (%s)\n",
                     label.c_str(), ids[i].c_str(),
                     static_cast<long long>(k), row.c_str());
        return false;
      }
    }
    for (const auto& [line, count] : states[i].log) {
      auto it = final_leader.log.find(line);
      if (it == final_leader.log.end() || it->second < count) {
        std::fprintf(stderr, "FAIL %s: %s holds forked audit-log row [%s]\n",
                     label.c_str(), ids[i].c_str(), line.c_str());
        return false;
      }
    }
  }

  // Every leader continues at max(key) + 1 over its own recovered state, so
  // a hole in the final key sequence means a promoted leader was missing part
  // of the history it was elected on.
  int64_t expect = 1;
  for (const auto& [k, row] : final_leader.patients) {
    (void)row;
    if (k != expect++) {
      std::fprintf(stderr, "FAIL %s: final leader key sequence has a hole "
                   "at %lld\n",
                   label.c_str(), static_cast<long long>(expect - 1));
      return false;
    }
  }
  return true;
}

bool WaitUntil(int64_t timeout_ms, const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (pred()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return pred();
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

// One three-node trial: cold start, the armed crash (or partition window),
// failover and heal, then quiesce and verify offline.
Outcome RunElectionTrial(const Trial& trial, const std::string& point,
                         size_t victim, bool partition_trial, uint64_t seed) {
  const std::string& dir = trial.dir;
  const std::string& label = trial.label;
  const std::vector<std::string> ids = {"n0", "n1", "n2"};
  std::error_code ec;
  for (const std::string& id : ids) {
    std::filesystem::create_directories(dir + "/" + id, ec);
  }

  auto spawn = [&](size_t i, bool arm) {
    return std::make_unique<Child>([&, i, arm] {
      return RunElectionNode(ids, i, dir, seed, point, trial.hit, arm,
                             partition_trial);
    });
  };
  std::vector<std::unique_ptr<Child>> nodes;
  for (size_t i = 0; i < ids.size(); ++i) {
    nodes.push_back(spawn(i, /*arm=*/i == victim));
  }

  auto leader_index = [&]() -> int {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!nodes[i]->running()) continue;
      NodeStatus s = ReadNodeStatus(dir + "/" + ids[i]);
      if (s.valid && s.role == "leader") return static_cast<int>(i);
    }
    return -1;
  };

  // (a) cold start: a leader within the election bound, no operator in the
  // loop.
  if (!WaitUntil(kElectionBoundMs, [&] { return leader_index() >= 0; })) {
    std::fprintf(stderr, "FAIL %s: no leader within %lld ms of cold start\n",
                 label.c_str(), static_cast<long long>(kElectionBoundMs));
    return Outcome::kFailed;
  }

  bool victim_crashed = false;
  if (partition_trial) {
    // Let the severed-link window play out: deposition, fork, heal. No
    // process may die in a partition trial.
    std::this_thread::sleep_for(std::chrono::milliseconds(3000));
    for (size_t i = 0; i < ids.size(); ++i) {
      if (std::optional<int> exit_code = nodes[i]->Poll()) {
        std::fprintf(stderr, "FAIL %s: %s died (exit %d) in partition trial\n",
                     label.c_str(), ids[i].c_str(), *exit_code);
        return Outcome::kFailed;
      }
    }
  } else {
    // Run the workload until the armed point kills the victim (or the wait
    // budget declares this hit count unreachable).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kCrashWaitMs);
    while (std::chrono::steady_clock::now() < deadline) {
      if (std::optional<int> exit_code = nodes[victim]->Poll()) {
        if (*exit_code != FaultInjector::kCrashExitCode) {
          std::fprintf(stderr, "FAIL %s: unexpected victim exit %d\n",
                       label.c_str(), *exit_code);
          return Outcome::kFailed;
        }
        victim_crashed = true;
        break;
      }
      for (size_t i = 0; i < ids.size(); ++i) {
        if (i == victim) continue;
        if (std::optional<int> exit_code = nodes[i]->Poll()) {
          std::fprintf(stderr, "FAIL %s: non-victim %s died (exit %d)\n",
                       label.c_str(), ids[i].c_str(), *exit_code);
          return Outcome::kFailed;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  if (victim_crashed) {
    // (a) failover: the survivors must elect among themselves within the
    // bound — entirely on their own.
    if (!WaitUntil(kElectionBoundMs, [&] {
          int li = leader_index();
          return li >= 0 && li != static_cast<int>(victim);
        })) {
      std::fprintf(stderr,
                   "FAIL %s: no surviving leader within %lld ms of the "
                   "victim's crash\n",
                   label.c_str(), static_cast<long long>(kElectionBoundMs));
      return Outcome::kFailed;
    }
    // A stretch of post-failover commits the rejoining victim must absorb.
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    // Heal: restart the victim unarmed on the same directory. Its stale
    // status and socket files go first (the old "leader" claim must not
    // confuse the parent, and the listeners need their paths back).
    std::filesystem::remove(dir + "/" + ids[victim] + "/status", ec);
    std::filesystem::remove(dir + "/b" + std::to_string(victim), ec);
    std::filesystem::remove(dir + "/r" + std::to_string(victim), ec);
    nodes[victim] = spawn(victim, /*arm=*/false);
  }

  // Quiesce the workload (replication and heartbeats keep running) and wait
  // for the cluster to settle: exactly one leader, every node converged onto
  // its journal tip. This is where a rejoined victim must have discarded any
  // forked suffix — a forked journal can never reach the leader's position.
  {
    int fd = ::open((dir + "/pause").c_str(), O_CREAT | O_WRONLY, 0644);
    if (fd >= 0) ::close(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  int li = leader_index();
  if (li < 0) {
    std::fprintf(stderr, "FAIL %s: no leader at quiesce\n", label.c_str());
    return Outcome::kFailed;
  }
  const WalPosition tip = ReadNodeStatus(dir + "/" + ids[li]).position;
  const bool settled = WaitUntil(kConvergeBoundMs, [&] {
    size_t leaders = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      NodeStatus s = ReadNodeStatus(dir + "/" + ids[i]);
      if (!s.valid || s.position < tip) return false;
      if (s.role == "leader") ++leaders;
    }
    return leaders == 1;
  });
  if (!settled) {
    std::fprintf(stderr,
                 "FAIL %s: cluster did not settle on one converged leader "
                 "within %lld ms (healed node failed to rejoin?)\n",
                 label.c_str(), static_cast<long long>(kConvergeBoundMs));
    return Outcome::kFailed;
  }
  const int final_leader = leader_index();
  nodes.clear();  // SIGKILL the cluster before recovering its directories
  if (final_leader < 0) {
    std::fprintf(stderr, "FAIL %s: final leader vanished\n", label.c_str());
    return Outcome::kFailed;
  }
  return Verified(VerifyElectionTrial(dir, ids, label,
                                      static_cast<size_t>(final_leader)),
                  victim_crashed ? Outcome::kCrashed : Outcome::kExhausted);
}

// ---------------------------------------------------------------------------
// The sweep runner and the three scenario tables.

struct Options {
  bool quick = false;
  bool keep = false;
  bool replication = false;
  // --replication cluster size: 2 = operator-promoted pair, 3 = the
  // automatic-election matrix.
  int nodes = 2;
  // Cap on the number of trials (0 = the matrix's default budget).
  int trials = 0;
  // Run only trials whose label starts with this prefix (e.g.
  // `--only elect.election.partition.part.v1#1` reruns one failing trial).
  std::string only;
  uint64_t seed = 1;
  std::string base_dir;
};

// One row of a kill matrix: trials labelled `stem#hit` for each hit in
// order (a hit of 0 is a single trial labelled `stem` alone), each run by
// `run` in its own fresh directory.
struct Scenario {
  std::string stem;
  std::vector<uint64_t> hits;
  std::function<Outcome(const Trial&)> run;
  // Pinned rows run after the shuffled ones, in table order.
  bool pinned = false;
};

struct Matrix {
  std::string title;  // the summary line's prefix
  std::string note;   // extra summary-line clause, e.g. ", 0 ... promotions"
  std::vector<Scenario> scenarios;
  int default_budget = 0;  // trial cap without --trials (0 = none)
};

// `count` hits starting at 1, `step` apart.
std::vector<uint64_t> Hits(uint64_t count, uint64_t step = 1) {
  std::vector<uint64_t> hits;
  for (uint64_t n = 0; n < count; ++n) hits.push_back(1 + n * step);
  return hits;
}

Matrix SingleNodeMatrix(const Options& options) {
  Matrix matrix{"seltrig_crashtest", "", {}, 0};
  const std::vector<uint64_t> hits =
      Hits(options.quick ? kQuickNthLimit : kMaxNth);
  for (const std::string& point : SweepPoints()) {
    matrix.scenarios.push_back(
        {point, hits, [point](const Trial& t) { return RunWorkloadTrial(t, point); }});
  }
  matrix.scenarios.push_back({"loss", {0}, RunLossTrial, /*pinned=*/true});
  return matrix;
}

Matrix ReplicationMatrix(const Options& options) {
  Matrix matrix{"seltrig_crashtest --replication", "", {}, 0};
  const std::vector<uint64_t> hits = Hits(options.quick ? 2 : 6);
  for (const std::string& point : ReplicationSweepPoints()) {
    for (bool victim_primary : {true, false}) {
      for (bool sync_mode : {true, false}) {
        matrix.scenarios.push_back(
            {"repl." + point + (victim_primary ? ".p" : ".f") +
                 (sync_mode ? ".sync" : ".async"),
             hits, [=](const Trial& t) {
               return RunReplicationTrial(t, point, victim_primary, sync_mode);
             }});
      }
    }
  }
  return matrix;
}

Matrix ElectionMatrix(const Options& options) {
  Matrix matrix{"seltrig_crashtest --replication --nodes 3",
                ", 0 operator promotions", {}, options.quick ? 8 : 0};
  const uint64_t seed = options.seed;
  // Hits beyond the first land in steady state rather than the first
  // election; spread them out instead of stepping one by one.
  const std::vector<uint64_t> hits = Hits(options.quick ? 2 : 4, /*step=*/7);
  for (const std::string& point : ElectionSweepPoints()) {
    for (size_t victim = 0; victim < 3; ++victim) {
      matrix.scenarios.push_back(
          {"elect." + point + ".v" + std::to_string(victim), hits,
           [=](const Trial& t) {
             return RunElectionTrial(t, point, victim, /*partition=*/false, seed);
           }});
    }
  }
  // Dedicated partition-heal trials: a severed link instead of a crash, so a
  // deposed-but-alive leader writes the forked suffix invariant (c) targets.
  for (size_t victim = 0; victim < 3; ++victim) {
    const std::string point = fault_points::kElectionPartition;
    matrix.scenarios.push_back(
        {"elect." + point + ".part.v" + std::to_string(victim), {1},
         [=](const Trial& t) {
           return RunElectionTrial(t, point, victim, /*partition=*/true, seed);
         }});
  }
  return matrix;
}

// Runs one matrix: the seeded shuffle, then each scenario's hit sweep until
// a trial is exhausted or fails, within the --only filter and trial budget.
// Returns the process exit code.
int RunMatrix(const Options& options, const std::string& base,
              const Matrix& matrix) {
  std::vector<const Scenario*> order;
  for (const Scenario& s : matrix.scenarios) {
    if (!s.pinned) order.push_back(&s);
  }
  SeededShuffle(&order, options.seed);
  for (const Scenario& s : matrix.scenarios) {
    if (s.pinned) order.push_back(&s);
  }

  const int budget = options.trials > 0 ? options.trials : matrix.default_budget;
  int trials = 0;
  int crashes = 0;
  bool failed = false;
  for (const Scenario* scenario : order) {
    for (uint64_t hit : scenario->hits) {
      if (budget > 0 && trials >= budget) break;
      Trial trial;
      trial.label = hit == 0 ? scenario->stem
                             : scenario->stem + "#" + std::to_string(hit);
      if (trial.label.rfind(options.only, 0) != 0) continue;
      trial.dir = base + "/" + trial.label;
      trial.hit = hit;
      std::error_code ec;
      std::filesystem::remove_all(trial.dir, ec);
      std::filesystem::create_directories(trial.dir, ec);

      ++trials;
      const Outcome outcome = scenario->run(trial);
      // Failures are reproducible from the printed label and seed, so even
      // failed trials are cleaned up rather than leaked.
      if (!options.keep) std::filesystem::remove_all(trial.dir, ec);
      if (outcome == Outcome::kCrashed) {
        ++crashes;
        continue;
      }
      if (outcome == Outcome::kFailed) failed = true;
      break;  // later hits cannot fire either
    }
  }

  std::printf("%s: %d trials, %d injected crashes%s, seed %llu, %s\n",
              matrix.title.c_str(), trials, crashes, matrix.note.c_str(),
              static_cast<unsigned long long>(options.seed),
              failed ? "FAILURES (rerun with --keep --seed to inspect)"
                     : "all invariants held");
  return failed ? 1 : 0;
}

int RunHarness(const Options& options) {
  std::error_code ec;
  std::string base = options.base_dir;
  if (base.empty()) {
    base = (std::filesystem::temp_directory_path() /
            ("seltrig_crashtest." + std::to_string(::getpid())))
               .string();
  }
  std::filesystem::create_directories(base, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", base.c_str());
    return 1;
  }
  const Matrix matrix = !options.replication ? SingleNodeMatrix(options)
                        : options.nodes == 3 ? ElectionMatrix(options)
                                             : ReplicationMatrix(options);
  const int result = RunMatrix(options, base, matrix);
  if (result == 0 && !options.keep && options.base_dir.empty()) {
    std::filesystem::remove_all(base, ec);
  }
  return result;
}

// Parses a whole decimal flag value; a malformed one is a usage error, never
// a silent 0.
template <typename T>
bool ParseNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && ptr != text;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--keep] [--dir DIR] [--seed N] "
               "[--replication [--nodes 2|3]] [--trials N] "
               "[--only LABEL-PREFIX]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace seltrig

int main(int argc, char** argv) {
  seltrig::Options options;
  bool nodes_given = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--keep") {
      options.keep = true;
    } else if (arg == "--replication") {
      options.replication = true;
    } else if (arg == "--nodes" && i + 1 < argc) {
      if (!seltrig::ParseNumber(argv[++i], &options.nodes)) {
        return seltrig::Usage(argv[0]);
      }
      nodes_given = true;
    } else if (arg == "--trials" && i + 1 < argc) {
      if (!seltrig::ParseNumber(argv[++i], &options.trials)) {
        return seltrig::Usage(argv[0]);
      }
    } else if (arg == "--dir" && i + 1 < argc) {
      options.base_dir = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!seltrig::ParseNumber(argv[++i], &options.seed)) {
        return seltrig::Usage(argv[0]);
      }
    } else if (arg == "--only" && i + 1 < argc) {
      options.only = argv[++i];
    } else {
      return seltrig::Usage(argv[0]);
    }
  }
  // --nodes picks between the replication matrices, so it is meaningless
  // without --replication; only 2 and 3 exist.
  if ((nodes_given && !options.replication) ||
      (options.nodes != 2 && options.nodes != 3) || options.trials < 0) {
    return seltrig::Usage(argv[0]);
  }
  return seltrig::RunHarness(options);
}
