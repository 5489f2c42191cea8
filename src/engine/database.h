// Database: the shared engine core. Owns the catalog (table storage), the
// audit subsystem (expressions + sensitive-ID views), the trigger registry,
// and the reader–writer lock that coordinates sessions. Per-connection
// execution state — options, SQL_TEXT/user/clock context, notifications,
// trigger undo — lives in Session (engine/session.h); Database keeps a
// built-in default session so single-connection callers can use it directly.

#ifndef SELTRIG_ENGINE_DATABASE_H_
#define SELTRIG_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit_expression.h"
#include "audit/trigger.h"
#include "catalog/catalog.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/session.h"
#include "storage/wal.h"

namespace seltrig {

struct RecoveryStats;

// Hook a replication shipper installs on a primary so statement
// acknowledgement can wait for follower acks (docs/REPLICATION.md). Sessions
// call WaitReplicated after their commit record is locally durable and
// before acknowledging the statement; the implementation decides what the
// configured ack mode requires (async: return immediately; sync: wait until
// every healthy sync follower acked `pos`, degrading followers that exceed
// their ack timeout rather than wedging the primary).
class ReplicationWaiter {
 public:
  virtual ~ReplicationWaiter() = default;
  virtual Status WaitReplicated(const WalPosition& pos) = 0;
};

class Database {
 public:
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Opens a new connection over this shared core. Sessions may execute
  // concurrently from different threads; the Database's reader–writer lock
  // coordinates them (see engine/session.h and docs/CONCURRENCY.md). The
  // returned session must not outlive the Database.
  std::unique_ptr<Session> CreateSession();

  // --- Single-connection convenience API (delegates to a default session) ---
  Result<QueryResult> Execute(const std::string& sql);
  Result<StatementResult> ExecuteWithOptions(const std::string& sql,
                                             const ExecOptions& options);
  Status ExecuteScript(const std::string& sql);

  // Parses, binds and logically optimizes a SELECT without executing it.
  Result<PlanPtr> PlanSelect(const std::string& sql,
                             const OptimizerOptions& options = OptimizerOptions());

  Catalog* catalog() { return &catalog_; }
  AuditManager* audit_manager() { return &audit_; }
  TriggerManager* trigger_manager() { return &triggers_; }
  Session* default_session() { return default_session_.get(); }
  // The default session's user / SQL_TEXT / clock state.
  SessionContext* session();

  // Messages emitted by NOTIFY actions of the default session.
  const std::vector<std::string>& notifications() const;
  void ClearNotifications();

  // Reader–writer lock over everything sessions share: table storage, the
  // catalog, sensitive-ID views, and trigger definitions. SELECT execution
  // holds it shared; DML, DDL, incremental view maintenance, and trigger
  // actions hold it exclusively. Exposed for tests and embedders that touch
  // the catalog directly while sessions are live (e.g. bulk loaders must
  // hold it exclusively). SharedMutex keeps the standard lock/lock_shared
  // method names, so std::unique_lock / std::shared_lock still work.
  SharedMutex& storage_mutex() SELTRIG_RETURN_CAPABILITY(storage_mutex_) {
    return storage_mutex_;
  }

  // Tells the thread-safety analysis the exclusive (writer) capability is
  // held. The seam for dynamically-established holds the analysis cannot see
  // statically: trigger actions re-entering the engine under the writer lock
  // taken frames above, and recovery paths that own the database exclusively
  // before any session exists.
  void AssertWriterHeld() const SELTRIG_ASSERT_CAPABILITY(storage_mutex_) {}

  // Name of the fail-open loss-accounting side table (created on demand):
  // (ts, userid, trigger_name, sql, error, attempts, quarantined).
  static constexpr const char* kAuditErrorsTable = "seltrig_audit_errors";

  // --- Durability (storage/wal.h, engine/recovery.h; docs/DURABILITY.md) ---

  // Attaches a write-ahead journal under `dir` (`<dir>/wal/`, created if
  // needed; a fresh segment is always started, stamped with failover epoch
  // `epoch`). From then on every committed top-level statement is journaled
  // before it is acknowledged. Call before concurrent sessions start —
  // typically indirectly, via Database::Recover.
  // Note: bulk loads that write tables directly (CSV/TPC-H loaders) bypass
  // the journal; run Checkpoint() after them.
  Status EnableWal(const std::string& dir, uint64_t epoch = 0);
  WalWriter* wal() { return wal_.get(); }
  // The directory EnableWal was given ("" when the WAL is disabled); the
  // checkpoint snapshot lives at <data_dir>/snapshot.
  const std::string& data_dir() const { return data_dir_; }

  // CHECKPOINT: under the writer lock, flushes the journal, rotates to a new
  // segment, saves a snapshot (with the security policy and quarantine state)
  // that records the new segment, then deletes the covered segments.
  // Requires EnableWal.
  Status Checkpoint();

  // Opens (or creates) a durable database at `dir`: loads the checkpoint
  // snapshot if present, replays the journal over it (truncating any torn
  // tail), rebuilds the sensitive-ID views, re-arms triggers, and enables
  // the WAL on a fresh segment. Implemented in engine/recovery.cc.
  static Result<std::unique_ptr<Database>> Recover(const std::string& dir,
                                                   RecoveryStats* stats = nullptr);

  // Crash-failover promotion of a follower's durable directory: like Recover
  // — the torn-tail truncation IS the cut back to the follower's verified
  // prefix — but the fresh segment opens under epoch max_epoch + 1, so
  // segments a deposed primary keeps writing under the old epoch are
  // rejected everywhere. For promoting a live follower, see
  // ReplicaApplier::Promote (replication/applier.h).
  static Result<std::unique_ptr<Database>> Promote(const std::string& dir,
                                                   RecoveryStats* stats = nullptr);

  // --- Replication (src/replication/; docs/REPLICATION.md) ------------------

  // Installs (or clears, with nullptr) the shipper's ack-wait hook. The
  // waiter must outlive every in-flight statement; LogShipper clears it
  // before stopping.
  void set_replication_waiter(ReplicationWaiter* waiter) {
    replication_waiter_.store(waiter, std::memory_order_release);
  }
  ReplicationWaiter* replication_waiter() const {
    return replication_waiter_.load(std::memory_order_acquire);
  }

 private:
  friend class Session;

  // `options` bound to this catalog, with leaf retention / ID propagation
  // for every registered audit expression (Section IV-A1): column pruning
  // keeps their partition keys reachable.
  OptimizerOptions AuditAwareOptimizerOptions(OptimizerOptions options) const;

  Catalog catalog_;
  // Declared before audit_: the AuditManager borrows the default session's
  // context for its clock.
  std::unique_ptr<Session> default_session_;
  AuditManager audit_;
  TriggerManager triggers_;
  mutable SharedMutex storage_mutex_;
  // Non-null once EnableWal succeeded. Sessions append through it while
  // holding the writer lock (see Session::WalAppendLocked).
  std::unique_ptr<WalWriter> wal_;
  std::string data_dir_;
  std::atomic<ReplicationWaiter*> replication_waiter_{nullptr};
};

}  // namespace seltrig

#endif  // SELTRIG_ENGINE_DATABASE_H_
