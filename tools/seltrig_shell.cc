// seltrig interactive SQL shell.
//
// Reads ';'-terminated statements from stdin and prints results. Dot
// commands:
//   .help                 this message
//   .tables               list tables with row counts
//   .audit                list audit expressions with view sizes
//   .schema               per-table columns, schema versions, trigger binds
//   .triggers             list triggers with quarantine/stale-version flags
//   .user NAME            set the session user (USER_ID())
//   .profile on|off       per-operator runtime counters after each query
//   .batch N              set the executor batch size (default 1024)
//   .threads N            worker threads for eligible scan spines (default 1)
//   .concurrent N SQL...  run SQL once per session on N concurrent sessions
//   .tpch SF              load the TPC-H database at scale factor SF
//   .import FILE TABLE    bulk-load a CSV file (with header) into TABLE
//   .wal DIR              open a durable database at DIR (recover + journal)
//   .replica DIR          attach an in-process replica at durable dir DIR
//   .replica              replication status: this node's role (leader /
//                         follower / candidate vocabulary of
//                         replication/election.h), current epoch, and per
//                         follower the acked position, lag in records, and
//                         time since its last heartbeat ack
//   .quit / .exit         leave
//
// Session settings (see docs/ROBUSTNESS.md, docs/DURABILITY.md and
// docs/REPLICATION.md):
//   SET AUDIT_FAILURE_POLICY = FAIL_CLOSED | FAIL_OPEN;
//   SET WAL_SYNC = OFF | COMMIT | BATCH;
//   SET REPLICATION_ACK = ASYNC | SYNC;   -- before the first .replica
//   CHECKPOINT;
//
// Usage:   seltrig_shell [script.sql ...]
// Scripts given on the command line run before the interactive loop (or
// instead of it when stdin is not a TTY).

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/csv_loader.h"
#include "engine/recovery.h"
#include "engine/snapshot.h"
#include "replication/applier.h"
#include "replication/election.h"
#include "replication/shipper.h"
#include "replication/transport.h"
#include "seltrig/seltrig.h"

namespace {

using seltrig::Database;
using seltrig::ExecOptions;
using seltrig::StatementResult;

// Shell session: the database plus the options applied to every statement
// (mutated by SET AUDIT_FAILURE_POLICY and friends). The database lives
// behind a pointer so `.wal DIR` can swap in a recovered instance.
struct Shell {
  std::unique_ptr<Database> db = std::make_unique<Database>();
  ExecOptions options;
  // Replication state (.replica / SET REPLICATION_ACK). Declaration order
  // matters: the shipper holds the db and the appliers, so it must be
  // destroyed first (members destruct in reverse order).
  seltrig::ReplicationAckMode ack_mode = seltrig::ReplicationAckMode::kAsync;
  std::vector<std::unique_ptr<seltrig::ReplicaApplier>> appliers;
  std::unique_ptr<seltrig::LogShipper> shipper;

  // Detaches every replica (used before swapping the database).
  void StopReplication() {
    if (shipper != nullptr) shipper->Stop();
    shipper.reset();
    for (auto& applier : appliers) applier->Stop();
    appliers.clear();
  }
};

void PrintResult(const StatementResult& result) {
  const seltrig::QueryResult& qr = result.result;
  if (qr.schema.size() == 0) {
    if (qr.affected_rows > 0) {
      std::printf("(%lld rows affected)\n", static_cast<long long>(qr.affected_rows));
    } else {
      std::printf("ok\n");
    }
    return;
  }
  std::printf("%s", qr.ToString(1000).c_str());
  std::printf("(%zu rows)\n", qr.rows.size());
  for (const auto& [expr, ids] : result.accessed) {
    std::printf("-- ACCESSED[%s]: %zu sensitive ids\n", expr.c_str(), ids.size());
  }
  if (!result.profile_text.empty()) {
    std::printf("-- profile (rows/batches per operator, time incl. children):\n%s",
                result.profile_text.c_str());
  }
}

// Handles the shell-level `SET <NAME> = <VALUE>` settings; returns true when
// `sql` was one of them (consumed, not sent to the engine).
bool HandleSetCommand(Shell* sh, const std::string& sql) {
  std::string upper;
  upper.reserve(sql.size());
  for (char c : sql) {
    if (c == '=') {
      upper += ' ';
      continue;
    }
    upper += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  std::istringstream in(upper);
  std::string word, name, value;
  in >> word >> name >> value;
  if (word == "CHECKPOINT" && name.empty()) {
    seltrig::Status status = sh->db->Checkpoint();
    std::printf("%s\n", status.ok() ? "checkpointed" : status.ToString().c_str());
    return true;
  }
  if (word != "SET") return false;
  if (name == "WAL_SYNC") {
    seltrig::WalWriter* wal = sh->db->wal();
    if (wal == nullptr) {
      std::printf("error: WAL_SYNC requires a journaled database (.wal DIR)\n");
    } else if (value == "OFF") {
      wal->set_sync_mode(seltrig::WalSyncMode::kOff);
      std::printf("wal sync: off\n");
    } else if (value == "COMMIT") {
      wal->set_sync_mode(seltrig::WalSyncMode::kCommit);
      std::printf("wal sync: commit\n");
    } else if (value == "BATCH") {
      wal->set_sync_mode(seltrig::WalSyncMode::kBatch);
      std::printf("wal sync: batch\n");
    } else {
      std::printf("error: SET WAL_SYNC expects OFF, COMMIT or BATCH\n");
    }
    return true;
  }
  if (name == "REPLICATION_ACK") {
    if (sh->shipper != nullptr) {
      // The ack mode is fixed at shipper construction; switching a live
      // shipper would silently change the guarantee mid-stream.
      std::printf("error: SET REPLICATION_ACK before attaching the first replica\n");
    } else if (value == "ASYNC") {
      sh->ack_mode = seltrig::ReplicationAckMode::kAsync;
      std::printf("replication ack: async\n");
    } else if (value == "SYNC") {
      sh->ack_mode = seltrig::ReplicationAckMode::kSync;
      std::printf("replication ack: sync (statements wait for follower acks)\n");
    } else {
      std::printf("error: SET REPLICATION_ACK expects ASYNC or SYNC\n");
    }
    return true;
  }
  if (name != "AUDIT_FAILURE_POLICY") return false;
  if (value == "FAIL_CLOSED") {
    sh->options.audit_failure_policy = seltrig::AuditFailurePolicy::kFailClosed;
    std::printf("audit failure policy: fail-closed\n");
  } else if (value == "FAIL_OPEN") {
    sh->options.audit_failure_policy = seltrig::AuditFailurePolicy::kFailOpen;
    std::printf("audit failure policy: fail-open\n");
  } else {
    std::printf("error: SET AUDIT_FAILURE_POLICY expects FAIL_CLOSED or FAIL_OPEN\n");
  }
  return true;
}

void RunStatement(Shell* sh, const std::string& sql) {
  if (HandleSetCommand(sh, sql)) return;
  size_t notifications_before = sh->db->notifications().size();
  auto result = sh->db->ExecuteWithOptions(sql, sh->options);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  PrintResult(*result);
  // Quarantine and other NOTIFY output raised by this statement.
  const auto& notes = sh->db->notifications();
  for (size_t i = notifications_before; i < notes.size(); ++i) {
    std::printf("-- NOTIFY: %s\n", notes[i].c_str());
  }
}

bool HandleDotCommand(Shell* sh, const std::string& line) {
  Database* db = sh->db.get();
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd == ".quit" || cmd == ".exit") return false;
  if (cmd == ".help") {
    std::printf(
        ".tables | .audit | .schema | .triggers | .user NAME | .profile on|off "
        "| .batch N "
        "| .threads N | .columnar on|off | .concurrent N SQL | .tpch SF "
        "| .import FILE TABLE "
        "| .save DIR | .open DIR | .wal DIR | .replica [DIR] | .quit\n"
        "SET AUDIT_FAILURE_POLICY = FAIL_CLOSED | FAIL_OPEN;\n"
        "SET WAL_SYNC = OFF | COMMIT | BATCH;   CHECKPOINT;\n"
        "SET REPLICATION_ACK = ASYNC | SYNC;  (before the first .replica)\n");
  } else if (cmd == ".tables") {
    for (const std::string& name : db->catalog()->TableNames()) {
      auto table = db->catalog()->GetTable(name);
      std::printf("%-24s %zu rows\n", name.c_str(),
                  table.ok() ? (*table)->live_row_count() : 0);
    }
  } else if (cmd == ".audit") {
    for (const seltrig::AuditExpressionDef* def : db->audit_manager()->All()) {
      std::printf("%-24s table=%s key=%s view=%zu ids\n", def->name().c_str(),
                  def->sensitive_table().c_str(), def->partition_by().c_str(),
                  def->view().size());
    }
  } else if (cmd == ".schema") {
    for (const std::string& name : db->catalog()->TableNames()) {
      auto table = db->catalog()->GetTable(name);
      if (!table.ok()) continue;
      const seltrig::Schema& schema = (*table)->schema();
      std::printf("%s (schema version %llu)\n", name.c_str(),
                  static_cast<unsigned long long>((*table)->schema_version()));
      for (size_t c = 0; c < schema.size(); ++c) {
        std::printf("  %-22s %s%s\n", schema.column(c).name.c_str(),
                    seltrig::TypeName(schema.column(c).type),
                    static_cast<int>(c) == (*table)->primary_key_column()
                        ? " PRIMARY KEY"
                        : "");
      }
    }
    for (const seltrig::TriggerDef* def : db->trigger_manager()->All()) {
      std::printf("trigger %-16s bound to schema version %llu\n",
                  def->name.c_str(),
                  static_cast<unsigned long long>(def->bound_schema_version));
    }
  } else if (cmd == ".triggers") {
    // A quarantined trigger whose bound schema version no longer matches the
    // subject table went stale while offline (an ALTER TABLE rebound only the
    // live triggers); Rearm re-validates it against the current catalog.
    auto subject_version = [db](const seltrig::TriggerDef* def) -> uint64_t {
      std::string table = def->table;
      if (def->is_select_trigger) {
        const seltrig::AuditExpressionDef* expr =
            db->audit_manager()->Find(def->audit_expression);
        if (expr == nullptr) return 0;  // expression gone: definitely stale
        table = expr->sensitive_table();
      }
      auto t = db->catalog()->GetTable(table);
      return t.ok() ? (*t)->schema_version() : 0;
    };
    for (const seltrig::TriggerDef* def : db->trigger_manager()->All()) {
      const bool stale =
          def->quarantined && subject_version(def) != def->bound_schema_version;
      const char* quarantined = def->quarantined
                                    ? (stale ? " [quarantined, version-stale]"
                                             : " [quarantined]")
                                    : "";
      if (def->is_select_trigger) {
        std::printf("%-24s ON ACCESS TO %s%s%s\n", def->name.c_str(),
                    def->audit_expression.c_str(), def->before ? " BEFORE" : "",
                    quarantined);
      } else {
        const char* event = def->event == seltrig::ast::DmlEvent::kInsert   ? "INSERT"
                            : def->event == seltrig::ast::DmlEvent::kUpdate ? "UPDATE"
                                                                            : "DELETE";
        std::printf("%-24s ON %s AFTER %s%s\n", def->name.c_str(), def->table.c_str(),
                    event, quarantined);
      }
    }
  } else if (cmd == ".profile") {
    std::string mode;
    in >> mode;
    if (mode == "on" || mode == "off") {
      sh->options.collect_profile = mode == "on";
      std::printf("profiling %s\n", mode.c_str());
    } else {
      std::printf("usage: .profile on|off (currently %s)\n",
                  sh->options.collect_profile ? "on" : "off");
    }
  } else if (cmd == ".batch") {
    size_t n = 0;
    in >> n;
    if (n > 0) {
      sh->options.batch_size = n;
      std::printf("batch size: %zu\n", n);
    } else {
      std::printf("usage: .batch N (currently %zu)\n", sh->options.batch_size);
    }
  } else if (cmd == ".threads") {
    int n = 0;
    in >> n;
    if (n > 0) {
      sh->options.num_threads = n;
      std::printf("threads: %d\n", n);
    } else {
      std::printf("usage: .threads N (currently %d)\n", sh->options.num_threads);
    }
  } else if (cmd == ".columnar") {
    std::string mode;
    in >> mode;
    if (mode == "on" || mode == "off") {
      sh->options.columnar = mode == "on";
      std::printf("columnar layout %s\n", mode.c_str());
    } else {
      std::printf("usage: .columnar on|off (currently %s)\n",
                  sh->options.columnar ? "on" : "off");
    }
  } else if (cmd == ".concurrent") {
    // Concurrent-session smoke hook: runs one statement on N sessions at
    // once and reports each session's outcome deterministically by index.
    int n = 0;
    in >> n;
    std::string sql;
    std::getline(in, sql);
    if (n <= 0 || sql.find_first_not_of(" \t") == std::string::npos) {
      std::printf("usage: .concurrent N <sql>\n");
      return true;
    }
    struct Outcome {
      size_t rows = 0;
      std::string error;
    };
    std::vector<std::unique_ptr<seltrig::Session>> sessions;
    std::vector<Outcome> outcomes(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) sessions.push_back(db->CreateSession());
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        auto result = sessions[static_cast<size_t>(i)]->ExecuteWithOptions(
            sql, sh->options);
        if (result.ok()) {
          outcomes[static_cast<size_t>(i)].rows = result->result.rows.size();
        } else {
          outcomes[static_cast<size_t>(i)].error = result.status().ToString();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < n; ++i) {
      const Outcome& o = outcomes[static_cast<size_t>(i)];
      if (o.error.empty()) {
        std::printf("session %d: %zu rows\n", i, o.rows);
      } else {
        std::printf("session %d: error: %s\n", i, o.error.c_str());
      }
    }
  } else if (cmd == ".user") {
    std::string user;
    in >> user;
    if (user.empty()) {
      std::printf("current user: %s\n", db->session()->user.c_str());
    } else {
      db->session()->user = user;
    }
  } else if (cmd == ".tpch") {
    double sf = 0.01;
    in >> sf;
    seltrig::tpch::TpchConfig config;
    config.scale_factor = sf;
    seltrig::Status status = seltrig::tpch::LoadTpch(db, config);
    std::printf("%s\n", status.ok() ? "loaded" : status.ToString().c_str());
  } else if (cmd == ".save") {
    std::string dir;
    in >> dir;
    seltrig::Status status = seltrig::SaveSnapshot(db, dir);
    std::printf("%s\n", status.ok() ? "saved" : status.ToString().c_str());
  } else if (cmd == ".open") {
    std::string dir;
    in >> dir;
    seltrig::Status status = seltrig::LoadSnapshot(db, dir);
    std::printf("%s\n", status.ok() ? "loaded" : status.ToString().c_str());
  } else if (cmd == ".wal") {
    // Open (or create) a durable database at DIR: recover snapshot + journal,
    // then journal every statement from here on. Replaces the current
    // in-memory database. Note: .tpch bulk loads bypass the journal — run
    // CHECKPOINT after them or they will not survive a crash (.open
    // checkpoints by itself; .import runs one journaled INSERT per row).
    std::string dir;
    in >> dir;
    if (dir.empty()) {
      std::printf("usage: .wal DIR\n");
      return true;
    }
    seltrig::RecoveryStats stats;
    auto recovered = Database::Recover(dir, &stats);
    if (!recovered.ok()) {
      std::printf("error: %s\n", recovered.status().ToString().c_str());
      return true;
    }
    // The shipper tails the old database's journal; detach replicas before
    // swapping it out.
    sh->StopReplication();
    sh->db = std::move(recovered).value();
    std::printf(
        "recovered %s: snapshot=%s, %llu segment(s), %llu commit(s), %llu op(s)%s\n",
        dir.c_str(), stats.snapshot_loaded ? "yes" : "no",
        static_cast<unsigned long long>(stats.segments_replayed),
        static_cast<unsigned long long>(stats.commits_replayed),
        static_cast<unsigned long long>(stats.ops_applied),
        stats.truncated_torn_tail ? ", torn tail truncated" : "");
  } else if (cmd == ".replica") {
    // .replica DIR attaches an in-process follower whose durable state lives
    // at DIR (see docs/REPLICATION.md); .replica alone prints status.
    std::string dir;
    in >> dir;
    if (dir.empty()) {
      if (sh->shipper == nullptr) {
        std::printf("no replicas attached (use .replica DIR)\n");
        return true;
      }
      // An interactive shell that ships its journal is, definitionally, the
      // leader of its in-process cluster at its journal's epoch; the
      // follower and candidate roles from the same vocabulary appear on
      // elected nodes (replication/election.h, tools/seltrig_crashtest
      // --nodes 3). Per follower: acked position, lag in records (shipped
      // but not yet acked), and time since its last heartbeat ack — the
      // liveness signal an election would act on.
      seltrig::WalPosition tip;
      if (db->wal() != nullptr) tip = db->wal()->current_position();
      std::printf("role=%s epoch=%llu journal=%s (%s ack)\n",
                  seltrig::ElectionRoleName(seltrig::ElectionRole::kLeader),
                  static_cast<unsigned long long>(tip.epoch),
                  tip.ToString().c_str(),
                  sh->ack_mode == seltrig::ReplicationAckMode::kSync
                      ? "sync"
                      : "async");
      for (const seltrig::FollowerStatus& f : sh->shipper->Followers()) {
        std::string heartbeat = f.ms_since_last_ack < 0
            ? std::string("never")
            : std::to_string(f.ms_since_last_ack) + " ms ago";
        std::printf(
            "%-12s role=%s %s%s acked=%s lag=%llu records heartbeat=%s "
            "sent=%llu acked_records=%llu naks=%llu snapshots=%llu "
            "resyncs=%llu reconnects=%llu%s%s\n",
            f.name.c_str(),
            seltrig::ElectionRoleName(seltrig::ElectionRole::kFollower),
            f.connected ? "connected" : "disconnected",
            f.degraded ? " DEGRADED" : "", f.acked.ToString().c_str(),
            static_cast<unsigned long long>(f.records_sent - f.records_acked),
            heartbeat.c_str(),
            static_cast<unsigned long long>(f.records_sent),
            static_cast<unsigned long long>(f.records_acked),
            static_cast<unsigned long long>(f.naks_received),
            static_cast<unsigned long long>(f.snapshots_sent),
            static_cast<unsigned long long>(f.forced_resyncs),
            static_cast<unsigned long long>(f.reconnects),
            f.last_error.empty() ? "" : " error=", f.last_error.c_str());
      }
      return true;
    }
    if (db->wal() == nullptr) {
      std::printf("error: .replica requires a journaled primary (.wal DIR first)\n");
      return true;
    }
    auto applier = seltrig::ReplicaApplier::Open(dir);
    if (!applier.ok()) {
      std::printf("error: %s\n", applier.status().ToString().c_str());
      return true;
    }
    if (sh->shipper == nullptr) {
      seltrig::ShipperOptions options;
      options.ack_mode = sh->ack_mode;
      sh->shipper = std::make_unique<seltrig::LogShipper>(db, options);
    }
    seltrig::ReplicaApplier* raw = applier->get();
    sh->appliers.push_back(std::move(*applier));
    sh->shipper->AddFollower(
        "replica" + std::to_string(sh->appliers.size()),
        [raw]() -> seltrig::Result<std::shared_ptr<seltrig::FrameChannel>> {
          raw->Stop();
          seltrig::ChannelPair pair = seltrig::CreateInProcessChannelPair();
          raw->Start(pair.follower_end);
          return pair.primary_end;
        });
    std::printf("replica attached at %s (%s ack)\n", dir.c_str(),
                sh->ack_mode == seltrig::ReplicationAckMode::kSync ? "sync"
                                                                   : "async");
  } else if (cmd == ".import") {
    std::string file, table;
    in >> file >> table;
    auto loaded = seltrig::LoadCsvFileIntoTable(db, table, file, /*has_header=*/true);
    if (loaded.ok()) {
      std::printf("loaded %lld rows into %s\n", static_cast<long long>(*loaded),
                  table.c_str());
    } else {
      std::printf("error: %s\n", loaded.status().ToString().c_str());
    }
  } else {
    std::printf("unknown command %s (try .help)\n", cmd.c_str());
  }
  return true;
}

// Feeds a stream of input into the shell loop; returns false on .quit.
bool RunStream(Shell* sh, std::istream& in, bool interactive) {
  std::string pending;
  std::string line;
  if (interactive) std::printf("seltrig> ");
  while (std::getline(in, line)) {
    if (pending.empty() && !line.empty() && line[0] == '.') {
      if (!HandleDotCommand(sh, line)) return false;
      if (interactive) std::printf("seltrig> ");
      continue;
    }
    pending += line;
    pending += '\n';
    // Execute every ';'-terminated statement accumulated so far.
    size_t pos;
    while ((pos = pending.find(';')) != std::string::npos) {
      std::string sql = pending.substr(0, pos);
      pending.erase(0, pos + 1);
      bool blank = true;
      for (char c : sql) blank = blank && std::isspace(static_cast<unsigned char>(c));
      if (!blank) RunStatement(sh, sql);
    }
    // Pure whitespace is not a pending statement (keeps dot commands usable
    // right after a ';').
    bool pending_blank = true;
    for (char c : pending) {
      pending_blank = pending_blank && std::isspace(static_cast<unsigned char>(c));
    }
    if (pending_blank) pending.clear();
    if (interactive) std::printf(pending.empty() ? "seltrig> " : "    ...> ");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  for (int i = 1; i < argc; ++i) {
    std::ifstream script(argv[i]);
    if (!script) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    if (!RunStream(&shell, script, /*interactive=*/false)) return 0;
  }
  bool tty = isatty(fileno(stdin)) != 0;
  if (argc > 1 && !tty) return 0;  // script-only invocation
  RunStream(&shell, std::cin, tty);
  return 0;
}
