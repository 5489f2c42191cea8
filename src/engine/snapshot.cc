#include "engine/snapshot.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fault_injector.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "engine/csv_loader.h"
#include "types/date.h"

namespace seltrig {

namespace {

const char* SqlTypeName(TypeId type) {
  switch (type) {
    case TypeId::kInt:
      return "INT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "VARCHAR";
    case TypeId::kDate:
      return "DATE";
    case TypeId::kBool:
      return "BOOLEAN";
    case TypeId::kNull:
      return "VARCHAR";
  }
  return "VARCHAR";
}

std::string CsvField(const Value& v) {
  if (v.is_null()) return "";
  std::string raw;
  switch (v.type()) {
    case TypeId::kString:
      raw = v.AsString();
      break;
    case TypeId::kDate:
      return FormatDate(v.AsDate());
    case TypeId::kBool:
      return v.AsBool() ? "true" : "false";
    case TypeId::kDouble:
      return FormatDoubleExact(v.AsDouble());
    default:
      return v.ToString();
  }
  // Quote strings containing separators/quotes/newlines; escape quotes.
  bool needs_quoting = raw.empty() || raw.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return raw;
  std::string quoted = "\"";
  for (char c : raw) {
    quoted += c;
    if (c == '"') quoted += '"';
  }
  quoted += '"';
  return quoted;
}

}  // namespace

namespace {

// Separates the table DDL from the policy section inside schema.sql.
// LoadSnapshot applies everything before the marker, bulk-loads the CSVs,
// then applies everything after it.
constexpr const char* kPolicyMarker = "-- seltrig:policy";

// Writes schema.sql plus one CSV per table into `dir`, probing the
// `snapshot.write` fault point before each file.
Status WriteSnapshotFiles(Database* db, const std::string& dir,
                          const SnapshotOptions& options) {
  std::vector<std::string> tables = db->catalog()->TableNames();
  std::sort(tables.begin(), tables.end());

  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kSnapshotWrite));
  std::ofstream schema_out(dir + "/schema.sql");
  if (!schema_out) return Status::InvalidArgument("cannot write " + dir + "/schema.sql");

  for (const std::string& name : tables) {
    SELTRIG_ASSIGN_OR_RETURN(Table * table, db->catalog()->GetTable(name));
    const Schema& schema = table->schema();

    schema_out << "CREATE TABLE " << name << " (";
    for (size_t c = 0; c < schema.size(); ++c) {
      if (c > 0) schema_out << ", ";
      schema_out << schema.column(c).name << " " << SqlTypeName(schema.column(c).type);
      if (static_cast<int>(c) == table->primary_key_column()) {
        schema_out << " PRIMARY KEY";
      }
    }
    schema_out << ");\n";

    SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kSnapshotWrite));
    std::ofstream csv(dir + "/" + name + ".csv");
    if (!csv) return Status::InvalidArgument("cannot write " + dir + "/" + name + ".csv");
    for (size_t c = 0; c < schema.size(); ++c) {
      if (c > 0) csv << ',';
      csv << schema.column(c).name;
    }
    csv << '\n';
    for (size_t row_id = 0; row_id < table->slot_count(); ++row_id) {
      if (!table->IsLive(row_id)) continue;
      const Row& row = table->GetRow(row_id);
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) csv << ',';
        csv << CsvField(row[c]);
      }
      csv << '\n';
    }
    csv.flush();
    if (!csv) return Status::InvalidArgument("write failed for " + dir + "/" + name + ".csv");
    SELTRIG_RETURN_IF_ERROR(SyncFile(dir + "/" + name + ".csv"));
  }
  if (options.include_policy) {
    // SECURITY TRADE-OFF (see SnapshotOptions::include_policy): this section
    // writes the audit policy — what is watched and what the triggers do —
    // into the snapshot so recovery is self-contained. Definitions captured
    // without source text cannot be replayed; fail the snapshot rather than
    // silently drop policy.
    schema_out << "\n" << kPolicyMarker
               << " -- audit expressions and triggers; applied after the CSV "
                  "load so DML triggers do not fire on snapshot rows.\n";
    for (const AuditExpressionDef* def : db->audit_manager()->All()) {
      if (def->definition_sql().empty()) {
        return Status::Unsupported("audit expression '" + def->name() +
                                   "' has no source text; cannot snapshot policy");
      }
      schema_out << def->definition_sql() << ";\n";
    }
    for (const TriggerDef* def : db->trigger_manager()->All()) {
      if (def->definition_sql.empty()) {
        return Status::Unsupported("trigger '" + def->name +
                                   "' has no source text; cannot snapshot policy");
      }
      schema_out << def->definition_sql << ";\n";
    }
  }
  schema_out.flush();
  if (!schema_out) return Status::InvalidArgument("write failed for " + dir + "/schema.sql");
  SELTRIG_RETURN_IF_ERROR(SyncFile(dir + "/schema.sql"));

  // Always written, even for plain snapshots (wal_seq 0): a snapshot that
  // does not declare its journal cut is ambiguous to recovery, which must
  // then refuse to replay any journal over it (see RecoverDatabase).
  SnapshotManifest manifest;
  manifest.wal_seq = options.wal_seq;
  if (options.include_policy) {
    for (const TriggerDef* def : db->trigger_manager()->Quarantined()) {
      manifest.quarantined.push_back({def->name, def->consecutive_failures});
    }
  }
  for (const std::string& name : tables) {
    SELTRIG_ASSIGN_OR_RETURN(Table * table, db->catalog()->GetTable(name));
    if (table->schema_version() > 1) {
      manifest.schema_versions.push_back({name, table->schema_version()});
    }
  }
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kSnapshotWrite));
  return WriteSnapshotManifest(dir, manifest);
}

// Restores one table's CSV. The rows go straight to storage with
// Table::Insert, the call journal replay's inserts make: nothing can observe
// them yet (the policy section runs after every CSV, and recovery enables
// the journal after the whole load), so no statement is built or run per
// row. Errors name the file and the record.
Status LoadSnapshotTable(Database* db, const std::string& name,
                         const std::string& path) {
  SELTRIG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  WriterMutexLock lock(&db->storage_mutex());
  SELTRIG_ASSIGN_OR_RETURN(Table * table, db->catalog()->GetTable(name));
  Status loaded =
      ReadCsvRows(table->schema(), text, /*has_header=*/true,
                  [table](Row row) { return table->Insert(std::move(row)).status(); });
  if (loaded.ok()) return loaded;
  return Status(loaded.code(), path + ": " + loaded.message());
}

// Restores every table's CSV, then the policy section, then the quarantine
// state recorded in `manifest` (when there is one).
Status RestoreRowsAndPolicy(Database* db, const std::string& dir,
                            const std::string& policy,
                            const SnapshotManifest* manifest) {
  std::vector<std::string> tables = db->catalog()->TableNames();
  std::sort(tables.begin(), tables.end());
  for (const std::string& name : tables) {
    std::string path = dir + "/" + name + ".csv";
    if (!std::filesystem::exists(path)) continue;  // table from another source
    SELTRIG_RETURN_IF_ERROR(LoadSnapshotTable(db, name, path));
  }

  if (!policy.empty()) {
    SELTRIG_RETURN_IF_ERROR(db->ExecuteScript(policy));
  }

  if (manifest != nullptr) {
    for (const SnapshotManifest::QuarantineEntry& entry : manifest->quarantined) {
      SELTRIG_RETURN_IF_ERROR(db->trigger_manager()->RestoreQuarantineState(
          entry.trigger, /*quarantined=*/true, entry.failures));
    }
  }
  return Status::OK();
}

}  // namespace

Status SaveSnapshot(Database* db, const std::string& dir,
                    const SnapshotOptions& options) {
  // Crash-atomic snapshotting: write into a temporary sibling directory,
  // fsync every file plus the directory, then swap it into place with
  // renames only — never a window where no complete snapshot exists:
  //
  //   1. <dir>         -> <dir>.old    (the previous snapshot, if any)
  //   2. <dir>.inprogress -> <dir>     (the new, fully-synced snapshot)
  //   3. fsync parent, remove <dir>.old
  //
  // A crash between 1 and 2 leaves the previous snapshot at <dir>.old; a
  // crash between 2 and 3 leaves both. RecoverDatabase resolves either state
  // (roll back to .old, or prefer <dir> and drop .old). Callers must delete
  // journal segments only after this returns OK — until then the previous
  // snapshot may be the one recovery falls back to. The `snapshot.swap`
  // fault point probes each window so the kill-point harness covers them.
  if (dir.empty()) return Status::InvalidArgument("snapshot directory is empty");
  const std::string tmp = dir + ".inprogress";
  const std::string old = dir + ".old";
  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);
  // A leftover .old means an earlier swap crashed after its snapshot was in
  // place (or recovery already resolved it); it is dead weight either way.
  std::filesystem::remove_all(old, ec);
  std::filesystem::create_directories(tmp, ec);
  if (ec) return Status::InvalidArgument("cannot create directory " + tmp);

  Status written = WriteSnapshotFiles(db, tmp, options);
  // File bytes are fsynced individually as written; sync the directory so
  // their names are durable before any rename makes the snapshot findable.
  if (written.ok()) written = SyncDirectory(tmp);
  if (written.ok()) written = fault::Maybe(fault_points::kSnapshotSwap);
  if (!written.ok()) {
    std::filesystem::remove_all(tmp, ec);
    return written;
  }

  std::filesystem::path parent = std::filesystem::path(dir).parent_path();
  if (parent.empty()) parent = ".";

  const bool replacing = std::filesystem::exists(dir);
  if (replacing) {
    std::filesystem::rename(dir, old, ec);
    if (ec) {
      std::filesystem::remove_all(tmp, ec);
      return Status::InvalidArgument("cannot move aside snapshot " + dir);
    }
  }
  Status swapped = fault::Maybe(fault_points::kSnapshotSwap);
  if (swapped.ok()) {
    std::filesystem::rename(tmp, dir, ec);
    if (ec) swapped = Status::InvalidArgument("cannot move snapshot into " + dir);
  }
  if (!swapped.ok()) {
    // Roll the previous snapshot back into place; the journal covering it is
    // still intact (callers delete segments only after success).
    if (replacing) std::filesystem::rename(old, dir, ec);
    std::filesystem::remove_all(tmp, ec);
    return swapped;
  }
  SELTRIG_RETURN_IF_ERROR(SyncDirectory(parent.string()));

  // The new snapshot is durably in place; only now may the old one go. An
  // error here leaves <dir>.old behind, which recovery and the next
  // checkpoint both clean up.
  SELTRIG_RETURN_IF_ERROR(fault::Maybe(fault_points::kSnapshotSwap));
  if (replacing) {
    std::filesystem::remove_all(old, ec);
    // Advisory: only delays the removal's durability; a resurrected .old
    // directory is cleaned up by recovery and the next checkpoint anyway.
    (void)SyncDirectory(parent.string());
  }
  return Status::OK();
}

Status WriteSnapshotManifest(const std::string& dir,
                             const SnapshotManifest& manifest) {
  const std::string path = dir + "/MANIFEST";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << "seltrig-snapshot 1\n";
  out << "wal_seq " << manifest.wal_seq << "\n";
  for (const SnapshotManifest::QuarantineEntry& entry : manifest.quarantined) {
    out << "quarantined " << entry.trigger << " " << entry.failures << "\n";
  }
  for (const SnapshotManifest::SchemaVersionEntry& entry : manifest.schema_versions) {
    out << "schema_version " << entry.table << " " << entry.version << "\n";
  }
  out.flush();
  if (!out) return Status::InvalidArgument("write failed for " + path);
  return SyncFile(path);
}

Status LoadSnapshot(Database* db, const std::string& dir) {
  std::ifstream schema_in(dir + "/schema.sql");
  if (!schema_in) return Status::NotFound("cannot open " + dir + "/schema.sql");
  std::string ddl((std::istreambuf_iterator<char>(schema_in)),
                  std::istreambuf_iterator<char>());

  // Split off the policy section: tables first, then data, then policy, so
  // audit expressions materialize their ID views over the loaded rows and
  // DML triggers cannot fire mid-load.
  std::string policy;
  size_t marker = ddl.find(kPolicyMarker);
  if (marker != std::string::npos) {
    policy = ddl.substr(marker);
    ddl.resize(marker);
  }
  SELTRIG_RETURN_IF_ERROR(db->ExecuteScript(ddl));

  Result<SnapshotManifest> manifest = ReadSnapshotManifest(dir);
  if (!manifest.ok() && manifest.status().code() != ErrorCode::kNotFound) {
    return manifest.status();
  }

  // schema.sql wrote the final schema as plain CREATE TABLEs, resetting every
  // version counter to 1; restore the recorded counters before the policy
  // section runs so CREATE AUDIT EXPRESSION / CREATE TRIGGER bind against the
  // snapshot's true versions (and post-snapshot DDL records replay from the
  // right baseline).
  if (manifest.ok()) {
    for (const SnapshotManifest::SchemaVersionEntry& entry :
         manifest->schema_versions) {
      Result<Table*> table = db->catalog()->GetTable(entry.table);
      if (!table.ok()) {
        return Status::InvalidArgument("MANIFEST in " + dir +
                                       " records a schema version for table '" +
                                       entry.table + "' absent from schema.sql");
      }
      (*table)->set_schema_version(entry.version);
    }
  }

  Status restored =
      RestoreRowsAndPolicy(db, dir, policy, manifest.ok() ? &*manifest : nullptr);
  // Into a journaled database (the shell's .open after .wal), schema.sql's
  // and the policy's statements were journaled but the rows were not.
  // Checkpoint whatever was restored, after a failed load too, so the rows
  // are durable and later journaled UPDATEs and DELETEs find them on replay.
  if (db->wal() == nullptr) return restored;
  Status checkpointed = db->Checkpoint();
  return restored.ok() ? checkpointed : restored;
}

Result<SnapshotManifest> ReadSnapshotManifest(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST");
  if (!in) return Status::NotFound("no MANIFEST in " + dir);
  SnapshotManifest manifest;
  std::string header;
  if (!std::getline(in, header) || header.rfind("seltrig-snapshot ", 0) != 0) {
    return Status::InvalidArgument("malformed MANIFEST in " + dir);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "wal_seq") {
      if (!(fields >> manifest.wal_seq)) {
        return Status::InvalidArgument("malformed wal_seq in " + dir + "/MANIFEST");
      }
    } else if (key == "quarantined") {
      SnapshotManifest::QuarantineEntry entry;
      if (!(fields >> entry.trigger >> entry.failures)) {
        return Status::InvalidArgument("malformed quarantined entry in " + dir +
                                       "/MANIFEST");
      }
      manifest.quarantined.push_back(std::move(entry));
    } else if (key == "schema_version") {
      SnapshotManifest::SchemaVersionEntry entry;
      if (!(fields >> entry.table >> entry.version)) {
        return Status::InvalidArgument("malformed schema_version entry in " +
                                       dir + "/MANIFEST");
      }
      manifest.schema_versions.push_back(std::move(entry));
    }
    // Unknown keys are ignored: newer writers stay readable.
  }
  return manifest;
}

}  // namespace seltrig
