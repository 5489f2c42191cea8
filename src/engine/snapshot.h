// Database snapshots: save the catalog and every table's contents to a
// directory; load them back into a fresh Database.
//
// Format: <dir>/schema.sql holds CREATE TABLE statements; <dir>/<table>.csv
// holds each table's rows (with a header; DOUBLEs in %.17g, an empty string
// as "", NULL as an empty field); <dir>/MANIFEST holds the journal
// cut sequence and quarantine state (always written; wal_seq 0 marks a plain
// snapshot taken outside any journal).
//
// Policy capture: by default audit expressions and triggers are NOT saved —
// their definitions are security policy and are expected to live in
// versioned setup scripts, re-applied after a load (the ID views are rebuilt
// from data at CREATE AUDIT EXPRESSION time anyway). Checkpoints of a
// journaled database set SnapshotOptions::include_policy so recovery is
// self-contained; see the trade-off note on the field.

#ifndef SELTRIG_ENGINE_SNAPSHOT_H_
#define SELTRIG_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"

namespace seltrig {

struct SnapshotOptions {
  // Append a policy section to schema.sql carrying the CREATE AUDIT
  // EXPRESSION / CREATE TRIGGER statements (their original SQL), and record
  // quarantine state in MANIFEST. SECURITY TRADE-OFF: with this on, the
  // snapshot directory reveals what is audited and how — anyone who can read
  // the snapshot learns the audit policy, and anyone who can write it can
  // weaken the policy that a recovery will re-arm. Keep checkpoint
  // directories at least as protected as the audit log itself. Off by
  // default: plain snapshots then stay policy-free as before.
  bool include_policy = false;
  // Journal segment sequence this snapshot supersedes: recovery replays only
  // segments >= wal_seq over it. 0 = snapshot of an unjournaled database.
  uint64_t wal_seq = 0;
};

// What MANIFEST records. A missing MANIFEST (hand-built snapshot) reads as
// NotFound; recovery treats that — and an explicit wal_seq 0 — as "no journal
// cut recorded" and refuses to replay an existing journal over the snapshot
// (see RecoverDatabase), since doing so would double-apply commits.
struct SnapshotManifest {
  uint64_t wal_seq = 0;
  struct QuarantineEntry {
    std::string trigger;
    int failures = 0;
  };
  std::vector<QuarantineEntry> quarantined;
  // Per-table schema version counters. schema.sql writes the FINAL schema as
  // a plain CREATE TABLE, which resets the counter to 1 on load; these
  // entries restore the version history cut so post-snapshot DDL records
  // (stamped old + 1) replay against the right baseline. Only tables that
  // have been ALTERed (version > 1) are recorded; readers predating this key
  // ignore it.
  struct SchemaVersionEntry {
    std::string table;
    uint64_t version = 1;
  };
  std::vector<SchemaVersionEntry> schema_versions;
};

// Writes schema.sql plus one CSV per table into `dir` (created if needed).
// Every file and directory is fsynced, then the snapshot is swapped into
// place with renames so that a crash at any instant leaves either the old or
// the new snapshot fully intact (never neither); see SaveSnapshot in
// snapshot.cc for the exact sequence and the crash states recovery resolves.
Status SaveSnapshot(Database* db, const std::string& dir,
                    const SnapshotOptions& options = SnapshotOptions());

// Replays schema.sql and restores every CSV. Fails if any table to be
// created already exists. Each CSV row is typed by its table's schema
// (ReadCsvRows, engine/csv_loader.h) and appended with Table::Insert under
// the writer lock, as journal replay inserts rows, so every cell comes back
// bit for bit. That is sound only because nothing observes the rows: policy
// statements (the include_policy section) are applied after all CSVs are
// loaded, so no DML trigger fires and the audit expressions build their ID
// views from the loaded rows; quarantine state from MANIFEST is restored
// last. Loaded rows are NOT journaled — Database::Recover enables the WAL
// only afterwards; a load into an already journaled database ends with a
// Checkpoint instead, after a failed load too, which makes whatever was
// restored durable. Such a load is not atomic: a crash before that
// checkpoint ends recovers the created tables without their rows. A
// malformed CSV fails the load with an error naming the file and the record.
Status LoadSnapshot(Database* db, const std::string& dir);

Result<SnapshotManifest> ReadSnapshotManifest(const std::string& dir);

// Rewrites <dir>/MANIFEST (fsynced). Used by SaveSnapshot and by recovery to
// stamp the journal cut onto a plain snapshot it is bootstrapping from.
Status WriteSnapshotManifest(const std::string& dir,
                             const SnapshotManifest& manifest);

}  // namespace seltrig

#endif  // SELTRIG_ENGINE_SNAPSHOT_H_
