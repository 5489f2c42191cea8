// The database every seltrig_bench workload runs against: a journaled
// TPC-H instance carrying the paper's audit expression and a logging SELECT
// trigger, optionally with one synchronous follower.

#ifndef SELTRIG_BENCH_SUITE_FIXTURE_H_
#define SELTRIG_BENCH_SUITE_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "engine/database.h"
#include "replication/applier.h"
#include "replication/shipper.h"
#include "storage/wal.h"
#include "trace.h"

namespace seltrig::bench {

// Name of the paper's audit expression over BUILDING customers.
inline constexpr const char* kAuditName = "audit_segment";

struct SetupTimes {
  // setup_s: open + TPC-H load + DDL + checkpoint, plus follower catch-up
  // when the workload replicates.
  double total_s = 0.0;
  double load_s = 0.0;        // tpch.load_s
  double checkpoint_s = 0.0;  // storage.checkpoint_s
  double catchup_s = 0.0;     // replication.catchup_s; 0 without a follower
};

class Fixture {
 public:
  // Builds the database under `dir` (which must not exist):
  //   Database::Recover(dir) with the WAL at its default kCommit sync mode,
  //   tpch::LoadTpch at `scale_factor` with the fixed dbgen seed,
  //   the paper's audit expression over BUILDING customers,
  //   CREATE TABLE audit_log and the logging trigger log_seg,
  //   Checkpoint(),
  //   and, with `with_follower`, AttachFollower().
  // Each step is a span in `trace` when it is non-null.
  static Result<std::unique_ptr<Fixture>> Create(const std::string& dir,
                                                 double scale_factor,
                                                 bool with_follower,
                                                 Tracer::Buffer* trace,
                                                 SetupTimes* times);
  ~Fixture();

  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  Database* db() const { return db_.get(); }
  LogShipper* shipper() const { return shipper_.get(); }
  ReplicaApplier* applier() const { return applier_.get(); }

  // Starts one sync-ack follower (default ShipperOptions apart from the ack
  // mode) over an in-process channel pair and waits until it has acked the
  // primary's journal tip; *catchup_s is the time that took.
  Status AttachFollower(double* catchup_s);

  // Blocks until the follower acked the primary's journal tip.
  Status WaitFollowerCaughtUp(double timeout_s);

  // Journal bytes appended since `from`, summed across segment rotations.
  Result<uint64_t> JournalBytesSince(const WalPosition& from) const;

 private:
  explicit Fixture(std::string dir) : dir_(std::move(dir)) {}

  const std::string dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ReplicaApplier> applier_;
  std::unique_ptr<LogShipper> shipper_;
};

}  // namespace seltrig::bench

#endif  // SELTRIG_BENCH_SUITE_FIXTURE_H_
