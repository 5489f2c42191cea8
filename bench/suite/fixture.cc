#include "fixture.h"

#include <filesystem>
#include <system_error>
#include <thread>

#include "replication/transport.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace seltrig::bench {

namespace {

void AddSpan(Tracer::Buffer* trace, const char* name, const char* layer,
             Clock::time_point start, Clock::time_point end) {
  if (trace != nullptr) trace->Add({name, layer, start, end, 0, 0});
}

}  // namespace

Result<std::unique_ptr<Fixture>> Fixture::Create(const std::string& dir,
                                                 double scale_factor,
                                                 bool with_follower,
                                                 Tracer::Buffer* trace,
                                                 SetupTimes* times) {
  std::unique_ptr<Fixture> fixture(new Fixture(dir));
  const Clock::time_point start = Clock::now();

  SELTRIG_ASSIGN_OR_RETURN(fixture->db_, Database::Recover(dir + "/primary"));
  Database* db = fixture->db_.get();
  const Clock::time_point opened = Clock::now();
  AddSpan(trace, "Database::Recover", "engine", start, opened);

  tpch::TpchConfig config;
  config.scale_factor = scale_factor;
  SELTRIG_RETURN_IF_ERROR(tpch::LoadTpch(db, config));
  const Clock::time_point loaded = Clock::now();
  AddSpan(trace, "tpch::LoadTpch", "tpch", opened, loaded);

  SELTRIG_RETURN_IF_ERROR(db->ExecuteScript(
      tpch::SegmentAuditExpressionSql(kAuditName, "BUILDING") + ";\n" +
      "CREATE TABLE audit_log (ts VARCHAR, userid VARCHAR, sql VARCHAR, "
      "c_custkey INT);\n"
      "CREATE TRIGGER log_seg ON ACCESS TO audit_segment AS INSERT INTO "
      "audit_log SELECT now(), user_id(), sql_text(), c_custkey FROM accessed;"));
  const Clock::time_point ddl = Clock::now();
  AddSpan(trace, "Session::ExecuteScript(ddl)", "engine", loaded, ddl);

  // The bulk load bypassed the journal; the checkpoint makes it durable.
  SELTRIG_RETURN_IF_ERROR(db->Checkpoint());
  const Clock::time_point checkpointed = Clock::now();
  AddSpan(trace, "Database::Checkpoint", "storage", ddl, checkpointed);

  double catchup_s = 0.0;
  if (with_follower) {
    SELTRIG_RETURN_IF_ERROR(fixture->AttachFollower(&catchup_s));
    AddSpan(trace, "replication catch-up", "replication", checkpointed, Clock::now());
  }

  if (times != nullptr) {
    times->total_s = Seconds(Clock::now() - start);
    times->load_s = Seconds(loaded - opened);
    times->checkpoint_s = Seconds(checkpointed - ddl);
    times->catchup_s = catchup_s;
  }
  return fixture;
}

Fixture::~Fixture() {
  // Shipper first: it uninstalls the replication waiter before the follower
  // it waits on goes away.
  if (shipper_ != nullptr) shipper_->Stop();
  if (applier_ != nullptr) applier_->Stop();
  shipper_.reset();
  applier_.reset();
  db_.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

Status Fixture::AttachFollower(double* catchup_s) {
  if (shipper_ != nullptr) return Status::AlreadyExists("follower already attached");
  const Clock::time_point start = Clock::now();
  SELTRIG_ASSIGN_OR_RETURN(applier_, ReplicaApplier::Open(dir_ + "/follower"));
  ShipperOptions options;
  options.ack_mode = ReplicationAckMode::kSync;
  shipper_ = std::make_unique<LogShipper>(db_.get(), options);
  ReplicaApplier* applier = applier_.get();
  shipper_->AddFollower("follower", [applier]() -> Result<std::shared_ptr<FrameChannel>> {
    applier->Stop();
    ChannelPair pair = CreateInProcessChannelPair();
    applier->Start(pair.follower_end);
    return pair.primary_end;
  });
  SELTRIG_RETURN_IF_ERROR(WaitFollowerCaughtUp(120.0));
  *catchup_s = Seconds(Clock::now() - start);
  return Status::OK();
}

Status Fixture::WaitFollowerCaughtUp(double timeout_s) {
  if (shipper_ == nullptr) return Status::FailedPrecondition("no follower attached");
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (!shipper_->AllCaughtUp()) {
    if (Clock::now() > deadline) {
      return Status::DeadlineExceeded("follower did not catch up");
    }
    Status health = applier_->health();
    if (!health.ok()) return health;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

Result<uint64_t> Fixture::JournalBytesSince(const WalPosition& from) const {
  const WalPosition now = db_->wal()->current_position();
  if (now.seq == from.seq) return now.offset - from.offset;
  SELTRIG_ASSIGN_OR_RETURN(std::vector<WalSegment> segments,
                           ListWalSegments(db_->wal()->wal_dir()));
  uint64_t bytes = now.offset;
  for (const WalSegment& segment : segments) {
    if (segment.seq < from.seq || segment.seq >= now.seq) continue;
    std::error_code ec;
    const uint64_t size = std::filesystem::file_size(segment.path, ec);
    if (ec) return Status::Unavailable("cannot stat " + segment.path);
    bytes += size;
  }
  return bytes - from.offset;
}

}  // namespace seltrig::bench
