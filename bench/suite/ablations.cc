#include "ablations.h"

#include <algorithm>
#include <random>

#include "stats.h"

namespace seltrig::bench {

namespace {

using PairsByClass = std::vector<std::vector<std::pair<double, double>>>;

// SELECTs per point-workload probe round; olap_tpch probes one round of the
// seven queries.
constexpr size_t kPointProbeSelects = 64;
// Rounds the bootstrap of the overhead probe needs at least, so every class
// has pairs to resample.
constexpr int kBootstrapRounds = 3;
// Insert pairs of the commit-path probes, and lookups of the storage probe.
constexpr int kWritePairs = 32;
constexpr int kLookupProbes = 20;
// Order keys of probe inserts start this far above the workload's fresh
// keys, so the two never collide.
constexpr int64_t kProbeKeyOffset = int64_t{1} << 40;

Result<double> TimeUs(Session* session, const std::string& sql, const ExecOptions& options) {
  const Clock::time_point start = Clock::now();
  Result<StatementResult> result = session->ExecuteWithOptions(sql, options);
  const Clock::time_point end = Clock::now();
  if (!result.ok()) return result.status();
  return Micros(end - start);
}

// The first SELECTs of a stream seeded apart from the clients' streams.
std::vector<Statement> ProbeSelects(WorkloadRun* run, uint64_t seed) {
  Client probe(run->spec(), 0, seed ^ 0x9E3779B97F4A7C15ull, run->reference());
  const size_t want = run->spec().kind == WorkloadKind::kOlapTpch
                          ? run->reference()->queries.size()
                          : kPointProbeSelects;
  std::vector<Statement> selects;
  while (selects.size() < want) {
    Statement stmt = probe.Next();
    if (IsSelectClass(stmt.cls)) selects.push_back(std::move(stmt));
  }
  return selects;
}

// Rounds over `stmts`, each statement under `a` and `b` back to back (the
// order flips every round), until `budget_s` has passed and at least
// `min_rounds` rounds ran.
Result<PairsByClass> Paired(Session* session, const std::vector<Statement>& stmts,
                            const ExecOptions& a, const ExecOptions& b, double budget_s,
                            int min_rounds = 1) {
  PairsByClass pairs(kFirstQuery + 16);
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < min_rounds || Seconds(Clock::now() - start) < budget_s;
       ++round) {
    for (const Statement& stmt : stmts) {
      double ta = 0.0;
      double tb = 0.0;
      if (round % 2 == 0) {
        SELTRIG_ASSIGN_OR_RETURN(ta, TimeUs(session, stmt.sql, a));
        SELTRIG_ASSIGN_OR_RETURN(tb, TimeUs(session, stmt.sql, b));
      } else {
        SELTRIG_ASSIGN_OR_RETURN(tb, TimeUs(session, stmt.sql, b));
        SELTRIG_ASSIGN_OR_RETURN(ta, TimeUs(session, stmt.sql, a));
      }
      pairs[static_cast<size_t>(stmt.cls)].push_back({ta, tb});
    }
  }
  return pairs;
}

// Paired one-row inserts: `setup(true)` before the timed insert of side a,
// `setup(false)` before side b.
template <typename Setup>
Result<std::pair<double, double>> PairedInserts(Session* session, WorkloadRun* run,
                                                int64_t* next_key, std::mt19937_64* rng,
                                                Setup setup) {
  std::vector<double> a;
  std::vector<double> b;
  const ExecOptions options = run->options();
  for (int i = 0; i < kWritePairs; ++i) {
    for (int turn = 0; turn < 2; ++turn) {
      const bool side_a = (i % 2 == 0) == (turn == 0);  // a first on even pairs
      setup(side_a);
      SELTRIG_ASSIGN_OR_RETURN(
          double us, TimeUs(session, OrderInsertSql((*next_key)++, run->reference()->customers, rng),
                            options));
      (side_a ? a : b).push_back(us);
    }
  }
  return std::make_pair(Median(a), Median(b));
}

}  // namespace

Status RunLayerProbes(WorkloadRun* run, double budget_s, uint64_t seed, Tracer* tracer,
                      LayerProbes* out) {
  Database* db = run->db();
  Fixture* fixture = run->fixture();
  Tracer::Buffer* spans = tracer != nullptr ? tracer->NewBuffer("probes") : nullptr;
  auto span = [&](const char* name, const char* layer, Clock::time_point start) {
    if (spans != nullptr) spans->Add({name, layer, start, Clock::now(), tracer->NextId(), 0});
  };
  std::unique_ptr<Session> session = db->CreateSession();
  const std::vector<Statement> selects = ProbeSelects(run, seed);

  const ExecOptions with_triggers = run->options();
  ExecOptions instrumented = with_triggers;
  instrumented.enable_select_triggers = false;
  instrumented.instrument_all_audit_expressions = true;
  ExecOptions bare = instrumented;
  bare.instrument_all_audit_expressions = false;

  // audit: instrumentation overhead (Fig. 10).
  Clock::time_point start = Clock::now();
  SELTRIG_ASSIGN_OR_RETURN(PairsByClass overhead,
                           Paired(session.get(), selects, instrumented, bare, budget_s,
                                  kBootstrapRounds));
  const RatioInterval ratio = BootstrapGeomeanRatio(overhead);
  out->overhead_pct = (ratio.ratio - 1.0) * 100.0;
  out->overhead_ci_pct = (ratio.high - ratio.low) / 2.0 * 100.0;
  span("probe audit.overhead", "audit", start);

  // audit: the trigger action.
  start = Clock::now();
  SELTRIG_ASSIGN_OR_RETURN(PairsByClass trigger,
                           Paired(session.get(), selects, with_triggers, instrumented, budget_s));
  double diff_sum = 0.0;
  size_t diff_count = 0;
  for (const auto& pairs : trigger) {
    for (const auto& [on, off] : pairs) {
      diff_sum += on - off;
      ++diff_count;
    }
  }
  out->trigger_action_us = diff_count == 0 ? 0.0 : diff_sum / static_cast<double>(diff_count);
  span("probe audit.trigger_action", "audit", start);

  // exec: morsel-parallel gather at 2 threads vs serial.
  start = Clock::now();
  ExecOptions serial = instrumented;
  serial.num_threads = 1;
  ExecOptions parallel = instrumented;
  parallel.num_threads = 2;
  SELTRIG_ASSIGN_OR_RETURN(PairsByClass gather,
                           Paired(session.get(), selects, serial, parallel, budget_s));
  out->gather_speedup = BootstrapGeomeanRatio(gather, 0).ratio;
  span("probe exec.gather", "exec", start);

  // engine: session scaling, 1 vs 2 closed-loop sessions in alternating
  // slices of the workload itself.
  start = Clock::now();
  double statements[2] = {0.0, 0.0};
  double elapsed[2] = {0.0, 0.0};
  for (int slice = 0; slice < 4; ++slice) {
    const int sessions = (slice == 0 || slice == 3) ? 1 : 2;
    PhaseOptions phase;
    phase.sessions = sessions;
    phase.duration_s = std::max(0.25, budget_s / 4.0);
    SELTRIG_ASSIGN_OR_RETURN(PhaseResult r, run->RunPhase(phase));
    if (r.failed != 0) return Status::Internal("session-scaling probe: statements failed");
    statements[sessions - 1] += static_cast<double>(r.samples.size());
    elapsed[sessions - 1] += r.elapsed_s;
  }
  out->session_scaling = (statements[1] / elapsed[1]) / (statements[0] / elapsed[0]);
  span("probe engine.session_scaling", "engine", start);

  // storage: a point lookup right after a committed write to the same table
  // (the write invalidates its index), and the same lookup repeated.
  start = Clock::now();
  std::mt19937_64 rng(seed ^ 0xC0FFEEull);
  int64_t next_key = run->reference()->first_fresh_order + kProbeKeyOffset;
  std::vector<double> after_write;
  std::vector<double> warm;
  std::uniform_int_distribution<int64_t> order(1, run->reference()->orders);
  for (int i = 0; i < kLookupProbes; ++i) {
    Result<StatementResult> inserted = session->ExecuteWithOptions(
        OrderInsertSql(next_key++, run->reference()->customers, &rng), with_triggers);
    if (!inserted.ok()) return inserted.status();
    const std::string lookup =
        "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = " +
        std::to_string(order(rng));
    SELTRIG_ASSIGN_OR_RETURN(double cold, TimeUs(session.get(), lookup, with_triggers));
    SELTRIG_ASSIGN_OR_RETURN(double again, TimeUs(session.get(), lookup, with_triggers));
    after_write.push_back(cold);
    warm.push_back(again);
  }
  out->lookup_after_write_us = Median(after_write);
  out->lookup_warm_us = Median(warm);
  span("probe storage.lookup", "storage", start);

  // storage: the commit's durability wait, kCommit vs kOff, with any
  // follower's ack wait taken off the commit path.
  start = Clock::now();
  ReplicationWaiter* waiter = db->replication_waiter();
  db->set_replication_waiter(nullptr);
  WalWriter* wal = db->wal();
  Result<std::pair<double, double>> durable =
      PairedInserts(session.get(), run, &next_key, &rng, [wal](bool commit) {
        wal->set_sync_mode(commit ? WalSyncMode::kCommit : WalSyncMode::kOff);
      });
  wal->set_sync_mode(WalSyncMode::kCommit);
  db->set_replication_waiter(waiter);
  if (!durable.ok()) return durable.status();
  out->commit_wait_us = durable->first - durable->second;
  span("probe storage.commit_wait", "storage", start);

  // replication: a sync follower on the commit path.
  start = Clock::now();
  if (fixture->shipper() == nullptr) {
    SELTRIG_RETURN_IF_ERROR(fixture->AttachFollower(&out->catchup_s));
    span("probe replication.catchup", "replication", start);
    start = Clock::now();
  }
  waiter = db->replication_waiter();
  Result<std::pair<double, double>> acked =
      PairedInserts(session.get(), run, &next_key, &rng, [db, waiter](bool with_follower) {
        db->set_replication_waiter(with_follower ? waiter : nullptr);
      });
  db->set_replication_waiter(nullptr);
  if (acked.ok()) {
    for (int i = 0; i < 64 && acked.ok(); ++i) {
      Result<StatementResult> r = session->ExecuteWithOptions(
          OrderInsertSql(next_key++, run->reference()->customers, &rng), with_triggers);
      if (!r.ok()) acked = r.status();
    }
  }
  const Clock::time_point burst_end = Clock::now();
  Status drained = acked.ok() ? fixture->WaitFollowerCaughtUp(60.0) : acked.status();
  out->drain_ms = Millis(Clock::now() - burst_end);
  db->set_replication_waiter(waiter);
  SELTRIG_RETURN_IF_ERROR(drained);
  out->ack_wait_us = acked->first - acked->second;
  const std::vector<FollowerStatus> followers = fixture->shipper()->Followers();
  if (followers.size() != 1) return Status::Internal("expected one follower");
  out->naks_per_1k_records =
      1000.0 * static_cast<double>(followers[0].naks_received) /
      static_cast<double>(std::max<uint64_t>(followers[0].records_sent, 1));
  out->reconnects = static_cast<double>(followers[0].reconnects);
  out->duplicates_dropped = static_cast<double>(fixture->applier()->stats().duplicates_dropped);
  span("probe replication.ack_wait", "replication", start);
  return Status::OK();
}

}  // namespace seltrig::bench
