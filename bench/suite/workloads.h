// The four seltrig_bench workloads: seeded statement streams, closed-loop
// clients that run them through the public Session API, and the oracles that
// check every answer.
//
//   olap_tpch         1 client, num_threads = 2: the seven Fig. 10 TPC-H
//                     queries per round, in a seed-shuffled order.
//   point_read        2 clients: 50% audited customer lookups (about a fifth
//                     hit a BUILDING customer and fire the logging trigger),
//                     50% unaudited order lookups.
//   point_mixed       2 clients: the same reads at 90%, plus 5% customer
//                     segment updates and 5% order inserts. Client s owns the
//                     keys congruent to s mod 2.
//   replicated_write  2 clients: 50% order inserts, 50% audited customer
//                     lookups, with one sync-ack follower.

#ifndef SELTRIG_BENCH_SUITE_WORKLOADS_H_
#define SELTRIG_BENCH_SUITE_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "fixture.h"
#include "tpch/queries.h"
#include "trace.h"

namespace seltrig::bench {

enum class WorkloadKind { kOlapTpch, kPointRead, kPointMixed, kReplicatedWrite };

struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  int clients;      // closed-loop sessions in the measured window
  int num_threads;  // ExecOptions::num_threads of every statement
  bool follower;    // a sync follower is part of the setup
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Statement classes. Latencies are summarized per class, never pooled
// across reads and writes.
enum StmtClass : uint8_t {
  kCustomerLookup,
  kOrderLookup,
  kCustomerUpdate,
  kOrderInsert,
  kFirstQuery,  // olap_tpch: kFirstQuery + index into tpch::WorkloadQueries()
};
std::string ClassName(int cls);
inline bool IsSelectClass(int cls) { return cls != kCustomerUpdate && cls != kOrderInsert; }

struct Statement {
  int cls = kCustomerLookup;
  std::string sql;
  int64_t key = 0;
  std::string segment;  // the new segment of a customer update
};

// What the oracles know about the database, captured right after setup.
struct Reference {
  int64_t customers = 0;
  int64_t orders = 0;
  // c_mktsegment by c_custkey (index 0 unused). Clients of point_mixed update
  // the entries of the keys they own, and only those.
  std::vector<std::string> segments;
  // First key of the fresh, never-generated order keys inserts use.
  int64_t first_fresh_order = 0;
  int64_t audit_rows_at_setup = 0;
  std::vector<tpch::TpchQuery> queries;
  // olap_tpch: the serial (num_threads = 1) answer of every query.
  struct Answer {
    size_t rows = 0;
    uint64_t row_hash = 0;
    uint64_t accessed_hash = 0;
  };
  std::vector<Answer> answers;
};

// One closed-loop client's statement stream and oracle state. It lives for
// the whole run, so keys and tracked segments carry over between phases.
class Client {
 public:
  Client(const WorkloadSpec& spec, int index, uint64_t seed, Reference* reference);

  Statement Next();
  // True when the next statement starts a new round (olap_tpch) or always
  // (point workloads): the moment a phase may stop this client.
  bool AtBoundary() const;
  // Checks one successful answer; counts the audit rows it must have logged.
  Status Check(const Statement& stmt, const StatementResult& result);

  uint64_t audit_rows() const { return audit_rows_; }
  const std::vector<int64_t>& inserted_orders() const { return inserted_orders_; }

 private:
  int64_t OwnedCustomer();

  const WorkloadSpec& spec_;
  const int index_;
  Reference* const reference_;
  std::mt19937_64 rng_;
  std::vector<int> deck_;  // statement classes, drawn without replacement
  size_t deck_pos_ = 0;
  int64_t next_order_key_ = 0;
  uint64_t audit_rows_ = 0;
  std::vector<int64_t> inserted_orders_;
};

// Execution counters summed over a phase's successful SELECTs.
struct SelectTotals {
  uint64_t selects = 0;
  uint64_t rows_out = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_probed = 0;       // ExecStats::rows_through_audit_ops
  uint64_t probe_hits = 0;        // ExecStats::audit_probe_hits
  uint64_t prescreened_batches = 0;
  uint64_t subquery_executions = 0;
  uint64_t accessed_ids = 0;
  uint64_t fired = 0;             // SELECTs whose ACCESSED was non-empty

  SelectTotals& operator+=(const SelectTotals& o) {
    selects += o.selects;
    rows_out += o.rows_out;
    rows_scanned += o.rows_scanned;
    rows_probed += o.rows_probed;
    probe_hits += o.probe_hits;
    prescreened_batches += o.prescreened_batches;
    subquery_executions += o.subquery_executions;
    accessed_ids += o.accessed_ids;
    fired += o.fired;
    return *this;
  }
};

// One decomposed SELECT (traced phases).
struct StageSample {
  int cls = 0;
  double session_us = 0.0;  // the Session::ExecuteWithOptions call
  double parse_us = 0.0;
  double bind_us = 0.0;
  double optimize_us = 0.0;
  double place_us = 0.0;
  double post_place_us = 0.0;
  double execute_us = 0.0;
};

struct Sample {
  double end_s = 0.0;  // completion time, seconds since the phase started
  double latency_ms = 0.0;
  uint8_t cls = 0;
};

struct PhaseResult {
  double elapsed_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;  // successful statements
  SelectTotals totals;
  std::vector<StageSample> stages;
};

struct PhaseOptions {
  int sessions = 1;
  double duration_s = 1.0;
  // Every 16th SELECT, and the first of every class, is decomposed layer by
  // layer and its spans are recorded.
  Tracer* tracer = nullptr;
};

class WorkloadRun {
 public:
  WorkloadRun(const WorkloadSpec& spec, uint64_t seed, Fixture* fixture);

  const WorkloadSpec& spec() const { return spec_; }
  Fixture* fixture() const { return fixture_; }
  Database* db() const { return fixture_->db(); }
  ExecOptions options() const;

  // Captures the oracle's reference state; for olap_tpch this runs every
  // query once serially.
  Status CaptureReference();
  Reference* reference() { return &reference_; }
  Client* client(int i) { return clients_[static_cast<size_t>(i)].get(); }

  // Runs clients 0..sessions-1 concurrently until `duration_s` has passed
  // and each has reached a boundary. A failed oracle fails the phase.
  Result<PhaseResult> RunPhase(const PhaseOptions& options);

  // Final oracles: audit_log grew by exactly the ACCESSED IDs the clients
  // saw, every inserted order is readable, and the follower (if any)
  // matches the primary's orders and audit_log counts after draining.
  Status CheckFinal();

 private:
  const WorkloadSpec& spec_;
  Fixture* const fixture_;
  const uint64_t seed_;
  Reference reference_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// A one-row order INSERT for `key` with seeded column values.
std::string OrderInsertSql(int64_t key, int64_t customers, std::mt19937_64* rng);

// Runs `sql` on the default session with SELECT triggers off, so the probe
// itself logs nothing, and returns the single integer it yields.
Result<int64_t> QueryScalar(Database* db, const std::string& sql);

// Order-sensitive FNV-1a hash of result rows / of a sorted ID list.
uint64_t HashRows(const std::vector<Row>& rows);
uint64_t HashIds(const std::vector<Value>& ids);

}  // namespace seltrig::bench

#endif  // SELTRIG_BENCH_SUITE_WORKLOADS_H_
