// Micro-operation benchmarks (google-benchmark): the audit operator's
// per-row probe, placement algorithm latency, end-to-end query paths, the
// journal record codec, snapshot restore.
//
// Every run appends one line to BENCH_micro_ops.json at the repository root,
// stamped with the git sha, build type and core count, holding each
// benchmark's time per iteration. --benchmark_out still writes
// google-benchmark's own report wherever it points.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "audit/placement.h"
#include "bench_util.h"
#include "engine/database.h"
#include "engine/snapshot.h"
#include "storage/wal.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace seltrig {
namespace {

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    Status status = tpch::LoadTpch(d, config);
    if (!status.ok()) std::abort();
    status = d->Execute(tpch::SegmentAuditExpressionSql("seg", "BUILDING")).status();
    if (!status.ok()) std::abort();
    return d;
  }();
  return db;
}

void BM_SensitiveIdViewProbe(benchmark::State& state) {
  Database* db = SharedDb();
  const SensitiveIdView& view = db->audit_manager()->Find("seg")->view();
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.Contains(Value::Int(key)));
    key = (key + 1) % 2000;
  }
}
BENCHMARK(BM_SensitiveIdViewProbe);

void BM_BloomFilterProbe(benchmark::State& state) {
  Database* db = SharedDb();
  auto bloom = db->audit_manager()->Find("seg")->view().BuildBloomFilter(0.01);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bloom->MayContain(key));
    key = (key + 1) % 4096;
  }
}
BENCHMARK(BM_BloomFilterProbe);

void BM_JoinReorderPass(benchmark::State& state) {
  Database* db = SharedDb();
  OptimizerOptions no_reorder;
  no_reorder.enable_join_reordering = false;
  auto plan = db->PlanSelect(tpch::WorkloadQueries()[1].sql, no_reorder);  // Q5
  if (!plan.ok()) {
    state.SkipWithError("plan failed");
    return;
  }
  for (auto _ : state) {
    PlanPtr copy = ClonePlanDeep(**plan);
    auto reordered = ReorderJoins(std::move(copy), db->catalog());
    benchmark::DoNotOptimize(reordered);
  }
}
BENCHMARK(BM_JoinReorderPass);

void BM_MicroQueryUninstrumented(benchmark::State& state) {
  Database* db = SharedDb();
  std::string sql = tpch::MicroBenchmarkQuery(4500.0, "1996-01-01");
  ExecOptions options;
  options.enable_select_triggers = false;
  for (auto _ : state) {
    auto r = db->ExecuteWithOptions(sql, options);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
}
BENCHMARK(BM_MicroQueryUninstrumented);

void BM_MicroQueryInstrumentedHcn(benchmark::State& state) {
  Database* db = SharedDb();
  std::string sql = tpch::MicroBenchmarkQuery(4500.0, "1996-01-01");
  ExecOptions options;
  options.enable_select_triggers = false;
  options.instrument_all_audit_expressions = true;
  for (auto _ : state) {
    auto r = db->ExecuteWithOptions(sql, options);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
}
BENCHMARK(BM_MicroQueryInstrumentedHcn);

// Dedicated fixture for the batch-size sweep: a narrow audited table large
// enough that per-pull pipeline overhead (virtual dispatch, wrapper
// bookkeeping, executor loop) dominates over row materialization. The filter
// passes ~1.5% of rows so throughput measures the scan -> filter -> audit
// spine rather than result copying.
Database* SweepDb() {
  static Database* db = [] {
    auto* d = new Database();
    Status status = d->Execute("CREATE TABLE audit_bench (id INT PRIMARY KEY, v INT)").status();
    if (!status.ok()) std::abort();
    constexpr int kRows = 40000;
    std::string insert;
    for (int i = 1; i <= kRows; ++i) {
      if (insert.empty()) insert = "INSERT INTO audit_bench VALUES ";
      insert += "(";
      insert += std::to_string(i);
      insert += ", ";
      insert += std::to_string((i * 37) % 1000);
      insert += ")";
      if (i % 1000 == 0) {
        status = d->Execute(insert).status();
        if (!status.ok()) std::abort();
        insert.clear();
      } else {
        insert += ", ";
      }
    }
    status = d->Execute(
                  "CREATE AUDIT EXPRESSION bench_sens AS "
                  "SELECT * FROM audit_bench WHERE v < 100 "
                  "FOR SENSITIVE TABLE audit_bench PARTITION BY id")
                 .status();
    if (!status.ok()) std::abort();
    return d;
  }();
  return db;
}

// Batch-size sweep over the vectorized scan -> filter -> audit pipeline at
// batch sizes 1..4096. Emits one JSON line per configuration (consumed by
// the plotting scripts) in addition to the google-benchmark table;
// `rows_per_sec` counts rows through the scan.
void BM_BatchSweepScanFilterAudit(benchmark::State& state) {
  Database* db = SweepDb();
  // Scan (fused filter) -> audit -> project -> distinct: a four-operator
  // spine, so each batch-1 pull pays the full per-operator dispatch chain.
  std::string sql = "SELECT DISTINCT v FROM audit_bench WHERE v >= 985";
  ExecOptions options;
  options.enable_select_triggers = false;
  options.instrument_all_audit_expressions = true;
  options.batch_size = static_cast<size_t>(state.range(0));
  uint64_t rows_scanned = 0;
  uint64_t result_rows = 0;
  int64_t iterations = 0;
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto r = db->ExecuteWithOptions(sql, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    rows_scanned += r->stats.rows_scanned;
    result_rows += r->result.rows.size();
    ++iterations;
  }
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  state.counters["rows_per_sec"] =
      benchmark::Counter(static_cast<double>(rows_scanned), benchmark::Counter::kIsRate);
  std::printf(
      "{\"bench\":\"batch_sweep_scan_filter_audit\",\"batch_size\":%lld,"
      "\"iterations\":%lld,\"rows_scanned\":%llu,\"result_rows\":%llu,"
      "\"seconds\":%.6f,\"rows_per_sec\":%.1f}\n",
      static_cast<long long>(state.range(0)), static_cast<long long>(iterations),
      static_cast<unsigned long long>(rows_scanned),
      static_cast<unsigned long long>(result_rows), seconds,
      seconds > 0 ? static_cast<double>(rows_scanned) / seconds : 0.0);
}
// Fixed iteration count: google-benchmark then runs each configuration
// exactly once, so the sweep emits exactly one JSON line per batch size.
BENCHMARK(BM_BatchSweepScanFilterAudit)
    ->Arg(1)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Iterations(100);

// Layout sweep: the same query through the row escape hatch (arg 0) and the
// columnar pipeline (arg 1), one JSON line per configuration. Results,
// ACCESSED, and rows_scanned are identical in both layouts — only throughput
// differs — so the sweep records the layout delta the columnar refactor buys
// on each operator shape (scan, scan+filter, join).
void RunLayoutSweep(benchmark::State& state, Database* db, const char* name,
                    const std::string& sql, bool instrument) {
  ExecOptions options;
  options.enable_select_triggers = false;
  options.instrument_all_audit_expressions = instrument;
  options.columnar = state.range(0) != 0;
  options.num_threads = 1;
  uint64_t rows_scanned = 0;
  uint64_t result_rows = 0;
  int64_t iterations = 0;
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto r = db->ExecuteWithOptions(sql, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    rows_scanned += r->stats.rows_scanned;
    result_rows += r->result.rows.size();
    ++iterations;
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  state.counters["rows_per_sec"] =
      benchmark::Counter(static_cast<double>(rows_scanned), benchmark::Counter::kIsRate);
  std::printf(
      "{\"bench\":\"layout_sweep_%s\",\"columnar\":%d,\"batch_size\":%zu,"
      "\"iterations\":%lld,\"rows_scanned\":%llu,\"result_rows\":%llu,"
      "\"seconds\":%.6f,\"rows_per_sec\":%.1f}\n",
      name, options.columnar ? 1 : 0, options.batch_size,
      static_cast<long long>(iterations),
      static_cast<unsigned long long>(rows_scanned),
      static_cast<unsigned long long>(result_rows), seconds,
      seconds > 0 ? static_cast<double>(rows_scanned) / seconds : 0.0);
}

void BM_LayoutSweepScan(benchmark::State& state) {
  RunLayoutSweep(state, SweepDb(), "scan", "SELECT COUNT(*) FROM audit_bench",
                 false);
}
BENCHMARK(BM_LayoutSweepScan)->Arg(0)->Arg(1)->Iterations(100);

void BM_LayoutSweepScanFilterAudit(benchmark::State& state) {
  RunLayoutSweep(state, SweepDb(), "scan_filter_audit",
                 "SELECT DISTINCT v FROM audit_bench WHERE v >= 985", true);
}
BENCHMARK(BM_LayoutSweepScanFilterAudit)->Arg(0)->Arg(1)->Iterations(100);

void BM_LayoutSweepJoin(benchmark::State& state) {
  RunLayoutSweep(state, SharedDb(), "join",
                 tpch::MicroBenchmarkQuery(4500.0, "1996-01-01"), false);
}
BENCHMARK(BM_LayoutSweepJoin)->Arg(0)->Arg(1)->Iterations(20);

// Fixture for the ordered-string-filter sweep: 40k rows over a 200-entry
// string dictionary, so the dict-aware kernel (one compare per DISTINCT
// string into a per-code sign table, then byte lookups per row) has ~200
// string compares to amortize over 40k rows per scan.
Database* StringSweepDb() {
  static Database* db = [] {
    auto* d = new Database();
    Status status =
        d->Execute("CREATE TABLE str_bench (id INT PRIMARY KEY, s VARCHAR)").status();
    if (!status.ok()) std::abort();
    constexpr int kRows = 40000;
    std::string insert;
    for (int i = 1; i <= kRows; ++i) {
      if (insert.empty()) insert = "INSERT INTO str_bench VALUES ";
      int v = (i * 37) % 200;
      std::string s = "customer_";
      s += static_cast<char>('a' + v / 26 % 26);
      s += static_cast<char>('a' + v % 26);
      insert.append("(").append(std::to_string(i)).append(", '").append(s).append("')");
      if (i % 1000 == 0) {
        status = d->Execute(insert).status();
        if (!status.ok()) std::abort();
        insert.clear();
      } else {
        insert += ", ";
      }
    }
    return d;
  }();
  return db;
}

// Ordered string predicate through both layouts. In the columnar layout the
// dict-aware FilterBatch decides per row from the precomputed sign table;
// the row layout compares strings per row. The JSON line pair quantifies the
// dictionary win.
void BM_LayoutSweepStringFilter(benchmark::State& state) {
  RunLayoutSweep(state, StringSweepDb(), "string_filter",
                 "SELECT COUNT(*) FROM str_bench WHERE s < 'customer_dm'", false);
}
BENCHMARK(BM_LayoutSweepStringFilter)->Arg(0)->Arg(1)->Iterations(100);

// Fixture for the thread-count sweep: same shape as SweepDb but 4x the rows
// so the table splits into ~40 morsels (kMorselSlots = 4096) — enough work
// units to keep 8 workers busy with load balancing left over.
Database* ThreadSweepDb() {
  static Database* db = [] {
    auto* d = new Database();
    Status status =
        d->Execute("CREATE TABLE audit_bench (id INT PRIMARY KEY, v INT)").status();
    if (!status.ok()) std::abort();
    constexpr int kRows = 160000;
    std::string insert;
    for (int i = 1; i <= kRows; ++i) {
      if (insert.empty()) insert = "INSERT INTO audit_bench VALUES ";
      insert += "(";
      insert += std::to_string(i);
      insert += ", ";
      insert += std::to_string((i * 37) % 1000);
      insert += ")";
      if (i % 1000 == 0) {
        status = d->Execute(insert).status();
        if (!status.ok()) std::abort();
        insert.clear();
      } else {
        insert += ", ";
      }
    }
    status = d->Execute(
                  "CREATE AUDIT EXPRESSION bench_sens AS "
                  "SELECT * FROM audit_bench WHERE v < 100 "
                  "FOR SENSITIVE TABLE audit_bench PARTITION BY id")
                 .status();
    if (!status.ok()) std::abort();
    return d;
  }();
  return db;
}

// Thread-count sweep over the morsel-parallel scan -> filter -> audit spine
// at the default batch size. Emits one JSON line per thread count; results,
// ACCESSED, and rows_scanned are identical at every setting (the sweep
// asserts rows_scanned to catch an accidental serial fallback). Throughput
// scales with physical cores — on a single-core host the configurations tie.
void BM_ThreadSweepScanFilterAudit(benchmark::State& state) {
  Database* db = ThreadSweepDb();
  std::string sql = "SELECT DISTINCT v FROM audit_bench WHERE v >= 985";
  ExecOptions options;
  options.enable_select_triggers = false;
  options.instrument_all_audit_expressions = true;
  options.num_threads = static_cast<int>(state.range(0));
  uint64_t rows_scanned = 0;
  uint64_t result_rows = 0;
  int64_t iterations = 0;
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto r = db->ExecuteWithOptions(sql, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    if (r->stats.rows_scanned != 160000) {
      state.SkipWithError("rows_scanned not thread-invariant");
      return;
    }
    rows_scanned += r->stats.rows_scanned;
    result_rows += r->result.rows.size();
    ++iterations;
  }
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  state.counters["rows_per_sec"] =
      benchmark::Counter(static_cast<double>(rows_scanned), benchmark::Counter::kIsRate);
  std::printf(
      "{\"bench\":\"thread_sweep_scan_filter_audit\",\"threads\":%lld,"
      "\"batch_size\":%zu,\"iterations\":%lld,\"rows_scanned\":%llu,"
      "\"result_rows\":%llu,\"seconds\":%.6f,\"rows_per_sec\":%.1f}\n",
      static_cast<long long>(state.range(0)), options.batch_size,
      static_cast<long long>(iterations),
      static_cast<unsigned long long>(rows_scanned),
      static_cast<unsigned long long>(result_rows), seconds,
      seconds > 0 ? static_cast<double>(rows_scanned) / seconds : 0.0);
}
BENCHMARK(BM_ThreadSweepScanFilterAudit)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(50);

void BM_PlacementAlgorithm(benchmark::State& state) {
  Database* db = SharedDb();
  auto plan = db->PlanSelect(tpch::WorkloadQueries()[1].sql);  // Q5, 6-way join
  if (!plan.ok()) {
    state.SkipWithError("plan failed");
    return;
  }
  const AuditExpressionDef* def = db->audit_manager()->Find("seg");
  PlacementOptions popts;
  for (auto _ : state) {
    auto instrumented = InstrumentPlan(**plan, *def, popts);
    benchmark::DoNotOptimize(instrumented);
  }
}
BENCHMARK(BM_PlacementAlgorithm);

void BM_ParseBindOptimize(benchmark::State& state) {
  Database* db = SharedDb();
  const std::string sql = tpch::WorkloadQueries()[0].sql;  // Q3
  for (auto _ : state) {
    auto plan = db->PlanSelect(sql);
    if (!plan.ok()) state.SkipWithError("plan failed");
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_ParseBindOptimize);

void BM_SelectTriggerFiring(benchmark::State& state) {
  Database db;
  Status status = db.ExecuteScript(R"sql(
    CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR);
    CREATE TABLE log (ts VARCHAR, pid INT);
    INSERT INTO patients VALUES (1, 'Alice'), (2, 'Bob');
    CREATE AUDIT EXPRESSION a AS SELECT * FROM patients WHERE name = 'Alice'
      FOR SENSITIVE TABLE patients PARTITION BY patientid;
    CREATE TRIGGER t ON ACCESS TO a AS
      INSERT INTO log SELECT now(), patientid FROM accessed
  )sql");
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = db.Execute("SELECT * FROM patients WHERE patientid = 1");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
}
BENCHMARK(BM_SelectTriggerFiring);

// A point probe on a non-key column right after a write: one INSERT, then one
// equality SELECT, on a table that starts at 15,000 rows (the TPC-H SF 0.01
// orders count) with 30 rows per probed key and grows by one row per
// iteration. Each write must leave the column's secondary index usable by
// the next probe.
void BM_SecondaryLookupAfterWrite(benchmark::State& state) {
  constexpr int kRows = 15000;
  constexpr int kGroups = 500;
  Database db;
  Status status =
      db.Execute("CREATE TABLE lookup_bench (id INT PRIMARY KEY, grp INT)").status();
  std::string insert;
  for (int i = 0; i < kRows && status.ok(); ++i) {
    insert += insert.empty() ? "INSERT INTO lookup_bench VALUES (" : ", (";
    insert += std::to_string(i);
    insert += ", ";
    insert += std::to_string(i % kGroups);
    insert += ")";
    if (i % 1000 == 999) {
      status = db.Execute(insert).status();
      insert.clear();
    }
  }
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  int next = kRows;
  for (auto _ : state) {
    const std::string key = std::to_string(next % kGroups);
    std::string write_sql = "INSERT INTO lookup_bench VALUES (";
    write_sql += std::to_string(next);
    write_sql += ", ";
    write_sql += key;
    write_sql += ")";
    auto write = db.Execute(write_sql);
    auto probe = db.Execute("SELECT id FROM lookup_bench WHERE grp = " + key);
    if (!write.ok() || !probe.ok() || probe->rows.size() <= kRows / kGroups) {
      state.SkipWithError("insert or probe failed");
      return;
    }
    ++next;
  }
}
BENCHMARK(BM_SecondaryLookupAfterWrite);

// One journal record shaped like the one an audited TPC-H Q3 commits through
// the benchmark's logging trigger: 93 audit-log rows, each repeating the
// timestamp, the user and the Q3 statement text. Encodes it (payload and
// CRC32C) and decodes it back, as a commit and then a replica apply or a
// recovery replay do. The record_bytes counter is the record's size.
void BM_WalRecordRoundTrip(benchmark::State& state) {
  const std::string sql = tpch::WorkloadQueries()[0].sql;
  std::vector<WalOp> ops;
  for (int64_t i = 0; i < 93; ++i) {
    ops.push_back(WalOp::Insert(
        "audit_log", {Value::String("2026-10-21 12:00:00"), Value::String("bench_user"),
                      Value::String(sql), Value::Int(1000 + 13 * i)}));
  }
  size_t record_bytes = 0;
  for (auto _ : state) {
    std::string record = EncodeWalRecord(ops);
    Result<std::vector<WalOp>> decoded = DecodeWalRecord(record);
    if (!decoded.ok() || decoded->size() != ops.size()) {
      state.SkipWithError("record did not round-trip");
      return;
    }
    record_bytes = record.size();
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["record_bytes"] = static_cast<double>(record_bytes);
}
BENCHMARK(BM_WalRecordRoundTrip);

// Restores an SF 0.01 TPC-H snapshot (about 86k rows over eight CSVs) into a
// fresh Database per iteration: the cost a follower pays to install a
// snapshot during catch-up, and recovery pays before replaying the journal.
void BM_SnapshotLoad(benchmark::State& state) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("seltrig_bench_snapshot_" + std::to_string(::getpid())))
                              .string();
  {
    Database source;
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    if (!tpch::LoadTpch(&source, config).ok() || !SaveSnapshot(&source, dir).ok()) {
      state.SkipWithError("could not write the snapshot");
      return;
    }
  }
  for (auto _ : state) {
    Database restored;
    Status loaded = LoadSnapshot(&restored, dir);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.message().c_str());
      break;
    }
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMillisecond)->Iterations(5);

// Console output as usual, plus one summary entry per run for the trajectory
// line main() appends.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double to_ns = 1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"iterations\":%lld,"
                    "\"real_time_ns\":%.1f,\"cpu_time_ns\":%.1f}",
                    run.benchmark_name().c_str(),
                    static_cast<long long>(run.iterations),
                    run.GetAdjustedRealTime() * to_ns,
                    run.GetAdjustedCPUTime() * to_ns);
      if (!entries_.empty()) entries_ += ",";
      entries_ += buf;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::string& entries() const { return entries_; }

 private:
  std::string entries_;
};

}  // namespace
}  // namespace seltrig

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  seltrig::TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Listing, or a filter that matched nothing, leaves the trajectory alone.
  if (reporter.entries().empty()) return 0;
  seltrig::bench::AppendJsonLine(
      std::string(SELTRIG_REPO_ROOT) + "/BENCH_micro_ops.json", "micro_ops",
      "\"benchmarks\":[" + reporter.entries() + "]");
  return 0;
}
