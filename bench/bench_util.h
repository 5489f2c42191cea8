// Shared helpers for the figure-reproduction benchmarks.
//
// Every figure benchmark is a standalone binary that prints the same
// rows/series the paper's figure reports. Scale factor and repetitions can be
// tuned with environment variables:
//   SELTRIG_SF    TPC-H scale factor (default per benchmark)
//   SELTRIG_REPS  timing repetitions (default 15)

#ifndef SELTRIG_BENCH_BENCH_UTIL_H_
#define SELTRIG_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "tpch/dbgen.h"

namespace seltrig::bench {

// Reads SELTRIG_SF / SELTRIG_REPS with defaults.
double ScaleFactorFromEnv(double default_sf);
int RepetitionsFromEnv(int default_reps);

// Creates a Database loaded with TPC-H at `sf` (prints a one-line summary).
std::unique_ptr<Database> LoadTpchDatabase(double sf);

// Median wall-clock milliseconds of `fn` over `reps` runs (after one warmup).
double MedianRuntimeMs(const std::function<void()>& fn, int reps);

// Runs the given variants round-robin `reps` times each (after one warmup
// apiece) and returns per-variant median milliseconds. Interleaving cancels
// the monotone drift (allocator growth, cache warmth) that biases sequential
// A-then-B comparisons; use this for overhead measurements.
std::vector<double> InterleavedMediansMs(const std::vector<std::function<void()>>& fns,
                                         int reps);

// Builds a runner for `sql` under the given instrumentation, suitable for
// InterleavedMediansMs. Aborts on execution errors.
std::function<void()> QueryRunner(Database* db, const std::string& sql,
                                  bool instrumented, PlacementHeuristic heuristic);

// Same, but with fully explicit ExecOptions (layout, batch size, threads) for
// row-vs-columnar comparisons. `enable_select_triggers` should usually be off
// so timing measures the query, not trigger actions.
std::function<void()> QueryRunner(Database* db, const std::string& sql,
                                  const ExecOptions& options);

// Appends one run to `path` as a single JSON object line:
//   {"bench":BENCH,"git_sha":...,"build_type":...,"num_cpus":N,FIELDS}
// where `fields` is the run's own comma-separated members. The committed
// BENCH_*.json files at the repo root are append-only trajectories: one
// stamped line per recorded run, so future revisions can see the perf curve.
void AppendJsonLine(const std::string& path, const std::string& bench,
                    const std::string& fields);

// Runs `sql` instrumented with `heuristic` for all registered audit
// expressions and returns the audited ID count for `audit_name`.
// Fails fast (aborts) on execution errors so benchmark output stays honest.
size_t AuditCardinality(Database* db, const std::string& sql,
                        PlacementHeuristic heuristic, const std::string& audit_name);

// Median runtime of `sql`, optionally instrumented.
double QueryRuntimeMs(Database* db, const std::string& sql, bool instrumented,
                      PlacementHeuristic heuristic, int reps);

// Fixed-width table printing.
void PrintTableHeader(const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& cells);
std::string FormatDouble(double v, int precision = 2);
std::string FormatPercent(double fraction, int precision = 2);

// The orderdate cutoff such that ~`selectivity` of orders satisfy
// o_orderdate > cutoff (dates are uniform over the generated range).
std::string OrderdateCutoffForSelectivity(double selectivity);

}  // namespace seltrig::bench

#endif  // SELTRIG_BENCH_BENCH_UTIL_H_
