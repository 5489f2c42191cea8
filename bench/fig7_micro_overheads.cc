// Figure 7 — Micro-benchmark: instrumentation overheads vs. predicate
// selectivity.
//
// Relative runtime overhead of leaf-node and hcn instrumented plans over the
// uninstrumented plan for the Section V-A join query. Paper shape: leaf-node
// overhead is significant (up to ~10%) and sensitive to the orders-predicate
// selectivity; hcn stays low and robust.
//
// Every run is measured twice — once through the columnar pipeline (the
// default) and once through the row escape hatch (ExecOptions::columnar =
// false) — and the whole run is appended as one JSON line to
// BENCH_fig7.json at the repo root, the committed perf trajectory. The
// "scan_filter" entry is the acceptance metric for the columnar refactor:
// a single-threaded batch-1024 scan+filter over `orders`, columnar vs row.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "tpch/queries.h"

namespace seltrig::bench {
namespace {

constexpr double kAcctbalThreshold = 4500.0;
constexpr const char* kAuditName = "audit_segment";

ExecOptions LayoutOptions(bool columnar, bool instrumented,
                          PlacementHeuristic heuristic) {
  ExecOptions options;
  options.heuristic = heuristic;
  options.instrument_all_audit_expressions = instrumented;
  options.enable_select_triggers = false;
  options.columnar = columnar;
  options.num_threads = 1;
  options.batch_size = 1024;
  return options;
}

int Main() {
  double sf = ScaleFactorFromEnv(0.02);
  int reps = RepetitionsFromEnv(15);
  auto db = LoadTpchDatabase(sf);
  Status status =
      db->Execute(tpch::SegmentAuditExpressionSql(kAuditName, "BUILDING")).status();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  std::string json = "\"sf\":" +
                     FormatDouble(sf, 3) + ",\"reps\":" + std::to_string(reps) +
                     ",\"batch_size\":1024,\"threads\":1";

  // Acceptance metric: columnar scan+filter vs the row pipeline. The filter
  // passes a tiny fraction of `orders`, so timing measures the scan + typed
  // predicate kernel, not result materialization.
  {
    const std::string scan_sql =
        "SELECT o_orderkey FROM orders WHERE o_totalprice > 400000.0";
    std::vector<double> ms = InterleavedMediansMs(
        {QueryRunner(db.get(), scan_sql,
                     LayoutOptions(false, false,
                                   PlacementHeuristic::kHighestCommutativeNode)),
         QueryRunner(db.get(), scan_sql,
                     LayoutOptions(true, false,
                                   PlacementHeuristic::kHighestCommutativeNode))},
        reps);
    std::printf("# scan+filter over orders: row %.2f ms, columnar %.2f ms "
                "(%.2fx)\n\n",
                ms[0], ms[1], ms[1] > 0 ? ms[0] / ms[1] : 0.0);
    json += ",\"scan_filter\":{\"row_ms\":" + FormatDouble(ms[0], 3) +
            ",\"columnar_ms\":" + FormatDouble(ms[1], 3) +
            ",\"speedup\":" + FormatDouble(ms[1] > 0 ? ms[0] / ms[1] : 0.0, 2) +
            "}";
  }

  std::printf("# Figure 7: micro-benchmark overheads (median of %d reps)\n\n", reps);
  PrintTableHeader({"selectivity", "layout", "base ms", "leaf ms", "hcn ms",
                    "leaf overhead", "hcn overhead"});

  json += ",\"selectivities\":[";
  bool first = true;
  for (double sel : {0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    std::string sql =
        tpch::MicroBenchmarkQuery(kAcctbalThreshold, OrderdateCutoffForSelectivity(sel));
    // Interleave all six variants (row/columnar x base/leaf/hcn) in one
    // round-robin so both layouts see identical allocator/cache drift.
    std::vector<std::function<void()>> variants;
    for (bool columnar : {false, true}) {
      variants.push_back(QueryRunner(
          db.get(), sql,
          LayoutOptions(columnar, false,
                        PlacementHeuristic::kHighestCommutativeNode)));
      variants.push_back(QueryRunner(
          db.get(), sql,
          LayoutOptions(columnar, true, PlacementHeuristic::kLeafNode)));
      variants.push_back(QueryRunner(
          db.get(), sql,
          LayoutOptions(columnar, true,
                        PlacementHeuristic::kHighestCommutativeNode)));
    }
    std::vector<double> ms = InterleavedMediansMs(variants, reps);

    if (!first) json += ",";
    first = false;
    json += "{\"selectivity\":" + FormatDouble(sel, 2);
    for (int layout = 0; layout < 2; ++layout) {
      const char* name = layout == 0 ? "row" : "columnar";
      double base = ms[static_cast<size_t>(layout * 3)];
      double leaf = ms[static_cast<size_t>(layout * 3 + 1)];
      double hcn = ms[static_cast<size_t>(layout * 3 + 2)];
      PrintTableRow({FormatPercent(sel, 0), name, FormatDouble(base),
                     FormatDouble(leaf), FormatDouble(hcn),
                     FormatPercent(leaf / base - 1.0),
                     FormatPercent(hcn / base - 1.0)});
      json += std::string(",\"") + name + "\":{\"base_ms\":" +
              FormatDouble(base, 3) + ",\"leaf_ms\":" + FormatDouble(leaf, 3) +
              ",\"hcn_ms\":" + FormatDouble(hcn, 3) + "}";
    }
    json += "}";
  }
  json += "]";
  AppendJsonLine(SELTRIG_REPO_ROOT "/BENCH_fig7.json", "fig7_micro_overheads",
                 json);
  return 0;
}

}  // namespace
}  // namespace seltrig::bench

int main() { return seltrig::bench::Main(); }
