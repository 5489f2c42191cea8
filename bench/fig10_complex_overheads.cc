// Figure 10 — HCN overheads for complex queries.
//
// Median runtime of each workload query uninstrumented vs. hcn-instrumented
// (audit = one market segment). Paper claim: ~1% overhead across the TPC-H
// workload, including the cost of carrying partition-by IDs up the plan.
//
// Each query is measured through both layouts — columnar (default) and the
// row escape hatch — and the run is appended as one JSON line to
// BENCH_fig10.json at the repo root (the committed perf trajectory).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "tpch/queries.h"

namespace seltrig::bench {
namespace {

constexpr const char* kAuditName = "audit_segment";

ExecOptions LayoutOptions(bool columnar, bool instrumented) {
  ExecOptions options;
  options.heuristic = PlacementHeuristic::kHighestCommutativeNode;
  options.instrument_all_audit_expressions = instrumented;
  options.enable_select_triggers = false;
  options.columnar = columnar;
  options.num_threads = 1;
  return options;
}

int Main() {
  double sf = ScaleFactorFromEnv(0.02);
  int reps = RepetitionsFromEnv(11);
  auto db = LoadTpchDatabase(sf);
  Status status =
      db->Execute(tpch::SegmentAuditExpressionSql(kAuditName, "BUILDING")).status();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("# Figure 10: hcn overheads on the TPC-H workload (median of %d)\n\n",
              reps);
  PrintTableHeader({"query", "layout", "base ms", "hcn ms", "overhead"});

  std::string json = "\"sf\":" +
                     FormatDouble(sf, 3) + ",\"reps\":" + std::to_string(reps) +
                     ",\"threads\":1,\"queries\":[";
  bool first = true;
  for (const tpch::TpchQuery& q : tpch::WorkloadQueries()) {
    std::vector<double> ms = InterleavedMediansMs(
        {QueryRunner(db.get(), q.sql, LayoutOptions(false, false)),
         QueryRunner(db.get(), q.sql, LayoutOptions(false, true)),
         QueryRunner(db.get(), q.sql, LayoutOptions(true, false)),
         QueryRunner(db.get(), q.sql, LayoutOptions(true, true))},
        reps);
    if (!first) json += ",";
    first = false;
    json += "{\"query\":\"" + q.name + "\"";
    for (int layout = 0; layout < 2; ++layout) {
      const char* name = layout == 0 ? "row" : "columnar";
      double base = ms[static_cast<size_t>(layout * 2)];
      double hcn = ms[static_cast<size_t>(layout * 2 + 1)];
      PrintTableRow({q.name.substr(0, 16), name, FormatDouble(base),
                     FormatDouble(hcn), FormatPercent(hcn / base - 1.0)});
      json += std::string(",\"") + name + "\":{\"base_ms\":" +
              FormatDouble(base, 3) + ",\"hcn_ms\":" + FormatDouble(hcn, 3) +
              "}";
    }
    json += "}";
  }
  json += "]";
  AppendJsonLine(SELTRIG_REPO_ROOT "/BENCH_fig10.json",
                 "fig10_complex_overheads", json);
  return 0;
}

}  // namespace
}  // namespace seltrig::bench

int main() { return seltrig::bench::Main(); }
