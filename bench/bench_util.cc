#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "types/date.h"

namespace seltrig::bench {

double ScaleFactorFromEnv(double default_sf) {
  const char* sf = std::getenv("SELTRIG_SF");
  if (sf != nullptr) return std::strtod(sf, nullptr);
  return default_sf;
}

int RepetitionsFromEnv(int default_reps) {
  const char* reps = std::getenv("SELTRIG_REPS");
  if (reps != nullptr) return static_cast<int>(std::strtol(reps, nullptr, 10));
  return default_reps;
}

std::unique_ptr<Database> LoadTpchDatabase(double sf) {
  auto db = std::make_unique<Database>();
  tpch::TpchConfig config;
  config.scale_factor = sf;
  Status status = tpch::LoadTpch(db.get(), config);
  if (!status.ok()) {
    std::fprintf(stderr, "TPC-H load failed: %s\n", status.ToString().c_str());
    std::abort();
  }
  tpch::TpchCardinalities n = tpch::CardinalitiesFor(sf);
  std::printf("# TPC-H SF=%.3g: %lld customers, %lld orders\n", sf,
              static_cast<long long>(n.customers), static_cast<long long>(n.orders));
  return db;
}

double MedianRuntimeMs(const std::function<void()>& fn, int reps) {
  fn();  // warmup
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(end -
                                                                              start)
            .count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::vector<double> InterleavedMediansMs(const std::vector<std::function<void()>>& fns,
                                         int reps) {
  std::vector<std::vector<double>> samples(fns.size());
  for (const auto& fn : fns) fn();  // warmup
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < fns.size(); ++i) {
      auto start = std::chrono::steady_clock::now();
      fns[i]();
      auto end = std::chrono::steady_clock::now();
      samples[i].push_back(
          std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
              end - start)
              .count());
    }
  }
  std::vector<double> medians;
  medians.reserve(fns.size());
  for (auto& s : samples) {
    std::sort(s.begin(), s.end());
    medians.push_back(s[s.size() / 2]);
  }
  return medians;
}

std::function<void()> QueryRunner(Database* db, const std::string& sql,
                                  bool instrumented, PlacementHeuristic heuristic) {
  ExecOptions options;
  options.heuristic = heuristic;
  options.instrument_all_audit_expressions = instrumented;
  options.enable_select_triggers = false;
  return QueryRunner(db, sql, options);
}

std::function<void()> QueryRunner(Database* db, const std::string& sql,
                                  const ExecOptions& options) {
  return [db, sql, options]() {
    auto r = db->ExecuteWithOptions(sql, options);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
      std::abort();
    }
  };
}

void AppendJsonLine(const std::string& path, const std::string& bench,
                    const std::string& fields) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot append to %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"%s\",\"git_sha\":\"%s\",\"build_type\":\"%s\","
               "\"num_cpus\":%u,%s}\n",
               bench.c_str(), SELTRIG_GIT_SHA, SELTRIG_BUILD_TYPE,
               std::thread::hardware_concurrency(), fields.c_str());
  std::fclose(f);
  std::printf("# appended result line to %s\n", path.c_str());
}

size_t AuditCardinality(Database* db, const std::string& sql,
                        PlacementHeuristic heuristic, const std::string& audit_name) {
  ExecOptions options;
  options.heuristic = heuristic;
  options.instrument_all_audit_expressions = true;
  auto r = db->ExecuteWithOptions(sql, options);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n%s\n", r.status().ToString().c_str(),
                 sql.c_str());
    std::abort();
  }
  auto it = r->accessed.find(audit_name);
  return it == r->accessed.end() ? 0 : it->second.size();
}

double QueryRuntimeMs(Database* db, const std::string& sql, bool instrumented,
                      PlacementHeuristic heuristic, int reps) {
  ExecOptions options;
  options.heuristic = heuristic;
  options.instrument_all_audit_expressions = instrumented;
  options.enable_select_triggers = false;
  return MedianRuntimeMs(
      [&]() {
        auto r = db->ExecuteWithOptions(sql, options);
        if (!r.ok()) {
          std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
          std::abort();
        }
      },
      reps);
}

namespace {

void PrintCells(const std::vector<std::string>& cells) {
  for (const std::string& cell : cells) {
    std::printf("%-18s", cell.c_str());
  }
  std::printf("\n");
}

}  // namespace

void PrintTableHeader(const std::vector<std::string>& columns) {
  PrintCells(columns);
  std::string rule;
  for (size_t i = 0; i < columns.size() * 18; ++i) rule += '-';
  std::printf("%s\n", rule.c_str());
}

void PrintTableRow(const std::vector<std::string>& cells) { PrintCells(cells); }

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FormatPercent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string OrderdateCutoffForSelectivity(double selectivity) {
  int32_t lo = tpch::MinOrderDate();
  int32_t hi = tpch::MaxOrderDate();
  // P(o_orderdate > cutoff) ~= (hi - cutoff) / (hi - lo).
  int32_t cutoff = hi - static_cast<int32_t>(selectivity * (hi - lo));
  return seltrig::FormatDate(cutoff);
}

}  // namespace seltrig::bench
