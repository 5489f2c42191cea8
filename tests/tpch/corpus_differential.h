// Settings differential over the TPC-H corpus: a query runs under rows of one
// settings table (batch size, morsel threads, row or columnar layout, audit
// placement heuristic, join reordering, and one uninstrumented run), each
// with the plan validator on, and each observable must equal the first run
// that shares every setting it may depend on:
//
//  - result rows depend only on the join order: exact within a reorder
//    setting; across reorder settings a double may differ in its last bits,
//    since a join order changes the order in which SUM adds its inputs;
//  - ACCESSED depends only on the placement heuristic (and is empty without
//    instrumentation). Across heuristics, leaf-node placement must account
//    for a superset of what hcn placement does: hcn has no false negatives
//    and only drops leaf-node false positives (Claim 3.6);
//  - every ExecStats counter depends only on the heuristic, the join order
//    and the batch size — never on thread count or layout.
//
// A test picks the rows it sweeps with SettingsWhere; the first row, the
// engine's default configuration, is the reference every sweep starts from.

#ifndef SELTRIG_TESTS_TPCH_CORPUS_DIFFERENTIAL_H_
#define SELTRIG_TESTS_TPCH_CORPUS_DIFFERENTIAL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/database.h"

namespace seltrig {
namespace corpus {

inline constexpr PlacementHeuristic kHcn = PlacementHeuristic::kHighestCommutativeNode;
inline constexpr PlacementHeuristic kLeaf = PlacementHeuristic::kLeafNode;
inline constexpr PlacementHeuristic kHighest = PlacementHeuristic::kHighestNode;

struct Setting {
  PlacementHeuristic heuristic;
  bool reorder;
  size_t batch;
  int threads;
  bool columnar;
  bool instrumented = true;
};

// The first row is the engine's default configuration.
inline const std::vector<Setting> kSettings = {
    // heuristic, reorder, batch, threads, columnar
    {kHcn, true, 1024, 1, true},
    {kHcn, true, 1, 1, true},
    {kHcn, true, 3, 1, true},
    {kHcn, true, 1024, 2, true},  // the olap_tpch benchmark's thread count
    {kHcn, true, 1024, 4, true},
    {kHcn, true, 1024, 8, true},
    {kHcn, true, 1, 4, true},
    {kHcn, true, 1024, 1, false},
    {kHcn, true, 1, 1, false},
    {kHcn, true, 1024, 4, false},
    {kHcn, true, 1, 4, false},
    {kHcn, false, 1024, 1, true},
    {kHcn, false, 1, 1, true},
    {kHcn, false, 1024, 4, true},
    {kHcn, false, 1, 4, true},
    {kLeaf, true, 1024, 1, true},
    {kLeaf, true, 1, 1, true},
    {kLeaf, true, 1024, 4, true},
    {kLeaf, true, 1, 4, true},
    {kLeaf, false, 1024, 1, true},
    {kLeaf, false, 1, 1, true},
    {kLeaf, false, 1024, 4, true},
    {kLeaf, false, 1, 4, true},
    {kHighest, true, 1024, 1, true},
    {kHcn, true, 1024, 1, true, /*instrumented=*/false},
};

// The reference row followed by every other row for which `pred` holds.
template <typename Pred>
std::vector<Setting> SettingsWhere(Pred pred) {
  std::vector<Setting> rows = {kSettings[0]};
  for (size_t i = 1; i < kSettings.size(); ++i) {
    if (pred(kSettings[i])) rows.push_back(kSettings[i]);
  }
  return rows;
}

inline std::string Describe(const Setting& s) {
  return std::string(PlacementHeuristicName(s.heuristic)) +
         (s.reorder ? ", reordered" : ", fixed order") + ", batch " +
         std::to_string(s.batch) + ", threads " + std::to_string(s.threads) +
         (s.columnar ? ", columnar" : ", row layout") +
         (s.instrumented ? "" : ", uninstrumented");
}

// The index of the first of `settings` whose `key` equals setting i's.
template <typename Key>
size_t FirstSharing(const std::vector<Setting>& settings, size_t i, Key key) {
  size_t j = 0;
  while (key(settings[j]) != key(settings[i])) ++j;
  return j;
}

inline bool RowsKey(const Setting& s) { return s.reorder; }
inline std::tuple<bool, PlacementHeuristic> AccessedKey(const Setting& s) {
  return {s.instrumented, s.heuristic};
}
inline std::tuple<bool, PlacementHeuristic, bool, size_t> StatsKey(const Setting& s) {
  return {s.instrumented, s.heuristic, s.reorder, s.batch};
}

// Rows must match exactly or, across join orders, up to a 1e-9 relative
// difference in doubles: a join order changes the order in which SUM adds
// its inputs.
inline void ExpectSameRows(const std::vector<Row>& actual,
                           const std::vector<Row>& expected,
                           bool across_join_orders, const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (size_t i = 0; i < actual.size(); ++i) {
    bool same = actual[i].size() == expected[i].size();
    for (size_t c = 0; same && c < actual[i].size(); ++c) {
      const Value& a = actual[i][c];
      const Value& e = expected[i][c];
      if (across_join_orders && a.type() == TypeId::kDouble &&
          e.type() == TypeId::kDouble) {
        same = std::fabs(a.AsDouble() - e.AsDouble()) <=
               1e-9 * std::max(1.0, std::fabs(e.AsDouble()));
      } else {
        same = a == e;
      }
    }
    EXPECT_TRUE(same) << where << " row " << i << ": " << RowToString(actual[i])
                      << " vs " << RowToString(expected[i]);
  }
}

using Accessed = std::map<std::string, std::vector<Value>>;

inline std::string AccessedSizes(const Accessed& accessed) {
  std::string out;
  for (const auto& [audit, ids] : accessed) {
    out += " " + audit + ": " + std::to_string(ids.size()) + " ids";
  }
  return out.empty() ? " none" : out;
}

// Every ID hcn placement accessed, leaf placement accessed too.
inline void ExpectAccessedSuperset(const Accessed& leaf, const Accessed& hcn,
                                   const std::string& where) {
  const auto less = [](const Value& a, const Value& b) {
    return Value::Compare(a, b) < 0;
  };
  for (const auto& [audit, ids] : hcn) {
    auto it = leaf.find(audit);
    ASSERT_TRUE(it != leaf.end()) << where << ": leaf placement lacks " << audit;
    EXPECT_TRUE(std::includes(it->second.begin(), it->second.end(), ids.begin(),
                              ids.end(), less))
        << where << ": leaf ACCESSED for " << audit << " (" << it->second.size()
        << " ids) does not contain hcn's (" << ids.size() << " ids)";
  }
}

inline ExecOptions OptionsFor(const Setting& s, int64_t max_rows) {
  ExecOptions options;
  options.heuristic = s.heuristic;
  options.optimizer.enable_join_reordering = s.reorder;
  options.batch_size = s.batch;
  options.num_threads = s.threads;
  options.columnar = s.columnar;
  options.instrument_all_audit_expressions = s.instrumented;
  options.enable_select_triggers = false;
  options.max_rows = max_rows;
  options.validate_plans = true;
  return options;
}

// Runs `sql` on `db` under every one of `settings` (the reference row first)
// and checks each observable against the first run that shares the settings
// it depends on.
inline void ExpectSettingsAgree(Database* db, const std::vector<Setting>& settings,
                                const std::string& name, const std::string& sql,
                                int64_t max_rows) {
  const std::string query = name + " (max_rows " + std::to_string(max_rows) + ")";
  std::vector<StatementResult> runs;
  for (const Setting& s : settings) {
    auto r = db->ExecuteWithOptions(sql, OptionsFor(s, max_rows));
    ASSERT_TRUE(r.ok()) << query << " [" << Describe(s)
                        << "]: " << r.status().ToString();
    runs.push_back(std::move(*r));
  }
  for (size_t i = 1; i < settings.size(); ++i) {
    const StatementResult& run = runs[i];
    const auto where = [&](size_t ref) {
      return query + " [" + Describe(settings[i]) + "] vs [" +
             Describe(settings[ref]) + "]";
    };

    // The first run of the other join order is checked against run 0.
    const size_t rows_ref = FirstSharing(settings, i, RowsKey);
    const size_t rows_base = rows_ref < i ? rows_ref : 0;
    ExpectSameRows(run.result.rows, runs[rows_base].result.rows,
                   /*across_join_orders=*/rows_ref == i, where(rows_base));

    const size_t accessed_ref = FirstSharing(settings, i, AccessedKey);
    if (accessed_ref < i) {
      const Accessed& ref = runs[accessed_ref].accessed;
      EXPECT_TRUE(run.accessed == ref) << where(accessed_ref) << ": ACCESSED"
                                       << AccessedSizes(run.accessed) << " vs"
                                       << AccessedSizes(ref);
    } else if (settings[i].instrumented && settings[i].heuristic == kLeaf) {
      // Run 0 is the reference, an instrumented hcn run.
      ExpectAccessedSuperset(run.accessed, runs[0].accessed, where(0));
    }

    const size_t stats_ref = FirstSharing(settings, i, StatsKey);
    if (stats_ref < i) {
      const ExecStats& ref = runs[stats_ref].stats;
      EXPECT_EQ(run.stats.rows_scanned, ref.rows_scanned) << where(stats_ref);
      EXPECT_EQ(run.stats.rows_through_audit_ops, ref.rows_through_audit_ops)
          << where(stats_ref);
      EXPECT_EQ(run.stats.audit_probe_hits, ref.audit_probe_hits)
          << where(stats_ref);
      EXPECT_EQ(run.stats.subquery_executions, ref.subquery_executions)
          << where(stats_ref);
      EXPECT_EQ(run.stats.audit_batches_prescreened, ref.audit_batches_prescreened)
          << where(stats_ref);
    }
  }
}

}  // namespace corpus
}  // namespace seltrig

#endif  // SELTRIG_TESTS_TPCH_CORPUS_DIFFERENTIAL_H_
