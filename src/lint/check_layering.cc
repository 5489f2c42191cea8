// layering check: the engine's directory layers form a DAG, declared once in
// DefaultLayerTable() below. An #include from a lower-ranked directory into a
// higher-ranked one (upward) or between two directories of equal rank
// (sideways) is an error. The handful of genuine seams — the executor
// feeding ACCESSED state to audit, batch evaluation reaching into exec's
// ColumnBatch and ExecContext — are suppressed edge-by-edge in
// .lint-suppressions, each with its justification.
//
// Scope: src/ only. Tests, tools, and benches may include anything; they sit
// above the whole library by construction.

#include <string>
#include <vector>

#include "lint/lint.h"

namespace seltrig {
namespace lint {

LayerTable DefaultLayerTable() {
  // Rank = height in the dependency order; an include may only point at a
  // strictly lower rank (or stay inside its own directory). Gaps of 10 leave
  // room to slot a new layer in without renumbering.
  return LayerTable{
      {"common", 0},    // status, mutex, codec, fault injector — leaf layer
      {"lint", 5},      // this analyzer: std-only, nothing above common
      {"types", 10},    // values, schemas, dates
      {"sql", 20},      // lexer/parser/AST
      {"storage", 30},  // tables, undo log, WAL, sensitive-ID views
      {"catalog", 40},  // table registry over storage
      {"expr", 50},     // expressions + evaluation
      {"plan", 60},     // logical plans
      {"binder", 70},   // SQL -> bound logical plan
      {"optimizer", 80},
      {"exec", 90},     // physical operators, batches, gather, plan validator
      {"audit", 100},   // ACCESSED state, audit expressions, triggers
      {"engine", 110},  // database/session/recovery/snapshot
      {"replication", 120},
      {"tpch", 130},
      {"seltrig", 140},  // umbrella header
  };
}

void CheckLayering(const std::vector<SourceFile>& files,
                   const LayerTable& table, std::vector<Diagnostic>* out) {
  for (const SourceFile& file : files) {
    if (file.path.rfind("src/", 0) != 0) continue;
    const std::string rel = file.path.substr(4);
    const size_t slash = rel.find('/');
    if (slash == std::string::npos) continue;  // file directly under src/
    const std::string from_dir = rel.substr(0, slash);
    const auto from_it = table.find(from_dir);
    if (from_it == table.end()) {
      out->push_back({file.path, 1, "layering",
                      file.path + ":unknown-layer:" + from_dir,
                      "directory src/" + from_dir +
                          " is not in the layer table; add it to "
                          "DefaultLayerTable() with a justified rank"});
      continue;
    }

    const TokenStream& toks = file.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].text != "#" || toks[i + 1].text != "include" ||
          toks[i + 2].kind != TokenKind::kString) {
        continue;
      }
      const std::string& target = toks[i + 2].text;
      const size_t tslash = target.find('/');
      if (tslash == std::string::npos) continue;  // local or system-ish
      const std::string to_dir = target.substr(0, tslash);
      const auto to_it = table.find(to_dir);
      if (to_it == table.end()) continue;  // not one of our layers
      if (to_dir == from_dir) continue;
      if (to_it->second < from_it->second) continue;  // downward: fine
      const bool sideways = to_it->second == from_it->second;
      out->push_back(
          {file.path, toks[i].line, "layering",
           file.path + "->" + target,
           std::string(sideways ? "sideways" : "upward") + " include: src/" +
               from_dir + " (rank " + std::to_string(from_it->second) +
               ") must not include " + target + " (rank " +
               std::to_string(to_it->second) +
               "); invert the dependency or document the seam in "
               ".lint-suppressions"});
    }
  }
}

}  // namespace lint
}  // namespace seltrig
