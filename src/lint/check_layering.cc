// layering check: the engine's directory layers form a DAG, declared once in
// DefaultLayerTable() below. An #include from a lower-ranked directory into a
// higher-ranked one (upward) or between two directories of equal rank
// (sideways) is an error. The handful of genuine seams — the executor
// feeding ACCESSED state to audit, batch evaluation reaching into exec's
// ColumnBatch and ExecContext — are suppressed edge-by-edge in
// .lint-suppressions, each with its justification.
//
// The same DAG governs where code is defined: an out-of-line
// `Class::Member` definition in a .cc must sit in the layer of a header that
// declares `Class` (or in a class the .cc declares itself). Otherwise the
// lower layer's library links against a higher layer's translation unit.
//
// Scope: src/ only. Tests, tools, and benches may include anything; they sit
// above the whole library by construction.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/function_scan.h"
#include "lint/lint.h"
#include "lint/token_util.h"

namespace seltrig {
namespace lint {
namespace {

// The layer directory of a src/ path ("" outside src/ or directly under it).
std::string LayerOf(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return "";
  const size_t slash = path.find('/', 4);
  return slash == std::string::npos ? "" : path.substr(4, slash - 4);
}

// Names of the classes and structs `toks` defines (`class X {`,
// `struct X : Base {`, `class SELTRIG_CAPABILITY("m") X final {`); forward
// declarations, elaborated type names and `enum class` are not definitions.
std::vector<std::string> DefinedClasses(const TokenStream& toks) {
  std::vector<std::string> names;
  for (size_t i = 1; i + 2 < toks.size(); ++i) {
    if ((!IsIdent(toks[i], "class") && !IsIdent(toks[i], "struct")) ||
        IsIdent(toks[i - 1], "enum")) {
      continue;
    }
    size_t j = i + 1;
    while (j + 1 < toks.size() && toks[j].text.rfind("SELTRIG_", 0) == 0) {
      j = IsPunct(toks[j + 1], "(") ? MatchForward(toks, j + 1, "(", ")") + 1 : j + 1;
    }
    if (j + 1 < toks.size() && IsIdent(toks[j]) &&
        (IsPunct(toks[j + 1], "{") || IsPunct(toks[j + 1], ":") ||
         IsIdent(toks[j + 1], "final"))) {
      names.push_back(toks[j].text);
    }
  }
  return names;
}

}  // namespace

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
  // Class name -> the layers of the src/ headers that define it.
  std::map<std::string, std::set<std::string>> class_layers;
  for (const SourceFile& file : files) {
    if (LayerOf(file.path).empty() || !file.path.ends_with(".h")) continue;
    for (const std::string& name : DefinedClasses(file.tokens)) {
      class_layers[name].insert(LayerOf(file.path));
    }
  }

  for (const SourceFile& file : files) {
    const std::string from_dir = LayerOf(file.path);
    if (from_dir.empty()) continue;  // outside src/, or directly under it
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

    if (!file.path.ends_with(".cc")) continue;
    const std::vector<std::string> own_classes = DefinedClasses(toks);
    for (const FunctionDef& def : FindFunctionDefs(toks)) {
      const auto layers = class_layers.find(def.qualifier);
      if (layers == class_layers.end() || layers->second.count(from_dir) > 0 ||
          std::find(own_classes.begin(), own_classes.end(), def.qualifier) !=
              own_classes.end()) {
        continue;
      }
      const std::string member = def.qualifier + "::" + def.name;
      out->push_back({file.path, toks[def.body_open].line, "layering",
                      file.path + ":defines:" + member,
                      "src/" + from_dir + " defines " + member + ", but " +
                          def.qualifier + " is declared in src/" +
                          *layers->second.begin() +
                          "; define it there, so that layer's code does not "
                          "live in a higher layer's translation unit"});
    }
  }
}

}  // namespace lint
}  // namespace seltrig
