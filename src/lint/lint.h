// seltrig-lint: a repo-specific static analyzer that machine-checks the
// invariants the engine otherwise enforces by convention. Five rule families
// (docs/STATIC_ANALYSIS.md has the catalog):
//
//   fault-registry   every fault-point name flows through
//                    common/fault_points.def; no literal spellings, no
//                    unregistered or unused points
//   layering         #include edges respect the declared layer order, and
//                    a class's out-of-line members stay in its layer
//   lock-order       the global lock-acquisition graph is acyclic and no
//                    lock is re-acquired while held
//   status           (void)-dropped Status/Result calls carry a why-comment;
//                    fallible calls in destructors must be explicit drops
//   dispatch         registered switches over wire FrameType / WalOp::Kind
//                    name every enumerator, no default
//
// The library is standalone (std only, no engine dependency) so the tool can
// lint a broken tree, and so fixture tests can drive each check directly.

#ifndef SELTRIG_LINT_LINT_H_
#define SELTRIG_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/token.h"

namespace seltrig {
namespace lint {

// One finding. `rule` is the family name above; `detail` is a stable
// machine-readable key (e.g. the offending include edge) that suppression
// entries match against.
struct Diagnostic {
  std::string file;  // path relative to the lint root
  int line = 0;
  std::string rule;
  std::string detail;
  std::string message;
};

// A tokenized source file.
struct SourceFile {
  std::string path;  // relative to the lint root, '/'-separated
  TokenStream tokens;
};

// Suppressions: lines of `rule <detail-pattern>` where the pattern must match
// the diagnostic's detail exactly, except that a trailing `*` matches any
// suffix. `#` starts a comment; every entry is expected to carry one
// justifying why the seam is sound (the tree run fails on an entry that
// suppresses nothing — stale suppressions are themselves findings).
struct Suppressions {
  struct Entry {
    std::string rule;
    std::string pattern;
    int line = 0;
    mutable int used = 0;
  };
  std::vector<Entry> entries;

  static Suppressions Parse(const std::string& text);
  bool Matches(const Diagnostic& d) const;
};

// The layering table: directory (relative to src/) -> rank. An include edge
// from directory A into directory B fails unless rank[B] < rank[A], or
// A == B, or the edge is suppressed (`layering src/x/f.cc->y/h.h`).
using LayerTable = std::map<std::string, int>;
LayerTable DefaultLayerTable();

// The dispatch registry: switches that must stay exhaustive, identified by a
// marker comment — `seltrig-lint:` followed by `dispatch(EnumName)` —
// directly above the switch statement. The table pins the minimum number of
// registered sites
// per (file, enum) so deleting a marker is itself a finding.
struct DispatchSite {
  std::string file_suffix;  // e.g. "replication/wire.cc"
  std::string enum_name;    // e.g. "FrameType", "WalOp::Kind"
  int min_markers = 1;
};
std::vector<DispatchSite> DefaultDispatchSites();

// Individual checks. Each walks the given files (already filtered to its
// scope by the driver) and appends diagnostics.
void CheckFaultRegistry(const std::vector<SourceFile>& files,
                        const std::set<std::string>& registered_names,
                        const std::set<std::string>& registered_idents,
                        std::vector<Diagnostic>* out);
void CheckLayering(const std::vector<SourceFile>& files,
                   const LayerTable& table, std::vector<Diagnostic>* out);
void CheckLockOrder(const std::vector<SourceFile>& files,
                    std::vector<Diagnostic>* out);
void CheckStatusDiscipline(const std::vector<SourceFile>& files,
                           std::vector<Diagnostic>* out);
void CheckDispatch(const std::vector<SourceFile>& files,
                   const std::vector<DispatchSite>& sites,
                   std::vector<Diagnostic>* out);

// Parses common/fault_points.def: every SELTRIG_FAULT_POINT(ident, "name", ..)
// entry. Returns false (with a diagnostic) on a malformed registry.
bool ParseFaultRegistry(const SourceFile& def, std::set<std::string>* names,
                        std::set<std::string>* idents,
                        std::vector<Diagnostic>* out);

// Whole-tree run: loads src/, tests/, tools/ under `root`, applies the
// default tables and the suppression file at `<root>/.lint-suppressions`
// (missing file = no suppressions), returns all unsuppressed diagnostics
// plus one diagnostic per suppression entry that matched nothing.
std::vector<Diagnostic> LintTree(const std::string& root);

// Formats one diagnostic the way compilers do: file:line: [rule] message.
std::string FormatDiagnostic(const Diagnostic& d);

}  // namespace lint
}  // namespace seltrig

#endif  // SELTRIG_LINT_LINT_H_
