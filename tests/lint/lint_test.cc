// seltrig-lint self-tests: tokenizer and function-scanner units, then the
// fixture corpus — each deliberately-violating snippet under fixtures/ is fed
// to its check with a virtual src/ path and the exact diagnostics (rule,
// detail, line) are asserted, plus clean negative controls. The whole-tree
// clean run is a separate ctest (seltrig_lint_tree, registered from tools/).

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/function_scan.h"
#include "lint/lint.h"
#include "lint/tokenizer.h"

namespace seltrig {
namespace lint {
namespace {

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(SELTRIG_LINT_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Loads a fixture and gives it the path the checks will see (their scope
// filters key on src/...).
SourceFile Fix(const std::string& name, const std::string& virtual_path) {
  return {virtual_path, Tokenize(ReadFixture(name))};
}

std::multiset<std::string> Details(const std::vector<Diagnostic>& diags) {
  std::multiset<std::string> out;
  for (const Diagnostic& d : diags) out.insert(d.detail);
  return out;
}

int LineOf(const std::vector<Diagnostic>& diags, const std::string& detail) {
  for (const Diagnostic& d : diags) {
    if (d.detail == detail) return d.line;
  }
  return -1;
}

// --- tokenizer --------------------------------------------------------------

TEST(TokenizerTest, SeparatesCommentsAndLiterals) {
  const TokenStream toks = Tokenize(
      "int a = 0; // trailing \"quoted\"\n"
      "/* block\nspans */ \"str \\\" more\" 'x'\n");
  std::vector<TokenKind> kinds;
  for (const Token& t : toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kIdentifier, TokenKind::kIdentifier,
                       TokenKind::kPunct, TokenKind::kNumber, TokenKind::kPunct,
                       TokenKind::kComment, TokenKind::kComment,
                       TokenKind::kString, TokenKind::kCharLiteral}));
  EXPECT_EQ(toks[7].text, "str \\\" more");  // quotes stripped, escape kept
  EXPECT_EQ(toks[6].end_line, 3);            // block comment spans lines 2-3
  EXPECT_EQ(toks[8].line, 3);
}

TEST(TokenizerTest, RawStringsWithDelimiters) {
  const TokenStream toks =
      Tokenize("auto r = R\"x(not \"closed)\" yet)x\"; int done;");
  ASSERT_GT(toks.size(), 4u);
  EXPECT_EQ(toks[3].kind, TokenKind::kRawString);
  EXPECT_EQ(toks[3].text, "not \"closed)\" yet");
  EXPECT_EQ(toks[5].text, "int");
}

TEST(TokenizerTest, DigitSeparatorIsNotACharLiteral) {
  const TokenStream toks = Tokenize("int n = 1'000'000;");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[3].kind, TokenKind::kNumber);
  EXPECT_EQ(toks[3].text, "1'000'000");
}

TEST(TokenizerTest, MaximalMunchPunctuators) {
  const TokenStream toks = Tokenize("a <<= b <=> c->d::e");
  std::vector<std::string> puncts;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kPunct) puncts.push_back(t.text);
  }
  EXPECT_EQ(puncts, (std::vector<std::string>{"<<=", "<=>", "->", "::"}));
}

// --- function scanner -------------------------------------------------------

TEST(FunctionScanTest, QualifierAndRequires) {
  const TokenStream toks = Tokenize(
      "Status Wal::Append(int n) SELTRIG_REQUIRES(mutex_) { return n; }\n"
      "Closer::~Closer() { }\n");
  const std::vector<FunctionDef> defs = FindFunctionDefs(toks);
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].name, "Append");
  EXPECT_EQ(defs[0].qualifier, "Wal");
  ASSERT_EQ(defs[0].requires_locks.size(), 1u);
  EXPECT_EQ(defs[0].requires_locks[0], "mutex_");
  EXPECT_FALSE(defs[0].is_destructor);
  EXPECT_EQ(defs[1].name, "~Closer");
  EXPECT_EQ(defs[1].qualifier, "Closer");
  EXPECT_TRUE(defs[1].is_destructor);
}

// --- fault-registry ---------------------------------------------------------

struct Registry {
  std::set<std::string> names;
  std::set<std::string> idents;
};

Registry LoadFixtureRegistry() {
  Registry r;
  std::vector<Diagnostic> diags;
  EXPECT_TRUE(ParseFaultRegistry(
      Fix("fault_points.def", "src/common/fault_points.def"), &r.names,
      &r.idents, &diags));
  EXPECT_TRUE(diags.empty());
  return r;
}

TEST(FaultRegistryCheckTest, ParsesRegistry) {
  const Registry r = LoadFixtureRegistry();
  EXPECT_EQ(r.names, (std::set<std::string>{"fix.good", "fix.orphan"}));
  EXPECT_EQ(r.idents, (std::set<std::string>{"kFixGood", "kFixOrphan"}));
}

TEST(FaultRegistryCheckTest, FlagsEveryViolationShape) {
  const Registry r = LoadFixtureRegistry();
  std::vector<Diagnostic> diags;
  CheckFaultRegistry(
      {Fix("fault_registry_bad.cc", "src/fix/fault_registry_bad.cc")}, r.names,
      r.idents, &diags);
  EXPECT_EQ(Details(diags),
            (std::multiset<std::string>{
                "src/fix/fault_registry_bad.cc:maybe-literal:fix.good",
                "src/fix/fault_registry_bad.cc:maybe-nonliteral",
                "src/fix/fault_registry_bad.cc:literal:fix.good",
                "src/fix/fault_registry_bad.cc:arm-literal:fix.unregistered",
                "src/common/fault_points.def:unused:kFixOrphan"}));
  EXPECT_EQ(
      LineOf(diags, "src/fix/fault_registry_bad.cc:maybe-literal:fix.good"),
      10);
  EXPECT_EQ(LineOf(diags, "src/fix/fault_registry_bad.cc:literal:fix.good"),
            15);
}

// --- layering ---------------------------------------------------------------

TEST(LayeringCheckTest, FlagsUpwardInclude) {
  std::vector<Diagnostic> diags;
  CheckLayering({Fix("layering_bad.cc", "src/storage/layering_bad.cc")},
                DefaultLayerTable(), &diags);
  EXPECT_EQ(Details(diags),
            (std::multiset<std::string>{
                "src/storage/layering_bad.cc->exec/operators.h"}));
  EXPECT_EQ(LineOf(diags, "src/storage/layering_bad.cc->exec/operators.h"), 3);
}

TEST(LayeringCheckTest, FlagsMemberDefinedOutsideItsClassLayer) {
  // A storage class with a member defined in an audit .cc links the storage
  // library against audit, as SensitiveIdView::SortedIds once did.
  const SourceFile header = Fix("layering_owner.h", "src/storage/owner_view.h");
  std::vector<Diagnostic> diags;
  CheckLayering({header, Fix("layering_member_bad.cc", "src/audit/owner_user.cc")},
                DefaultLayerTable(), &diags);
  EXPECT_EQ(Details(diags),
            (std::multiset<std::string>{
                "src/audit/owner_user.cc:defines:OwnerView::SortedIds"}));
  EXPECT_EQ(LineOf(diags, "src/audit/owner_user.cc:defines:OwnerView::SortedIds"), 14);

  // The same definition in the header's own layer is clean.
  diags.clear();
  CheckLayering({header, Fix("layering_member_bad.cc", "src/storage/owner_view.cc")},
                DefaultLayerTable(), &diags);
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
}

// --- lock-order -------------------------------------------------------------

TEST(LockOrderCheckTest, FlagsCycleAndRecursionButNotHandoff) {
  std::vector<Diagnostic> diags;
  CheckLockOrder({Fix("lock_cycle.cc", "src/fix/lock_cycle.cc")}, &diags);
  EXPECT_EQ(Details(diags),
            (std::multiset<std::string>{
                "src/fix/lock_cycle.cc:recursive:Pair::mu1_",
                "cycle:Pair::mu1_|Pair::mu2_|"}));
}

// --- status discipline ------------------------------------------------------

TEST(StatusCheckTest, FlagsUncommentedDropAndBareDtorCall) {
  std::vector<Diagnostic> diags;
  CheckStatusDiscipline({Fix("status_bad.h", "src/fix/status_bad.h"),
                         Fix("status_bad.cc", "src/fix/status_bad.cc")},
                        &diags);
  EXPECT_EQ(Details(diags),
            (std::multiset<std::string>{"src/fix/status_bad.cc:void-drop:5",
                                        "src/fix/status_bad.cc:dtor-fallible:"
                                        "Flush"}));
  EXPECT_EQ(LineOf(diags, "src/fix/status_bad.cc:dtor-fallible:Flush"), 14);
}

TEST(StatusCheckTest, AcceptsConsumedAndCommentedDtorShapes) {
  std::vector<Diagnostic> diags;
  CheckStatusDiscipline({Fix("status_bad.h", "src/fix/status_bad.h"),
                         Fix("status_dtor_ok.cc", "src/fix/status_dtor_ok.cc")},
                        &diags);
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
}

// --- dispatch ---------------------------------------------------------------

TEST(DispatchCheckTest, FlagsEveryViolationShape) {
  std::vector<Diagnostic> diags;
  // min_markers 2 with only one live marker in the fixture also drives the
  // unregistered (deleted-marker) finding.
  CheckDispatch({Fix("dispatch_bad.cc", "src/fix/dispatch_bad.cc")},
                {{"fix/dispatch_bad.cc", "Color", 2}}, &diags);
  EXPECT_EQ(Details(diags),
            (std::multiset<std::string>{
                "src/fix/dispatch_bad.cc:missing-case:Color",
                "src/fix/dispatch_bad.cc:default:Color",
                "src/fix/dispatch_bad.cc:marker-dangling:Color",
                "src/fix/dispatch_bad.cc:unknown-enum:Ghost",
                "fix/dispatch_bad.cc:unregistered:Color"}));
  EXPECT_EQ(LineOf(diags, "src/fix/dispatch_bad.cc:default:Color"), 13);
}

// --- clean control ----------------------------------------------------------

TEST(CleanFixtureTest, AllChecksSilent) {
  const std::vector<SourceFile> files = {Fix("clean.cc", "src/exec/clean.cc")};
  std::vector<Diagnostic> diags;
  CheckFaultRegistry(files, {}, {}, &diags);
  CheckLayering(files, DefaultLayerTable(), &diags);
  CheckLockOrder(files, &diags);
  CheckStatusDiscipline(files, &diags);
  CheckDispatch(files, {}, &diags);
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
}

// --- suppressions -----------------------------------------------------------

TEST(SuppressionsTest, ExactAndWildcardMatching) {
  const Suppressions supp = Suppressions::Parse(
      "# header comment\n"
      "\n"
      "layering src/a.cc->b/c.h  # justified seam\n"
      "fault-registry tests/x.cc:*\n");
  ASSERT_EQ(supp.entries.size(), 2u);
  EXPECT_EQ(supp.entries[0].line, 3);
  EXPECT_TRUE(supp.Matches({"src/a.cc", 1, "layering", "src/a.cc->b/c.h", ""}));
  EXPECT_FALSE(
      supp.Matches({"src/a.cc", 1, "layering", "src/a.cc->b/d.h", ""}));
  // Same detail under a different rule must not match.
  EXPECT_FALSE(
      supp.Matches({"src/a.cc", 1, "lock-order", "src/a.cc->b/c.h", ""}));
  EXPECT_TRUE(supp.Matches(
      {"tests/x.cc", 9, "fault-registry", "tests/x.cc:literal:p", ""}));
  EXPECT_EQ(supp.entries[1].used, 1);
}

}  // namespace
}  // namespace lint
}  // namespace seltrig
