// Tests for the hm_lint static-analysis tool: each rule has a firing and a
// quiet fixture (stored as .cc/.hh so the self-lint walk ignores them; they
// are linted here under synthetic .cpp/.hpp display paths), plus direct
// tests of the tokenizer, suppression semantics, companion-header pairing,
// and the binary's exit status.
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hm_lint/linter.hpp"
#include "hm_lint/rule.hpp"
#include "hm_lint/tokenizer.hpp"

namespace {

using hm::lint::Diagnostic;
using hm::lint::Token;
using hm::lint::TokenKind;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(HM_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lints one fixture under a synthetic display path. The path must not look
/// like a test file (no `tests/` prefix, no `_test.cpp`) so that rules with
/// test-file exemptions still apply.
std::vector<Diagnostic> lint_fixture(const std::string& name,
                                     const std::string& display_path) {
  return hm::lint::analyze_source(display_path, read_fixture(name),
                                  hm::lint::default_rules());
}

std::size_t count_rule(const std::vector<Diagnostic>& diagnostics,
                       const std::string& rule_id) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) { return d.rule_id == rule_id; }));
}

struct RuleFixtureCase {
  const char* rule_id;
  const char* violation;      ///< Fixture that must fire the rule.
  const char* clean;          ///< Fixture that must stay quiet.
  const char* display_stem;   ///< Synthetic path stem (extension decides
                              ///< header-only rules).
  const char* extension;
};

// Without this, gtest prints the case as raw bytes, which here are string
// pointers: the listed test names would then change with every process
// (address-space randomization) and could not be tracked across runs.
void PrintTo(const RuleFixtureCase& c, std::ostream* os) { *os << c.rule_id; }

class RuleFixtureTest : public ::testing::TestWithParam<RuleFixtureCase> {};

TEST_P(RuleFixtureTest, ViolationFires) {
  const RuleFixtureCase& c = GetParam();
  const auto diagnostics = lint_fixture(
      c.violation, std::string("fixture/") + c.display_stem + c.extension);
  EXPECT_GE(count_rule(diagnostics, c.rule_id), 1u)
      << c.violation << " did not trip " << c.rule_id;
  for (const Diagnostic& d : diagnostics) {
    EXPECT_EQ(d.rule_id, c.rule_id)
        << "unexpected extra diagnostic in " << c.violation << ": "
        << d.message;
  }
}

TEST_P(RuleFixtureTest, CleanStaysQuiet) {
  const RuleFixtureCase& c = GetParam();
  const auto diagnostics = lint_fixture(
      c.clean, std::string("fixture/") + c.display_stem + c.extension);
  EXPECT_TRUE(diagnostics.empty())
      << c.clean << " unexpectedly fired: " << diagnostics.front().message;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RuleFixtureTest,
    ::testing::Values(
        RuleFixtureCase{"no-raw-thread", "no_raw_thread_violation.cc",
                        "no_raw_thread_clean.cc", "raw_thread", ".cpp"},
        RuleFixtureCase{"no-unordered-output-iteration",
                        "no_unordered_output_iteration_violation.cc",
                        "no_unordered_output_iteration_clean.cc",
                        "unordered_output", ".cpp"},
        RuleFixtureCase{"nodiscard-result", "nodiscard_result_violation.hh",
                        "nodiscard_result_clean.hh", "nodiscard", ".hpp"},
        RuleFixtureCase{"no-float-equality", "no_float_equality_violation.cc",
                        "no_float_equality_clean.cc", "float_eq", ".cpp"},
        RuleFixtureCase{"include-hygiene", "include_hygiene_violation.hh",
                        "include_hygiene_clean.hh", "hygiene", ".hpp"},
        RuleFixtureCase{"no-bare-export-stream",
                        "no_bare_export_stream_violation.cc",
                        "no_bare_export_stream_clean.cc", "bare_export",
                        ".cpp"},
        RuleFixtureCase{"no-adhoc-instrumentation",
                        "no_adhoc_instrumentation_violation.cc",
                        "no_adhoc_instrumentation_clean.cc",
                        "adhoc_instrumentation", ".cpp"},
        RuleFixtureCase{"no-unguarded-syscall",
                        "no_unguarded_syscall_violation.cc",
                        "no_unguarded_syscall_clean.cc", "unguarded_syscall",
                        ".cpp"},
        RuleFixtureCase{"no-bare-stderr", "no_bare_stderr_violation.cc",
                        "no_bare_stderr_clean.cc", "bare_stderr", ".cpp"}),
    [](const ::testing::TestParamInfo<RuleFixtureCase>& param_info) {
      std::string name = param_info.param.rule_id;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(SuppressionTest, AllowCommentSilencesDiagnostic) {
  const auto diagnostics =
      lint_fixture("suppression.cc", "fixture/suppressed.cpp");
  EXPECT_TRUE(diagnostics.empty())
      << "suppressed fixture still fired: " << diagnostics.front().message;
}

TEST(SuppressionTest, UnusedSuppressionIsAnError) {
  const auto diagnostics =
      lint_fixture("unused_suppression.cc", "fixture/unused.cpp");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics.front().rule_id, "unused-suppression");
  EXPECT_EQ(diagnostics.front().severity, hm::lint::Severity::kError);
}

TEST(SuppressionTest, SameLineCommentTargetsItsOwnLine) {
  const auto diagnostics = hm::lint::analyze_source(
      "fixture/inline.cpp",
      "bool f(double x) { return x == 2.0; }  "
      "// hm-lint: allow(no-float-equality) inline\n",
      hm::lint::default_rules());
  EXPECT_TRUE(diagnostics.empty());
}

TEST(SuppressionTest, ProseMentioningSyntaxDoesNotRegister) {
  // A doc comment *about* the marker is not a suppression — it would
  // otherwise surface as unused-suppression noise.
  const auto diagnostics = hm::lint::analyze_source(
      "fixture/prose.cpp",
      "// Use `hm-lint: allow(no-float-equality)` to silence a line.\n"
      "int x = 1;\n",
      hm::lint::default_rules());
  EXPECT_TRUE(diagnostics.empty());
}

TEST(TokenAwarenessTest, RuleNamesInsideLiteralsAndCommentsDoNotFire) {
  const auto diagnostics = hm::lint::analyze_source(
      "fixture/literals.cpp",
      "// std::thread and std::cerr discussed in a comment.\n"
      "const char* a = \"std::thread spawn\";\n"
      "const char* b = R\"(std::cerr << message)\";\n",
      hm::lint::default_rules());
  EXPECT_TRUE(diagnostics.empty());
}

TEST(TokenizerTest, RawStringIsOneToken) {
  const auto tokens =
      hm::lint::tokenize("auto s = R\"delim(a \"quoted\" )body)delim\";");
  const auto string_token =
      std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
        return t.kind == TokenKind::kString;
      });
  ASSERT_NE(string_token, tokens.end());
  EXPECT_NE(string_token->text.find("quoted"), std::string::npos);
  // Nothing after the raw string's real terminator except the semicolon.
  EXPECT_EQ(tokens.back().text, ";");
}

TEST(TokenizerTest, LineNumbersTrackNewlinesInsideComments) {
  // tokenize() keeps comments in the stream (make_context splits them out
  // later); the block comment spans lines 1-2 and `int` starts line 3.
  const auto tokens = hm::lint::tokenize("/* line one\n line two */\nint x;");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens.front().kind, TokenKind::kComment);
  EXPECT_EQ(tokens.front().line, 1u);
  EXPECT_EQ(tokens[1].text, "int");
  EXPECT_EQ(tokens[1].line, 3u);
}

TEST(TokenizerTest, LineCommentContinuesAcrossBackslashNewline) {
  // A backslash-newline splice extends a // comment onto the next physical
  // line (the classic `// comment \` footgun). The spliced run must be ONE
  // comment token — `hidden()` below is commented out, not code.
  const auto tokens =
      hm::lint::tokenize("// note \\\nhidden();\nint x;");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens.front().kind, TokenKind::kComment);
  EXPECT_NE(tokens.front().text.find("hidden"), std::string_view::npos);
  EXPECT_EQ(tokens[1].text, "int");
  EXPECT_EQ(tokens[1].line, 3u);  // the splice consumed line 2
}

TEST(TokenizerTest, CrLfBackslashSpliceAlsoContinuesComment) {
  const auto tokens = hm::lint::tokenize("// a \\\r\nb();\nint x;");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens.front().kind, TokenKind::kComment);
  EXPECT_EQ(tokens[1].text, "int");
}

TEST(TokenizerTest, RawStringContainingQuotesAndDelimiters) {
  // Raw strings terminate only at )delim" — embedded quotes, parens, and
  // a fake `)"`, must not end the literal early.
  const auto tokens = hm::lint::tokenize(
      "const char* s = R\"x(quote \" paren ) close )\" still)x\";\nint y;");
  const auto str = std::find_if(
      tokens.begin(), tokens.end(),
      [](const Token& t) { return t.kind == TokenKind::kString; });
  ASSERT_NE(str, tokens.end());
  EXPECT_NE(str->text.find("still"), std::string_view::npos);
  const auto ident = std::find_if(
      tokens.begin(), tokens.end(),
      [](const Token& t) { return t.text == "y"; });
  EXPECT_NE(ident, tokens.end());
}

TEST(TokenizerTest, OperatorCallSyntaxStaysIntact) {
  // `operator()(int)` — the `operator` keyword followed by `()` then the
  // parameter list. The tokenizer must not fuse or drop the punctuators
  // (the index builder relies on this shape to detect call-operator
  // definitions).
  const auto tokens = hm::lint::tokenize("void F::operator()(int x) {}");
  std::vector<std::string> texts;
  for (const Token& t : tokens) texts.emplace_back(t.text);
  const auto it = std::find(texts.begin(), texts.end(), "operator");
  ASSERT_NE(it, texts.end());
  ASSERT_GE(texts.end() - it, 4);
  EXPECT_EQ(*(it + 1), "(");
  EXPECT_EQ(*(it + 2), ")");
  EXPECT_EQ(*(it + 3), "(");
}

TEST(CompanionTest, HeaderMembersVisibleWhenLintingSource) {
  // The unordered container is declared in the header; the .cpp alone
  // cannot know `entries_`'s type. Companion pairing must carry it over.
  const auto header = hm::lint::make_context(
      "fixture/paired.hpp",
      "#pragma once\n"
      "#include <cstdint>\n"
      "#include <fstream>\n"
      "#include <unordered_map>\n"
      "struct Exporter {\n"
      "  void dump(std::ofstream& out) const;\n"
      "  std::unordered_map<std::uint64_t, double> entries_;\n"
      "};\n");
  const auto diagnostics = hm::lint::analyze_source(
      "fixture/paired.cpp",
      "#include <fstream>\n"
      "#include \"paired.hpp\"\n"
      "void Exporter::dump(std::ofstream& out) const {\n"
      "  for (const auto& [key, value] : entries_) {\n"
      "    out << key << \",\" << value << \"\\n\";\n"
      "  }\n"
      "}\n",
      hm::lint::default_rules(), header);
  EXPECT_EQ(count_rule(diagnostics, "no-unordered-output-iteration"), 1u);
}

TEST(RuleFilterTest, EveryRuleHasUniqueIdAndDescription) {
  const auto rules = hm::lint::default_rules();
  ASSERT_EQ(rules.size(), 9u);
  std::vector<std::string> ids;
  for (const auto& rule : rules) {
    ids.emplace_back(rule->id());
    EXPECT_FALSE(rule->description().empty()) << rule->id();
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

// The gate itself: the ctest self-lint passes or fails on hm_lint's exit
// status alone, so the binary must exit 1 on a finding and 2 on a usage
// error, not merely print diagnostics. (hm_lint_self covers exit 0.)
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One root per case: ctest runs the cases as concurrent processes.
    root_ = ::testing::TempDir() + "lint_cli_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  /// Copies a fixture into the scratch root under a name the walker lints.
  void mount(const std::string& fixture, const std::string& name) const {
    std::ofstream(root_ + "/" + name, std::ios::binary)
        << read_fixture(fixture);
  }

  /// Runs the binary over the scratch root; returns its exit status and
  /// leaves its stdout and stderr in `output_`.
  int run(const std::string& args) {
    const std::string out = root_ + "/stdout.txt";
    const std::string command = std::string(HM_LINT_BIN) + " --root " +
                                root_ + " " + args + " > " + out + " 2>&1";
    const int status = std::system(command.c_str());
    std::ifstream in(out);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    output_ = buffer.str();
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string root_;
  std::string output_;
};

TEST_F(CliTest, FindingExitsOne) {
  mount("no_float_equality_violation.cc", "float_eq.cpp");
  EXPECT_EQ(run("."), 1) << output_;
  EXPECT_NE(output_.find("float_eq.cpp"), std::string::npos) << output_;
  EXPECT_NE(output_.find("[no-float-equality]"), std::string::npos)
      << output_;
}

TEST_F(CliTest, RemovedFlagExitsTwo) {
  mount("no_float_equality_violation.cc", "float_eq.cpp");
  EXPECT_EQ(run("--format json ."), 2) << output_;
  EXPECT_NE(output_.find("unknown option '--format'"), std::string::npos)
      << output_;
}

}  // namespace
