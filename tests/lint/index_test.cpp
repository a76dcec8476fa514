// Tests for hm_lint's pass-1 semantic index and the four cross-file rules
// (lock-order-cycle, guarded-by, blocking-under-lock, fork-child-safety):
// firing/quiet fixture pairs per rule, the two-TU deadlock fixture, and
// suppression of cross-file findings at their anchor line.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hm_lint/index_rules.hpp"
#include "hm_lint/linter.hpp"
#include "hm_lint/rule.hpp"

namespace {

using hm::lint::Diagnostic;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(HM_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs the full two-pass analysis over named fixtures, each mounted at a
/// synthetic non-test display path (so test-file exemptions do not apply).
std::vector<Diagnostic> analyze_fixtures(
    const std::vector<std::pair<std::string, std::string>>& named) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& [fixture, display] : named) {
    files.emplace_back(display, read_fixture(fixture));
  }
  return hm::lint::analyze_project(std::move(files),
                                   hm::lint::default_rules(),
                                   hm::lint::default_index_rules());
}

std::vector<const Diagnostic*> of_rule(const std::vector<Diagnostic>& all,
                                       const std::string& rule_id) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : all) {
    if (d.rule_id == rule_id) out.push_back(&d);
  }
  return out;
}

// --- lock-order-cycle --------------------------------------------------

TEST(LockOrderCycleTest, TwoTuCycleReportsBothAcquisitionPaths) {
  const auto diagnostics = analyze_fixtures(
      {{"lock_order_cycle_a.cc", "fixture/ledger_transfer.cpp"},
       {"lock_order_cycle_b.cc", "fixture/ledger_reconcile.cpp"}});
  const auto cycle = of_rule(diagnostics, "lock-order-cycle");
  ASSERT_EQ(cycle.size(), 1u) << "expected exactly one cycle report";
  const std::string& message = cycle[0]->message;
  // The report must name both acquisition paths, with their files: the
  // transfer path (ledger -> audit) and the reconcile path (audit ->
  // ledger). A report naming only one side is useless for fixing.
  EXPECT_NE(message.find("path 1"), std::string::npos) << message;
  EXPECT_NE(message.find("path 2"), std::string::npos) << message;
  EXPECT_NE(message.find("ledger_transfer.cpp"), std::string::npos) << message;
  EXPECT_NE(message.find("ledger_reconcile.cpp"), std::string::npos)
      << message;
  EXPECT_NE(message.find("ledger_mutex_"), std::string::npos) << message;
  EXPECT_NE(message.find("audit_mutex_"), std::string::npos) << message;
}

TEST(LockOrderCycleTest, ConsistentOrderAcrossTusStaysQuiet) {
  const auto diagnostics = analyze_fixtures(
      {{"lock_order_cycle_clean_a.cc", "fixture/ledger_transfer.cpp"},
       {"lock_order_cycle_clean_b.cc", "fixture/ledger_reconcile.cpp"}});
  EXPECT_TRUE(of_rule(diagnostics, "lock-order-cycle").empty());
}

TEST(LockOrderCycleTest, CycleAnchoredInTestFileIsExempt) {
  const auto diagnostics = analyze_fixtures(
      {{"lock_order_cycle_a.cc", "tests/fixture/ledger_transfer_test.cpp"},
       {"lock_order_cycle_b.cc", "tests/fixture/ledger_reconcile_test.cpp"}});
  EXPECT_TRUE(of_rule(diagnostics, "lock-order-cycle").empty());
}

// --- guarded-by --------------------------------------------------------

TEST(GuardedByTest, UnguardedTouchFires) {
  const auto diagnostics = analyze_fixtures(
      {{"guarded_by_violation.cc", "fixture/tally.cpp"}});
  const auto hits = of_rule(diagnostics, "guarded-by");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0]->message.find("count_"), std::string::npos);
  EXPECT_NE(hits[0]->message.find("unsafe_bump"), std::string::npos);
}

TEST(GuardedByTest, DirectAndCallerHeldTouchesStayQuiet) {
  const auto diagnostics =
      analyze_fixtures({{"guarded_by_clean.cc", "fixture/tally.cpp"}});
  EXPECT_TRUE(of_rule(diagnostics, "guarded-by").empty());
}

// --- blocking-under-lock -----------------------------------------------

TEST(BlockingUnderLockTest, DirectAndTransitiveBlockingFires) {
  const auto diagnostics = analyze_fixtures(
      {{"blocking_under_lock_violation.cc", "fixture/store.cpp"}});
  const auto hits = of_rule(diagnostics, "blocking-under-lock");
  ASSERT_EQ(hits.size(), 2u);
  // One direct (::fsync in flush), one transitive (fwrite via write_all).
  const bool direct = std::any_of(
      hits.begin(), hits.end(), [](const Diagnostic* d) {
        return d->message.find("fsync") != std::string::npos;
      });
  const bool transitive = std::any_of(
      hits.begin(), hits.end(), [](const Diagnostic* d) {
        return d->message.find("write_all") != std::string::npos &&
               d->message.find("fwrite") != std::string::npos;
      });
  EXPECT_TRUE(direct);
  EXPECT_TRUE(transitive);
}

TEST(BlockingUnderLockTest, IoStagedAfterUnlockStaysQuiet) {
  const auto diagnostics = analyze_fixtures(
      {{"blocking_under_lock_clean.cc", "fixture/store.cpp"}});
  EXPECT_TRUE(of_rule(diagnostics, "blocking-under-lock").empty());
}

// --- fork-child-safety -------------------------------------------------

TEST(ForkChildSafetyTest, UnsafeChildCallsAndFallThroughFire) {
  const auto diagnostics = analyze_fixtures(
      {{"fork_child_safety_violation.cc", "fixture/spawn.cpp"}});
  const auto hits = of_rule(diagnostics, "fork-child-safety");
  ASSERT_GE(hits.size(), 3u);
  const auto any_with = [&](const char* needle) {
    return std::any_of(hits.begin(), hits.end(), [&](const Diagnostic* d) {
      return d->message.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(any_with("format_banner"));  // allocation through a callee
  EXPECT_TRUE(any_with("printf"));         // not on the allowlist
  EXPECT_TRUE(any_with("never reaches"));  // fall-through into parent code
}

TEST(ForkChildSafetyTest, AllowlistedCallsAndTrustedHandoffStayQuiet) {
  const auto diagnostics = analyze_fixtures(
      {{"fork_child_safety_clean.cc", "fixture/spawn.cpp"}});
  EXPECT_TRUE(of_rule(diagnostics, "fork-child-safety").empty());
}

TEST(ForkChildSafetyTest, SignalHandlerReachingAllocationFires) {
  const auto diagnostics = analyze_fixtures(
      {{"signal_handler_violation.cc", "fixture/handler.cpp"}});
  const auto hits = of_rule(diagnostics, "fork-child-safety");
  ASSERT_GE(hits.size(), 1u);
  EXPECT_NE(hits[0]->message.find("describe"), std::string::npos);
}

TEST(ForkChildSafetyTest, SigAtomicFlagHandlerStaysQuiet) {
  const auto diagnostics = analyze_fixtures(
      {{"signal_handler_clean.cc", "fixture/handler.cpp"}});
  EXPECT_TRUE(of_rule(diagnostics, "fork-child-safety").empty());
}

// --- suppressions over cross-file findings -----------------------------

TEST(CrossFileSuppressionTest, AllowCommentSilencesIndexRuleAtAnchor) {
  // Same content as the guarded-by violation, with the allow() comment on
  // the touching line: pass-2 findings must flow through the same per-file
  // suppression machinery as pass-1 findings.
  const std::string source =
      "#include <mutex>\n"
      "namespace fix {\n"
      "class Tally {\n"
      " public:\n"
      "  void unsafe_bump();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  int count_ = 0;  // hm-guarded-by(mutex_)\n"
      "};\n"
      "void Tally::unsafe_bump() {\n"
      "  count_ += 1;  // hm-lint: allow(guarded-by) racy-read tolerated: monotonic hint\n"
      "}\n"
      "}  // namespace fix\n";
  const auto diagnostics = hm::lint::analyze_project(
      {{"fixture/tally.cpp", source}}, hm::lint::default_rules(),
      hm::lint::default_index_rules());
  EXPECT_TRUE(of_rule(diagnostics, "guarded-by").empty());
  // And the suppression is counted as used — no unused-suppression error.
  EXPECT_TRUE(of_rule(diagnostics, "unused-suppression").empty());
}

}  // namespace
