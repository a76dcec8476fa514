// The lint driver, now two passes:
//
//   pass 1 (parallel, per file): tokenize, run the per-file rules, build
//     the semantic index for the file, collect suppressions;
//   pass 2 (serial): merge the per-TU indexes deterministically, run the
//     cross-file index rules (lock-order-cycle, guarded-by,
//     blocking-under-lock, fork-child-safety) over the merged index.
//
// Suppressions are applied after both passes, so a line suppression works
// identically for per-file and cross-file diagnostics, and unused
// suppressions are detected against the union. The report is
// deterministic: files visited in sorted order, diagnostics merged in
// file order and sorted.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hm_lint/diagnostic.hpp"
#include "hm_lint/index_rules.hpp"
#include "hm_lint/rule.hpp"

namespace hm::lint {

struct LintReport {
  std::vector<Diagnostic> diagnostics;  ///< Unsuppressed, sorted.
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;  ///< Diagnostics silenced by allow() comments.
};

/// Analyzes one in-memory source under a display path. This is the
/// unit-test entry point: no filesystem involved, suppressions applied.
[[nodiscard]] std::vector<Diagnostic> analyze_source(
    std::string path, std::string source,
    const std::vector<std::shared_ptr<const Rule>>& rules,
    std::shared_ptr<const FileContext> companion = nullptr);

/// Builds a FileContext (tokenized, comments split out). Every context the
/// linter analyzes is built here; tests use it for companion headers.
[[nodiscard]] std::shared_ptr<const FileContext> make_context(
    std::string path, std::string source,
    std::shared_ptr<const FileContext> companion = nullptr);

/// Analyzes a set of in-memory sources as one project: per-file rules,
/// merged semantic index, cross-file rules, then suppressions over the
/// union. This is the multi-TU unit-test entry point (the two-TU deadlock
/// fixtures drive it).
[[nodiscard]] std::vector<Diagnostic> analyze_project(
    std::vector<std::pair<std::string, std::string>> files,
    const std::vector<std::shared_ptr<const Rule>>& rules,
    const std::vector<std::shared_ptr<const IndexRule>>& index_rules);

/// Walks `paths` (files or directories relative to `root`; build trees and
/// .git are skipped) and lints every *.cpp / *.hpp found, per-file on the
/// global thread pool. Deterministic: the same tree yields the same report
/// regardless of thread count.
[[nodiscard]] LintReport run_lint(
    const std::string& root, const std::vector<std::string>& paths,
    const std::vector<std::shared_ptr<const Rule>>& rules,
    const std::vector<std::shared_ptr<const IndexRule>>& index_rules);

}  // namespace hm::lint
