#include "hm_lint/linter.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/thread_pool.hpp"
#include "hm_lint/index.hpp"
#include "hm_lint/suppression.hpp"

namespace hm::lint {

namespace fs = std::filesystem;

namespace {

/// Directory names that are never descended into: build trees and VCS
/// metadata would otherwise dominate the walk.
[[nodiscard]] bool skip_directory(const std::string& name) {
  return name == ".git" || name.rfind("build", 0) == 0;
}

[[nodiscard]] std::string to_forward_slashes(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

[[nodiscard]] std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Collects the root-relative paths to lint, sorted for determinism.
[[nodiscard]] std::vector<std::string> collect_files(
    const fs::path& root, const std::vector<std::string>& paths,
    std::vector<Diagnostic>& io_errors) {
  std::vector<std::string> files;
  const auto consider = [&](const fs::path& file) {
    std::string rel = to_forward_slashes(
        fs::relative(file, root).generic_string());
    if (!rel.ends_with(".cpp") && !rel.ends_with(".hpp")) return;
    files.push_back(std::move(rel));
  };
  for (const std::string& entry : paths) {
    const fs::path path = root / entry;
    std::error_code ec;
    if (fs::is_regular_file(path, ec)) {
      consider(path);
      continue;
    }
    if (!fs::is_directory(path, ec)) {
      io_errors.push_back({entry, 0, "io-error",
                           "path does not exist under the lint root",
                           Severity::kError});
      continue;
    }
    for (auto it = fs::recursive_directory_iterator(
             path, fs::directory_options::skip_permission_denied, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (it->is_directory(ec)) {
        if (skip_directory(it->path().filename().string())) {
          it.disable_recursion_pending();
        }
        continue;
      }
      if (it->is_regular_file(ec)) consider(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

/// Pass-1 result for one file: pre-suppression diagnostics plus the
/// context (kept alive for suppression application after pass 2) and the
/// file's semantic index.
struct PassOneOutcome {
  std::shared_ptr<const FileContext> context;
  std::vector<Diagnostic> diagnostics;  ///< per-file rules, unsuppressed
  FileIndex index;
};

[[nodiscard]] PassOneOutcome pass_one(
    std::shared_ptr<const FileContext> context,
    const std::vector<std::shared_ptr<const Rule>>& rules) {
  PassOneOutcome outcome;
  for (const auto& rule : rules) {
    rule->check(*context, outcome.diagnostics);
  }
  outcome.index = build_file_index(*context);
  outcome.context = std::move(context);
  return outcome;
}

/// Pass 2 + suppression merge shared by run_lint and analyze_project:
/// runs the index rules over the merged index, distributes every
/// diagnostic to its file, applies that file's suppressions (so a line
/// suppression covers cross-file findings too, and unused suppressions
/// are judged against the union), and returns the sorted total.
[[nodiscard]] std::vector<Diagnostic> finish_passes(
    std::vector<PassOneOutcome>& outcomes,
    const std::vector<std::shared_ptr<const IndexRule>>& index_rules,
    std::size_t& suppressed_total) {
  std::vector<FileIndex> indexes;
  indexes.reserve(outcomes.size());
  for (PassOneOutcome& o : outcomes) indexes.push_back(std::move(o.index));
  const ProjectIndex project = ProjectIndex::merge(std::move(indexes));
  std::vector<Diagnostic> index_diagnostics;
  for (const auto& rule : index_rules) {
    rule->check(project, index_diagnostics);
  }

  std::vector<Diagnostic> all;
  for (PassOneOutcome& outcome : outcomes) {
    std::vector<Diagnostic> mine = std::move(outcome.diagnostics);
    for (const Diagnostic& d : index_diagnostics) {
      if (d.file == outcome.context->path) mine.push_back(d);
    }
    suppressed_total += apply_suppressions(
        *outcome.context, collect_suppressions(*outcome.context), mine);
    std::sort(mine.begin(), mine.end());
    std::move(mine.begin(), mine.end(), std::back_inserter(all));
  }
  // Cross-file diagnostics pointing at files outside the walked set (never
  // the case today, but cheap to keep correct).
  for (const Diagnostic& d : index_diagnostics) {
    bool owned = false;
    for (const PassOneOutcome& outcome : outcomes) {
      owned = owned || outcome.context->path == d.file;
    }
    if (!owned) all.push_back(d);
  }
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace

bool LintReport::clean() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return false;
  }
  return true;
}

std::shared_ptr<const FileContext> make_context(
    std::string path, std::string source,
    std::shared_ptr<const FileContext> companion) {
  auto context = std::make_shared<FileContext>();
  context->path = std::move(path);
  context->source = std::move(source);
  for (Token& token : tokenize(context->source)) {
    (token.kind == TokenKind::kComment ? context->comments : context->tokens)
        .push_back(token);
  }
  context->companion = std::move(companion);
  return context;
}

std::vector<Diagnostic> analyze_source(
    std::string path, std::string source,
    const std::vector<std::shared_ptr<const Rule>>& rules,
    std::shared_ptr<const FileContext> companion) {
  const auto context =
      make_context(std::move(path), std::move(source), std::move(companion));
  std::vector<Diagnostic> diagnostics;
  for (const auto& rule : rules) rule->check(*context, diagnostics);
  apply_suppressions(*context, collect_suppressions(*context), diagnostics);
  std::sort(diagnostics.begin(), diagnostics.end());
  return diagnostics;
}

std::vector<Diagnostic> analyze_project(
    std::vector<std::pair<std::string, std::string>> files,
    const std::vector<std::shared_ptr<const Rule>>& rules,
    const std::vector<std::shared_ptr<const IndexRule>>& index_rules) {
  std::vector<PassOneOutcome> outcomes;
  outcomes.reserve(files.size());
  for (auto& [path, source] : files) {
    outcomes.push_back(
        pass_one(make_context(std::move(path), std::move(source)), rules));
  }
  std::size_t suppressed = 0;
  return finish_passes(outcomes, index_rules, suppressed);
}

LintReport run_lint(
    const std::string& root, const std::vector<std::string>& paths,
    const std::vector<std::shared_ptr<const Rule>>& rules,
    const std::vector<std::shared_ptr<const IndexRule>>& index_rules) {
  LintReport report;
  const fs::path root_path(root);
  const std::vector<std::string> files =
      collect_files(root_path, paths, report.diagnostics);
  report.files_scanned = files.size();

  std::vector<PassOneOutcome> outcomes(files.size());
  const auto analyze_one = [&](std::size_t i) {
    std::optional<std::string> source = read_file(root_path / files[i]);
    if (!source) {
      outcomes[i].context = make_context(files[i], "");
      outcomes[i].diagnostics.push_back(
          {files[i], 0, "io-error", "cannot read file", Severity::kError});
      return;
    }
    // Pair a .cpp with its sibling header so member declarations are
    // visible to cross-TU rules (unordered-container members).
    std::shared_ptr<const FileContext> companion;
    if (files[i].ends_with(".cpp")) {
      const std::string header_rel =
          files[i].substr(0, files[i].size() - 4) + ".hpp";
      if (std::optional<std::string> header =
              read_file(root_path / header_rel)) {
        companion = make_context(header_rel, std::move(*header));
      }
    }
    outcomes[i] = pass_one(
        make_context(files[i], std::move(*source), std::move(companion)),
        rules);
  };
  hm::common::ThreadPool::global().parallel_for(0, files.size(), analyze_one);

  std::vector<Diagnostic> merged =
      finish_passes(outcomes, index_rules, report.suppressed);
  std::move(merged.begin(), merged.end(),
            std::back_inserter(report.diagnostics));
  std::sort(report.diagnostics.begin(), report.diagnostics.end());
  return report;
}

}  // namespace hm::lint
