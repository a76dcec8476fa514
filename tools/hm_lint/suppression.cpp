#include "hm_lint/suppression.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <string_view>
#include <utility>

namespace hm::lint {

namespace {

constexpr std::string_view kMarker = "hm-lint:";

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses `allow(rule-a, rule-b)` out of one comment's text after the
/// marker; returns the rule ids (empty if malformed).
[[nodiscard]] std::vector<std::string> parse_allow_list(std::string_view rest) {
  rest = trim(rest);
  constexpr std::string_view kAllow = "allow(";
  if (rest.rfind(kAllow, 0) != 0) return {};
  const std::size_t close = rest.find(')', kAllow.size());
  if (close == std::string_view::npos) return {};
  std::string_view inner = rest.substr(kAllow.size(), close - kAllow.size());
  std::vector<std::string> ids;
  while (!inner.empty()) {
    const std::size_t comma = inner.find(',');
    const std::string_view id =
        trim(comma == std::string_view::npos ? inner : inner.substr(0, comma));
    if (!id.empty()) ids.emplace_back(id);
    if (comma == std::string_view::npos) break;
    inner.remove_prefix(comma + 1);
  }
  return ids;
}

}  // namespace

std::vector<Suppression> collect_suppressions(const FileContext& file) {
  // Lines that hold at least one code token: a suppression comment sharing
  // a line with code targets that line, otherwise the next one.
  std::set<std::size_t> code_lines;
  for (const Token& t : file.tokens) code_lines.insert(t.line);

  std::vector<Suppression> suppressions;
  for (const Token& comment : file.comments) {
    const std::size_t marker = comment.text.find(kMarker);
    if (marker == std::string_view::npos) continue;
    // Only a comment that *starts* with the marker is a suppression —
    // prose that merely mentions the syntax (docs, this file) must not
    // register. Before the marker only comment delimiters may appear.
    const std::string_view prefix = comment.text.substr(0, marker);
    if (prefix.find_first_not_of("/* \t!") != std::string_view::npos) continue;
    const std::vector<std::string> ids =
        parse_allow_list(comment.text.substr(marker + kMarker.size()));
    const std::size_t target = code_lines.count(comment.line) > 0
                                   ? comment.line
                                   : comment.line + 1;
    for (const std::string& id : ids) {
      suppressions.push_back({comment.line, target, id});
    }
  }
  return suppressions;
}

std::size_t apply_suppressions(const FileContext& file,
                               std::vector<Suppression> suppressions,
                               std::vector<Diagnostic>& diagnostics) {
  std::vector<bool> used(suppressions.size(), false);
  std::size_t removed = 0;
  auto end = std::remove_if(
      diagnostics.begin(), diagnostics.end(), [&](const Diagnostic& d) {
        bool suppressed = false;
        for (std::size_t s = 0; s < suppressions.size(); ++s) {
          if (suppressions[s].target_line == d.line &&
              suppressions[s].rule_id == d.rule_id) {
            used[s] = true;
            suppressed = true;
          }
        }
        removed += suppressed ? 1 : 0;
        return suppressed;
      });
  diagnostics.erase(end, diagnostics.end());
  for (std::size_t s = 0; s < suppressions.size(); ++s) {
    if (used[s]) continue;
    diagnostics.push_back(
        {file.path, suppressions[s].comment_line, "unused-suppression",
         "suppression for '" + suppressions[s].rule_id +
             "' matches no diagnostic; delete it (stale allowlists hide "
             "real regressions)"});
  }
  return removed;
}

}  // namespace hm::lint
