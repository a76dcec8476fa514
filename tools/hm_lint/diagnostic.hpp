// Diagnostic types shared by the rule framework and the CLI.
#pragma once

#include <cstddef>
#include <string>
#include <tuple>

namespace hm::lint {

/// One finding, located by file and 1-based line. Every finding is an
/// error: any unsuppressed one makes the run exit nonzero.
struct Diagnostic {
  std::string file;     ///< Path relative to the lint root.
  std::size_t line = 0;
  std::string rule_id;  ///< E.g. "no-raw-thread"; used by suppressions.
  std::string message;

  [[nodiscard]] friend bool operator<(const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.file, a.line, a.rule_id, a.message) <
           std::tie(b.file, b.line, b.rule_id, b.message);
  }
};

}  // namespace hm::lint
