// The rule framework: everything a rule sees about one file, and the
// interface a rule implements. Rules are stateless; one instance is shared
// across files analyzed in parallel, so check() must be const and
// re-entrant.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hm_lint/diagnostic.hpp"
#include "hm_lint/tokenizer.hpp"

namespace hm::lint {

/// Everything a rule may inspect about one file. Token views alias
/// `source`; the context owns both.
struct FileContext {
  std::string path;    ///< Relative to the lint root, '/'-separated.
  std::string source;  ///< Full file contents.
  std::vector<Token> tokens;    ///< Code tokens (comments stripped).
  std::vector<Token> comments;  ///< Comment tokens only, in order.

  /// For a .cpp file whose sibling header exists, the tokenized header —
  /// rules that need declarations visible across the .hpp/.cpp pair (the
  /// unordered-iteration rule resolving member containers) read it. Null
  /// otherwise. The companion is analyzed in its own right elsewhere;
  /// rules must not emit diagnostics against it from here.
  std::shared_ptr<const FileContext> companion;

  [[nodiscard]] bool is_header() const {
    return path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
  }

  /// Test trees get some latitude (e.g. exact float comparisons against
  /// known-injected values are the point of a test).
  [[nodiscard]] bool is_test_file() const {
    return path.rfind("tests/", 0) == 0 || path.find("/tests/") != std::string::npos ||
           path.find("_test.cpp") != std::string::npos;
  }
};

class Rule {
 public:
  virtual ~Rule() = default;

  [[nodiscard]] virtual std::string_view id() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;

  /// Appends findings for `file` to `out`. Must not touch the filesystem:
  /// everything a rule needs is in the context, which keeps the pass
  /// trivially parallelizable and testable from in-memory snippets.
  virtual void check(const FileContext& file,
                     std::vector<Diagnostic>& out) const = 0;

 protected:
  /// Convenience for implementations.
  void report(const FileContext& file, std::size_t line, std::string message,
              std::vector<Diagnostic>& out) const {
    out.push_back({file.path, line, std::string(id()), std::move(message)});
  }
};

/// The rule set encoding this repository's invariants (see DESIGN.md
/// "Static analysis & code discipline" for the catalogue).
[[nodiscard]] std::vector<std::shared_ptr<const Rule>> default_rules();

}  // namespace hm::lint
