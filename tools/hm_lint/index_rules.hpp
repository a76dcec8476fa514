#pragma once

/// \file
/// Pass-2 rules: whole-program checks over the merged semantic index.
/// Unlike per-file `Rule`s these see every translation unit at once, so
/// they can follow the call graph across files. Diagnostics are attached
/// to the file/line of the offending site, which keeps the existing
/// line-suppression mechanism working unchanged.

#include <memory>
#include <string_view>
#include <vector>

#include "hm_lint/diagnostic.hpp"
#include "hm_lint/index.hpp"

namespace hm::lint {

class IndexRule {
 public:
  virtual ~IndexRule() = default;

  [[nodiscard]] virtual std::string_view id() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;

  /// Appends findings over the whole project to `out`. Must be const and
  /// re-entrant (one instance shared across runs); any memoization is
  /// local to the call.
  virtual void check(const ProjectIndex& index,
                     std::vector<Diagnostic>& out) const = 0;
};

/// The cross-file rule set: lock-order-cycle, guarded-by,
/// blocking-under-lock, fork-child-safety.
[[nodiscard]] std::vector<std::shared_ptr<const IndexRule>>
default_index_rules();

}  // namespace hm::lint
