// hm_lint CLI: the project-native static-analysis pass.
//
//   hm_lint [--root DIR] [--list-rules] [PATH]...
//
// PATHs (files or directories, relative to --root, default ".") are walked;
// every *.cpp / *.hpp under them is tokenized and checked by the per-file
// rule set, then the merged semantic index is checked by the cross-file
// rules. Exit status: 0 when clean, 1 when any unsuppressed error-severity
// diagnostic survives, 2 on usage errors.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "hm_lint/index_rules.hpp"
#include "hm_lint/linter.hpp"
#include "hm_lint/rule.hpp"

namespace {

void print_usage() {
  std::fprintf(stderr, "usage: hm_lint [--root DIR] [--list-rules] [PATH]...\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> paths;
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hm_lint: --root needs a value\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "hm_lint: unknown option '%s'\n", argv[i]);
      print_usage();
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) paths.emplace_back(".");

  const auto rules = hm::lint::default_rules();
  const auto index_rules = hm::lint::default_index_rules();
  if (list_rules) {
    for (const auto& rule : rules) {
      std::printf("%-32s %s\n", std::string(rule->id()).c_str(),
                  std::string(rule->description()).c_str());
    }
    for (const auto& rule : index_rules) {
      std::printf("%-32s %s (cross-file)\n", std::string(rule->id()).c_str(),
                  std::string(rule->description()).c_str());
    }
    return 0;
  }

  const hm::lint::LintReport report =
      hm::lint::run_lint(root, paths, rules, index_rules);
  for (const auto& d : report.diagnostics) {
    std::printf("%s:%zu: %s: [%s] %s\n", d.file.c_str(), d.line,
                hm::lint::to_string(d.severity), d.rule_id.c_str(),
                d.message.c_str());
  }
  std::printf("hm_lint: %zu files, %zu diagnostics (%zu suppressed)\n",
              report.files_scanned, report.diagnostics.size(),
              report.suppressed);
  return report.clean() ? 0 : 1;
}
