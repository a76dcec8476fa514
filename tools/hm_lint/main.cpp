// hm_lint CLI: the project-native static-analysis pass.
//
//   hm_lint [--root DIR] [--include GLOB]... [--exclude GLOB]...
//           [--rule ID]... [--serial] [--list-rules] [--quiet]
//           [--format text|json|sarif] [--baseline FILE]
//           [--update-baseline] [--index-dir DIR] [--no-cross-file]
//           [PATH]...
//
// PATHs (files or directories, relative to --root, default ".") are walked;
// every *.cpp / *.hpp under them is tokenized and checked by the per-file
// rule set, then the merged semantic index is checked by the cross-file
// rules. With --baseline, findings recorded in the baseline file are
// filtered out and only *new* findings fail the run; --update-baseline
// rewrites the baseline to the current findings. Exit status: 0 when clean
// (after baseline filtering), 1 when any unsuppressed, unbaselined
// error-severity diagnostic survives, 2 on usage errors.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "hm_lint/baseline.hpp"
#include "hm_lint/index_rules.hpp"
#include "hm_lint/linter.hpp"
#include "hm_lint/rule.hpp"

namespace {

void print_usage() {
  std::fprintf(
      stderr,
      "usage: hm_lint [--root DIR] [--include GLOB]... [--exclude GLOB]... "
      "[--rule ID]... [--serial] [--list-rules] [--quiet] "
      "[--format text|json|sarif] [--baseline FILE] [--update-baseline] "
      "[--index-dir DIR] [--no-cross-file] [PATH]...\n");
}

[[nodiscard]] std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

[[nodiscard]] std::string to_json(const hm::lint::LintReport& report,
                                  std::size_t baseline_filtered) {
  hm::common::JsonWriter json;
  json.begin_object().key("files_scanned").integer(report.files_scanned);
  json.key("suppressed").integer(report.suppressed);
  json.key("baseline_filtered").integer(baseline_filtered);
  json.key("diagnostics").begin_array();
  for (const auto& d : report.diagnostics) {
    json.begin_object().key("file").string(d.file);
    json.key("line").integer(d.line).key("rule").string(d.rule_id);
    json.key("severity").string(hm::lint::to_string(d.severity));
    json.key("message").string(d.message).end_object();
  }
  json.end_array().end_object();
  return json.str();
}

/// SARIF 2.1.0 — the minimum GitHub code scanning ingests: one run, one
/// driver, results with ruleId + message + physical location.
[[nodiscard]] std::string to_sarif(const hm::lint::LintReport& report) {
  hm::common::JsonWriter json;
  json.begin_object().key("$schema").string(
      "https://json.schemastore.org/sarif-2.1.0.json");
  json.key("version").string("2.1.0").key("runs").begin_array();
  json.begin_object().key("tool").begin_object().key("driver").begin_object();
  json.key("name").string("hm_lint").key("informationUri").string("DESIGN.md");
  json.end_object().end_object().key("results").begin_array();
  for (const auto& d : report.diagnostics) {
    json.begin_object().key("ruleId").string(d.rule_id);
    json.key("level").string(
        d.severity == hm::lint::Severity::kError ? "error" : "warning");
    json.key("message").begin_object().key("text").string(d.message);
    json.end_object().key("locations").begin_array().begin_object();
    json.key("physicalLocation").begin_object().key("artifactLocation");
    json.begin_object().key("uri").string(d.file).end_object();
    json.key("region").begin_object().key("startLine");
    json.integer(d.line == 0 ? 1 : d.line).end_object();
    json.end_object().end_object().end_array().end_object();
  }
  json.end_array().end_object().end_array().end_object();
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  hm::lint::LintOptions options;
  options.paths.clear();
  bool quiet = false;
  bool serial = false;
  bool list_rules = false;
  bool update_baseline = false;
  std::string format = "text";
  std::string baseline_path;

  const auto rules = hm::lint::default_rules();
  const auto index_rules = hm::lint::default_index_rules();

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hm_lint: %s needs a value\n", argv[i]);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const char* v = value();
      if (v == nullptr) return 2;
      options.root = v;
    } else if (arg == "--include") {
      const char* v = value();
      if (v == nullptr) return 2;
      options.include_globs.push_back(v);
    } else if (arg == "--exclude") {
      const char* v = value();
      if (v == nullptr) return 2;
      options.exclude_globs.push_back(v);
    } else if (arg == "--rule") {
      const char* v = value();
      if (v == nullptr) return 2;
      options.rule_filter.push_back(v);
    } else if (arg == "--format") {
      const char* v = value();
      if (v == nullptr) return 2;
      format = v;
      if (format != "text" && format != "json" && format != "sarif") {
        std::fprintf(stderr, "hm_lint: unknown --format '%s'\n", v);
        return 2;
      }
    } else if (arg == "--baseline") {
      const char* v = value();
      if (v == nullptr) return 2;
      baseline_path = v;
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--index-dir") {
      const char* v = value();
      if (v == nullptr) return 2;
      options.index_dir = v;
    } else if (arg == "--no-cross-file") {
      options.cross_file = false;
    } else if (arg == "--serial") {
      serial = true;
    } else if (arg == "--quiet") {
      quiet = true;
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
      options.paths.emplace_back(arg);
    }
  }
  if (options.paths.empty()) options.paths.emplace_back(".");
  if (update_baseline && baseline_path.empty()) {
    std::fprintf(stderr, "hm_lint: --update-baseline needs --baseline FILE\n");
    return 2;
  }

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

  hm::common::ThreadPool* pool =
      serial ? nullptr : &hm::common::ThreadPool::global();
  hm::lint::LintReport report =
      hm::lint::run_lint(options, rules, pool, index_rules);

  if (update_baseline) {
    const std::string body =
        hm::lint::serialize_baseline(report.diagnostics);
    if (!hm::common::write_file_atomic(baseline_path, body)) {
      std::fprintf(stderr, "hm_lint: cannot write baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    if (!quiet) {
      std::printf("hm_lint: baseline '%s' updated with %zu findings\n",
                  baseline_path.c_str(), report.diagnostics.size());
    }
    return 0;
  }

  std::size_t baseline_filtered = 0;
  std::size_t baseline_stale = 0;
  if (!baseline_path.empty()) {
    const std::optional<std::string> text = read_file(baseline_path);
    if (!text) {
      std::fprintf(stderr, "hm_lint: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    std::optional<hm::lint::Baseline> baseline =
        hm::lint::parse_baseline(*text);
    if (!baseline) {
      std::fprintf(stderr, "hm_lint: malformed baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    baseline_filtered =
        hm::lint::apply_baseline(*baseline, report.diagnostics);
    baseline_stale = baseline->size();
  }

  if (format == "json") {
    std::fputs(to_json(report, baseline_filtered).c_str(), stdout);
  } else if (format == "sarif") {
    std::fputs(to_sarif(report).c_str(), stdout);
  } else {
    for (const auto& d : report.diagnostics) {
      std::printf("%s:%zu: %s: [%s] %s\n", d.file.c_str(), d.line,
                  hm::lint::to_string(d.severity), d.rule_id.c_str(),
                  d.message.c_str());
    }
    if (!quiet) {
      std::printf(
          "hm_lint: %zu files, %zu diagnostics (%zu suppressed, "
          "%zu baselined)\n",
          report.files_scanned, report.diagnostics.size(), report.suppressed,
          baseline_filtered);
      if (baseline_stale > 0) {
        std::printf(
            "hm_lint: %zu stale baseline entr%s matched nothing — run "
            "scripts/lint.sh --update-baseline to shrink the baseline\n",
            baseline_stale, baseline_stale == 1 ? "y" : "ies");
      }
    }
  }
  return report.clean() ? 0 : 1;
}
