// The per-file hm-lint rule set: each rule encodes an invariant the code
// relies on (single parallel substrate, order-stable exports, results that
// must not be dropped, no accidental float equality, headers that include
// what they use, crash-atomic exports, one timing substrate, hardened
// syscalls, one logging substrate). Rules work on the token stream, so
// literals and comments can never trigger them.
#include "hm_lint/rule.hpp"

#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

namespace hm::lint {

namespace {

[[nodiscard]] bool path_contains(const FileContext& file, std::string_view part) {
  return file.path.find(part) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Rule 1: no-raw-thread
// ---------------------------------------------------------------------------

/// The work-stealing ThreadPool is the single parallel substrate; a stray
/// std::thread or std::async bypasses its determinism guarantees (chunk
/// boundaries, helping joins) and its TSan coverage.
class NoRawThreadRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "no-raw-thread"; }
  [[nodiscard]] std::string_view description() const override {
    return "std::thread/std::jthread/std::async outside the ThreadPool "
           "substrate (src/common/thread_pool.*)";
  }

  void check(const FileContext& file, std::vector<Diagnostic>& out) const override {
    if (path_contains(file, "src/common/thread_pool.")) return;
    const auto& tokens = file.tokens;
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (!tokens[i].is_identifier("std") || !tokens[i + 1].is("::")) continue;
      const Token& name = tokens[i + 2];
      if (name.is_identifier("thread") || name.is_identifier("jthread") ||
          name.is_identifier("async")) {
        report(file, tokens[i].line,
               "raw std::" + std::string(name.text) +
                   " outside src/common/thread_pool.*; use "
                   "hm::common::ThreadPool so nested parallelism, "
                   "determinism, and TSan coverage hold",
               out);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule 2: no-unordered-output-iteration
// ---------------------------------------------------------------------------

/// unordered_map/unordered_set iteration order is unspecified and varies
/// across standard libraries and (with pointer-ish keys) across runs.
/// Feeding it into a CSV/report export makes the artifact
/// non-reproducible. Fires only in files that actually write such output.
class NoUnorderedOutputIterationRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "no-unordered-output-iteration";
  }
  [[nodiscard]] std::string_view description() const override {
    return "range-for over an unordered container in a file that writes "
           "CSV/report output; iterate a sorted view instead";
  }

  void check(const FileContext& file, std::vector<Diagnostic>& out) const override {
    if (!writes_output(file.tokens)) return;

    std::set<std::string, std::less<>> names;  // Variables of unordered type.
    std::set<std::string, std::less<>> types = {"unordered_map",
                                                "unordered_set"};
    collect_aliases(file.tokens, types);
    if (file.companion) collect_aliases(file.companion->tokens, types);
    collect_variables(file.tokens, types, names);
    if (file.companion) collect_variables(file.companion->tokens, types, names);

    const auto& tokens = file.tokens;
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (!tokens[i].is_identifier("for") || !tokens[i + 1].is("(")) continue;
      // Find the `:` of a range-for at parenthesis depth 1 and the matching
      // close paren.
      std::size_t depth = 1;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t k = i + 2; k < tokens.size() && depth > 0; ++k) {
        if (tokens[k].is("(")) ++depth;
        if (tokens[k].is(")")) {
          --depth;
          if (depth == 0) close = k;
        }
        if (depth == 1 && colon == 0 && tokens[k].is(":")) colon = k;
      }
      if (colon == 0 || close == 0) continue;  // Classic for loop.
      for (std::size_t k = colon + 1; k < close; ++k) {
        if (tokens[k].kind != TokenKind::kIdentifier) continue;
        if (names.count(tokens[k].text) > 0 || types.count(tokens[k].text) > 0) {
          report(file, tokens[i].line,
                 "range-for over unordered container '" +
                     std::string(tokens[k].text) +
                     "' in a file that writes CSV/report output; iteration "
                     "order is unspecified — go through a sorted key view",
                 out);
          break;
        }
      }
    }
  }

 private:
  [[nodiscard]] static bool writes_output(const std::vector<Token>& tokens) {
    static const std::set<std::string, std::less<>> kMarkers = {
        "to_csv",            "write_csv_file", "samples_to_csv", "front_to_csv",
        "quarantine_to_csv", "ofstream",       "fopen",          "fprintf"};
    for (const Token& t : tokens) {
      if (t.kind == TokenKind::kIdentifier && kMarkers.count(t.text) > 0) {
        return true;
      }
    }
    return false;
  }

  /// Adds `using Alias = ... unordered_map<...>;` alias names to `types`.
  static void collect_aliases(const std::vector<Token>& tokens,
                              std::set<std::string, std::less<>>& types) {
    for (std::size_t i = 0; i + 3 < tokens.size(); ++i) {
      if (!tokens[i].is_identifier("using")) continue;
      if (tokens[i + 1].kind != TokenKind::kIdentifier || !tokens[i + 2].is("=")) {
        continue;
      }
      for (std::size_t k = i + 3; k < tokens.size() && !tokens[k].is(";"); ++k) {
        if (tokens[k].is_identifier("unordered_map") ||
            tokens[k].is_identifier("unordered_set") ||
            (tokens[k].kind == TokenKind::kIdentifier &&
             types.count(tokens[k].text) > 0)) {
          types.insert(std::string(tokens[i + 1].text));
          break;
        }
      }
    }
  }

  /// Adds names of variables/members declared with any type in `types`.
  static void collect_variables(const std::vector<Token>& tokens,
                                const std::set<std::string, std::less<>>& types,
                                std::set<std::string, std::less<>>& names) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].kind != TokenKind::kIdentifier ||
          types.count(tokens[i].text) == 0) {
        continue;
      }
      std::size_t k = i + 1;
      if (k < tokens.size() && tokens[k].is("<")) {
        std::size_t depth = 1;
        for (++k; k < tokens.size() && depth > 0; ++k) {
          if (tokens[k].is("<")) ++depth;
          if (tokens[k].is(">")) --depth;
        }
      }
      while (k < tokens.size() &&
             (tokens[k].is("&") || tokens[k].is("*") ||
              tokens[k].is_identifier("const"))) {
        ++k;
      }
      if (k + 1 >= tokens.size() || tokens[k].kind != TokenKind::kIdentifier) {
        continue;
      }
      const Token& next = tokens[k + 1];
      if (next.is(";") || next.is("=") || next.is("{") || next.is(",") ||
          next.is(")")) {
        names.insert(std::string(tokens[k].text));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule 3: nodiscard-result
// ---------------------------------------------------------------------------

/// The fault-tolerance layer only works if nobody silently drops a typed
/// result: every value-returning function in the Result/Outcome/Error
/// families must be [[nodiscard]] so the compiler flags dropped results.
class NodiscardResultRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "nodiscard-result";
  }
  [[nodiscard]] std::string_view description() const override {
    return "function returning a Result/Outcome/Error-family type by value "
           "must be [[nodiscard]]";
  }

  void check(const FileContext& file, std::vector<Diagnostic>& out) const override {
    // Declarations live in headers, and a C++ attribute belongs on the
    // first declaration — flagging out-of-line .cpp definitions whose
    // header declaration already carries [[nodiscard]] would be noise.
    if (!file.is_header()) return;
    const auto& tokens = file.tokens;
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      const Token& type = tokens[i];
      if (type.kind != TokenKind::kIdentifier || !family_type(type.text)) {
        continue;
      }
      // Not a return type if it's a template argument, a qualified member
      // access (Foo::kEnum), or part of `enum class X`.
      if (i > 0 && (tokens[i - 1].is("<") || tokens[i - 1].is(",") ||
                    tokens[i - 1].is_identifier("class") ||
                    tokens[i - 1].is_identifier("struct") ||
                    tokens[i - 1].is_identifier("enum") ||
                    tokens[i - 1].is_identifier("new") ||
                    tokens[i - 1].is_identifier("return") ||
                    tokens[i - 1].is_identifier("const"))) {
        continue;
      }
      // Match `Type [Class::]name (` — a declaration-looking pattern.
      std::size_t j = i + 1;
      while (j + 2 < tokens.size() && tokens[j].kind == TokenKind::kIdentifier &&
             tokens[j + 1].is("::")) {
        j += 2;
      }
      if (j + 1 >= tokens.size() || tokens[j].kind != TokenKind::kIdentifier ||
          !tokens[j + 1].is("(")) {
        continue;
      }
      if (!declaration_parens(tokens, j + 1)) continue;  // Variable init/call.
      if (preceded_by_nodiscard(tokens, i)) continue;
      report(file, type.line,
             "'" + std::string(tokens[j].text) + "' returns " +
                 std::string(type.text) +
                 " by value but is not [[nodiscard]]; dropped results defeat "
                 "the typed-failure contract",
             out);
    }
  }

 private:
  [[nodiscard]] static bool family_type(std::string_view name) {
    static const std::array<std::string_view, 4> kSuffixes = {
        "Error", "Outcome", "Result", "Status"};
    for (const std::string_view suffix : kSuffixes) {
      if (name.size() > suffix.size() &&
          name.substr(name.size() - suffix.size()) == suffix) {
        return true;
      }
    }
    return false;
  }

  /// Heuristic: the parenthesized list at `open` looks like a parameter
  /// list (empty, or mentions const/&/std/auto or two adjacent
  /// identifiers), not a call-argument list.
  [[nodiscard]] static bool declaration_parens(const std::vector<Token>& tokens,
                                               std::size_t open) {
    std::size_t depth = 1;
    bool prev_ident = false;
    for (std::size_t k = open + 1; k < tokens.size() && depth > 0; ++k) {
      if (tokens[k].is("(")) ++depth;
      if (tokens[k].is(")")) {
        --depth;
        continue;
      }
      if (depth == 0) break;
      if (tokens[k].is_identifier("const") || tokens[k].is("&") ||
          tokens[k].is("&&") || tokens[k].is_identifier("std") ||
          tokens[k].is_identifier("auto")) {
        return true;
      }
      const bool ident = tokens[k].kind == TokenKind::kIdentifier;
      if (ident && prev_ident) return true;
      prev_ident = ident;
    }
    // Empty parens: `Type name()` is a declaration.
    return open + 1 < tokens.size() && tokens[open + 1].is(")");
  }

  [[nodiscard]] static bool preceded_by_nodiscard(const std::vector<Token>& tokens,
                                                  std::size_t i) {
    // Walk back over qualification (`hm::common::`) and specifiers.
    std::size_t k = i;
    while (k >= 2 && tokens[k - 1].is("::") &&
           tokens[k - 2].kind == TokenKind::kIdentifier) {
      k -= 2;
    }
    while (k > 0 && (tokens[k - 1].is_identifier("virtual") ||
                     tokens[k - 1].is_identifier("static") ||
                     tokens[k - 1].is_identifier("inline") ||
                     tokens[k - 1].is_identifier("constexpr") ||
                     tokens[k - 1].is_identifier("explicit") ||
                     tokens[k - 1].is_identifier("friend") ||
                     tokens[k - 1].is_identifier("extern"))) {
      --k;
    }
    if (k == 0 || !tokens[k - 1].is("]]")) return false;
    // Scan the attribute for `nodiscard`.
    for (std::size_t a = k - 1; a > 0; --a) {
      if (tokens[a - 1].is("[[")) return false;
      if (tokens[a - 1].is_identifier("nodiscard")) return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Rule 4: no-float-equality
// ---------------------------------------------------------------------------

/// ==/!= against a floating-point literal (or a zero-initialized float
/// vector) is almost always a rounding bug waiting to happen; the rare
/// intentional exact-sentinel comparisons carry a suppression explaining
/// themselves. Test trees are exempt — exact comparison against injected
/// values is the point of many tests.
class NoFloatEqualityRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "no-float-equality";
  }
  [[nodiscard]] std::string_view description() const override {
    return "==/!= on floating-point expressions outside test helpers";
  }

  void check(const FileContext& file, std::vector<Diagnostic>& out) const override {
    if (file.is_test_file()) return;
    const auto& tokens = file.tokens;
    for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
      if (!tokens[i].is("==") && !tokens[i].is("!=")) continue;
      const bool flagged =
          is_float_literal(tokens[i + 1]) || is_float_literal(tokens[i - 1]) ||
          zero_vector_after(tokens, i) || zero_vector_before(tokens, i);
      if (flagged) {
        report(file, tokens[i].line,
               std::string(tokens[i].text) +
                   " compares floating-point values exactly; use an epsilon, "
                   "or suppress with a comment if the exact sentinel is "
                   "intended",
               out);
      }
    }
  }

 private:
  [[nodiscard]] static bool is_float_literal(const Token& t) {
    if (t.kind != TokenKind::kNumber) return false;
    const std::string_view s = t.text;
    if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
      return false;  // Hex int (hex floats with p-exponents are not used here).
    }
    if (s.find('.') != std::string_view::npos) return true;
    if (s.find('e') != std::string_view::npos ||
        s.find('E') != std::string_view::npos) {
      return true;
    }
    const char last = s.back();
    return last == 'f' || last == 'F';
  }

  [[nodiscard]] static bool float_vector_type(std::string_view name) {
    static const std::array<std::string_view, 6> kTypes = {
        "Vec2f", "Vec3f", "Vec4f", "Vec2d", "Vec3d", "Vec4d"};
    for (const std::string_view t : kTypes) {
      if (name == t) return true;
    }
    return false;
  }

  [[nodiscard]] static bool zero_vector_after(const std::vector<Token>& tokens,
                                              std::size_t i) {
    return i + 3 < tokens.size() &&
           tokens[i + 1].kind == TokenKind::kIdentifier &&
           float_vector_type(tokens[i + 1].text) && tokens[i + 2].is("{") &&
           tokens[i + 3].is("}");
  }

  [[nodiscard]] static bool zero_vector_before(const std::vector<Token>& tokens,
                                               std::size_t i) {
    return i >= 3 && tokens[i - 1].is("}") && tokens[i - 2].is("{") &&
           tokens[i - 3].kind == TokenKind::kIdentifier &&
           float_vector_type(tokens[i - 3].text);
  }
};

// ---------------------------------------------------------------------------
// Rule 5: include-hygiene
// ---------------------------------------------------------------------------

/// Headers must directly include the standard headers for the std symbols
/// they use, for a curated symbol→header map. Transitive includes are how
/// refactors in one header break builds three directories away.
class IncludeHygieneRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "include-hygiene";
  }
  [[nodiscard]] std::string_view description() const override {
    return "header uses a std:: symbol without directly including its "
           "standard header (curated symbol map)";
  }

  void check(const FileContext& file, std::vector<Diagnostic>& out) const override {
    if (!file.is_header()) return;
    const std::set<std::string, std::less<>> included = includes_of(file.source);
    const auto& map = symbol_map();
    const auto& tokens = file.tokens;
    std::map<std::string, std::pair<std::size_t, std::string>> missing;
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (!tokens[i].is_identifier("std") || !tokens[i + 1].is("::")) continue;
      const Token& symbol = tokens[i + 2];
      if (symbol.kind != TokenKind::kIdentifier) continue;
      const auto it = map.find(symbol.text);
      if (it == map.end()) continue;
      if (included.count(it->second) > 0) continue;
      missing.emplace(it->second,
                      std::make_pair(symbol.line, std::string(symbol.text)));
    }
    for (const auto& [header, use] : missing) {
      report(file, use.first,
             "uses std::" + use.second + " but does not directly include <" +
                 header + ">",
             out);
    }
  }

 private:
  [[nodiscard]] static std::set<std::string, std::less<>> includes_of(
      std::string_view source) {
    std::set<std::string, std::less<>> included;
    std::size_t pos = 0;
    while (pos < source.size()) {
      std::size_t eol = source.find('\n', pos);
      if (eol == std::string_view::npos) eol = source.size();
      std::string_view line = source.substr(pos, eol - pos);
      pos = eol + 1;
      const std::size_t hash = line.find_first_not_of(" \t");
      if (hash == std::string_view::npos || line[hash] != '#') continue;
      const std::size_t inc = line.find("include", hash + 1);
      if (inc == std::string_view::npos) continue;
      const std::size_t open = line.find_first_of("<\"", inc + 7);
      if (open == std::string_view::npos) continue;
      const char closer = line[open] == '<' ? '>' : '"';
      const std::size_t close = line.find(closer, open + 1);
      if (close == std::string_view::npos) continue;
      included.insert(std::string(line.substr(open + 1, close - open - 1)));
    }
    return included;
  }

  [[nodiscard]] static const std::unordered_map<std::string_view,
                                                std::string>&
  symbol_map() {
    static const std::unordered_map<std::string_view, std::string> kMap = {
        // Containers and views.
        {"vector", "vector"},
        {"string", "string"},
        {"string_view", "string_view"},
        {"optional", "optional"},
        {"unordered_map", "unordered_map"},
        {"unordered_set", "unordered_set"},
        {"deque", "deque"},
        {"array", "array"},
        {"span", "span"},
        {"map", "map"},
        {"set", "set"},
        {"tuple", "tuple"},
        {"tie", "tuple"},
        {"pair", "utility"},
        {"initializer_list", "initializer_list"},
        // Utility / memory / functional.
        {"move", "utility"},
        {"forward", "utility"},
        {"swap", "utility"},
        {"exchange", "utility"},
        {"declval", "utility"},
        {"unique_ptr", "memory"},
        {"shared_ptr", "memory"},
        {"weak_ptr", "memory"},
        {"make_unique", "memory"},
        {"make_shared", "memory"},
        {"function", "functional"},
        // Concurrency.
        {"mutex", "mutex"},
        {"lock_guard", "mutex"},
        {"unique_lock", "mutex"},
        {"scoped_lock", "mutex"},
        {"condition_variable", "condition_variable"},
        {"atomic", "atomic"},
        {"thread", "thread"},
        {"jthread", "thread"},
        {"this_thread", "thread"},
        {"future", "future"},
        {"promise", "future"},
        {"async", "future"},
        {"chrono", "chrono"},
        // Fixed-width and size types.
        {"uint8_t", "cstdint"},
        {"int8_t", "cstdint"},
        {"uint16_t", "cstdint"},
        {"int16_t", "cstdint"},
        {"uint32_t", "cstdint"},
        {"int32_t", "cstdint"},
        {"uint64_t", "cstdint"},
        {"int64_t", "cstdint"},
        {"size_t", "cstddef"},
        {"ptrdiff_t", "cstddef"},
        {"byte", "cstddef"},
        // Math.
        {"sqrt", "cmath"},
        {"fabs", "cmath"},
        {"floor", "cmath"},
        {"ceil", "cmath"},
        {"lround", "cmath"},
        {"round", "cmath"},
        {"isfinite", "cmath"},
        {"isnan", "cmath"},
        {"isinf", "cmath"},
        {"pow", "cmath"},
        {"exp", "cmath"},
        {"log", "cmath"},
        {"log2", "cmath"},
        {"sin", "cmath"},
        {"cos", "cmath"},
        {"tan", "cmath"},
        {"atan2", "cmath"},
        {"acos", "cmath"},
        {"asin", "cmath"},
        {"hypot", "cmath"},
        {"cbrt", "cmath"},
        {"fmod", "cmath"},
        {"lerp", "cmath"},
        // Algorithms / numerics.
        {"sort", "algorithm"},
        {"stable_sort", "algorithm"},
        {"min", "algorithm"},
        {"max", "algorithm"},
        {"clamp", "algorithm"},
        {"min_element", "algorithm"},
        {"max_element", "algorithm"},
        {"fill", "algorithm"},
        {"copy", "algorithm"},
        {"find", "algorithm"},
        {"find_if", "algorithm"},
        {"transform", "algorithm"},
        {"all_of", "algorithm"},
        {"any_of", "algorithm"},
        {"none_of", "algorithm"},
        {"count_if", "algorithm"},
        {"lower_bound", "algorithm"},
        {"upper_bound", "algorithm"},
        {"nth_element", "algorithm"},
        {"partial_sort", "algorithm"},
        {"remove_if", "algorithm"},
        {"unique", "algorithm"},
        {"reverse", "algorithm"},
        {"accumulate", "numeric"},
        {"iota", "numeric"},
        {"reduce", "numeric"},
        {"inner_product", "numeric"},
        {"numeric_limits", "limits"},
        // Errors and I/O.
        {"runtime_error", "stdexcept"},
        {"logic_error", "stdexcept"},
        {"invalid_argument", "stdexcept"},
        {"out_of_range", "stdexcept"},
        {"exception", "exception"},
        {"exception_ptr", "exception"},
        {"current_exception", "exception"},
        {"rethrow_exception", "exception"},
        {"make_exception_ptr", "exception"},
        {"snprintf", "cstdio"},
        {"fprintf", "cstdio"},
        {"printf", "cstdio"},
        {"memcpy", "cstring"},
        {"memset", "cstring"},
        {"strlen", "cstring"},
        {"ostringstream", "sstream"},
        {"istringstream", "sstream"},
        {"stringstream", "sstream"},
        {"ofstream", "fstream"},
        {"ifstream", "fstream"},
        {"cout", "iostream"},
        {"cerr", "iostream"},
        {"strtod", "cstdlib"},
        {"strtoull", "cstdlib"},
        {"getenv", "cstdlib"},
        {"from_chars", "charconv"},
        {"to_chars", "charconv"},
        {"back_inserter", "iterator"},
        // Type traits.
        {"is_same", "type_traits"},
        {"is_same_v", "type_traits"},
        {"decay_t", "type_traits"},
        {"enable_if_t", "type_traits"},
        {"conditional_t", "type_traits"},
        {"is_floating_point", "type_traits"},
        {"is_integral", "type_traits"},
        {"invoke_result_t", "type_traits"},
    };
    return kMap;
  }
};

// ---------------------------------------------------------------------------
// Rule 6: no-bare-export-stream
// ---------------------------------------------------------------------------

/// Every artifact export must go through hm::common::write_file_atomic so a
/// crash mid-write can never leave a torn CSV/mesh/JSON on disk. A bare
/// std::ofstream construction or a write-mode fopen() bypasses the
/// temp+fsync+rename discipline. References/parameters of type
/// `std::ofstream&` are fine (they hand an already-managed stream around);
/// test trees are exempt (tests fabricate broken files on purpose), as is
/// the atomic writer itself.
class NoBareExportStreamRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "no-bare-export-stream";
  }
  [[nodiscard]] std::string_view description() const override {
    return "std::ofstream construction or write-mode fopen() outside "
           "hm::common::write_file_atomic; exports must be crash-atomic";
  }

  void check(const FileContext& file, std::vector<Diagnostic>& out) const override {
    if (file.is_test_file()) return;
    if (path_contains(file, "src/common/atomic_file.")) return;
    const auto& tokens = file.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.is_identifier("ofstream") && constructs_stream(tokens, i)) {
        report(file, t.line,
               "bare std::ofstream bypasses crash-atomic export; build the "
               "contents in memory and hand them to "
               "hm::common::write_file_atomic",
               out);
        continue;
      }
      if (t.is_identifier("fopen") && i + 1 < tokens.size() &&
          tokens[i + 1].is("(") && writes_in_mode(tokens, i + 1)) {
        report(file, t.line,
               "fopen() with a write/append mode bypasses crash-atomic "
               "export; use hm::common::write_file_atomic (or the journal "
               "writer for append-only logs)",
               out);
      }
    }
  }

 private:
  /// True when the `ofstream` token at `i` is a construction (named
  /// variable or temporary), not a reference/pointer type in a signature.
  [[nodiscard]] static bool constructs_stream(const std::vector<Token>& tokens,
                                              std::size_t i) {
    if (i + 1 >= tokens.size()) return false;
    const Token& next = tokens[i + 1];
    // `std::ofstream& out` / `std::ofstream* out` pass a managed stream
    // around; `ofstream>` is a template argument; `ofstream::` is a nested
    // name (e.g. std::ofstream::failbit).
    if (next.is("&") || next.is("&&") || next.is("*") || next.is(">") ||
        next.is("::")) {
      return false;
    }
    // `std::ofstream out(...)`, `std::ofstream out{...}`, `std::ofstream
    // out;` (opened later), or a temporary `std::ofstream(path)`.
    if (next.kind == TokenKind::kIdentifier) return true;
    return next.is("(") || next.is("{");
  }

  /// True when the fopen() call starting at the `(` token `open` passes a
  /// write or append mode. The mode is the last string literal of the
  /// argument list, so a path literal containing 'w' cannot confuse it.
  [[nodiscard]] static bool writes_in_mode(const std::vector<Token>& tokens,
                                           std::size_t open) {
    std::size_t depth = 1;
    std::string_view mode;
    for (std::size_t k = open + 1; k < tokens.size() && depth > 0; ++k) {
      if (tokens[k].is("(")) ++depth;
      if (tokens[k].is(")")) --depth;
      if (depth >= 1 && tokens[k].kind == TokenKind::kString) {
        mode = tokens[k].text;
      }
    }
    if (mode.empty()) return true;  // Computed mode: assume the worst.
    return mode.find('w') != std::string_view::npos ||
           mode.find('a') != std::string_view::npos;
  }
};

// ---------------------------------------------------------------------------
// Rule 7: no-adhoc-instrumentation
// ---------------------------------------------------------------------------

/// All duration measurement flows through the timing substrate —
/// hm::common::Timer (common/timer.hpp) or trace spans (common/trace.cpp),
/// which feed the metrics histograms and the Chrome trace. A hand-rolled
/// `steady_clock::now()` pair produces numbers the observability layer
/// never sees and that the HM_TRACE=OFF build cannot compile away. The two
/// substrate files are exempt (they *are* the sanctioned clock readers);
/// test trees are exempt (deadlines and fabricated timestamps are test
/// mechanics); the rare legitimate site outside them — e.g. deadline
/// classification that must work in trace-off builds — carries a reasoned
/// suppression.
class NoAdhocInstrumentationRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "no-adhoc-instrumentation";
  }
  [[nodiscard]] std::string_view description() const override {
    return "direct <clock>::now() call outside common/timer.hpp and "
           "common/trace.cpp; measure through Timer or TraceSpan";
  }

  void check(const FileContext& file, std::vector<Diagnostic>& out) const override {
    if (file.is_test_file()) return;
    if (path_contains(file, "src/common/timer.hpp") ||
        path_contains(file, "src/common/trace.cpp")) {
      return;
    }
    const auto& tokens = file.tokens;
    for (std::size_t i = 2; i + 1 < tokens.size(); ++i) {
      if (!tokens[i].is_identifier("now") || !tokens[i + 1].is("(")) continue;
      if (!tokens[i - 1].is("::")) continue;
      if (!clock_ish(tokens[i - 2].text)) continue;
      report(file, tokens[i].line,
             "direct " + std::string(tokens[i - 2].text) +
                 "::now() bypasses the timing substrate; use "
                 "hm::common::Timer or a TraceSpan so the duration reaches "
                 "the metrics/trace layer (or suppress with a reasoned "
                 "comment)",
             out);
    }
  }

 private:
  [[nodiscard]] static bool clock_ish(std::string_view name) {
    if (name.size() < 5) return false;
    const std::string_view tail = name.substr(name.size() - 5);
    return tail == "clock" || tail == "Clock";
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Rule 8: no-unguarded-syscall
// ---------------------------------------------------------------------------

/// Raw POSIX I/O and process-control calls are where EINTR bugs and orphan
/// processes come from: a bare write() can return short, a bare close()
/// races fd reuse, a bare fork() without the sandbox's fd hygiene leaks
/// sibling pipe ends into children and defeats EOF-based death detection.
/// The EINTR-hardened wrappers (common/atomic_file: open_retry,
/// write_fd_all, fsync_retry, close_relaxed) and the sandbox supervision
/// layer (src/sandbox/) are the two sanctioned homes for these calls; test
/// trees are exempt (fork/kill choreography *is* the crash harness).
class NoUnguardedSyscallRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "no-unguarded-syscall";
  }
  [[nodiscard]] std::string_view description() const override {
    return "bare fork/waitpid/read/write/close/fsync outside src/common/ "
           "and src/sandbox/; use the EINTR-hardened wrappers in "
           "common/atomic_file or the sandbox supervision layer";
  }

  void check(const FileContext& file, std::vector<Diagnostic>& out) const override {
    if (file.is_test_file()) return;
    // src/serve/net.* is the serve daemon's socket shim: the one serve file
    // allowed to touch raw descriptors, so every accept/poll/close retry
    // lives behind audited wrappers there (mirroring common/atomic_file).
    if (path_contains(file, "src/common/") ||
        path_contains(file, "src/sandbox/") ||
        path_contains(file, "src/serve/net.")) {
      return;
    }
    const auto& tokens = file.tokens;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].kind != TokenKind::kIdentifier) continue;
      if (!tokens[i + 1].is("(")) continue;
      const std::string_view name = tokens[i].text;
      const bool globally_qualified =
          i >= 1 && tokens[i - 1].is("::") &&
          (i < 2 || tokens[i - 2].kind != TokenKind::kIdentifier ||
           control_keyword(tokens[i - 2].text));
      const bool member_access =
          i >= 1 && (tokens[i - 1].is(".") || tokens[i - 1].is("->") ||
                     tokens[i - 1].is("::"));
      // fd-level I/O names collide with ordinary method names, so they
      // only count when written as a global-scope call (::write(fd, ...)).
      const bool is_io = io_syscall(name) && globally_qualified;
      // A declarator (`Seeder fork()`) names a method, not the syscall:
      // an identifier immediately before the name is its return type.
      const bool declaration =
          i >= 1 && tokens[i - 1].kind == TokenKind::kIdentifier;
      // Process-control names are distinctive enough to flag even bare.
      const bool is_proc = process_syscall(name) &&
                           (globally_qualified ||
                            (!member_access && !declaration));
      if (!is_io && !is_proc) continue;
      report(file, tokens[i].line,
             "unguarded ::" + std::string(name) +
                 "() outside src/common/ and src/sandbox/; EINTR, short "
                 "writes, and child reaping belong to the hardened wrappers "
                 "(common/atomic_file) or the sandbox supervision layer "
                 "(or suppress with a reasoned comment)",
             out);
    }
  }

 private:
  [[nodiscard]] static bool io_syscall(std::string_view name) {
    return name == "read" || name == "write" || name == "pread" ||
           name == "pwrite" || name == "close" || name == "fsync" ||
           name == "fdatasync" || name == "pipe" || name == "kill";
  }
  [[nodiscard]] static bool process_syscall(std::string_view name) {
    return name == "fork" || name == "vfork" || name == "waitpid";
  }
  /// Keywords lex as identifiers; `return ::fork()` is still a
  /// global-scope call, not a qualified name.
  [[nodiscard]] static bool control_keyword(std::string_view name) {
    return name == "return" || name == "co_return" || name == "throw" ||
           name == "case" || name == "else" || name == "do";
  }
};

// ---------------------------------------------------------------------------
// Rule 9: no-bare-stderr
// ---------------------------------------------------------------------------

/// Diagnostics written straight to stderr (std::cerr, fprintf(stderr, ...),
/// fputs(..., stderr)) bypass the log substrate: no timestamp, no thread
/// id, no campaign context tag — in the hm_serve daemon they interleave
/// unattributably with the structured log stream, and nothing correlates
/// them with traces or the flight recorder. hm::common::log_error/log_warn
/// cost one line more and keep every diagnostic greppable by campaign.
/// Exempt: the log substrate itself (it owns the stderr sink), test trees
/// (harness chatter), and the linter's own CLI front-end (its contract is
/// plain, format-stable stderr usage/diagnostic text, and it must not
/// depend on the layer it lints).
class NoBareStderrRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "no-bare-stderr";
  }
  [[nodiscard]] std::string_view description() const override {
    return "direct stderr write (std::cerr / fprintf(stderr, ...)) outside "
           "common/log; use hm::common::log_error/log_warn so diagnostics "
           "carry timestamps and campaign context";
  }

  void check(const FileContext& file, std::vector<Diagnostic>& out) const override {
    if (file.is_test_file()) return;
    if (path_contains(file, "src/common/log.") ||
        path_contains(file, "tools/hm_lint/main.cpp")) {
      return;
    }
    const auto& tokens = file.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "stderr") {
        report(file, t.line,
               "direct stderr write bypasses the log substrate; use "
               "hm::common::log_error/log_warn (timestamped, thread- and "
               "campaign-tagged) or suppress with a reasoned comment",
               out);
        continue;
      }
      if (t.text == "cerr") {
        report(file, t.line,
               "std::cerr bypasses the log substrate; use "
               "hm::common::log_error/log_warn (timestamped, thread- and "
               "campaign-tagged) or suppress with a reasoned comment",
               out);
      }
    }
  }
};

std::vector<std::shared_ptr<const Rule>> default_rules() {
  return {
      std::make_shared<NoRawThreadRule>(),
      std::make_shared<NoUnorderedOutputIterationRule>(),
      std::make_shared<NodiscardResultRule>(),
      std::make_shared<NoFloatEqualityRule>(),
      std::make_shared<IncludeHygieneRule>(),
      std::make_shared<NoBareExportStreamRule>(),
      std::make_shared<NoAdhocInstrumentationRule>(),
      std::make_shared<NoUnguardedSyscallRule>(),
      std::make_shared<NoBareStderrRule>(),
  };
}

}  // namespace hm::lint
