#include "hm_lint/index.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

namespace hm::lint {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

[[nodiscard]] bool is_keyword(std::string_view s) {
  static const std::set<std::string_view> kKeywords = {
      "if",       "for",      "while",    "switch",        "catch",
      "return",   "sizeof",   "alignof",  "decltype",      "static_assert",
      "noexcept", "new",      "delete",   "throw",         "alignas",
      "co_await", "co_yield", "co_return", "assert",       "defined",
      "typeid",   "requires", "explicit", "constexpr",     "const",
      "static",   "inline",   "virtual",  "else",          "do",
      "case",     "default",  "break",    "continue",      "goto",
      "using",    "typedef",  "template", "typename",      "operator"};
  return kKeywords.count(s) > 0;
}

[[nodiscard]] bool is_guard_type(std::string_view s) {
  return s == "lock_guard" || s == "scoped_lock" || s == "unique_lock" ||
         s == "shared_lock";
}

[[nodiscard]] bool is_mutex_type(std::string_view s) {
  return s == "mutex" || s == "recursive_mutex" || s == "shared_mutex" ||
         s == "timed_mutex" || s == "recursive_timed_mutex";
}

[[nodiscard]] bool is_lock_tag(std::string_view s) {
  return s == "defer_lock" || s == "try_to_lock" || s == "adopt_lock";
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

/// An engaged (or toggled-off) lock guard / manual `.lock()` in the current
/// function.
struct ActiveLock {
  std::string var;  ///< guard variable name; "" for a manual `m.lock()`
  std::vector<std::string> locks;
  std::size_t block_depth = 0;  ///< brace depth at declaration
  bool engaged = false;
};

struct ScopeFrame {
  enum class Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind = Kind::kBlock;
  std::string name;             ///< namespace/class name ("" for blocks)
  std::size_t open_depth = 0;   ///< brace depth inside this scope
  std::size_t fn_index = kNpos; ///< functions[] slot for kFunction frames
  std::size_t open_line = 0;
};

/// Line range of one class body, for mapping annotation comments to their
/// declaring class after the token walk.
struct ClassRange {
  std::string scope;
  std::size_t begin = 0;
  std::size_t end = 0;
};

class IndexBuilder {
 public:
  explicit IndexBuilder(const FileContext& context) : ctx_(context) {
    out_.path = context.path;
    out_.is_test = context.is_test_file();
  }

  FileIndex build() {
    walk();
    attach_annotations();
    return std::move(out_);
  }

 private:
  const FileContext& ctx_;
  FileIndex out_;
  std::vector<ScopeFrame> scopes_;
  std::vector<ClassRange> class_ranges_;
  std::vector<ActiveLock> active_locks_;
  std::size_t depth_ = 0;

  [[nodiscard]] const std::vector<Token>& toks() const { return ctx_.tokens; }
  [[nodiscard]] std::size_t size() const { return toks().size(); }
  [[nodiscard]] std::string_view text(std::size_t i) const {
    return i < size() ? toks()[i].text : std::string_view{};
  }
  [[nodiscard]] bool is_ident(std::size_t i) const {
    return i < size() && toks()[i].kind == TokenKind::kIdentifier;
  }

  [[nodiscard]] std::size_t current_fn() const {
    for (std::size_t s = scopes_.size(); s-- > 0;) {
      if (scopes_[s].kind == ScopeFrame::Kind::kFunction) {
        return scopes_[s].fn_index;
      }
    }
    return kNpos;
  }

  /// Innermost non-block scope kind; namespaces at global scope.
  [[nodiscard]] ScopeFrame::Kind declaration_scope() const {
    for (std::size_t s = scopes_.size(); s-- > 0;) {
      if (scopes_[s].kind != ScopeFrame::Kind::kBlock) return scopes_[s].kind;
    }
    return ScopeFrame::Kind::kNamespace;
  }

  [[nodiscard]] std::string scope_chain() const {
    std::string chain;
    for (const ScopeFrame& s : scopes_) {
      if (s.name.empty()) continue;
      if (!chain.empty()) chain += "::";
      chain += s.name;
    }
    return chain;
  }

  [[nodiscard]] std::string class_chain() const {
    std::string chain;
    for (const ScopeFrame& s : scopes_) {
      if (s.kind != ScopeFrame::Kind::kClass || s.name.empty()) continue;
      if (!chain.empty()) chain += "::";
      chain += s.name;
    }
    return chain;
  }

  [[nodiscard]] std::vector<std::string> held_locks() const {
    std::vector<std::string> held;
    for (const ActiveLock& l : active_locks_) {
      if (!l.engaged) continue;
      for (const std::string& m : l.locks) {
        if (std::find(held.begin(), held.end(), m) == held.end()) {
          held.push_back(m);
        }
      }
    }
    return held;
  }

  /// Matching close for the open bracket at `i` (`(`/`{`/`<` caller-chosen
  /// pair). Returns kNpos when unbalanced.
  [[nodiscard]] std::size_t matching(std::size_t i, std::string_view open,
                                     std::string_view close) const {
    std::size_t level = 0;
    for (std::size_t k = i; k < size(); ++k) {
      if (text(k) == open) ++level;
      if (text(k) == close) {
        if (--level == 0) return k;
      }
    }
    return kNpos;
  }

  /// Skips `<...>` template arguments starting at `i` if present; bails on
  /// `;`/`{` so a stray comparison can't eat the file. Returns the index
  /// after the arguments (or `i` unchanged).
  [[nodiscard]] std::size_t skip_template_args(std::size_t i) const {
    if (text(i) != "<") return i;
    std::size_t level = 0;
    for (std::size_t k = i; k < size(); ++k) {
      const std::string_view t = text(k);
      if (t == "<") ++level;
      if (t == ">") {
        if (--level == 0) return k + 1;
      }
      if (t == ";" || t == "{") break;
    }
    return i;
  }

  /// Normalizes a lock expression token range to a dotted path:
  /// `this->mutex_` -> "mutex_", `owner_ . mutex_` -> "owner_.mutex_".
  [[nodiscard]] std::string normalize_expr(std::size_t begin,
                                           std::size_t end) const {
    std::string expr;
    for (std::size_t k = begin; k < end; ++k) {
      const std::string_view t = text(k);
      if (t == "this" || t == "*" || t == "&" || t == "(" || t == ")") continue;
      if (t == "." || t == "->") {
        if (!expr.empty()) expr += '.';
        continue;
      }
      if (toks()[k].kind == TokenKind::kIdentifier) {
        if (!expr.empty() && expr.back() != '.') expr += '.';
        expr += std::string(t);
      }
    }
    while (!expr.empty() && expr.back() == '.') expr.pop_back();
    return expr;
  }

  void pop_scopes_to(std::size_t new_depth, std::size_t line) {
    while (!scopes_.empty() && scopes_.back().open_depth > new_depth) {
      ScopeFrame frame = scopes_.back();
      scopes_.pop_back();
      if (frame.kind == ScopeFrame::Kind::kFunction &&
          frame.fn_index != kNpos) {
        out_.functions[frame.fn_index].end_line = line;
        // Manual locks never outlive their function.
        active_locks_.erase(
            std::remove_if(active_locks_.begin(), active_locks_.end(),
                           [&](const ActiveLock& l) {
                             return l.block_depth > new_depth;
                           }),
            active_locks_.end());
      }
      if (frame.kind == ScopeFrame::Kind::kClass) {
        class_ranges_.push_back(
            {qualified_class(frame), frame.open_line, line});
      }
    }
    // Guards die with their block.
    active_locks_.erase(
        std::remove_if(
            active_locks_.begin(), active_locks_.end(),
            [&](const ActiveLock& l) { return l.block_depth > new_depth; }),
        active_locks_.end());
  }

  /// Class chain including `frame` (called after `frame` was popped).
  [[nodiscard]] std::string qualified_class(const ScopeFrame& frame) const {
    const std::string chain = class_chain();
    return chain.empty() ? frame.name : chain + "::" + frame.name;
  }

  void record_acquisition(std::size_t fn, const std::string& expr,
                          std::size_t line) {
    if (fn == kNpos || expr.empty()) return;
    std::vector<std::string> before = held_locks();
    before.erase(std::remove(before.begin(), before.end(), expr),
                 before.end());
    out_.functions[fn].acquisitions.push_back({expr, line, std::move(before)});
  }

  // --- namespace / class / enum headers -------------------------------

  /// Handles `namespace X {`, `namespace {`, `namespace A::B {`. Returns
  /// the next token index (past `{`) or kNpos if not consumed.
  std::size_t try_namespace(std::size_t i) {
    if (!is_ident(i) || text(i) != "namespace") return kNpos;
    std::size_t j = i + 1;
    std::string name;
    if (is_ident(j) && !is_keyword(text(j))) {
      name = std::string(text(j));
      ++j;
      while (text(j) == "::" && is_ident(j + 1)) {
        name += "::";
        name += std::string(text(j + 1));
        j += 2;
      }
    }
    if (text(j) != "{") return kNpos;  // alias or using-directive
    ++depth_;
    scopes_.push_back({ScopeFrame::Kind::kNamespace, name, depth_, kNpos,
                       toks()[j].line});
    return j + 1;
  }

  /// Handles `class X ... {` / `struct X : Base {` definitions (including
  /// qualified names like `class Outer::Inner`). Returns index past `{` or
  /// kNpos.
  std::size_t try_class(std::size_t i) {
    if (!is_ident(i) || (text(i) != "class" && text(i) != "struct")) {
      return kNpos;
    }
    if (i > 0 && text(i - 1) == "enum") return kNpos;
    std::size_t j = i + 1;
    while (text(j) == "[[") {
      const std::size_t close = matching(j, "[[", "]]");
      if (close == kNpos) return kNpos;
      j = close + 1;
    }
    if (!is_ident(j) || is_keyword(text(j))) return kNpos;
    std::string name(text(j));
    ++j;
    while (text(j) == "::" && is_ident(j + 1)) {
      name += "::";
      name += std::string(text(j + 1));
      j += 2;
    }
    if (text(j) == "final") ++j;
    if (is_ident(j)) return kNpos;  // `struct timespec t` — a variable
    if (text(j) == ":") {
      while (j < size() && text(j) != "{" && text(j) != ";") ++j;
    }
    if (text(j) != "{") return kNpos;  // forward declaration / type use
    ++depth_;
    scopes_.push_back(
        {ScopeFrame::Kind::kClass, name, depth_, kNpos, toks()[j].line});
    return j + 1;
  }

  /// `enum [class] X [: T] { ... }` — consume the body as an opaque block.
  std::size_t try_enum(std::size_t i) {
    if (!is_ident(i) || text(i) != "enum") return kNpos;
    std::size_t j = i + 1;
    while (j < size() && text(j) != "{" && text(j) != ";") ++j;
    if (text(j) != "{") return kNpos;
    const std::size_t close = matching(j, "{", "}");
    return close == kNpos ? kNpos : close + 1;
  }

  // --- function definitions -------------------------------------------

  /// Scans the trailing part of a declarator (after the parameter list's
  /// `)` at `after`) for a function body. Returns the index of the body
  /// `{` or kNpos if this is a declaration / something else.
  [[nodiscard]] std::size_t find_body_brace(std::size_t after) const {
    std::size_t j = after;
    while (j < size()) {
      const std::string_view t = text(j);
      if (t == "{") return j;
      if (t == ";" || t == "=" || t == "," || t == ")" || t == "(") {
        return kNpos;
      }
      if (t == "const" || t == "override" || t == "final" || t == "mutable" ||
          t == "&" || t == "&&" || t == "volatile" || t == "try" ||
          t == "noexcept" || t == "constexpr" || t == "requires") {
        if (t == "noexcept" && text(j + 1) == "(") {
          const std::size_t close = matching(j + 1, "(", ")");
          if (close == kNpos) return kNpos;
          j = close + 1;
          continue;
        }
        ++j;
        continue;
      }
      if (t == "[[") {
        const std::size_t close = matching(j, "[[", "]]");
        if (close == kNpos) return kNpos;
        j = close + 1;
        continue;
      }
      if (t == "->") {
        // Trailing return type: scan to the body brace at paren level 0.
        std::size_t level = 0;
        for (std::size_t k = j + 1; k < size(); ++k) {
          const std::string_view r = text(k);
          if (r == "(") ++level;
          if (r == ")") {
            if (level == 0) return kNpos;
            --level;
          }
          if (level == 0 && r == "{") return k;
          if (level == 0 && (r == ";" || r == "=")) return kNpos;
        }
        return kNpos;
      }
      if (t == ":") {
        return scan_init_list(j + 1);
      }
      return kNpos;
    }
    return kNpos;
  }

  /// Parses a constructor initializer list starting just after `:`;
  /// returns the body `{` index or kNpos.
  [[nodiscard]] std::size_t scan_init_list(std::size_t j) const {
    while (j < size()) {
      if (!is_ident(j)) return kNpos;
      ++j;
      while (text(j) == "::" && is_ident(j + 1)) j += 2;
      j = skip_template_args(j);
      std::size_t close = kNpos;
      if (text(j) == "(") {
        close = matching(j, "(", ")");
      } else if (text(j) == "{") {
        close = matching(j, "{", "}");
      }
      if (close == kNpos) return kNpos;
      j = close + 1;
      if (text(j) == "...") ++j;
      if (text(j) == ",") {
        ++j;
        continue;
      }
      return text(j) == "{" ? j : kNpos;
    }
    return kNpos;
  }

  /// Attempts a function-definition parse anchored at identifier `i`
  /// followed by `(`. Returns index just past the body's `{` (scope
  /// pushed) or kNpos.
  std::size_t try_function_def(std::size_t i) {
    if (!is_ident(i) || is_keyword(text(i))) return kNpos;
    std::size_t params = i + 1;
    std::string name(text(i));
    if (name == "operator") return kNpos;  // handled by caller pattern below
    if (text(params) != "(") return kNpos;
    // Collect leading qualifiers (and `~` for destructors).
    std::string prefix;
    std::size_t k = i;
    if (k > 0 && text(k - 1) == "~") {
      name = "~" + name;
      --k;
    }
    while (k >= 2 && text(k - 1) == "::" && is_ident(k - 2) &&
           !is_keyword(text(k - 2))) {
      prefix = prefix.empty() ? std::string(text(k - 2))
                              : std::string(text(k - 2)) + "::" + prefix;
      k -= 2;
    }
    const std::size_t close = matching(params, "(", ")");
    if (close == kNpos) return kNpos;
    const std::size_t body = find_body_brace(close + 1);
    if (body == kNpos) return kNpos;
    std::string scope = scope_chain();
    if (!prefix.empty()) {
      scope = scope.empty() ? prefix : scope + "::" + prefix;
    }
    FunctionDef fn;
    fn.name = name;
    fn.scope = scope;
    fn.line = toks()[i].line;
    out_.functions.push_back(std::move(fn));
    ++depth_;
    scopes_.push_back({ScopeFrame::Kind::kFunction, "", depth_,
                       out_.functions.size() - 1, toks()[body].line});
    return body + 1;
  }

  /// `operator()(params) ... {` — the one operator overload the index
  /// names (call operators matter for the call graph's callers).
  std::size_t try_call_operator_def(std::size_t i) {
    if (!is_ident(i) || text(i) != "operator") return kNpos;
    if (text(i + 1) != "(" || text(i + 2) != ")") return kNpos;
    if (text(i + 3) != "(") return kNpos;
    const std::size_t close = matching(i + 3, "(", ")");
    if (close == kNpos) return kNpos;
    const std::size_t body = find_body_brace(close + 1);
    if (body == kNpos) return kNpos;
    FunctionDef fn;
    fn.name = "operator()";
    fn.scope = scope_chain();
    fn.line = toks()[i].line;
    out_.functions.push_back(std::move(fn));
    ++depth_;
    scopes_.push_back({ScopeFrame::Kind::kFunction, "", depth_,
                       out_.functions.size() - 1, toks()[body].line});
    return body + 1;
  }

  // --- statements inside functions ------------------------------------

  /// Guard declarations: `std::lock_guard<std::mutex> lk(m);`,
  /// `std::scoped_lock lk(a, b);`, `std::unique_lock lk(m, std::defer_lock)`.
  std::size_t try_guard_decl(std::size_t i, std::size_t fn) {
    if (!is_ident(i) || !is_guard_type(text(i))) return kNpos;
    std::size_t j = skip_template_args(i + 1);
    if (!is_ident(j) || is_keyword(text(j))) return kNpos;
    const std::string var(text(j));
    ++j;
    const std::string_view open = text(j);
    if (open != "(" && open != "{") return kNpos;
    const std::size_t close =
        open == "(" ? matching(j, "(", ")") : matching(j, "{", "}");
    if (close == kNpos) return kNpos;
    // Split top-level comma-separated arguments.
    std::vector<std::pair<std::size_t, std::size_t>> args;
    std::size_t arg_begin = j + 1;
    std::size_t level = 0;
    for (std::size_t k = j + 1; k < close; ++k) {
      const std::string_view t = text(k);
      if (t == "(" || t == "{" || t == "[") ++level;
      if (t == ")" || t == "}" || t == "]") --level;
      if (t == "," && level == 0) {
        args.emplace_back(arg_begin, k);
        arg_begin = k + 1;
      }
    }
    if (arg_begin < close) args.emplace_back(arg_begin, close);

    bool engaged = true;
    std::vector<std::string> locks;
    const bool all_args = text(i) == "scoped_lock";
    for (std::size_t a = 0; a < args.size(); ++a) {
      std::string_view last;
      for (std::size_t k = args[a].first; k < args[a].second; ++k) {
        if (is_ident(k)) last = text(k);
      }
      if (is_lock_tag(last)) {
        engaged = last == "adopt_lock";
        continue;
      }
      if (a == 0 || all_args) {
        std::string expr = normalize_expr(args[a].first, args[a].second);
        if (!expr.empty()) locks.push_back(std::move(expr));
      }
    }
    if (locks.empty()) return kNpos;
    if (engaged) {
      for (const std::string& m : locks) {
        record_acquisition(fn, m, toks()[i].line);
      }
    }
    active_locks_.push_back({var, std::move(locks), depth_, engaged});
    return close + 1;
  }

  /// `x.lock()` / `x.unlock()` — guard-variable toggling and manual mutex
  /// acquisition. Does not consume tokens (the call is still recorded).
  void handle_lock_call(std::size_t i, std::size_t fn) {
    const bool locking = text(i) == "lock";
    if (i < 2 || (text(i - 1) != "." && text(i - 1) != "->")) return;
    if (!is_ident(i - 2)) return;
    // Object path: the identifier chain before the final `.lock`.
    std::size_t begin = i - 2;
    while (begin >= 2 && (text(begin - 1) == "." || text(begin - 1) == "->") &&
           is_ident(begin - 2)) {
      begin -= 2;
    }
    const std::string obj = normalize_expr(begin, i - 1);
    for (ActiveLock& l : active_locks_) {
      if (!l.var.empty() && l.var == obj) {
        if (locking && !l.engaged) {
          l.engaged = true;
          for (const std::string& m : l.locks) {
            record_acquisition(fn, m, toks()[i].line);
          }
        } else if (!locking) {
          l.engaged = false;
        }
        return;
      }
    }
    if (locking) {
      record_acquisition(fn, obj, toks()[i].line);
      active_locks_.push_back({"", {obj}, depth_, true});
    } else {
      for (ActiveLock& l : active_locks_) {
        if (l.var.empty() && l.engaged && l.locks.size() == 1 &&
            l.locks[0] == obj) {
          l.engaged = false;
          return;
        }
      }
    }
  }

  /// Records a call site; returns the callee for fork handling.
  void record_call(std::size_t i, std::size_t fn) {
    CallSite call;
    call.callee = std::string(text(i));
    call.line = toks()[i].line;
    if (i > 0 && text(i - 1) == "::") {
      // Namespace-qualified: collect the `A::B` chain. Stop at keywords so
      // `return ::close(fd)` records qualifier "::", not "return".
      std::size_t k = i - 1;
      std::string qual;
      while (k >= 1 && text(k) == "::" && is_ident(k - 1) &&
             !is_keyword(text(k - 1))) {
        qual = qual.empty() ? std::string(text(k - 1))
                            : std::string(text(k - 1)) + "::" + qual;
        if (k < 2) {
          k = 0;
          break;
        }
        k -= 2;
      }
      call.qualifier = qual.empty() ? "::" : qual;
    } else if (i > 1 && (text(i - 1) == "." || text(i - 1) == "->") &&
               is_ident(i - 2)) {
      call.qualifier = std::string(text(i - 2));
      call.member = true;
    }
    call.locks_held = held_locks();
    out_.functions[fn].calls.push_back(std::move(call));
    if (text(i) == "fork" &&
        (out_.functions[fn].calls.back().qualifier.empty() ||
         out_.functions[fn].calls.back().qualifier == "::")) {
      detect_fork_region(i, fn);
    }
  }

  /// Finds the `fork()==0` child block following a fork call at `i`.
  void detect_fork_region(std::size_t i, std::size_t fn) {
    const std::size_t fork_line = toks()[i].line;
    const std::size_t call_close = matching(i + 1, "(", ")");
    if (call_close == kNpos) return;
    std::size_t cond_end = kNpos;
    // Pattern A: `if (fork() == 0)` — fork inside the if condition.
    std::size_t before = i;
    if (before > 0 && text(before - 1) == "::") --before;
    if (before >= 2 && text(before - 2) == "if" && text(before - 1) == "(" &&
        text(call_close + 1) == "==" && text(call_close + 2) == "0" &&
        text(call_close + 3) == ")") {
      cond_end = call_close + 3;
    } else {
      // Pattern B: `pid = fork();` then a later `if (pid == 0)`.
      std::string var;
      if (before >= 2 && text(before - 1) == "=" && is_ident(before - 2)) {
        var = std::string(text(before - 2));
      }
      if (var.empty()) return;
      for (std::size_t k = call_close; k + 5 < size(); ++k) {
        if (text(k) == "}" &&
            toks()[k].line > fork_line + 200) {  // stay local
          break;
        }
        if (text(k) == "if" && text(k + 1) == "(" &&
            ((text(k + 2) == var && text(k + 3) == "==" &&
              text(k + 4) == "0" && text(k + 5) == ")") ||
             (text(k + 2) == "0" && text(k + 3) == "==" &&
              text(k + 4) == var && text(k + 5) == ")"))) {
          cond_end = k + 5;
          break;
        }
      }
    }
    if (cond_end == kNpos) return;
    ForkRegion region;
    region.fork_line = fork_line;
    if (text(cond_end + 1) == "{") {
      const std::size_t close = matching(cond_end + 1, "{", "}");
      if (close == kNpos) return;
      region.begin_line = toks()[cond_end + 1].line;
      region.end_line = toks()[close].line;
    } else {
      // Single statement child: up to the `;`.
      std::size_t k = cond_end + 1;
      while (k < size() && text(k) != ";") ++k;
      region.begin_line = toks()[cond_end].line;
      region.end_line = k < size() ? toks()[k].line : toks()[cond_end].line;
    }
    out_.functions[fn].fork_regions.push_back(region);
  }

  void record_touch(std::size_t i, std::size_t fn) {
    MemberTouch touch;
    touch.name = std::string(text(i));
    touch.line = toks()[i].line;
    if (i > 1 && (text(i - 1) == "." || text(i - 1) == "->") &&
        is_ident(i - 2)) {
      touch.qualifier = std::string(text(i - 2));
    } else if (i > 0 &&
               (text(i - 1) == "." || text(i - 1) == "->" ||
                text(i - 1) == "::")) {
      return;  // `(expr).m` / `std::x` — qualifier unknown or namespace
    } else if (touch.name.back() != '_') {
      return;  // bare identifiers only count when member-shaped
    }
    if (text(i + 1) == "::") return;  // type/namespace use
    touch.locks_held = held_locks();
    out_.functions[fn].touches.push_back(std::move(touch));
  }

  /// Mutex member declarations at class/namespace scope:
  /// `[mutable] std::mutex name;`.
  std::size_t try_mutex_decl(std::size_t i) {
    if (!is_ident(i) || !is_mutex_type(text(i))) return kNpos;
    const std::size_t j = i + 1;
    if (!is_ident(j) || is_keyword(text(j))) return kNpos;
    const std::string_view after = text(j + 1);
    if (after != ";" && after != "{" && after != "=") return kNpos;
    out_.mutexes.push_back(
        {class_chain(), std::string(text(j)), toks()[j].line});
    return j;  // let the walk continue normally from the member name
  }

  /// Signal-handler registrations: `act.sa_handler = f;`,
  /// `std::signal(SIGINT, f)`.
  void try_handler_registration(std::size_t i) {
    if (!is_ident(i)) return;
    if (text(i) == "sa_handler" && text(i + 1) == "=" && is_ident(i + 2)) {
      const std::string_view h = text(i + 2);
      if (h != "SIG_IGN" && h != "SIG_DFL" && h != "nullptr") {
        out_.handlers.push_back({std::string(h), toks()[i].line});
      }
    }
    if (text(i) == "signal" && text(i + 1) == "(") {
      const std::size_t close = matching(i + 1, "(", ")");
      if (close == kNpos) return;
      // Last identifier before `)` is the handler (skips the signal name
      // and any casts).
      std::size_t comma = kNpos;
      std::size_t level = 0;
      for (std::size_t k = i + 2; k < close; ++k) {
        if (text(k) == "(") ++level;
        if (text(k) == ")") --level;
        if (text(k) == "," && level == 0) comma = k;
      }
      if (comma == kNpos) return;
      std::string_view h;
      for (std::size_t k = comma + 1; k < close; ++k) {
        if (is_ident(k)) h = text(k);
      }
      if (!h.empty() && h != "SIG_IGN" && h != "SIG_DFL") {
        out_.handlers.push_back({std::string(h), toks()[i].line});
      }
    }
  }

  // --- main walk -------------------------------------------------------

  void walk() {
    std::size_t i = 0;
    while (i < size()) {
      const Token& tok = toks()[i];
      if (tok.text == "{") {
        ++depth_;
        scopes_.push_back(
            {ScopeFrame::Kind::kBlock, "", depth_, kNpos, tok.line});
        ++i;
        continue;
      }
      if (tok.text == "}") {
        if (depth_ > 0) --depth_;
        pop_scopes_to(depth_, tok.line);
        ++i;
        continue;
      }
      if (tok.kind != TokenKind::kIdentifier) {
        ++i;
        continue;
      }

      std::size_t next = try_namespace(i);
      if (next == kNpos) next = try_class(i);
      if (next == kNpos) next = try_enum(i);
      if (next != kNpos) {
        i = next;
        continue;
      }

      const std::size_t fn = current_fn();
      const ScopeFrame::Kind at = declaration_scope();
      if (fn == kNpos || at == ScopeFrame::Kind::kClass) {
        // Namespace/class scope (including local classes): function
        // definitions and mutex member declarations.
        next = try_call_operator_def(i);
        if (next == kNpos) next = try_function_def(i);
        if (next != kNpos) {
          i = next;
          continue;
        }
        next = try_mutex_decl(i);
        if (next != kNpos) {
          i = next;
          continue;
        }
        ++i;
        continue;
      }

      // Inside a function body.
      next = try_guard_decl(i, fn);
      if (next != kNpos) {
        i = next;
        continue;
      }
      try_handler_registration(i);
      if (text(i + 1) == "(" && !is_keyword(tok.text)) {
        if (tok.text == "lock" || tok.text == "unlock") {
          handle_lock_call(i, fn);
        }
        record_call(i, fn);
        ++i;
        continue;
      }
      // Stream construction is IO the call pattern can't see
      // (`std::ofstream out(path)` — the identifier before `(` is the
      // variable): surface it as a synthetic call.
      if ((tok.text == "ofstream" || tok.text == "ifstream" ||
           tok.text == "fstream") &&
          is_ident(i + 1)) {
        CallSite call;
        call.callee = std::string(tok.text);
        call.qualifier = "std";
        call.line = tok.line;
        call.locks_held = held_locks();
        out_.functions[fn].calls.push_back(std::move(call));
        ++i;
        continue;
      }
      if (text(i + 1) != "(" && !is_keyword(tok.text)) {
        record_touch(i, fn);
      }
      ++i;
    }
    pop_scopes_to(0, toks().empty() ? 1 : toks().back().line);
  }

  // --- annotation comments ---------------------------------------------

  /// True when the comment's text before `marker_pos` is only delimiters —
  /// prose that merely mentions the marker must not register.
  [[nodiscard]] static bool marker_leads(std::string_view comment,
                                         std::size_t marker_pos) {
    const std::string_view prefix = comment.substr(0, marker_pos);
    return prefix.find_first_not_of("/* \t!<") == std::string_view::npos;
  }

  void attach_annotations() {
    std::sort(class_ranges_.begin(), class_ranges_.end(),
              [](const ClassRange& a, const ClassRange& b) {
                return (a.end - a.begin) < (b.end - b.begin);
              });
    std::set<std::size_t> code_lines;
    for (const Token& t : toks()) code_lines.insert(t.line);
    std::set<std::size_t> comment_lines;
    for (const Token& c : ctx_.comments) comment_lines.insert(c.line);

    // A comment-only annotation targets the next code line; intervening
    // comment-only lines (the rest of a doc block) are skipped so the
    // marker may appear anywhere in the block as long as it leads its line.
    const auto target_line = [&](std::size_t comment_line) {
      if (code_lines.count(comment_line) > 0) return comment_line;
      std::size_t target = comment_line + 1;
      while (code_lines.count(target) == 0 && comment_lines.count(target) > 0) {
        ++target;
      }
      return target;
    };

    for (const Token& comment : ctx_.comments) {
      constexpr std::string_view kGuarded = "hm-guarded-by(";
      constexpr std::string_view kSignalSafe = "hm-signal-safe";
      std::size_t pos = comment.text.find(kGuarded);
      if (pos != std::string_view::npos && marker_leads(comment.text, pos)) {
        const std::size_t close = comment.text.find(')', pos);
        if (close == std::string_view::npos) continue;
        const std::string mutex(
            trim(comment.text.substr(pos + kGuarded.size(),
                                     close - pos - kGuarded.size())));
        if (mutex.empty()) continue;
        attach_guarded(target_line(comment.line), mutex);
        continue;
      }
      pos = comment.text.find(kSignalSafe);
      if (pos != std::string_view::npos && marker_leads(comment.text, pos)) {
        std::string reason(
            trim(comment.text.substr(pos + kSignalSafe.size())));
        while (!reason.empty() && (reason.front() == ':' ||
                                   reason.front() == '-' ||
                                   reason.front() == ' ')) {
          reason.erase(reason.begin());
        }
        attach_signal_safe(target_line(comment.line), reason);
      }
    }
  }

  void attach_guarded(std::size_t target, const std::string& mutex) {
    // The declared member: the identifier immediately before the first
    // `;`, `=`, `{`, or `[` on the target line.
    std::string name;
    std::string_view last_ident;
    for (const Token& t : toks()) {
      if (t.line != target) continue;
      if (t.kind == TokenKind::kIdentifier) {
        last_ident = t.text;
        continue;
      }
      if (t.text == ";" || t.text == "=" || t.text == "{" || t.text == "[") {
        if (!last_ident.empty()) name = std::string(last_ident);
        break;
      }
    }
    if (name.empty() && !last_ident.empty()) name = std::string(last_ident);
    if (name.empty()) return;
    std::string scope;
    for (const ClassRange& range : class_ranges_) {
      if (range.begin <= target && target <= range.end) {
        scope = range.scope;
        break;  // ranges are sorted smallest-first: innermost wins
      }
    }
    out_.guarded.push_back({scope, name, mutex, target});
  }

  void attach_signal_safe(std::size_t target, const std::string& reason) {
    for (FunctionDef& fn : out_.functions) {
      if (fn.line >= target && fn.line <= target + 2) {
        fn.signal_safe = true;
        fn.signal_safe_reason = reason;
        return;
      }
    }
  }
};

}  // namespace

FileIndex build_file_index(const FileContext& context) {
  return IndexBuilder(context).build();
}

// --- ProjectIndex ------------------------------------------------------

ProjectIndex ProjectIndex::merge(std::vector<FileIndex> files) {
  std::sort(files.begin(), files.end(),
            [](const FileIndex& a, const FileIndex& b) {
              return a.path < b.path;
            });
  ProjectIndex index;
  index.files_ = std::move(files);
  for (const FileIndex& file : index.files_) {
    for (const FunctionDef& fn : file.functions) {
      index.functions_.push_back(&fn);
      index.function_files_.push_back(&file);
      index.by_name_[fn.name].push_back(&fn);
      index.owner_[&fn] = &file;
    }
    for (const MutexDecl& m : file.mutexes) {
      index.mutex_by_name_[m.name].push_back(&m);
    }
    for (const GuardedMember& g : file.guarded) {
      index.guarded_.push_back(g);
    }
  }
  std::sort(index.guarded_.begin(), index.guarded_.end(),
            [](const GuardedMember& a, const GuardedMember& b) {
              return std::tie(a.scope, a.name, a.mutex) <
                     std::tie(b.scope, b.name, b.mutex);
            });
  return index;
}

std::vector<const FunctionDef*> ProjectIndex::lookup(
    const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? std::vector<const FunctionDef*>{} : it->second;
}

namespace {

/// True when every `::`-separated component of `needle` appears, in order,
/// among the components of `haystack`.
[[nodiscard]] bool scope_contains(const std::string& haystack,
                                  const std::string& needle) {
  if (needle.empty()) return true;
  std::size_t h = 0;
  std::size_t n = 0;
  while (n < needle.size()) {
    const std::size_t n_end = needle.find("::", n);
    const std::string_view want =
        std::string_view(needle).substr(n, n_end == std::string::npos
                                               ? needle.size() - n
                                               : n_end - n);
    bool found = false;
    while (h < haystack.size()) {
      const std::size_t h_end = haystack.find("::", h);
      const std::string_view have =
          std::string_view(haystack).substr(h, h_end == std::string::npos
                                                   ? haystack.size() - h
                                                   : h_end - h);
      h = h_end == std::string::npos ? haystack.size() : h_end + 2;
      if (have == want) {
        found = true;
        break;
      }
    }
    if (!found) return false;
    n = n_end == std::string::npos ? needle.size() : n_end + 2;
  }
  return true;
}

[[nodiscard]] std::string lock_identity(const MutexDecl& decl) {
  return decl.scope.empty() ? decl.name : decl.scope + "::" + decl.name;
}

}  // namespace

namespace {

/// Member-function names of std containers/streams/atomics. An
/// object-qualified call to one of these (`out.append(...)`,
/// `identity.find(...)`) is overwhelmingly a std member, not one of our
/// indexed methods that happens to share the name — resolving it
/// cross-class would fabricate call edges (a `std::string::append` turning
/// into `JournalWriter::append` poisons every IO-reachability query). The
/// cost is that a genuine `journal_->append(...)` edge is dropped too;
/// that direction of conservatism only loses findings inside the callee,
/// which is itself indexed and checked directly.
[[nodiscard]] bool is_std_member_name(std::string_view name) {
  static const std::set<std::string_view> kNames = {
      "append",    "push_back", "pop_back",  "insert",     "erase",
      "clear",     "find",      "count",     "size",       "empty",
      "begin",     "end",       "reserve",   "resize",     "substr",
      "c_str",     "data",      "front",     "back",       "assign",
      "at",        "get",       "reset",     "release",    "swap",
      "str",       "write",     "read",      "open",       "close",
      "flush",     "good",      "fail",      "load",       "store",
      "exchange",  "fetch_add", "fetch_sub", "wait",       "wait_for",
      "wait_until", "notify_one", "notify_all", "lock",    "unlock",
      "try_lock",  "emplace",   "emplace_back", "push",    "pop",
      "top",       "value",     "has_value", "contains",   "merge",
      "compare_exchange_weak", "compare_exchange_strong"};
  return kNames.count(name) > 0;
}

}  // namespace

std::vector<const FunctionDef*> ProjectIndex::resolve_call(
    const FunctionDef& caller, const CallSite& call) const {
  if (call.qualifier == "std" ||
      call.qualifier.rfind("std::", 0) == 0) {
    return {};
  }
  const auto it = by_name_.find(call.callee);
  if (it == by_name_.end()) return {};
  const std::vector<const FunctionDef*>& candidates = it->second;
  // `::f(...)` explicitly names the global namespace: an indexed method or
  // namespaced function is never what it calls.
  if (call.qualifier == "::") {
    std::vector<const FunctionDef*> global;
    for (const FunctionDef* fn : candidates) {
      if (fn != &caller && fn->scope.empty()) global.push_back(fn);
    }
    return global;
  }
  // Prefer definitions sharing the caller's scope (same-class methods).
  std::vector<const FunctionDef*> same_scope;
  for (const FunctionDef* fn : candidates) {
    if (fn == &caller) continue;
    if (!fn->scope.empty() && scope_contains(caller.scope, fn->scope)) {
      same_scope.push_back(fn);
    }
  }
  if (!same_scope.empty()) return same_scope;
  // A member call on a foreign object is unresolvable without type
  // information — linking `deadline.seconds()` to every indexed `seconds`
  // fabricates edges. Bare and namespace-qualified calls still fall through.
  if (call.member) return {};
  // Bare/namespace calls with std-member-shaped names don't resolve
  // cross-class either (see is_std_member_name); the same-scope pass above
  // still resolves them within the caller's own class.
  if (!call.qualifier.empty() && is_std_member_name(call.callee)) return {};
  std::vector<const FunctionDef*> all;
  for (const FunctionDef* fn : candidates) {
    if (fn != &caller) all.push_back(fn);
  }
  return all;
}

std::string ProjectIndex::resolve_lock(const FunctionDef& fn,
                                       const std::string& expr) const {
  const std::size_t dot = expr.rfind('.');
  const std::string name =
      dot == std::string::npos ? expr : expr.substr(dot + 1);
  const bool qualified = dot != std::string::npos;
  const auto it = mutex_by_name_.find(name);
  if (it == mutex_by_name_.end() || it->second.empty()) return name;
  const std::vector<const MutexDecl*>& decls = it->second;
  const auto enclosing = [&]() -> const MutexDecl* {
    for (const MutexDecl* d : decls) {
      if (!d->scope.empty() && scope_contains(fn.scope, d->scope)) return d;
    }
    return nullptr;
  };
  if (qualified) {
    if (decls.size() == 1) return lock_identity(*decls[0]);
    if (const MutexDecl* d = enclosing()) return lock_identity(*d);
    return name;
  }
  if (const MutexDecl* d = enclosing()) return lock_identity(*d);
  if (decls.size() == 1) return lock_identity(*decls[0]);
  return name;
}

const FileIndex* ProjectIndex::file_of(const FunctionDef& fn) const {
  const auto it = owner_.find(&fn);
  return it == owner_.end() ? nullptr : it->second;
}

std::vector<const MutexDecl*> ProjectIndex::mutexes_named(
    const std::string& name) const {
  const auto it = mutex_by_name_.find(name);
  return it == mutex_by_name_.end() ? std::vector<const MutexDecl*>{}
                                    : it->second;
}

}  // namespace hm::lint
