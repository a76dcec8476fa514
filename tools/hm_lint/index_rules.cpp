#include "hm_lint/index_rules.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

namespace hm::lint {

namespace {

/// Last `::`- or `.`-separated component of a lock identity / expression.
[[nodiscard]] std::string_view trailing(std::string_view s) {
  const std::size_t colon = s.rfind("::");
  if (colon != std::string_view::npos) s = s.substr(colon + 2);
  const std::size_t dot = s.rfind('.');
  if (dot != std::string_view::npos) s = s.substr(dot + 1);
  return s;
}

/// True when any raw lock expression in `locks` denotes `mutex_name`
/// (matched on the trailing component, so `owner_.mutex_` holds `mutex_`).
[[nodiscard]] bool holds_raw(const std::vector<std::string>& locks,
                             std::string_view mutex_name) {
  for (const std::string& l : locks) {
    if (trailing(l) == mutex_name) return true;
  }
  return false;
}

[[nodiscard]] std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& s : items) {
    if (!out.empty()) out += ", ";
    out += "'" + s + "'";
  }
  return out;
}

[[nodiscard]] std::string site(const FileIndex* file, std::size_t line) {
  return (file != nullptr ? file->path : std::string("?")) + ":" +
         std::to_string(line);
}

std::vector<std::string> resolve_all(const ProjectIndex& index,
                                     const FunctionDef& fn,
                                     const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  for (const std::string& r : raw) {
    std::string id = index.resolve_lock(fn, r);
    if (std::find(out.begin(), out.end(), id) == out.end()) {
      out.push_back(std::move(id));
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// lock-order-cycle
// ---------------------------------------------------------------------

class LockOrderCycleRule final : public IndexRule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "lock-order-cycle";
  }
  [[nodiscard]] std::string_view description() const override {
    return "lock acquisition-order cycles across the indexed call graph "
           "are potential deadlocks; acquire locks in one global order";
  }

  void check(const ProjectIndex& index,
             std::vector<Diagnostic>& out) const override {
    // Representative acquisition site per lock, per function closure.
    struct AcqSite {
      const FileIndex* file = nullptr;
      std::size_t line = 0;
      std::string chain;  ///< "F -> G" call chain reaching the acquisition
    };
    using Closure = std::map<std::string, AcqSite>;
    std::map<const FunctionDef*, Closure> memo;
    std::set<const FunctionDef*> in_progress;

    const std::function<const Closure&(const FunctionDef&)> closure =
        [&](const FunctionDef& fn) -> const Closure& {
      const auto found = memo.find(&fn);
      if (found != memo.end()) return found->second;
      static const Closure kEmpty;
      if (in_progress.count(&fn) > 0) return kEmpty;
      in_progress.insert(&fn);
      Closure result;
      const FileIndex* file = index.file_of(fn);
      for (const LockAcquisition& acq : fn.acquisitions) {
        result.emplace(index.resolve_lock(fn, acq.expr),
                       AcqSite{file, acq.line, fn.qualified()});
      }
      for (const CallSite& call : fn.calls) {
        for (const FunctionDef* callee : index.resolve_call(fn, call)) {
          for (const auto& [lock, acq] : closure(*callee)) {
            result.emplace(
                lock, AcqSite{acq.file, acq.line,
                              fn.qualified() + " -> " + acq.chain});
          }
        }
      }
      in_progress.erase(&fn);
      return memo.emplace(&fn, std::move(result)).first->second;
    };

    // Acquisition-order edges: held -> acquired, first site wins.
    struct Edge {
      const FileIndex* file = nullptr;
      std::size_t line = 0;
      std::string desc;
    };
    std::map<std::pair<std::string, std::string>, Edge> edges;
    const auto add_edge = [&](const std::string& held,
                              const std::string& acquired, Edge edge) {
      if (held == acquired) return;
      edges.emplace(std::make_pair(held, acquired), std::move(edge));
    };

    for (const FunctionDef* fn : index.functions()) {
      const FileIndex* file = index.file_of(*fn);
      for (const LockAcquisition& acq : fn->acquisitions) {
        const std::string acquired = index.resolve_lock(*fn, acq.expr);
        for (const std::string& held :
             resolve_all(index, *fn, acq.held_before)) {
          add_edge(held, acquired,
                   {file, acq.line,
                    fn->qualified() + " acquires '" + acquired + "' at " +
                        site(file, acq.line) + " while holding '" + held +
                        "'"});
        }
      }
      for (const CallSite& call : fn->calls) {
        if (call.locks_held.empty()) continue;
        const std::vector<std::string> held =
            resolve_all(index, *fn, call.locks_held);
        for (const FunctionDef* callee : index.resolve_call(*fn, call)) {
          for (const auto& [lock, acq] : closure(*callee)) {
            for (const std::string& h : held) {
              add_edge(h, lock,
                       {file, call.line,
                        fn->qualified() + " holds '" + h + "' at " +
                            site(file, call.line) + " and calls " +
                            acq.chain + ", which acquires '" + lock +
                            "' at " + site(acq.file, acq.line)});
            }
          }
        }
      }
    }

    // Report each unordered cycle once. Two-node cycles (the classic AB/BA
    // deadlock) carry both acquisition paths; longer cycles list every hop.
    std::set<std::set<std::string>> reported;
    for (const auto& [key, edge] : edges) {
      const auto& [a, b] = key;
      const auto back = edges.find(std::make_pair(b, a));
      if (back == edges.end()) continue;
      std::set<std::string> cycle_key = {a, b};
      if (!reported.insert(cycle_key).second) continue;
      if (edge.file != nullptr && edge.file->is_test) continue;
      out.push_back(
          {edge.file != nullptr ? edge.file->path : "?", edge.line,
           std::string(id()),
           "potential deadlock: '" + a + "' and '" + b +
               "' are acquired in both orders — path 1: " + edge.desc +
               "; path 2: " + back->second.desc});
    }
    // Longer cycles via DFS over the remaining graph.
    std::map<std::string, std::vector<std::string>> adjacency;
    for (const auto& [key, edge] : edges) {
      adjacency[key.first].push_back(key.second);
    }
    std::set<std::string> done;
    for (const auto& [start, unused] : adjacency) {
      (void)unused;
      std::vector<std::string> stack;
      std::set<std::string> on_stack;
      const std::function<void(const std::string&)> dfs =
          [&](const std::string& node) {
            if (done.count(node) > 0) return;
            stack.push_back(node);
            on_stack.insert(node);
            const auto it = adjacency.find(node);
            if (it != adjacency.end()) {
              for (const std::string& next : it->second) {
                if (on_stack.count(next) > 0) {
                  const auto begin =
                      std::find(stack.begin(), stack.end(), next);
                  std::set<std::string> cycle_key(begin, stack.end());
                  if (cycle_key.size() > 2 &&
                      reported.insert(cycle_key).second) {
                    std::string desc;
                    for (auto n = begin; n != stack.end(); ++n) {
                      const auto to =
                          n + 1 == stack.end() ? begin : n + 1;
                      const auto e =
                          edges.find(std::make_pair(*n, *to));
                      if (e == edges.end()) continue;
                      if (!desc.empty()) desc += "; ";
                      desc += e->second.desc;
                    }
                    const auto anchor =
                        edges.find(std::make_pair(*begin, *(begin + 1)));
                    if (anchor != edges.end() &&
                        (anchor->second.file == nullptr ||
                         !anchor->second.file->is_test)) {
                      out.push_back({anchor->second.file != nullptr
                                         ? anchor->second.file->path
                                         : "?",
                                     anchor->second.line, std::string(id()),
                                     "potential deadlock: lock-order cycle "
                                     "through " +
                                         std::to_string(cycle_key.size()) +
                                         " locks — " + desc});
                    }
                  }
                  continue;
                }
                dfs(next);
              }
            }
            on_stack.erase(node);
            stack.pop_back();
            done.insert(node);
          };
      dfs(start);
    }
  }
};

// ---------------------------------------------------------------------
// guarded-by
// ---------------------------------------------------------------------

class GuardedByRule final : public IndexRule {
 public:
  [[nodiscard]] std::string_view id() const override { return "guarded-by"; }
  [[nodiscard]] std::string_view description() const override {
    return "members annotated `// hm-guarded-by(m)` may only be touched "
           "with `m` held, directly or by every indexed caller";
  }

  void check(const ProjectIndex& index,
             std::vector<Diagnostic>& out) const override {
    // Reverse call graph: who calls each indexed definition, and with what
    // locks held at the site.
    std::map<const FunctionDef*,
             std::vector<std::pair<const FunctionDef*, const CallSite*>>>
        callers;
    for (const FunctionDef* fn : index.functions()) {
      for (const CallSite& call : fn->calls) {
        for (const FunctionDef* callee : index.resolve_call(*fn, call)) {
          callers[callee].emplace_back(fn, &call);
        }
      }
    }

    // All indexed callers hold `mutex_name` (transitively, depth-capped).
    const std::function<bool(const FunctionDef&, std::string_view,
                             std::set<const FunctionDef*>&, int)>
        callers_hold = [&](const FunctionDef& fn, std::string_view mutex_name,
                           std::set<const FunctionDef*>& visited,
                           int depth) -> bool {
      if (depth <= 0) return false;
      if (!visited.insert(&fn).second) return true;  // recursion: benign
      const auto it = callers.find(&fn);
      if (it == callers.end() || it->second.empty()) return false;
      for (const auto& [caller, call] : it->second) {
        if (holds_raw(call->locks_held, mutex_name)) continue;
        if (callers_hold(*caller, mutex_name, visited, depth - 1)) continue;
        return false;
      }
      return true;
    };

    // Group annotations by member name.
    std::map<std::string, std::vector<const GuardedMember*>> by_name;
    for (const GuardedMember& g : index.guarded_members()) {
      by_name[g.name].push_back(&g);
    }

    std::set<std::tuple<std::string, std::size_t, std::string>> seen;
    for (std::size_t f = 0; f < index.functions().size(); ++f) {
      const FunctionDef& fn = *index.functions()[f];
      const FileIndex& file = *index.function_files()[f];
      if (file.is_test) continue;
      // Constructors and destructors run while no other thread can hold a
      // reference to the object; requiring the guard there would force
      // pointless locking (and self-deadlock for non-recursive mutexes).
      if (is_ctor_or_dtor(fn)) continue;
      for (const MemberTouch& touch : fn.touches) {
        const auto anns = by_name.find(touch.name);
        if (anns == by_name.end()) continue;
        // Pick the applicable annotation: a bare touch must be inside the
        // declaring class; a qualified touch applies when the member name
        // is unambiguous project-wide.
        const GuardedMember* ann = nullptr;
        for (const GuardedMember* candidate : anns->second) {
          if (scope_matches(fn.scope, candidate->scope)) {
            ann = candidate;
            break;
          }
        }
        if (ann == nullptr && !touch.qualifier.empty() &&
            anns->second.size() == 1) {
          ann = anns->second[0];
        }
        if (ann == nullptr) continue;
        if (holds_raw(touch.locks_held, ann->mutex)) continue;
        std::set<const FunctionDef*> visited;
        if (callers_hold(fn, ann->mutex, visited, 6)) continue;
        if (!seen.insert({file.path, touch.line, touch.name}).second) {
          continue;
        }
        out.push_back(
            {file.path, touch.line, std::string(id()),
             "member '" + touch.name + "' is annotated hm-guarded-by(" +
                 ann->mutex + ") but is accessed in " + fn.qualified() +
                 " without '" + ann->mutex +
                 "' held (no enclosing guard, and not every indexed caller "
                 "holds it)"});
      }
    }
  }

 private:
  [[nodiscard]] static bool is_ctor_or_dtor(const FunctionDef& fn) {
    if (!fn.name.empty() && fn.name.front() == '~') return true;
    const std::string_view scope = fn.scope;
    const std::size_t colon = scope.rfind("::");
    const std::string_view cls =
        colon == std::string_view::npos ? scope : scope.substr(colon + 2);
    return !cls.empty() && cls == fn.name;
  }

  /// Every component of the annotation's declaring class chain appears in
  /// the function's scope chain.
  [[nodiscard]] static bool scope_matches(const std::string& fn_scope,
                                          const std::string& ann_scope) {
    if (ann_scope.empty()) return false;
    std::size_t begin = 0;
    while (begin < ann_scope.size()) {
      const std::size_t end = ann_scope.find("::", begin);
      const std::string component = ann_scope.substr(
          begin, end == std::string::npos ? std::string::npos : end - begin);
      bool found = false;
      std::size_t b = 0;
      while (b < fn_scope.size()) {
        const std::size_t e = fn_scope.find("::", b);
        if (fn_scope.substr(b, e == std::string::npos ? std::string::npos
                                                      : e - b) == component) {
          found = true;
          break;
        }
        b = e == std::string::npos ? fn_scope.size() : e + 2;
      }
      if (!found) return false;
      begin = end == std::string::npos ? ann_scope.size() : end + 2;
    }
    return true;
  }
};

// ---------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------

class BlockingUnderLockRule final : public IndexRule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "blocking-under-lock";
  }
  [[nodiscard]] std::string_view description() const override {
    return "syscalls / file IO must not be reachable while a mutex is "
           "held; stage the IO outside the critical section";
  }

  void check(const ProjectIndex& index,
             std::vector<Diagnostic>& out) const override {
    std::map<const FunctionDef*, std::optional<std::string>> memo;
    std::set<const FunctionDef*> in_progress;

    // A path description "G -> H calls ::fsync at file:line", or nullopt.
    const std::function<std::optional<std::string>(const FunctionDef&)>
        blocking_path = [&](const FunctionDef& fn)
        -> std::optional<std::string> {
      const auto found = memo.find(&fn);
      if (found != memo.end()) return found->second;
      if (in_progress.count(&fn) > 0) return std::nullopt;
      in_progress.insert(&fn);
      std::optional<std::string> result;
      const FileIndex* file = index.file_of(fn);
      for (const CallSite& call : fn.calls) {
        if (in_fork_child(fn, call.line)) continue;
        if (const auto label = blocking_label(call)) {
          result = fn.qualified() + " calls " + *label + " at " +
                   site(file, call.line);
          break;
        }
      }
      if (!result) {
        for (const CallSite& call : fn.calls) {
          if (in_fork_child(fn, call.line)) continue;
          for (const FunctionDef* callee : index.resolve_call(fn, call)) {
            if (const auto sub = blocking_path(*callee)) {
              result = fn.qualified() + " -> " + *sub;
              break;
            }
          }
          if (result) break;
        }
      }
      in_progress.erase(&fn);
      memo[&fn] = result;
      return result;
    };

    std::set<std::pair<std::string, std::size_t>> seen;
    for (std::size_t f = 0; f < index.functions().size(); ++f) {
      const FunctionDef& fn = *index.functions()[f];
      const FileIndex& file = *index.function_files()[f];
      if (file.is_test) continue;
      for (const CallSite& call : fn.calls) {
        if (call.locks_held.empty()) continue;
        // Calls in a fork()==0 branch run in the child process, where the
        // parent's critical section is moot (fork-child-safety owns them).
        if (in_fork_child(fn, call.line)) continue;
        const std::vector<std::string> held =
            resolve_all(index, fn, call.locks_held);
        std::optional<std::string> desc;
        if (const auto label = blocking_label(call)) {
          desc = "blocking call " + *label;
        } else {
          for (const FunctionDef* callee : index.resolve_call(fn, call)) {
            if (const auto path = blocking_path(*callee)) {
              desc = "call into " + *path;
              break;
            }
          }
        }
        if (!desc) continue;
        if (!seen.insert({file.path, call.line}).second) continue;
        out.push_back({file.path, call.line, std::string(id()),
                       *desc + " while holding " + join(held) +
                           " — release the lock before blocking, or "
                           "suppress with the reason the section must "
                           "exclude writers"});
      }
    }
  }

 private:
  [[nodiscard]] static bool in_fork_child(const FunctionDef& fn,
                                          std::size_t line) {
    for (const ForkRegion& r : fn.fork_regions) {
      if (line >= r.begin_line && line <= r.end_line) return true;
    }
    return false;
  }

  /// Classifies a call site as a blocking primitive. Qualifier-sensitive:
  /// generic names (`read`, `write`, `wait`, …) only count written as
  /// global-scope syscalls (`::read`), so `cv_.wait(lock)` and member
  /// `read()` protocol helpers stay quiet; distinctive stdio names count
  /// bare or `std::`-qualified too.
  [[nodiscard]] static std::optional<std::string> blocking_label(
      const CallSite& call) {
    static const std::set<std::string_view> kGlobalOnly = {
        "read",   "write",   "pread",  "pwrite", "readv",  "writev",
        "open",   "openat",  "creat",  "select", "pause",  "recv",
        "recvfrom", "recvmsg", "send", "sendto", "sendmsg", "accept",
        "connect", "wait",   "wait4",  "flock",  "msync",  "sync"};
    static const std::set<std::string_view> kDistinctive = {
        "fsync",     "fdatasync", "poll",    "ppoll",   "epoll_wait",
        "waitpid",   "nanosleep", "usleep",  "sleep",   "system",
        "fwrite",    "fread",     "fflush",  "fopen",   "fclose",
        "freopen",   "fgets",     "fputs",   "fputc",   "fprintf",
        "vfprintf",  "fscanf",    "fseek",   "getline", "popen",
        "pclose"};
    const std::string& q = call.qualifier;
    const bool global = q == "::";
    const bool bare_or_std = q.empty() || global || q == "std";
    if (global && kGlobalOnly.count(call.callee) > 0) {
      return "::" + call.callee;
    }
    if (bare_or_std && kDistinctive.count(call.callee) > 0) {
      return (global ? "::" : "") + call.callee;
    }
    if ((call.callee == "sleep_for" || call.callee == "sleep_until") &&
        q.find("this_thread") != std::string::npos) {
      return "std::this_thread::" + call.callee;
    }
    if ((call.callee == "ofstream" || call.callee == "ifstream" ||
         call.callee == "fstream") &&
        (q == "std" || q.empty())) {
      return "std::" + call.callee + " construction";
    }
    return std::nullopt;
  }
};

// ---------------------------------------------------------------------
// fork-child-safety
// ---------------------------------------------------------------------

class ForkChildSafetyRule final : public IndexRule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "fork-child-safety";
  }
  [[nodiscard]] std::string_view description() const override {
    return "between fork()==0 and _exit/exec, and inside registered signal "
           "handlers, only async-signal-safe calls may be reachable";
  }

  void check(const ProjectIndex& index,
             std::vector<Diagnostic>& out) const override {
    std::map<const FunctionDef*, std::optional<std::string>> memo;

    // nullopt = provably safe; a string = description of the unsafe path.
    const std::function<std::optional<std::string>(
        const FunctionDef&, std::set<const FunctionDef*>&)>
        check_fn = [&](const FunctionDef& fn,
                       std::set<const FunctionDef*>& visited)
        -> std::optional<std::string> {
      const auto found = memo.find(&fn);
      if (found != memo.end()) return found->second;
      if (!visited.insert(&fn).second) return std::nullopt;
      std::optional<std::string> result;
      for (const CallSite& call : fn.calls) {
        if (auto v = classify(index, fn, call, check_fn, visited)) {
          result = fn.qualified() + " -> " + *v;
          break;
        }
      }
      memo[&fn] = result;
      return result;
    };

    for (std::size_t f = 0; f < index.functions().size(); ++f) {
      const FunctionDef& fn = *index.functions()[f];
      const FileIndex& file = *index.function_files()[f];
      if (file.is_test) continue;
      for (const ForkRegion& region : fn.fork_regions) {
        bool terminated = false;
        for (const CallSite& call : fn.calls) {
          if (call.line < region.begin_line || call.line > region.end_line) {
            continue;
          }
          if (is_terminator(call.callee)) terminated = true;
          for (const FunctionDef* callee : index.resolve_call(fn, call)) {
            if (callee->signal_safe) terminated = true;
          }
          std::set<const FunctionDef*> visited;
          if (auto v = classify(index, fn, call, check_fn, visited)) {
            out.push_back(
                {file.path, call.line, std::string(id()),
                 "async-signal-unsafe call in fork child (fork at line " +
                     std::to_string(region.fork_line) + "): " + *v});
          }
        }
        if (!terminated) {
          out.push_back(
              {file.path, region.begin_line, std::string(id()),
               "fork child branch (fork at line " +
                   std::to_string(region.fork_line) +
                   ") never reaches _exit/exec or an hm-signal-safe "
                   "function — it may fall through into parent code"});
        }
      }
    }

    // Registered signal handlers.
    std::set<std::pair<std::string, std::size_t>> seen;
    for (const FileIndex& file : index.files()) {
      if (file.is_test) continue;
      for (const HandlerRegistration& reg : file.handlers) {
        for (const FunctionDef* handler : index.lookup(reg.handler)) {
          std::set<const FunctionDef*> visited;
          const auto v = check_fn(*handler, visited);
          if (!v) continue;
          const FileIndex* hf = index.file_of(*handler);
          if (hf != nullptr && hf->is_test) continue;
          // Anchor at the handler's first offending call would need the
          // site back-propagated; the handler definition line keeps the
          // suppression local to the handler.
          if (!seen.insert({hf != nullptr ? hf->path : file.path,
                            handler->line})
                   .second) {
            continue;
          }
          out.push_back(
              {hf != nullptr ? hf->path : file.path, handler->line,
               std::string(id()),
               "signal handler '" + handler->qualified() +
                   "' (registered at " + file.path + ":" +
                   std::to_string(reg.line) +
                   ") reaches an async-signal-unsafe call: " + *v});
        }
      }
    }
  }

 private:
  [[nodiscard]] static bool is_terminator(const std::string& callee) {
    return callee == "_exit" || callee == "_Exit" || callee == "abort" ||
           callee == "quick_exit" || callee.rfind("exec", 0) == 0;
  }

  [[nodiscard]] static bool allowlisted(const CallSite& call) {
    // POSIX async-signal-safe functions this codebase uses (plus the
    // handful of cstring/memory primitives that are safe in practice).
    static const std::set<std::string_view> kAllow = {
        "_exit",      "_Exit",      "abort",      "quick_exit",
        "execve",     "execv",      "execvp",     "execl",
        "execle",     "execlp",     "close",      "dup",
        "dup2",       "dup3",       "read",       "write",
        "open",       "openat",     "fcntl",      "pipe",
        "pipe2",      "fork",       "kill",       "raise",
        "getpid",     "getppid",    "sigaction",  "sigemptyset",
        "sigfillset", "sigaddset",  "sigdelset",  "sigprocmask",
        "signal",     "setrlimit",  "getrlimit",  "prctl",
        "setsid",     "setpgid",    "chdir",      "umask",
        "alarm",      "clock_gettime", "nanosleep", "poll",
        "waitpid",    "sleep",      "unlink",     "memcpy",
        "memset",     "memmove",    "strlen",     "strncpy"};
    const std::string& q = call.qualifier;
    // steady_clock::now() and friends are clock_gettime underneath.
    if (call.callee == "now") {
      std::string lower = q;
      for (char& c : lower) c = static_cast<char>(std::tolower(c));
      return lower.find("clock") != std::string::npos;
    }
    // Lock-free std::atomic operations are async-signal-safe; the index
    // carries no variable types, so match the distinctive member-op names
    // on object-style calls (deliberately excludes ambiguous names like
    // `clear`, which containers share).
    static const std::set<std::string_view> kAtomicOps = {
        "store",        "load",
        "exchange",     "fetch_add",
        "fetch_sub",    "fetch_or",
        "fetch_and",    "fetch_xor",
        "test_and_set", "compare_exchange_weak",
        "compare_exchange_strong"};
    if (!q.empty() && q != "::" && q != "std") {
      return kAtomicOps.count(call.callee) > 0;
    }
    return kAllow.count(call.callee) > 0;
  }

  template <typename CheckFn>
  [[nodiscard]] static std::optional<std::string> classify(
      const ProjectIndex& index, const FunctionDef& caller,
      const CallSite& call, const CheckFn& check_fn,
      std::set<const FunctionDef*>& visited) {
    if (allowlisted(call)) return std::nullopt;
    const std::vector<const FunctionDef*> callees =
        index.resolve_call(caller, call);
    if (!callees.empty()) {
      for (const FunctionDef* callee : callees) {
        if (callee->signal_safe) return std::nullopt;  // trusted transfer
      }
      for (const FunctionDef* callee : callees) {
        if (auto v = check_fn(*callee, visited)) return v;
      }
      return std::nullopt;
    }
    return "'" + (call.qualifier.empty()
                      ? call.callee
                      : call.qualifier + "::" + call.callee) +
           "' is not on the async-signal-safe allowlist and is not an "
           "indexed function";
  }
};

}  // namespace

std::vector<std::shared_ptr<const IndexRule>> default_index_rules() {
  return {
      std::make_shared<const LockOrderCycleRule>(),
      std::make_shared<const GuardedByRule>(),
      std::make_shared<const BlockingUnderLockRule>(),
      std::make_shared<const ForkChildSafetyRule>(),
  };
}

}  // namespace hm::lint
