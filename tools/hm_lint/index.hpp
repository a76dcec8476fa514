#pragma once

/// \file
/// Pass-1 semantic index for hm_lint's cross-file rules.
///
/// `build_file_index` scans one tokenized translation unit and records the
/// facts the cross-file rules (lock-order-cycle, guarded-by,
/// blocking-under-lock, fork-child-safety) need:
///
///   - function/method definitions with their enclosing scope chain,
///   - a conservative call graph: every `name(`-shaped call site, with the
///     set of lock expressions held at the site,
///   - lock acquisitions (`std::lock_guard` / `scoped_lock` / `unique_lock`
///     declarations, manual `.lock()` / `.unlock()`, including `unique_lock`
///     re-lock toggling), each with the locks already held,
///   - mutex-typed member declarations per class,
///   - member touches (reads/writes of member-shaped identifiers) with the
///     locks held,
///   - `// hm-guarded-by(<mutex>)` and `// hm-signal-safe` annotations,
///   - `fork()`-child regions and signal-handler registrations.
///
/// Everything is recorded as raw token text plus the scope chain; name
/// resolution (which class's `mutex_` a raw expression denotes) happens in
/// pass 2 against the merged `ProjectIndex`, so per-TU indexing stays
/// embarrassingly parallel and deterministic.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "hm_lint/rule.hpp"

namespace hm::lint {

/// One call site inside a function body.
struct CallSite {
  /// The identifier immediately before the `(`.
  std::string callee;
  /// Dotted object/namespace path before the callee: "" for a bare call,
  /// "::" for an explicitly global call, "std" for `std::f(...)`,
  /// "owner_" for `owner_.f(...)`.
  std::string qualifier;
  std::size_t line = 0;
  /// Normalized lock expressions held when the call executes.
  std::vector<std::string> locks_held;
  /// True for `obj.f(...)` / `obj->f(...)`: the callee is a member of some
  /// object whose type the index cannot see, so resolution is restricted to
  /// the caller's own scope (never cross-class).
  bool member = false;
};

/// One lock acquisition event (guard construction or manual `.lock()`).
struct LockAcquisition {
  /// Normalized lock expression, e.g. "mutex_", "self.mutex", "owner_.mutex_".
  std::string expr;
  std::size_t line = 0;
  /// Locks already held when this one is acquired (acquisition order edges).
  std::vector<std::string> held_before;
};

/// A read/write of a member-shaped identifier (`x.m`, `x->m`, or a bare
/// identifier ending in `_`). Only touches inside function bodies are
/// recorded.
struct MemberTouch {
  std::string name;
  /// The single identifier before `.`/`->`, or "" for a bare touch.
  std::string qualifier;
  std::size_t line = 0;
  std::vector<std::string> locks_held;
};

/// A `fork()` whose ==0 branch was recognized; calls within [begin_line,
/// end_line] of the enclosing function run in the child.
struct ForkRegion {
  std::size_t fork_line = 0;
  std::size_t begin_line = 0;
  std::size_t end_line = 0;
};

/// One function or method definition.
struct FunctionDef {
  /// Unqualified name ("append", "~ThreadPool", "operator()").
  std::string name;
  /// Enclosing scope chain joined with "::" — namespaces and classes, plus
  /// any qualifiers written at the definition ("hm::common::JournalWriter").
  std::string scope;
  std::size_t line = 0;
  std::size_t end_line = 0;
  bool signal_safe = false;        ///< carries a `// hm-signal-safe` annotation
  std::string signal_safe_reason;  ///< text after the marker, may be empty
  std::vector<CallSite> calls;
  std::vector<LockAcquisition> acquisitions;
  std::vector<MemberTouch> touches;
  std::vector<ForkRegion> fork_regions;

  /// "scope::name" (or just "name" at global scope).
  [[nodiscard]] std::string qualified() const {
    return scope.empty() ? name : scope + "::" + name;
  }
};

/// A mutex-typed member (or namespace-scope mutex) declaration.
struct MutexDecl {
  std::string scope;  ///< declaring class chain, "" for namespace scope
  std::string name;
  std::size_t line = 0;
};

/// A member annotated `// hm-guarded-by(<mutex>)`.
struct GuardedMember {
  std::string scope;  ///< declaring class chain
  std::string name;
  std::string mutex;  ///< annotation argument, e.g. "mutex_"
  std::size_t line = 0;
};

/// A function registered as a signal handler (`sa_handler = f`,
/// `std::signal(SIG*, f)`).
struct HandlerRegistration {
  std::string handler;
  std::size_t line = 0;
};

/// Everything indexed from one translation unit.
struct FileIndex {
  std::string path;
  bool is_test = false;
  std::vector<FunctionDef> functions;
  std::vector<MutexDecl> mutexes;
  std::vector<GuardedMember> guarded;
  std::vector<HandlerRegistration> handlers;
};

/// Build the index for one tokenized file.
[[nodiscard]] FileIndex build_file_index(const FileContext& context);

/// The merged project-wide index plus the resolution tables pass 2 needs.
class ProjectIndex {
 public:
  /// Merge per-TU indexes; `files` may be in any order, the result is
  /// deterministic (sorted by path).
  static ProjectIndex merge(std::vector<FileIndex> files);

  [[nodiscard]] const std::vector<FileIndex>& files() const { return files_; }

  /// All function definitions across the project, in (path, line) order.
  [[nodiscard]] const std::vector<const FunctionDef*>& functions() const {
    return functions_;
  }
  /// File path owning functions()[i] (parallel vector).
  [[nodiscard]] const std::vector<const FileIndex*>& function_files() const {
    return function_files_;
  }

  [[nodiscard]] const std::vector<GuardedMember>& guarded_members() const {
    return guarded_;
  }

  /// Definitions whose unqualified name is `name`.
  [[nodiscard]] std::vector<const FunctionDef*> lookup(
      const std::string& name) const;

  /// Resolve a call site from `caller` to candidate definitions. Prefers
  /// same-scope methods over free functions; an empty result means the
  /// callee is external (std::, libc, …) or undefined in the index.
  [[nodiscard]] std::vector<const FunctionDef*> resolve_call(
      const FunctionDef& caller, const CallSite& call) const;

  /// Resolve a raw lock expression recorded in `fn` to a stable identity:
  /// "Class::mutex" when a declaring class is found, otherwise the bare
  /// trailing name. Deterministic.
  [[nodiscard]] std::string resolve_lock(const FunctionDef& fn,
                                         const std::string& expr) const;

  /// The file that owns a function definition (for diagnostics).
  [[nodiscard]] const FileIndex* file_of(const FunctionDef& fn) const;

  /// Classes declaring a mutex member with this (unqualified) name.
  [[nodiscard]] std::vector<const MutexDecl*> mutexes_named(
      const std::string& name) const;

 private:
  std::vector<FileIndex> files_;
  std::vector<const FunctionDef*> functions_;
  std::vector<const FileIndex*> function_files_;
  std::vector<GuardedMember> guarded_;
  std::map<std::string, std::vector<const FunctionDef*>> by_name_;
  std::map<std::string, std::vector<const MutexDecl*>> mutex_by_name_;
  std::map<const FunctionDef*, const FileIndex*> owner_;
};

}  // namespace hm::lint
