// Shell environment of a login session at a computing site. FEAM reads
// PATH / LD_LIBRARY_PATH to discover accessible MPI stacks, and the
// resolution model *writes* LD_LIBRARY_PATH entries to make library copies
// visible at runtime (paper Section IV).
//
// Sessions: a worker thread that begins a session (see site::ShellSession
// in site/lease.hpp) gets a thread-private copy of the variables — its
// module loads and LD_LIBRARY_PATH edits are invisible to every other
// thread, exactly as two login shells at a real site don't share exports.
// This is what lets concurrent migrations target the same site without a
// site-wide lease: the shell, previously the main shared mutable state,
// becomes per-worker. Sessions nest per thread (LIFO); without one, all
// accessors read and mutate the base environment as before.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace feam::site {

class Environment {
 public:
  void set(std::string name, std::string value);
  void unset(std::string_view name);
  std::optional<std::string> get(std::string_view name) const;
  bool has(std::string_view name) const;

  // Colon-separated list variables.
  std::vector<std::string> get_list(std::string_view name) const;
  void prepend_to_list(std::string_view name, std::string_view entry);
  void append_to_list(std::string_view name, std::string_view entry);

  std::vector<std::string> path() const { return get_list("PATH"); }
  std::vector<std::string> ld_library_path() const {
    return get_list("LD_LIBRARY_PATH");
  }

  // Content hash of the visible variables. A save/edit/restore cycle
  // lands back on the original value, so memo keys built from it survive
  // the constant module load/unload churn of the migration loop.
  // Environments are small (a handful of variables), so hashing on demand
  // is cheap.
  std::uint64_t fingerprint() const;

  // --- thread-private sessions (use site::ShellSession, not these raw)
  // begin_session copies the current visible variables into a shadow that
  // only the calling thread sees; end_session discards the innermost
  // shadow, restoring the previous view. The base map is never touched by
  // a session, so other threads' reads stay race-free. Do not move an
  // Environment while any thread has a session open on it.
  void begin_session() const;
  void end_session() const;

  // Shadow of one session: a full variable copy. Public only so the
  // thread-local registry in the .cpp can name it — not part of the API
  // surface.
  struct Shadow {
    std::map<std::string, std::string, std::less<>> vars;
  };

 private:
  // The calling thread's innermost shadow for this instance, or nullptr.
  Shadow* shadow() const;
  // Visible variable map for the calling thread (shadow or base).
  const std::map<std::string, std::string, std::less<>>& visible() const;

  std::map<std::string, std::string, std::less<>> vars_;
};

}  // namespace feam::site
