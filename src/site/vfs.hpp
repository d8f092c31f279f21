// In-memory POSIX-ish filesystem tree used to materialize computing sites.
//
// Supports regular files (byte content), directories, and symlinks —
// symlinks matter because real library directories are symlink farms
// (libmpi.so -> libmpi.so.0 -> libmpi.so.0.0.2) and FEAM's search methods
// (`ldd`, `find`, `locate`) all traverse them. Path syntax is absolute
// ("/usr/lib64/libc.so.6"); components "." and ".." are not supported
// (never produced by the toolchain).
//
// A regular file's content is an immutable support::Blob. Writing fresh
// bytes interns them, so equal files anywhere in the process share one
// blob; writing a blob read from another file (another site's binary, a
// bundle payload) hands it over with no hashing and no copy. Rewriting or
// removing a file drops only this tree's reference: other holders keep
// their bytes. Write stamps stay per write — two files sharing a blob
// still carry distinct file_version values.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "site/fault.hpp"
#include "support/blob.hpp"
#include "support/byte_io.hpp"

namespace feam::site {

class Vfs {
 public:
  Vfs();
  // Movable so Sites can be returned by value during construction; moves
  // must not race with any other access (they only happen pre-concurrency).
  Vfs(Vfs&& other) noexcept;
  Vfs& operator=(Vfs&& other) noexcept;

  // --- mutation
  // Creates all intermediate directories; returns false if a path component
  // is an existing non-directory.
  bool mkdirs(std::string_view path);
  // Writes a regular file, creating parent directories. Overwrites.
  // Fresh bytes are interned (support::intern); a blob is stored as is.
  bool write_file(std::string_view path, support::Bytes content);
  bool write_file(std::string_view path, std::string_view text);
  bool write_file(std::string_view path, support::Blob content);
  // Creates a symlink at `path` pointing to `target` (absolute, or relative
  // to the link's directory). The target need not exist (dangling links are
  // legal and occur on misconfigured sites).
  bool symlink(std::string_view path, std::string_view target);
  // Removes a file, symlink, or (recursively) a directory.
  bool remove(std::string_view path);

  // --- query (all follow symlinks unless noted)
  //
  // Thread safety: the tree is internally synchronized (readers share,
  // mutators are exclusive), so any mix of concurrent calls is race-free.
  // The pointer read() returns stays valid until the *same path* is
  // rewritten or removed — callers coordinate that through subtree leases
  // (each job mutates only its own scratch subtree; system paths are
  // read-only while migrations run), not through the Vfs itself.
  bool exists(std::string_view path) const;
  bool is_dir(std::string_view path) const;
  bool is_file(std::string_view path) const;
  bool is_symlink(std::string_view path) const;  // does NOT follow
  // Content of a regular file; nullptr if absent / dangling / a directory.
  const support::Bytes* read(std::string_view path) const;
  // The same read as a shared reference to the file's blob, which stays
  // valid after the file is rewritten or removed. Faults as read() does;
  // an injected short read yields a private truncated blob, never the
  // file's own and never interned.
  support::Blob read_blob(std::string_view path) const;
  // Canonical path after resolving symlinks; nullopt if unresolvable.
  std::optional<std::string> resolve(std::string_view path) const;
  // Names (not full paths) of a directory's entries, sorted.
  std::vector<std::string> list(std::string_view dir) const;

  // Recursive search rooted at `root` (like `find root -name ...`), calling
  // the predicate with each entry's basename; returns matching full paths,
  // sorted. Does not descend through symlinked directories (matching
  // `find`'s default).
  std::vector<std::string> find(
      std::string_view root,
      const std::function<bool(std::string_view)>& name_predicate) const;

  // Whole-tree filename index lookup (like `locate pattern`): every path
  // whose basename contains `needle`.
  std::vector<std::string> locate(std::string_view needle) const;

  // Monotone counter bumped on every successful mutation (mkdirs,
  // write_file, symlink, remove). Cache keys use it to detect staleness.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Like generation(), but only counting mutations of the *system* half of
  // the tree — everything outside the scratch prefixes (/home, /tmp).
  // Discovery-style scans (module databases, /etc releases, installed
  // stacks under /opt and /usr) read only system paths, so their memo keys
  // can ignore the constant churn of per-migration scratch files.
  std::uint64_t system_generation() const {
    return system_generation_.load(std::memory_order_acquire);
  }

  // True for paths under the scratch prefixes: user homes and /tmp. These
  // hold migrated binaries, resolution copies, and hello-world probes —
  // transient per-migration state, never part of a site's installed
  // software surface.
  static bool scratch_path(std::string_view path);

  // --- read-only overlay (container-image semantics)
  // Seals a subtree: every mutation at or under `prefix` — and any remove
  // of one of its ancestors — fails and leaves the tree and generation
  // counters untouched, exactly like writing into a squashed read-only
  // image layer. Reads are unaffected. Scratch prefixes (/home, /tmp)
  // stay writable as the overlay's upper dir as long as they are not
  // sealed themselves. Returns false when the prefix is already sealed.
  bool seal(std::string_view prefix);
  // Lifts a seal placed by seal(); false when `prefix` is not sealed.
  bool unseal(std::string_view prefix);
  // True when `path` is covered by any sealed prefix.
  bool sealed(std::string_view path) const;
  // The active sealed prefixes, sorted (for manifests and tests).
  std::vector<std::string> sealed_prefixes() const;

  // Version stamp of the regular file at `path` (symlinks followed):
  // the generation value at which its content was last written. Each
  // write produces a globally unique stamp, so equal (path, version)
  // implies byte-identical content. nullopt when `path` is not a file.
  std::optional<std::uint64_t> file_version(std::string_view path) const;

  // --- fault injection (opt-in; see site/fault.hpp)
  // With an enabled injector attached, read() may return nullptr (ENOENT /
  // EIO) or a truncated copy (short read), and write_file() may fail with
  // EIO (nothing written) or a torn write (partial node written, then
  // rolled back — the tree and generation end unchanged). A null or
  // disabled injector leaves behaviour exactly as before.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) {
    fault_ = std::move(injector);
  }
  FaultInjector* fault_injector() const { return fault_.get(); }

  static std::string basename(std::string_view path);
  static std::string dirname(std::string_view path);
  static std::string join(std::string_view dir, std::string_view name);

 private:
  struct Node {
    enum class Kind : std::uint8_t { kDir, kFile, kSymlink };
    Kind kind = Kind::kDir;
    support::Blob content;                         // kFile
    std::uint64_t version = 0;                     // kFile: write stamp
    std::string target;                            // kSymlink
    std::map<std::string, std::unique_ptr<Node>> children;  // kDir
  };

  // Shared by every write: seals, then fault injection (a torn write is
  // performed and rolled back here). True when the write may proceed.
  bool admit_write(std::string_view path, const support::Bytes& content);
  // Stores `content` as the file at `path`, stamping the write.
  bool install(std::string_view path, support::Blob content);
  // The file node a read of `path` sees, or nullptr when absent or faulted
  // away; `short_length` is set for an injected short read. Caller holds
  // the tree lock.
  const Node* read_node(std::string_view path,
                        std::optional<std::size_t>& short_length) const;

  // Walks to the node for `path`. If follow_terminal, the final component's
  // symlinks are resolved too. Returns nullptr when any component is
  // missing or a loop is detected.
  const Node* walk(std::string_view path, bool follow_terminal, int depth = 0) const;
  Node* walk_mut(std::string_view path);
  // Parent directory node, creating directories as needed.
  Node* ensure_parent(std::string_view path);

  // Advances the mutation counters for a successful write at `path` (the
  // system counter only when the path is outside the scratch prefixes) and
  // returns the new generation, which doubles as the write stamp.
  std::uint64_t bump_generations(std::string_view path);

  void find_impl(const Node& dir, const std::string& prefix,
                 const std::function<bool(std::string_view)>& pred,
                 bool substring, std::string_view needle,
                 std::vector<std::string>& out) const;

  // True when a seal forbids mutating `path`: the path sits inside a
  // sealed subtree, or removing it would take a sealed subtree with it.
  // Caller holds the tree lock.
  bool seal_blocks(std::string_view path) const;

  std::unique_ptr<Node> root_;
  // Internal synchronization: queries take the shared side, mutators the
  // exclusive side. Behind a unique_ptr so the Vfs stays movable; the
  // mutex object itself never moves. Generation counters are atomics so
  // the hot cache-validation reads need no lock at all.
  std::unique_ptr<std::shared_mutex> tree_mutex_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> system_generation_{0};
  std::shared_ptr<FaultInjector> fault_;
  // Short-read results live here so read() can keep returning a stable
  // pointer; a deque never relocates existing elements. Guarded by its
  // own mutex: read() holds only the shared tree lock when faulting.
  std::unique_ptr<std::mutex> scratch_mutex_;
  mutable std::deque<support::Bytes> short_read_scratch_;
  // Sealed subtree prefixes, sorted; guarded by the tree mutex (mutators
  // already hold the exclusive side when they consult it).
  std::vector<std::string> sealed_;
};

}  // namespace feam::site
