#include "site/vfs.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace feam::site {

namespace {
constexpr int kMaxSymlinkDepth = 16;

std::vector<std::string> components(std::string_view path) {
  std::vector<std::string> out;
  for (auto& part : support::split(path, '/')) {
    if (!part.empty()) out.push_back(std::move(part));
  }
  return out;
}

// Strips any trailing '/' so "/opt/" and "/opt" seal the same subtree.
std::string normalize_prefix(std::string_view prefix) {
  std::string out(prefix);
  while (out.size() > 1 && out.back() == '/') out.pop_back();
  return out;
}

// True when `path` equals `prefix` or lies inside it as a subtree.
bool path_under(std::string_view path, std::string_view prefix) {
  if (prefix.empty() || prefix == "/") return true;
  if (!support::starts_with(path, prefix)) return false;
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}
}  // namespace

Vfs::Vfs()
    : root_(std::make_unique<Node>()),
      tree_mutex_(std::make_unique<std::shared_mutex>()),
      scratch_mutex_(std::make_unique<std::mutex>()) {}

// Moves happen only during site construction, before any concurrency, so
// plain relaxed loads of the counters are enough.
Vfs::Vfs(Vfs&& other) noexcept
    : root_(std::move(other.root_)),
      tree_mutex_(std::move(other.tree_mutex_)),
      generation_(other.generation_.load(std::memory_order_relaxed)),
      system_generation_(
          other.system_generation_.load(std::memory_order_relaxed)),
      fault_(std::move(other.fault_)),
      scratch_mutex_(std::move(other.scratch_mutex_)),
      short_read_scratch_(std::move(other.short_read_scratch_)),
      sealed_(std::move(other.sealed_)) {}

Vfs& Vfs::operator=(Vfs&& other) noexcept {
  root_ = std::move(other.root_);
  tree_mutex_ = std::move(other.tree_mutex_);
  generation_.store(other.generation_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  system_generation_.store(
      other.system_generation_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  fault_ = std::move(other.fault_);
  scratch_mutex_ = std::move(other.scratch_mutex_);
  short_read_scratch_ = std::move(other.short_read_scratch_);
  sealed_ = std::move(other.sealed_);
  return *this;
}

bool Vfs::seal_blocks(std::string_view path) const {
  for (const auto& prefix : sealed_) {
    if (path_under(path, prefix) || path_under(prefix, path)) return true;
  }
  return false;
}

bool Vfs::seal(std::string_view prefix) {
  std::unique_lock<std::shared_mutex> lock(*tree_mutex_);
  const std::string p = normalize_prefix(prefix);
  if (std::find(sealed_.begin(), sealed_.end(), p) != sealed_.end()) {
    return false;
  }
  sealed_.insert(std::upper_bound(sealed_.begin(), sealed_.end(), p), p);
  return true;
}

bool Vfs::unseal(std::string_view prefix) {
  std::unique_lock<std::shared_mutex> lock(*tree_mutex_);
  const std::string p = normalize_prefix(prefix);
  const auto it = std::find(sealed_.begin(), sealed_.end(), p);
  if (it == sealed_.end()) return false;
  sealed_.erase(it);
  return true;
}

bool Vfs::sealed(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  for (const auto& prefix : sealed_) {
    if (path_under(path, prefix)) return true;
  }
  return false;
}

std::vector<std::string> Vfs::sealed_prefixes() const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  return sealed_;
}

bool Vfs::scratch_path(std::string_view path) {
  return support::starts_with(path, "/home/") || path == "/home" ||
         support::starts_with(path, "/tmp/") || path == "/tmp";
}

std::uint64_t Vfs::bump_generations(std::string_view path) {
  // Called with the exclusive tree lock held; release stores pair with the
  // acquire loads in generation()/system_generation() so a stamp observed
  // by a lock-free cache validation implies the write that produced it.
  const std::uint64_t next =
      generation_.load(std::memory_order_relaxed) + 1;
  generation_.store(next, std::memory_order_release);
  if (!scratch_path(path)) {
    system_generation_.store(
        system_generation_.load(std::memory_order_relaxed) + 1,
        std::memory_order_release);
  }
  return next;
}

std::string Vfs::basename(std::string_view path) {
  const auto pos = path.rfind('/');
  return std::string(pos == std::string_view::npos ? path : path.substr(pos + 1));
}

std::string Vfs::dirname(std::string_view path) {
  const auto pos = path.rfind('/');
  if (pos == std::string_view::npos || pos == 0) return "/";
  return std::string(path.substr(0, pos));
}

std::string Vfs::join(std::string_view dir, std::string_view name) {
  if (dir.empty() || dir == "/") return "/" + std::string(name);
  std::string out(dir);
  if (out.back() != '/') out += '/';
  out += name;
  return out;
}

const Vfs::Node* Vfs::walk(std::string_view path, bool follow_terminal,
                           int depth) const {
  if (depth > kMaxSymlinkDepth) return nullptr;
  const Node* node = root_.get();
  const auto parts = components(path);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (node->kind != Node::Kind::kDir) return nullptr;
    const auto it = node->children.find(parts[i]);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
    const bool terminal = i + 1 == parts.size();
    if (node->kind == Node::Kind::kSymlink && (!terminal || follow_terminal)) {
      // Resolve the link target, then continue with the remaining components.
      std::string target = node->target;
      if (!target.empty() && target.front() != '/') {
        std::string dir = "/";
        for (std::size_t j = 0; j < i; ++j) dir = join(dir, parts[j]);
        target = join(dir, target);
      }
      for (std::size_t j = i + 1; j < parts.size(); ++j) {
        target = join(target, parts[j]);
      }
      return walk(target, follow_terminal, depth + 1);
    }
  }
  return node;
}

Vfs::Node* Vfs::walk_mut(std::string_view path) {
  // Mutation never follows symlinks (mirrors rm/ln semantics closely
  // enough for our provisioning code).
  Node* node = root_.get();
  for (const auto& part : components(path)) {
    if (node->kind != Node::Kind::kDir) return nullptr;
    const auto it = node->children.find(part);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

Vfs::Node* Vfs::ensure_parent(std::string_view path) {
  auto parts = components(path);
  if (parts.empty()) return nullptr;
  parts.pop_back();
  Node* node = root_.get();
  for (const auto& part : parts) {
    if (node->kind != Node::Kind::kDir) return nullptr;
    auto& child = node->children[part];
    if (!child) {
      child = std::make_unique<Node>();
      child->kind = Node::Kind::kDir;
    }
    node = child.get();
  }
  return node->kind == Node::Kind::kDir ? node : nullptr;
}

bool Vfs::mkdirs(std::string_view path) {
  std::unique_lock<std::shared_mutex> lock(*tree_mutex_);
  if (seal_blocks(path)) return false;
  Node* parent = ensure_parent(join(path, "x"));
  if (parent == nullptr) return false;
  bump_generations(path);
  return true;
}

bool Vfs::admit_write(std::string_view path, const support::Bytes& content) {
  std::unique_lock<std::shared_mutex> lock(*tree_mutex_);
  // A read-only layer rejects before the media can fault.
  if (seal_blocks(path)) return false;
  if (fault_ != nullptr && fault_->enabled()) {
    switch (fault_->decide_write(path)) {
      case FaultKind::kEio:
        return false;  // nothing written
      case FaultKind::kTornWrite: {
        // Write a genuinely partial node, then roll it back: the caller
        // sees a failed copy, the tree ends unchanged, and the generation
        // is not bumped — so no cache entry is spuriously invalidated.
        // The partial bytes are a private blob, never interned.
        Node* parent = walk_mut(dirname(path));
        if (parent == nullptr || parent->kind != Node::Kind::kDir) {
          return false;  // no parent: the tear never reached the disk
        }
        const std::string name = basename(path);
        auto& slot = parent->children[name];
        std::unique_ptr<Node> previous = std::move(slot);
        auto torn = std::make_unique<Node>();
        torn->kind = Node::Kind::kFile;
        const std::size_t keep = fault_->short_read_length(content.size());
        torn->content = std::make_shared<const support::Bytes>(
            content.begin(),
            content.begin() + static_cast<std::ptrdiff_t>(keep));
        slot = std::move(torn);
        if (previous != nullptr) {
          slot = std::move(previous);  // restore-on-error
        } else {
          parent->children.erase(name);
        }
        return false;
      }
      default:
        break;
    }
  }
  return true;
}

bool Vfs::install(std::string_view path, support::Blob content) {
  std::unique_lock<std::shared_mutex> lock(*tree_mutex_);
  if (seal_blocks(path)) return false;  // sealed since admission
  Node* parent = ensure_parent(path);
  if (parent == nullptr) return false;
  auto& child = parent->children[basename(path)];
  child = std::make_unique<Node>();
  child->kind = Node::Kind::kFile;
  child->content = std::move(content);
  child->version = bump_generations(path);
  return true;
}

bool Vfs::write_file(std::string_view path, support::Bytes content) {
  if (!admit_write(path, content)) return false;
  // Interned outside the tree lock: confirming a match is a full compare,
  // which must not stall this tree's readers.
  return install(path, support::intern(std::move(content)));
}

bool Vfs::write_file(std::string_view path, std::string_view text) {
  return write_file(path, support::Bytes(text.begin(), text.end()));
}

bool Vfs::write_file(std::string_view path, support::Blob content) {
  return content != nullptr && admit_write(path, *content) &&
         install(path, std::move(content));
}

bool Vfs::symlink(std::string_view path, std::string_view target) {
  std::unique_lock<std::shared_mutex> lock(*tree_mutex_);
  if (seal_blocks(path)) return false;
  Node* parent = ensure_parent(path);
  if (parent == nullptr) return false;
  auto& child = parent->children[basename(path)];
  child = std::make_unique<Node>();
  child->kind = Node::Kind::kSymlink;
  child->target = std::string(target);
  bump_generations(path);
  return true;
}

bool Vfs::remove(std::string_view path) {
  std::unique_lock<std::shared_mutex> lock(*tree_mutex_);
  if (seal_blocks(path)) return false;
  Node* parent = walk_mut(dirname(path));
  if (parent == nullptr || parent->kind != Node::Kind::kDir) return false;
  if (parent->children.erase(basename(path)) == 0) return false;
  bump_generations(path);
  return true;
}

bool Vfs::exists(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  return walk(path, /*follow_terminal=*/true) != nullptr;
}

bool Vfs::is_dir(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  const Node* n = walk(path, true);
  return n != nullptr && n->kind == Node::Kind::kDir;
}

bool Vfs::is_file(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  const Node* n = walk(path, true);
  return n != nullptr && n->kind == Node::Kind::kFile;
}

bool Vfs::is_symlink(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  const Node* n = walk(path, /*follow_terminal=*/false);
  return n != nullptr && n->kind == Node::Kind::kSymlink;
}

const Vfs::Node* Vfs::read_node(
    std::string_view path, std::optional<std::size_t>& short_length) const {
  const Node* n = walk(path, true);
  if (n == nullptr || n->kind != Node::Kind::kFile) return nullptr;
  if (fault_ != nullptr && fault_->enabled()) {
    switch (fault_->decide_read(path)) {
      case FaultKind::kEnoent:
      case FaultKind::kEio:
        return nullptr;
      case FaultKind::kShortRead:
        short_length = fault_->short_read_length(n->content->size());
        break;
      default:
        break;
    }
  }
  return n;
}

const support::Bytes* Vfs::read(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  std::optional<std::size_t> short_length;
  const Node* n = read_node(path, short_length);
  if (n == nullptr) return nullptr;
  if (!short_length) return n->content.get();
  // Several readers may fault concurrently under the shared tree lock; the
  // scratch deque gets its own guard.
  const support::Bytes& full = *n->content;
  std::lock_guard<std::mutex> scratch_lock(*scratch_mutex_);
  short_read_scratch_.emplace_back(
      full.begin(), full.begin() + static_cast<std::ptrdiff_t>(*short_length));
  return &short_read_scratch_.back();
}

support::Blob Vfs::read_blob(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  std::optional<std::size_t> short_length;
  const Node* n = read_node(path, short_length);
  if (n == nullptr) return nullptr;
  if (!short_length) return n->content;
  const support::Bytes& full = *n->content;
  return std::make_shared<const support::Bytes>(
      full.begin(), full.begin() + static_cast<std::ptrdiff_t>(*short_length));
}

std::optional<std::uint64_t> Vfs::file_version(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  const Node* n = walk(path, true);
  if (n == nullptr || n->kind != Node::Kind::kFile) return std::nullopt;
  return n->version;
}

std::optional<std::string> Vfs::resolve(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  const Node* target = walk(path, true);
  if (target == nullptr) return std::nullopt;
  // Re-derive the canonical path by chasing the terminal link chain
  // textually (bounded by the same depth limit).
  std::string current(path);
  for (int depth = 0; depth < kMaxSymlinkDepth; ++depth) {
    const Node* n = walk(current, /*follow_terminal=*/false);
    if (n == nullptr) return std::nullopt;
    if (n->kind != Node::Kind::kSymlink) return current;
    std::string next = n->target;
    if (next.empty() || next.front() != '/') {
      next = join(dirname(current), next);
    }
    current = std::move(next);
  }
  return std::nullopt;
}

std::vector<std::string> Vfs::list(std::string_view dir) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  std::vector<std::string> out;
  const Node* n = walk(dir, true);
  if (n == nullptr || n->kind != Node::Kind::kDir) return out;
  out.reserve(n->children.size());
  for (const auto& [name, child] : n->children) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

void Vfs::find_impl(const Node& dir, const std::string& prefix,
                    const std::function<bool(std::string_view)>& pred,
                    bool substring, std::string_view needle,
                    std::vector<std::string>& out) const {
  for (const auto& [name, child] : dir.children) {
    const std::string full = join(prefix, name);
    const bool match = substring ? support::contains(name, needle) : pred(name);
    if (match) out.push_back(full);
    if (child->kind == Node::Kind::kDir) {
      find_impl(*child, full, pred, substring, needle, out);
    }
  }
}

std::vector<std::string> Vfs::find(
    std::string_view root,
    const std::function<bool(std::string_view)>& name_predicate) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  std::vector<std::string> out;
  const Node* n = walk(root, true);
  if (n == nullptr || n->kind != Node::Kind::kDir) return out;
  std::string prefix = root == "/" ? std::string("/") : std::string(root);
  find_impl(*n, prefix, name_predicate, false, "", out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Vfs::locate(std::string_view needle) const {
  std::shared_lock<std::shared_mutex> lock(*tree_mutex_);
  std::vector<std::string> out;
  find_impl(*root_, "/", {}, true, needle, out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace feam::site
