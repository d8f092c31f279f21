#include "support/blob.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace feam::support {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

// FNV-1a folding 64-bit words, then the tail byte-wise.
std::uint64_t fnv_region(std::uint64_t h, const std::uint8_t* p,
                         std::size_t n) {
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kFnvPrime;
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    h = (h ^ *p++) * kFnvPrime;
  }
  return h;
}

// One table entry per live interned blob. `bytes` identifies the entry
// for removal; `ref` is how a lookup takes a strong reference.
struct Slot {
  const Bytes* bytes;
  std::weak_ptr<const Bytes> ref;
};

struct Shard {
  std::mutex mutex;
  std::unordered_multimap<std::uint64_t, Slot> slots;  // content_hash -> blob
};

constexpr std::size_t kShards = 64;

// Never destroyed: blobs owned by static objects may die after main
// returns, and their deleters still need the table.
Shard& shard_for(std::uint64_t hash) {
  static Shard* const table = new Shard[kShards];
  return table[hash % kShards];
}

// Deleter of interned blobs: unlists the blob before freeing its bytes, so
// no slot ever names freed memory.
struct Unlist {
  std::uint64_t hash;
  void operator()(const Bytes* bytes) const {
    Shard& shard = shard_for(hash);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto [it, end] = shard.slots.equal_range(hash);
      for (; it != end; ++it) {
        if (it->second.bytes == bytes) {
          shard.slots.erase(it);
          break;
        }
      }
    }
    delete bytes;
  }
};

// Appends strong references to the live blobs listed under `hash`.
// Caller holds the shard lock.
void collect(const Shard& shard, std::uint64_t hash, std::vector<Blob>& out) {
  auto [it, end] = shard.slots.equal_range(hash);
  for (; it != end; ++it) {
    if (Blob blob = it->second.ref.lock()) out.push_back(std::move(blob));
  }
}

}  // namespace

std::uint64_t content_hash(const Bytes& bytes) {
  constexpr std::size_t kWindow = 512;
  constexpr std::size_t kInteriorWindows = 14;
  constexpr std::size_t kSmall = 8 * 1024;

  std::uint64_t h = (kFnvBasis ^ bytes.size()) * kFnvPrime;
  const std::uint8_t* data = bytes.data();
  if (bytes.size() <= kSmall) {
    return fnv_region(h, data, bytes.size());
  }
  h = fnv_region(h, data, 2 * kWindow);                       // head
  h = fnv_region(h, data + bytes.size() - 2 * kWindow, 2 * kWindow);  // tail
  const std::size_t span = bytes.size() - kWindow;
  for (std::size_t i = 0; i < kInteriorWindows; ++i) {
    const std::size_t offset = (span * (i + 1)) / (kInteriorWindows + 1);
    h = fnv_region(h, data + offset, kWindow);
  }
  return h;
}

Blob intern(Bytes bytes) {
  const std::uint64_t hash = content_hash(bytes);
  Shard& shard = shard_for(hash);
  // Both declared before any lock, so every reference taken below is
  // released after unlocking: the last reference to a blob runs Unlist,
  // which takes this lock. When an equal blob is found, `fresh` dies
  // unlisted.
  Blob fresh(new Bytes(std::move(bytes)), Unlist{hash});
  std::vector<Blob> live;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    collect(shard, hash, live);
  }
  // Full compares run unlocked: writers of one image at several sites
  // compare in parallel instead of queueing on the shard.
  for (const Blob& blob : live) {
    if (*blob == *fresh) return blob;
  }
  const std::size_t compared = live.size();
  std::lock_guard<std::mutex> lock(shard.mutex);
  // Equal bytes interned by another thread since the unlocked pass must
  // fold too; only blobs listed in the meantime need a compare.
  collect(shard, hash, live);
  const auto seen = live.begin() + static_cast<std::ptrdiff_t>(compared);
  for (auto it = seen; it != live.end(); ++it) {
    if (std::find(live.begin(), seen, *it) == seen && **it == *fresh) {
      return *it;
    }
  }
  shard.slots.emplace(hash, Slot{fresh.get(), fresh});
  return fresh;
}

std::size_t interned_blobs() {
  std::size_t count = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    Shard& shard = shard_for(i);
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [hash, slot] : shard.slots) {
      if (!slot.ref.expired()) ++count;
    }
  }
  return count;
}

}  // namespace feam::support
