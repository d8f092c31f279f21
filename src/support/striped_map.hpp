// A read-mostly striped hash map with a lock-free hit path.
//
// The parallel migration engine's memo caches (BDC, EDC, resolver) are
// written once per distinct key and then read thousands of times from
// every worker. A single mutex per cache makes those reads a point of
// serialization; this map removes it:
//
//   * The key space is striped over N shards, each an array of buckets
//     holding an atomic head pointer to an immutable singly linked node
//     chain. A reader hashes, loads one head with acquire ordering, and
//     walks plain pointers — no lock, no reference counting, no hazard
//     pointers.
//   * Writers take a per-shard mutex (writers in different shards do not
//     contend), allocate a node off the shard's arena of retained nodes,
//     link it to the current chain, and publish it with a release store.
//   * Nodes are never unlinked, moved, or freed before the map is
//     destroyed, so a `const V*` handed to a reader stays valid for the
//     map's lifetime — the property the resolver's parsed-ELF views and
//     the BDC's returned descriptions lean on.
//
// The price of lock-free reads is immutability: a published node's key
// and value must never be modified, with one carve-out — `V` members
// declared as std::atomic (make them `mutable` for use through `const
// V*`) may be updated in place; that is how the resolver's search memo
// revalidates entries without republishing them. "Updating" a key means
// publishing a fresh node that the old one's predicate check rejects (via
// get_or_insert_if) at the head of its chain, *shadowing* the older
// node: readers see the newest first, the shadowed node stays allocated
// (and keeps old pointers valid). Shadowing is rare in practice — the
// caches overwrite only when a file is rewritten in place — so retained
// garbage stays negligible; footprint gauges report retained bytes
// honestly by accounting every insert and never subtracting.
//
// Keys are expected to be cheap 64-bit fingerprints. Exactness against
// fingerprint collisions lives in the caller: use find_if/get_or_insert
// with a predicate that verifies the value's stored identity (the full
// path, the full bytes), so a collision degrades to a chain walk or a
// duplicate entry, never a wrong answer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace feam::support {

template <typename K, typename V, typename Hash = std::hash<K>>
class StripedMap {
 public:
  // Shard and bucket counts are rounded up to powers of two so the hash
  // splits into independent shard/bucket index bits.
  explicit StripedMap(std::size_t shards = 16,
                      std::size_t buckets_per_shard = 64, Hash hash = Hash())
      : hash_(std::move(hash)),
        shard_mask_(round_up_pow2(shards) - 1),
        bucket_mask_(round_up_pow2(buckets_per_shard) - 1) {
    for (std::size_t m = shard_mask_; m != 0; m >>= 1) ++shard_bits_;
    shards_ = std::make_unique<Shard[]>(shard_mask_ + 1);
    for (std::size_t i = 0; i <= shard_mask_; ++i) {
      shards_[i].buckets =
          std::make_unique<std::atomic<Node*>[]>(bucket_mask_ + 1);
    }
  }

  ~StripedMap() {
    for (std::size_t s = 0; s <= shard_mask_; ++s) {
      for (std::size_t b = 0; b <= bucket_mask_; ++b) {
        Node* n = shards_[s].buckets[b].load(std::memory_order_relaxed);
        while (n != nullptr) {
          Node* next = n->next;
          delete n;
          n = next;
        }
      }
    }
  }

  StripedMap(const StripedMap&) = delete;
  StripedMap& operator=(const StripedMap&) = delete;

  // Lock-free: newest value published for `key`, or nullptr. The pointer
  // stays valid (and the value unchanged, atomics aside) for the map's
  // lifetime.
  const V* find(const K& key) const {
    const Node* n = chain_head(key);
    for (; n != nullptr; n = n->next) {
      if (n->key == key) return &n->value;
    }
    return nullptr;
  }

  // Lock-free: newest value for `key` that also satisfies `pred` — the
  // collision-exact lookup (pred verifies identity stored in the value).
  template <typename Pred>
  const V* find_if(const K& key, Pred&& pred) const {
    const Node* n = chain_head(key);
    for (; n != nullptr; n = n->next) {
      if (n->key == key && pred(n->value)) return &n->value;
    }
    return nullptr;
  }

  // Value for `key` satisfying `pred`, inserting make()'s result if none
  // exists. `make` runs under the shard writer lock (keep it cheap; do
  // expensive work before calling and pass a capture). Returns the value
  // and whether this call inserted it. Lost races resolve to the winner's
  // value: the lock is taken before re-checking.
  template <typename Pred, typename Make>
  std::pair<const V*, bool> get_or_insert_if(const K& key, Pred&& pred,
                                             Make&& make) {
    if (const V* hit = find_if(key, pred)) return {hit, false};
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (const V* hit = find_if(key, pred)) return {hit, false};
    return {publish(shard, key, make), true};
  }

  template <typename Make>
  std::pair<const V*, bool> get_or_insert(const K& key, Make&& make) {
    return get_or_insert_if(
        key, [](const V&) { return true; }, std::forward<Make>(make));
  }

  // Total published nodes, shadowed included. Approximate under
  // concurrent writers (relaxed counter).
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  // Visits every node (shadowed included, newest of a chain first) under
  // each shard's writer lock in turn. For stats and tests — not a
  // consistent snapshot across shards.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t s = 0; s <= shard_mask_; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s].mutex);
      for (std::size_t b = 0; b <= bucket_mask_; ++b) {
        for (const Node* n = shards_[s].buckets[b].load(
                 std::memory_order_acquire);
             n != nullptr; n = n->next) {
          fn(n->key, n->value);
        }
      }
    }
  }

 private:
  struct Node {
    K key;
    V value;
    Node* next = nullptr;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unique_ptr<std::atomic<Node*>[]> buckets;
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  // Shard index from the low hash bits, bucket index from the next bits
  // up — independent as long as shards*buckets stays under 2^64.
  std::size_t shard_index(std::size_t h) const { return h & shard_mask_; }
  std::size_t bucket_index(std::size_t h) const {
    return (h >> shard_bits_) & bucket_mask_;
  }

  Shard& shard_for(const K& key) {
    return shards_[shard_index(hash_(key))];
  }

  const Node* chain_head(const K& key) const {
    const std::size_t h = hash_(key);
    return shards_[shard_index(h)]
        .buckets[bucket_index(h)]
        .load(std::memory_order_acquire);
  }

  // Caller holds the shard lock. make()'s value is built in place in the
  // node, so V need not be movable. The release store is the publication
  // point: everything written to the node before it happens-before any
  // reader's acquire load of the head.
  template <typename Make>
  const V* publish(Shard& shard, const K& key, Make&& make) {
    const std::size_t h = hash_(key);
    std::atomic<Node*>& head = shard.buckets[bucket_index(h)];
    Node* node = new Node{key, make(), head.load(std::memory_order_relaxed)};
    head.store(node, std::memory_order_release);
    size_.fetch_add(1, std::memory_order_relaxed);
    return &node->value;
  }

  Hash hash_;
  std::size_t shard_mask_;
  std::size_t bucket_mask_;
  std::size_t shard_bits_ = 0;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace feam::support
