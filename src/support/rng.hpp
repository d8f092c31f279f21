// Deterministic random number generation for the simulation layers.
//
// All stochastic behaviour in the reproduction (system errors, daemon spawn
// failures, timeouts) flows through SplitMix64 streams derived from a single
// experiment seed, so every table in EXPERIMENTS.md is bit-reproducible.
#pragma once

#include <cstdint>
#include <string_view>

namespace feam::support {

// SplitMix64: tiny, well-distributed, splittable. Not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  // Inline: the .text synthesis of every built image runs one draw per
  // eight bytes, where an out-of-line call costs about a quarter of the
  // fill.
  std::uint64_t next_u64() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform in [0.0, 1.0).
  double next_double();

  // True with the given probability.
  bool chance(double probability);

  // Derives an independent stream for a named purpose; equal (seed, label)
  // pairs always produce the same stream regardless of draw order elsewhere.
  Rng fork(std::string_view label) const;

 private:
  std::uint64_t state_;
};

// Stable 64-bit FNV-1a hash of a string (used for stream derivation and for
// synthesizing deterministic per-binary content).
std::uint64_t fnv1a(std::string_view text);

// Continue an FNV-1a stream: fold a 64-bit value (byte-wise, little-endian
// order) or a string's bytes into an existing hash. Composable cache keys —
// fnv1a_mix(fnv1a(path), version) — without intermediate strings.
std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value);
std::uint64_t fnv1a_mix(std::uint64_t hash, std::string_view text);

}  // namespace feam::support
