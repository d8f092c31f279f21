#include "support/rng.hpp"

namespace feam::support {

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias; bound is always tiny here so
  // the loop almost never iterates.
  const std::uint64_t limit = bound * (~0ULL / bound);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % bound;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return next_double() < probability;
}

Rng Rng::fork(std::string_view label) const {
  return Rng(state_ ^ (fnv1a(label) | 1ULL));
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fnv1a_mix(std::uint64_t hash, std::string_view text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace feam::support
