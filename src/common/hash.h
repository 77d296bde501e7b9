// Shared scalar hash primitives.
//
// Every row-key hash in the engine is built from these two functions. A
// string's hash depends only on its bytes, never on the dictionary that
// holds it, so equal strings hash equally across dicts and columns over
// different dicts can probe each other's hash indexes.
#ifndef WAKE_COMMON_HASH_H_
#define WAKE_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace wake {

/// Mixes `v` into the running hash `h` (derived from splitmix64's
/// finalizer).
inline uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

/// Seed-free FNV-1a over bytes. String columns mix this value with the row
/// seed via MixHash; StringDict pre-computes it once per distinct entry.
inline uint64_t FnvHash64(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace wake

#endif  // WAKE_COMMON_HASH_H_
