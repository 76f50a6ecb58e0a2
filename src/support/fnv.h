// FNV-1a 64: the one hash behind request cache keys, compile fingerprints,
// journal checksums, memo closure keys and the ring digest.
#pragma once

#include <cstdint>
#include <string_view>

namespace parmem::support {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Seed of analysis::compiled_fingerprint and of the golden AssignResult
/// hashes in the differential suites. It is the FNV offset basis with its
/// last decimal digit dropped, not the basis itself; every golden hash and
/// every fingerprint in a result journal depends on it, so it stays.
inline constexpr std::uint64_t kFingerprintSeed = kFnvOffsetBasis / 10;

/// One FNV-1a step: folds byte `b` into the running hash `h`.
constexpr std::uint64_t fnv1a_byte(std::uint64_t h, unsigned char b) {
  return (h ^ b) * kFnvPrime;
}

/// Folds the eight bytes of `v` into `h`, least significant byte first.
constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = fnv1a_byte(h, static_cast<unsigned char>(v >> (8 * i)));
  }
  return h;
}

/// FNV-1a 64 of a byte string, starting from `h`.
constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t h = kFnvOffsetBasis) {
  for (const char c : bytes) h = fnv1a_byte(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace parmem::support
