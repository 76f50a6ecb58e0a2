// Sets of memory modules as bit masks.
//
// The paper's machines have up to 8 memory controllers; we support up to 32
// modules, which comfortably covers every experiment.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "support/diagnostics.h"
#include "support/matching.h"

namespace parmem::assign {

/// Bit m set == a copy of the value lives in module m.
using ModuleSet = std::uint32_t;

inline constexpr std::size_t kMaxModules = support::kMaxModules;

inline ModuleSet module_bit(std::uint32_t m) {
  PARMEM_CHECK(m < kMaxModules, "module index out of range");
  return ModuleSet{1} << m;
}

/// Every module below k.
inline ModuleSet all_modules(std::size_t k) {
  return k >= kMaxModules ? ~ModuleSet{0} : (ModuleSet{1} << k) - 1;
}

inline bool holds(ModuleSet s, std::uint32_t m) {
  return (s & module_bit(m)) != 0;
}

inline std::size_t copy_count(ModuleSet s) {
  return static_cast<std::size_t>(std::popcount(s));
}

/// Modules in `s`, ascending.
inline std::vector<std::uint32_t> modules_of(ModuleSet s) {
  std::vector<std::uint32_t> out;
  while (s != 0) {
    const std::uint32_t m = static_cast<std::uint32_t>(std::countr_zero(s));
    out.push_back(m);
    s &= s - 1;
  }
  return out;
}

/// The SDR test of §2 for one instruction: true iff every id in `ids` has a
/// copy (`placement[id] != 0`) and the copy sets admit pairwise-distinct
/// representative modules < k.
inline bool copies_admit_sdr(std::span<const std::uint32_t> ids,
                             std::span<const ModuleSet> placement,
                             std::size_t k) {
  if (ids.size() > std::min(k, kMaxModules)) return false;
  std::array<ModuleSet, kMaxModules> masks;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    masks[i] = placement[ids[i]];
    if (masks[i] == 0) return false;  // nowhere to read it from
  }
  return support::has_distinct_representatives({masks.data(), ids.size()},
                                               k);
}

}  // namespace parmem::assign
