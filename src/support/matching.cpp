#include "support/matching.h"

#include <array>
#include <bit>

#include "support/diagnostics.h"

namespace parmem::support {
namespace {

/// Kuhn's augmenting-path search on bitmasks. `owner[m]` is the mask index
/// matched to module m (or -1); `visited` collects the modules tried during
/// the current augmentation.
struct Augmenter {
  std::span<const std::uint32_t> masks;
  std::array<std::int8_t, kMaxModules> owner;
  std::uint32_t visited = 0;

  bool augment(std::size_t l) {
    // Lowest untried admissible module first. `visited` only grows, so this
    // visits the modules of masks[l] in ascending order, skipping any a
    // deeper augmentation already tried.
    for (std::uint32_t free = masks[l] & ~visited; free != 0;
         free = masks[l] & ~visited) {
      const int m = std::countr_zero(free);
      visited |= std::uint32_t{1} << m;
      if (owner[m] < 0 || augment(static_cast<std::size_t>(owner[m]))) {
        owner[m] = static_cast<std::int8_t>(l);
        return true;
      }
    }
    return false;
  }
};

}  // namespace

bool has_distinct_representatives(std::span<const std::uint32_t> masks,
                                  std::size_t module_count,
                                  std::span<std::uint32_t> reps) {
  PARMEM_CHECK(module_count <= kMaxModules, "module count out of range");
  PARMEM_CHECK(reps.empty() || reps.size() == masks.size(),
               "representative buffer size mismatch");
  const std::uint32_t in_range =
      module_count == kMaxModules
          ? ~std::uint32_t{0}
          : (std::uint32_t{1} << module_count) - 1;
  for (const std::uint32_t mask : masks) {
    PARMEM_CHECK((mask & ~in_range) == 0, "admissible module out of range");
  }
  if (masks.size() > module_count) return false;

  Augmenter a{masks, {}, 0};
  a.owner.fill(-1);
  for (std::size_t l = 0; l < masks.size(); ++l) {
    a.visited = 0;
    if (!a.augment(l)) return false;
  }
  if (!reps.empty()) {
    for (std::size_t m = 0; m < module_count; ++m) {
      if (a.owner[m] >= 0) {
        reps[static_cast<std::size_t>(a.owner[m])] =
            static_cast<std::uint32_t>(m);
      }
    }
  }
  return true;
}

}  // namespace parmem::support
