#include "assign/placement_state.h"

#include <array>
#include <bit>

#include "support/diagnostics.h"

namespace parmem::assign {

PlacementState::PlacementState(const ir::AccessStream& stream,
                               std::size_t module_count)
    : stream_(&stream), k_(module_count) {
  PARMEM_CHECK(k_ >= 1 && k_ <= kMaxModules, "module count out of range");
  placement_.assign(stream.value_count, 0);
}

void PlacementState::refresh_from(const PlacementState& src,
                                  const std::vector<ir::ValueId>& values) {
  stream_ = src.stream_;
  k_ = src.k_;
  if (placement_.size() < src.placement_.size()) {
    placement_.resize(src.placement_.size());
  }
  for (const ir::ValueId v : values) placement_[v] = src.placement_[v];
}

bool PlacementState::add_copy(ir::ValueId v, std::uint32_t m) {
  PARMEM_CHECK(v < placement_.size(), "value id out of range");
  PARMEM_CHECK(m < k_, "module index out of range");
  const ModuleSet bit = module_bit(m);
  if (placement_[v] & bit) return false;
  placement_[v] |= bit;
  return true;
}

bool PlacementState::combination_conflict_free(
    const std::vector<ir::ValueId>& ops) const {
  return copies_admit_sdr(ops, placement_, k_);
}

bool PlacementState::tuple_conflict_free(const ir::AccessTuple& t) const {
  return combination_conflict_free(t.operands);
}

ModuleSet PlacementState::extra_copy_fixes(const std::vector<ir::ValueId>& ops,
                                           ir::ValueId v,
                                           ModuleSet candidates) const {
  if (ops.size() > k_) return 0;
  std::array<ModuleSet, kMaxModules> masks;
  std::size_t others = 0;
  for (const ir::ValueId u : ops) {
    if (u == v) continue;
    if (placement_[u] == 0) return 0;
    masks[others++] = placement_[u];
  }
  PARMEM_CHECK(others + 1 == ops.size(), "v must be exactly one of ops");
  std::array<std::uint32_t, kMaxModules> reps;
  if (!support::has_distinct_representatives({masks.data(), others}, k_,
                                              {reps.data(), others})) {
    return 0;  // no copy of v can help
  }
  std::array<std::uint8_t, kMaxModules> owner{};
  ModuleSet matched = 0;
  for (std::size_t i = 0; i < others; ++i) {
    owner[reps[i]] = static_cast<std::uint8_t>(i);
    matched |= module_bit(reps[i]);
  }
  // Grow the free modules by alternating paths: a matched module can be
  // freed when its owner also admits a module that can be freed.
  ModuleSet freeable = all_modules(k_) & ~matched;
  for (bool grew = true; grew;) {
    grew = false;
    for (ModuleSet rest = matched & ~freeable; rest != 0; rest &= rest - 1) {
      const auto m = static_cast<std::uint32_t>(std::countr_zero(rest));
      if ((masks[owner[m]] & freeable) != 0) {
        freeable |= module_bit(m);
        grew = true;
      }
    }
  }
  // A copy v already holds can be freed: ops is conflict-free as it is.
  if ((placement_[v] & freeable) != 0) return candidates;
  return candidates & freeable;
}

std::size_t PlacementState::total_copies() const {
  std::size_t n = 0;
  for (const ModuleSet s : placement_) n += copy_count(s);
  return n;
}

}  // namespace parmem::assign
