#include "assign/placement_state.h"

#include <array>

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

bool PlacementState::conflict_free_with_extra(
    const std::vector<ir::ValueId>& ops, ir::ValueId extra_v,
    std::uint32_t extra_m) const {
  if (ops.size() > k_) return false;
  std::array<ModuleSet, kMaxModules> masks;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    masks[i] = placement_[ops[i]];
    if (ops[i] == extra_v) masks[i] |= module_bit(extra_m);
    if (masks[i] == 0) return false;
  }
  return support::has_distinct_representatives({masks.data(), ops.size()},
                                               k_);
}

std::vector<std::uint32_t> PlacementState::conflicting_tuples() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < stream_->tuples.size(); ++i) {
    if (!tuple_conflict_free(stream_->tuples[i])) out.push_back(i);
  }
  return out;
}

std::size_t PlacementState::total_copies() const {
  std::size_t n = 0;
  for (const ModuleSet s : placement_) n += copy_count(s);
  return n;
}

}  // namespace parmem::assign
