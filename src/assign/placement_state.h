// PlacementState: the evolving value→modules map shared by the duplication
// and placement algorithms.
//
// An instruction is conflict-free iff its operands admit a system of
// distinct representatives over their copy sets — each operand can be read
// from a module holding a copy of it, all from different modules (§2). The
// SDR test is copies_admit_sdr (assign/module_set.h), an allocation-free
// bitmask matching (support/matching.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "assign/module_set.h"
#include "ir/access.h"

namespace parmem::assign {

/// A run of instructions, each one operand list: the instruction set a
/// duplication kernel works on.
using InstSpan = std::span<const std::vector<ir::ValueId>>;

class PlacementState {
 public:
  PlacementState(const ir::AccessStream& stream, std::size_t module_count);
  /// An empty state; only useful as a refresh_from() target.
  PlacementState() = default;

  /// Makes this state `src` as seen through `values`: same stream and
  /// module count, and those values' placements copied. Every other entry
  /// keeps whatever it held before, so the copy costs O(|values|) and is
  /// only valid for work that reads and writes nothing else.
  void refresh_from(const PlacementState& src,
                    const std::vector<ir::ValueId>& values);

  std::size_t module_count() const { return k_; }
  const ir::AccessStream& stream() const { return *stream_; }

  ModuleSet placement(ir::ValueId v) const { return placement_[v]; }
  const std::vector<ModuleSet>& placements() const { return placement_; }

  /// Adds a copy of `v` in module `m`; returns true if it was new.
  bool add_copy(ir::ValueId v, std::uint32_t m);

  std::size_t copies(ir::ValueId v) const { return copy_count(placement_[v]); }

  /// True iff every operand of the tuple has at least one copy and the
  /// tuple admits distinct representative modules.
  bool tuple_conflict_free(const ir::AccessTuple& t) const;

  /// As above for an arbitrary operand combination.
  bool combination_conflict_free(const std::vector<ir::ValueId>& ops) const;

  /// The modules m among `candidates` for which `ops` would be
  /// conflict-free with one extra copy of `v` in m; `v` must be exactly
  /// one of `ops`. One matching of the other operands answers every
  /// candidate at once: a copy in m helps iff some SDR of the others
  /// leaves m free, i.e. m is free in the matching or reachable from a
  /// free module by an alternating path.
  ModuleSet extra_copy_fixes(const std::vector<ir::ValueId>& ops,
                             ir::ValueId v, ModuleSet candidates) const;

  /// Total number of copies across values that have at least one.
  std::size_t total_copies() const;

 private:
  const ir::AccessStream* stream_ = nullptr;
  std::size_t k_ = 0;
  std::vector<ModuleSet> placement_;
};

}  // namespace parmem::assign
