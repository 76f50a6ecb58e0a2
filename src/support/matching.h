// Systems of distinct representatives over module bitmasks.
//
// The library's central feasibility question — "can this instruction fetch
// all of its operands in one memory cycle?" — is a system-of-distinct-
// representatives (SDR) question: each operand must be read from one of the
// modules holding a copy of it, and no two operands may read from the same
// module. An SDR exists iff a perfect matching of operands into modules
// exists (Hall's theorem). Instruction widths are tiny (k <= 8 in the paper)
// and the modules fit one 32-bit word, so a Kuhn augmenting-path search over
// bitmasks with fixed-size arrays answers it without allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace parmem::support {

/// Largest module count an SDR instance may have: one bit per module.
inline constexpr std::size_t kMaxModules = 32;

/// True iff every `masks[i]` (bit m set == module m admissible) can be given
/// a distinct module < `module_count`. This is the paper's conflict-freedom
/// test for one instruction: masks[i] = modules holding a copy of operand i.
/// A zero mask, or more masks than modules, has no SDR.
///
/// When `reps` is non-empty it must hold masks.size() entries; on success it
/// receives one representative per mask. The search is deterministic: masks
/// are matched in index order, each trying its admissible modules in
/// ascending order, so the representatives are a pure function of `masks`.
///
/// Throws InternalError when `module_count` exceeds kMaxModules or a mask
/// names a module >= `module_count`.
bool has_distinct_representatives(std::span<const std::uint32_t> masks,
                                  std::size_t module_count,
                                  std::span<std::uint32_t> reps = {});

}  // namespace parmem::support
