#include "assign/verify.h"

#include "support/diagnostics.h"

namespace parmem::assign {

VerifyReport verify_assignment(const ir::AccessStream& stream,
                               const AssignResult& result) {
  PARMEM_CHECK(result.placement.size() == stream.value_count,
               "placement size mismatch");
  VerifyReport report;

  std::vector<bool> used(stream.value_count, false);
  for (const auto& t : stream.tuples) {
    for (const ir::ValueId v : t.operands) used[v] = true;
  }

  for (ir::ValueId v = 0; v < stream.value_count; ++v) {
    const ModuleSet s = result.placement[v];
    if (used[v] && s == 0) report.missing_values.push_back(v);
    if (!stream.duplicatable[v] && copy_count(s) > 1) {
      report.illegal_duplicates.push_back(v);
    }
    PARMEM_CHECK(
        (s >> result.module_count) == 0,
        "copy placed in a module index beyond the configured module count");
  }

  for (std::uint32_t i = 0; i < stream.tuples.size(); ++i) {
    if (!copies_admit_sdr(stream.tuples[i].operands, result.placement,
                          result.module_count)) {
      report.conflicting_tuples.push_back(i);
    }
  }
  return report;
}

}  // namespace parmem::assign
