#include "support/fault_injection.h"

namespace parmem::support {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kBadAlloc: return "bad_alloc";
    case FaultKind::kInternalError: return "internal_error";
  }
  return "?";
}

}  // namespace parmem::support

#if PARMEM_FAULT_INJECTION_ENABLED

#include <algorithm>
#include <new>

#include "support/budget.h"
#include "support/diagnostics.h"

namespace parmem::support {

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

const std::vector<std::string>& FaultInjector::known_sites() {
  // Kept in sync with every PARMEM_FAULT_POINT literal in the tree; the
  // FaultSweep recording test cross-checks that each site it discovers is
  // listed here. Sorted for stable diagnostics.
  static const std::vector<std::string> sites = {
      "assign.backtrack",
      "assign.color_atom",
      "assign.duplicate",
      "assign.exact",
      "assign.hitting_set",
      "assign.pass",
      "cache.atom_journal",
      "pipeline.assign",
      "pipeline.parse",
      "pipeline.schedule",
      "pipeline.verify",
      "router.spawn",
      "router.worker_response",
      "service.admit",
      "service.cache_load",
      "service.cache_store",
      "service.respond",
      "service.worker",
  };
  return sites;
}

void FaultInjector::arm(const std::string& site, FaultKind kind,
                        std::uint64_t on_hit) {
  const bool test_scratch = site.rfind("test.", 0) == 0;
  if (!test_scratch) {
    const auto& known = known_sites();
    if (!std::binary_search(known.begin(), known.end(), site)) {
      throw UserError("unknown fault-injection site '" + site +
                      "' (see FaultInjector::known_sites(); the 'test.' "
                      "prefix is reserved for unit tests)");
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  armed_[site] = Plan{kind, on_hit == 0 ? 1 : on_hit};
  hits_[site] = 0;
}

void FaultInjector::reset(bool keep_sites) {
  std::lock_guard<std::mutex> lk(mu_);
  armed_.clear();
  hits_.clear();
  if (!keep_sites) {
    seen_.clear();
    recording_ = false;
  }
}

void FaultInjector::set_recording(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  recording_ = on;
}

std::vector<std::string> FaultInjector::sites() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {seen_.begin(), seen_.end()};
}

void FaultInjector::fire(const char* site, Budget* budget) {
  FaultKind kind = FaultKind::kNone;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (recording_) seen_.insert(site);
    const auto it = armed_.find(site);
    if (it == armed_.end()) return;
    const std::uint64_t hit = ++hits_[site];
    if (hit != it->second.on_hit) return;
    kind = it->second.kind;
  }
  switch (kind) {
    case FaultKind::kNone:
      return;
    case FaultKind::kTimeout:
      // Simulated deadline expiry: trip the active budget so the caller
      // takes its degradation path. Sites without a budget in scope
      // (e.g. service.respond) ignore the injection.
      if (budget != nullptr) budget->force_exhaust();
      return;
    case FaultKind::kBadAlloc:
      throw std::bad_alloc();
    case FaultKind::kInternalError:
      throw InternalError(std::string("injected fault at site '") + site +
                          "'");
  }
}

}  // namespace parmem::support

#endif  // PARMEM_FAULT_INJECTION_ENABLED
