#include "src/bpf/prog.h"

#include <algorithm>

#include "src/fault/fault_injector.h"

namespace cache_ext::bpf {

namespace {
// Budget a shrink fault clamps to when the schedule carries no magnitude:
// small enough that any program doing real work aborts, nonzero so programs
// that make no helper calls stay unaffected (nothing to budget).
constexpr uint64_t kDefaultShrunkBudget = 4;
}  // namespace

RunContext::RunContext(uint64_t helper_budget)
    : parent_(current_), budget_(helper_budget) {
  current_ = this;
  uint64_t magnitude = 0;
  if (fault::InjectFault(fault::points::kBpfRunBudgetShrink, &magnitude)) {
    budget_ = std::min(budget_,
                       magnitude != 0 ? magnitude : kDefaultShrunkBudget);
  }
  if (fault::InjectFault(fault::points::kBpfRunAbort)) {
    // Injected program abort: the program dies before retiring a single
    // helper call; every subsequent kfunc from it fails.
    aborted_ = true;
  }
}

}  // namespace cache_ext::bpf
