// Program run guards: the runtime half of eBPF verification.
//
// A real verifier proves termination and bounded resource use statically;
// C++ callables can't be verified, so the framework enforces the same
// properties dynamically: every policy program runs under a RunContext with
// a helper-call budget, and kfuncs (the eviction-list API) charge against
// it. A program that exceeds its budget is aborted — its remaining kfunc
// calls fail — and the framework counts a violation, feeding the watchdog
// that unloads misbehaving policies (§4.4).

#ifndef SRC_BPF_PROG_H_
#define SRC_BPF_PROG_H_

#include <cstdint>

namespace cache_ext::bpf {

class RunContext {
 public:
  explicit RunContext(uint64_t helper_budget);
  ~RunContext() { current_ = parent_; }
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // The innermost active context on this thread, or nullptr when no policy
  // program is running (kernel-side calls are unrestricted).
  static RunContext* Current() { return current_; }

  // Charge one helper/kfunc call. Returns false once the budget is
  // exhausted; the context is then marked aborted.
  bool CountHelperCall() {
    if (aborted_) {
      return false;
    }
    if (++helper_calls_ > budget_) {
      aborted_ = true;
      return false;
    }
    return true;
  }

  bool aborted() const { return aborted_; }
  uint64_t helper_calls() const { return helper_calls_; }

 private:
  static inline thread_local RunContext* current_ = nullptr;

  RunContext* parent_;
  uint64_t budget_;
  uint64_t helper_calls_ = 0;
  bool aborted_ = false;
};

// Convenience used by kfunc implementations: charge against the current
// context if there is one. Returns false when the calling program has been
// aborted (the kfunc should fail).
inline bool ChargeHelperCall() {
  RunContext* ctx = RunContext::Current();
  return ctx == nullptr || ctx->CountHelperCall();
}

}  // namespace cache_ext::bpf

#endif  // SRC_BPF_PROG_H_
