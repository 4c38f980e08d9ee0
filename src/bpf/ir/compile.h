// CompileToOps: verify an IrPolicy and lower it into a loadable
// cache_ext::Ops whose ProgramSpec is the verifier's DERIVED spec — the
// hand-declared numbers the std::function path requires simply do not
// exist on this path. A policy the static analysis rejects never becomes
// an Ops at all; the returned VerifierLog findings say why.
//
// Verified programs run through one of two backends:
//  - kJit (default): native hook closures lowered by src/bpf/jit/ —
//    whole-shape specializations and token-threaded steps, no dispatch
//    lock (the bpf_int_jit_compile analogue).
//  - kInterp: the reference interpreter (interp.h) — kept as the
//    differential-testing oracle and as the automatic fallback for any
//    hook the JIT declines (BPF_JIT_ALWAYS_ON stays a choice, not a
//    correctness requirement).
// Both execute the shared semantic kernel (exec.h) and charge the same
// ChargeHelperCall accounting, so budgets/breakers/quarantine behave
// identically whichever backend runs.

#ifndef SRC_BPF_IR_COMPILE_H_
#define SRC_BPF_IR_COMPILE_H_

#include "src/bpf/ir/ir.h"
#include "src/bpf/verifier/log.h"
#include "src/cache_ext/ops.h"
#include "src/util/status.h"

namespace cache_ext::bpf::ir {

enum class Backend : uint8_t {
  kInterp = 0,
  kJit,
};

// Process-wide default backend for CompileToOps (kJit unless overridden).
// Benches and tests flip this for ablations (--ir-backend=interp).
Backend DefaultBackend();
void SetDefaultBackend(Backend backend);

// Runs the IR static analysis (AnalyzeIrPolicy) and, on success, builds the
// Ops: backend-dispatched hook closures, the derived ProgramSpec, the
// policy's helper budget and cost declaration, and ops.ir pointing at the
// verified program (so CacheExtLoader re-derives and cross-checks the spec
// at attach time). The hooks run on DefaultBackend() as of this call.
// `log` (optional) receives the analysis findings either way.
Expected<cache_ext::Ops> CompileToOps(const IrPolicy& policy,
                                      verifier::VerifierLog* log = nullptr);

}  // namespace cache_ext::bpf::ir

#endif  // SRC_BPF_IR_COMPILE_H_
