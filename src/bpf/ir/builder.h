// ProgramBuilder: a fluent assembler for the policy IR.
//
// Forward jumps go through labels that are patched at Build() time; loop
// forms are opened/closed with BeginIterate()/EndIterate() so the matching
// kLoopEnd target is always structurally correct. Build() CHECK-fails on
// author errors (unbound labels, unclosed loops) — those are bugs in the
// policy *source*, not verifier findings; everything semantic (types,
// bounds, reachability) is left to the IR verifier.

#ifndef SRC_BPF_IR_BUILDER_H_
#define SRC_BPF_IR_BUILDER_H_

#include <cstdint>
#include <vector>

#include "src/bpf/ir/ir.h"

namespace cache_ext::bpf::ir {

class ProgramBuilder {
 public:
  using Label = size_t;

  Label NewLabel();
  // Bind `label` to the NEXT instruction emitted.
  void Bind(Label label);

  ProgramBuilder& MovImm(Reg dst, int64_t imm);
  ProgramBuilder& MovReg(Reg dst, Reg src);
  ProgramBuilder& Alu(AluOp op, Reg dst, int64_t imm);
  ProgramBuilder& AluReg(AluOp op, Reg dst, Reg src);
  ProgramBuilder& Jmp(Label target);
  ProgramBuilder& JmpImm(Cond cond, Reg reg, int64_t imm, Label target);
  ProgramBuilder& JmpReg(Cond cond, Reg lhs, Reg rhs, Label target);
  ProgramBuilder& CtxLoad(Reg dst, CtxField field);
  ProgramBuilder& MapLookup(uint32_t map, Reg key);
  ProgramBuilder& MapUpdate(uint32_t map, Reg key, Reg value);
  ProgramBuilder& MapDelete(uint32_t map, Reg key);
  ProgramBuilder& Load(Reg dst, Reg src, int32_t off);
  ProgramBuilder& Store(Reg dst, int32_t off, Reg src);
  ProgramBuilder& StoreImm(Reg dst, int32_t off, int64_t imm);
  ProgramBuilder& FolioKey(Reg dst, Reg src);
  ProgramBuilder& Call(verifier::Kfunc kfunc);
  ProgramBuilder& Exit();

  struct LoopOpts {
    // Spelled as a constructor (not member initializers) so LoopOpts() can
    // be a default argument below, inside the enclosing class.
    LoopOpts() : on_skip(LoopPlace::kKeepInPlace),
                 on_evict(LoopPlace::kKeepInPlace) {}
    LoopPlace on_skip;
    LoopPlace on_evict;
  };
  // Open a bounded walk of the list whose id is in `list`. The body runs
  // once per examined folio with R1 = the folio; it must leave the verdict
  // (simple form: 0 skip / 1 evict / 2 stop) or the score (score form) in
  // R0. Bound from an immediate...
  ProgramBuilder& BeginIterate(Reg list, int64_t bound_imm,
                               LoopOpts opts = LoopOpts());
  ProgramBuilder& BeginIterateScore(Reg list, int64_t bound_imm,
                                    LoopOpts opts = LoopOpts());
  // ...or from a register whose range the verifier must prove finite.
  ProgramBuilder& BeginIterateReg(Reg list, Reg bound, LoopOpts opts = LoopOpts());
  ProgramBuilder& EndIterate();

  // Patch labels and return the program. CHECK-fails on unbound labels or
  // unclosed loops. The builder is left empty and reusable.
  Program Build();

 private:
  ProgramBuilder& Push(Inst inst);
  ProgramBuilder& BeginLoop(Op op, Reg list, bool bound_is_reg, Reg bound_reg,
                            int64_t bound_imm, LoopOpts opts);

  Program insns_;
  // labels_[i] = pc the label resolves to, or -1 while unbound.
  std::vector<int64_t> labels_;
  // Instructions whose `target` is a label id awaiting patching.
  std::vector<size_t> pending_;
  // Open loop headers (pc of kLoopIterate*), innermost last.
  std::vector<size_t> open_loops_;
};

}  // namespace cache_ext::bpf::ir

#endif  // SRC_BPF_IR_BUILDER_H_
