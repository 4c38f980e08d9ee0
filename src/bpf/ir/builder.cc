#include "src/bpf/ir/builder.h"

#include "src/util/logging.h"

namespace cache_ext::bpf::ir {

ProgramBuilder::Label ProgramBuilder::NewLabel() {
  labels_.push_back(-1);
  return labels_.size() - 1;
}

void ProgramBuilder::Bind(Label label) {
  CHECK(label < labels_.size());
  CHECK(labels_[label] == -1);  // a label binds exactly once
  labels_[label] = static_cast<int64_t>(insns_.size());
}

ProgramBuilder& ProgramBuilder::Push(Inst inst) {
  insns_.push_back(inst);
  return *this;
}

ProgramBuilder& ProgramBuilder::MovImm(Reg dst, int64_t imm) {
  Inst i;
  i.op = Op::kMovImm;
  i.dst = dst;
  i.imm = imm;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::MovReg(Reg dst, Reg src) {
  Inst i;
  i.op = Op::kMovReg;
  i.dst = dst;
  i.src = src;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::Alu(AluOp op, Reg dst, int64_t imm) {
  Inst i;
  i.op = Op::kAluImm;
  i.alu = op;
  i.dst = dst;
  i.imm = imm;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::AluReg(AluOp op, Reg dst, Reg src) {
  Inst i;
  i.op = Op::kAluReg;
  i.alu = op;
  i.dst = dst;
  i.src = src;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::Jmp(Label target) {
  CHECK(target < labels_.size());
  Inst i;
  i.op = Op::kJmp;
  i.target = static_cast<int32_t>(target);
  pending_.push_back(insns_.size());
  return Push(i);
}

ProgramBuilder& ProgramBuilder::JmpImm(Cond cond, Reg reg, int64_t imm,
                                       Label target) {
  CHECK(target < labels_.size());
  Inst i;
  i.op = Op::kJmpImm;
  i.cond = cond;
  i.dst = reg;
  i.imm = imm;
  i.target = static_cast<int32_t>(target);
  pending_.push_back(insns_.size());
  return Push(i);
}

ProgramBuilder& ProgramBuilder::JmpReg(Cond cond, Reg lhs, Reg rhs,
                                       Label target) {
  CHECK(target < labels_.size());
  Inst i;
  i.op = Op::kJmpReg;
  i.cond = cond;
  i.dst = lhs;
  i.src = rhs;
  i.target = static_cast<int32_t>(target);
  pending_.push_back(insns_.size());
  return Push(i);
}

ProgramBuilder& ProgramBuilder::CtxLoad(Reg dst, CtxField field) {
  Inst i;
  i.op = Op::kCtxLoad;
  i.dst = dst;
  i.ctx = field;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::MapLookup(uint32_t map, Reg key) {
  Inst i;
  i.op = Op::kMapLookup;
  i.map = map;
  i.src = key;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::MapUpdate(uint32_t map, Reg key, Reg value) {
  Inst i;
  i.op = Op::kMapUpdate;
  i.map = map;
  i.dst = key;
  i.src = value;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::MapDelete(uint32_t map, Reg key) {
  Inst i;
  i.op = Op::kMapDelete;
  i.map = map;
  i.dst = key;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::Load(Reg dst, Reg src, int32_t off) {
  Inst i;
  i.op = Op::kLoad;
  i.dst = dst;
  i.src = src;
  i.off = off;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::Store(Reg dst, int32_t off, Reg src) {
  Inst i;
  i.op = Op::kStore;
  i.dst = dst;
  i.src = src;
  i.off = off;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::StoreImm(Reg dst, int32_t off, int64_t imm) {
  Inst i;
  i.op = Op::kStoreImm;
  i.dst = dst;
  i.off = off;
  i.imm = imm;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::FolioKey(Reg dst, Reg src) {
  Inst i;
  i.op = Op::kFolioKey;
  i.dst = dst;
  i.src = src;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::Call(verifier::Kfunc kfunc) {
  Inst i;
  i.op = Op::kCall;
  i.kfunc = kfunc;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::Exit() {
  Inst i;
  i.op = Op::kExit;
  return Push(i);
}

ProgramBuilder& ProgramBuilder::BeginLoop(Op op, Reg list, bool bound_is_reg,
                                          Reg bound_reg, int64_t bound_imm,
                                          LoopOpts opts) {
  Inst i;
  i.op = op;
  i.dst = list;
  i.bound_is_reg = bound_is_reg;
  i.src = bound_reg;
  i.imm = bound_imm;
  i.on_skip = opts.on_skip;
  i.on_evict = opts.on_evict;
  open_loops_.push_back(insns_.size());
  return Push(i);
}

ProgramBuilder& ProgramBuilder::BeginIterate(Reg list, int64_t bound_imm,
                                             LoopOpts opts) {
  return BeginLoop(Op::kLoopIterate, list, false, R0, bound_imm, opts);
}

ProgramBuilder& ProgramBuilder::BeginIterateScore(Reg list, int64_t bound_imm,
                                                  LoopOpts opts) {
  return BeginLoop(Op::kLoopIterateScore, list, false, R0, bound_imm, opts);
}

ProgramBuilder& ProgramBuilder::BeginIterateReg(Reg list, Reg bound,
                                                LoopOpts opts) {
  return BeginLoop(Op::kLoopIterate, list, true, bound, 0, opts);
}

ProgramBuilder& ProgramBuilder::EndIterate() {
  CHECK(!open_loops_.empty());  // EndIterate without BeginIterate
  const size_t header = open_loops_.back();
  open_loops_.pop_back();
  insns_[header].target = static_cast<int32_t>(insns_.size());
  Inst i;
  i.op = Op::kLoopEnd;
  return Push(i);
}

Program ProgramBuilder::Build() {
  CHECK(open_loops_.empty());  // unclosed loop
  for (const size_t pc : pending_) {
    const auto label = static_cast<size_t>(insns_[pc].target);
    CHECK(label < labels_.size());
    CHECK(labels_[label] != -1);  // jump to a label that was never bound
    insns_[pc].target = static_cast<int32_t>(labels_[label]);
  }
  Program out;
  out.swap(insns_);
  labels_.clear();
  pending_.clear();
  return out;
}

}  // namespace cache_ext::bpf::ir
