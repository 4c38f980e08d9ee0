#include "src/bpf/ir/interp.h"

#include <array>
#include <atomic>

#include "src/bpf/ir/exec.h"
#include "src/cache_ext/eviction_list.h"
#include "src/mm/address_space.h"
#include "src/util/logging.h"

namespace cache_ext::bpf::ir {

namespace {

using verifier::Hook;

// Map-value words are shared with concurrent invocations (and with the
// lock-free JIT steps), so all loads/stores through value pointers go
// through atomic_ref, as kernel array-map values are when programs race.
inline uint64_t ValueLoad(const uint64_t* p) {
  return std::atomic_ref<const uint64_t>(*p).load(std::memory_order_relaxed);
}

inline void ValueStore(uint64_t* p, uint64_t v) {
  std::atomic_ref<uint64_t>(*p).store(v, std::memory_order_relaxed);
}

}  // namespace

IrRuntime::IrRuntime(IrPolicy policy) : policy_(std::move(policy)) {
  for (const MapDecl& decl : policy_.maps) {
    maps_.push_back(std::make_unique<IrMap>(decl));
  }
}

uint64_t IrRuntime::MapLookups() const {
  uint64_t total = 0;
  for (const auto& map : maps_) {
    total += map->lookups();
  }
  return total;
}

int64_t IrRuntime::Execute(Hook hook, CacheExtApi& api, const HookCtx& hctx) {
  const Program& prog = policy_.hook(hook);
  if (prog.empty()) {
    return 0;
  }
  std::array<uint64_t, kNumRegs> regs = {};
  ExecuteRange(0, prog.size(), prog, api, hctx, regs);
  return static_cast<int64_t>(regs[R0]);
}

bool IrRuntime::ExecuteRange(size_t begin, size_t end, const Program& prog,
                             CacheExtApi& api, const HookCtx& hctx,
                             std::array<uint64_t, kNumRegs>& regs) {
  size_t pc = begin;
  while (pc < end) {
    const Inst& ins = prog[pc];
    switch (ins.op) {
      case Op::kMovImm:
        regs[ins.dst] = static_cast<uint64_t>(ins.imm);
        break;
      case Op::kMovReg:
        regs[ins.dst] = regs[ins.src];
        break;
      case Op::kAluImm:
        regs[ins.dst] =
            EvalAlu(ins.alu, regs[ins.dst], static_cast<uint64_t>(ins.imm));
        break;
      case Op::kAluReg:
        regs[ins.dst] = EvalAlu(ins.alu, regs[ins.dst], regs[ins.src]);
        break;
      case Op::kJmp:
        pc = static_cast<size_t>(ins.target);
        continue;
      case Op::kJmpImm:
        if (EvalCond(ins.cond, regs[ins.dst], static_cast<uint64_t>(ins.imm))) {
          pc = static_cast<size_t>(ins.target);
          continue;
        }
        break;
      case Op::kJmpReg:
        if (EvalCond(ins.cond, regs[ins.dst], regs[ins.src])) {
          pc = static_cast<size_t>(ins.target);
          continue;
        }
        break;
      case Op::kCtxLoad:
        regs[ins.dst] = LoadCtx(ins.ctx, hctx);
        break;
      case Op::kMapLookup: {
        uint64_t* value = maps_[ins.map]->Lookup(regs[ins.src]);
        regs[R0] = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(value));
        break;
      }
      case Op::kMapUpdate:
        regs[R0] = maps_[ins.map]->Update(regs[ins.dst], regs[ins.src]);
        break;
      case Op::kMapDelete:
        regs[R0] = maps_[ins.map]->Delete(regs[ins.dst]);
        break;
      case Op::kLoad: {
        const uint64_t* value =
            reinterpret_cast<const uint64_t*>(static_cast<uintptr_t>(regs[ins.src]));
        regs[ins.dst] = value == nullptr ? 0 : ValueLoad(&value[ins.off / 8]);
        break;
      }
      case Op::kStore:
      case Op::kStoreImm: {
        uint64_t* value =
            reinterpret_cast<uint64_t*>(static_cast<uintptr_t>(regs[ins.dst]));
        if (value != nullptr) {
          ValueStore(&value[ins.off / 8],
                     ins.op == Op::kStore ? regs[ins.src]
                                          : static_cast<uint64_t>(ins.imm));
        }
        break;
      }
      case Op::kFolioKey: {
        const Folio* folio =
            reinterpret_cast<const Folio*>(static_cast<uintptr_t>(regs[ins.src]));
        regs[ins.dst] = folio == nullptr ? 0 : FolioIdentityKey(folio);
        break;
      }
      case Op::kCall:
        DoKfuncCall(ins.kfunc, api, regs.data());
        break;
      case Op::kLoopIterate:
      case Op::kLoopIterateScore: {
        const size_t body_begin = pc + 1;
        const size_t body_end = static_cast<size_t>(ins.target);
        IterOpts opts;
        opts.nr_scan =
            ins.bound_is_reg ? regs[ins.src] : static_cast<uint64_t>(ins.imm);
        opts.on_skip = ToPlacement(ins.on_skip);
        opts.on_evict = ToPlacement(ins.on_evict);
        const uint64_t list_id = regs[ins.dst];
        Status st;
        if (ins.op == Op::kLoopIterate) {
          st = api.ListIterate(list_id, opts, hctx.evict, [&](Folio* folio) {
            regs[R1] =
                static_cast<uint64_t>(reinterpret_cast<uintptr_t>(folio));
            ExecuteRange(body_begin, body_end, prog, api, hctx, regs);
            return VerdictFromR0(regs[R0]);
          });
        } else {
          st = api.ListIterateScore(
              list_id, opts, hctx.evict, [&](Folio* folio) {
                regs[R1] =
                    static_cast<uint64_t>(reinterpret_cast<uintptr_t>(folio));
                ExecuteRange(body_begin, body_end, prog, api, hctx, regs);
                return static_cast<int64_t>(regs[R0]);
              });
        }
        // The loop clobbers r0 (completion status) and the scratch
        // registers, matching what the verifier assumes post-loop.
        regs[R0] = st.ok() ? 0 : 1;
        regs[R1] = regs[R2] = regs[R3] = regs[R4] = regs[R5] = 0;
        pc = body_end + 1;
        continue;
      }
      case Op::kLoopEnd:
        // Only reached as the end of a body range; treat as a range end.
        return false;
      case Op::kExit:
        return true;
    }
    ++pc;
  }
  return false;
}

}  // namespace cache_ext::bpf::ir
