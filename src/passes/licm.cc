#include "passes/passes.h"

#include <unordered_map>

#include "passes/analysis.h"
#include "support/logging.h"

namespace nomap {

namespace {

/** Can this op ever be hoisted, and under what conditions? */
enum class HoistClass : uint8_t {
    Never,
    Pure,          ///< Always safe to execute early.
    Load,          ///< Needs no clobber + no opaque SMP in loop.
    ConvertedCheck ///< Only when converted (rollback makes it safe).
};

HoistClass
hoistClassOf(const IrInstr &instr)
{
    if (instr.isCheck()) {
        // Bounds/overflow checks have loop-varying operands in
        // practice; the invariance test filters them. Any converted
        // check with invariant operands may move (the abort fires at
        // a different time, which transactional semantics allow).
        return instr.converted ? HoistClass::ConvertedCheck
                               : HoistClass::Never;
    }
    if (isPureValueOp(instr.op) || instr.op == IrOp::Const)
        return HoistClass::Pure;
    switch (instr.op) {
      case IrOp::GetSlot:
      case IrOp::GetArrayLen:
      case IrOp::GetElem:
      case IrOp::LoadGlobal:
        return HoistClass::Load;
      default:
        return HoistClass::Never;
    }
}

/** Does the loop contain stores/calls that could clobber this load? */
bool
loadClobberedInLoop(const IrFunction &fn, const NaturalLoop &loop,
                    const IrInstr &load)
{
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            if (isOpaqueCall(instr.op))
                return true;
            switch (load.op) {
              case IrOp::GetSlot:
                if (instr.op == IrOp::SetSlot &&
                    instr.imm == load.imm) {
                    return true;
                }
                break;
              case IrOp::GetElem:
              case IrOp::GetArrayLen:
                if (instr.op == IrOp::SetElem)
                    return true;
                break;
              case IrOp::LoadGlobal:
                if (instr.op == IrOp::StoreGlobal &&
                    instr.imm == load.imm) {
                    return true;
                }
                break;
              default:
                break;
            }
        }
    }
    return false;
}

void
hoistLoop(IrFunction &fn, const NaturalLoop &loop, uint32_t preheader,
          PassStats &stats)
{
    bool has_opaque_smp = loopHasUnconvertedSmp(fn, loop);
    std::vector<bool> defined = regsDefinedInLoop(fn, loop);

    // Map from loop register -> preheader temp holding the invariant
    // value (built as we hoist chains like check -> load -> check).
    std::unordered_map<uint16_t, uint16_t> invariant_copy;

    auto operand = [&](uint16_t reg) -> uint16_t {
        auto it = invariant_copy.find(reg);
        return it == invariant_copy.end() ? reg : it->second;
    };
    auto is_invariant = [&](uint16_t reg) {
        return !defined[reg] || invariant_copy.count(reg);
    };

    IrBlock &ph = fn.blocks[preheader];
    auto insert_preheader = [&](const IrInstr &instr) {
        // Before the terminator (and therefore after any TxBegin).
        ph.instrs.insert(ph.instrs.end() - 1, instr);
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : loop.blocks) {
            for (IrInstr &instr : fn.blocks[b].instrs) {
                HoistClass cls = hoistClassOf(instr);
                if (cls == HoistClass::Never)
                    continue;
                // Moves are free after register allocation; hoisting
                // them only churns temporaries.
                if (instr.op == IrOp::Move || instr.op == IrOp::Nop)
                    continue;

                // All operands must be invariant.
                bool ok = true;
                forEachUse(instr,
                           [&](uint16_t reg) { ok &= is_invariant(reg); });
                if (!ok)
                    continue;
                if (instr.op == IrOp::NewArray ||
                    instr.op == IrOp::NewObject) {
                    continue; // Allocations are effects.
                }

                if (cls == HoistClass::Pure) {
                    // Hoisting a pure op that writes a baseline
                    // register past an SMP would change the frame a
                    // deopt reconstructs; only temporaries move when
                    // opaque SMPs are present.
                    if (has_opaque_smp &&
                        instr.dst < fn.bytecodeRegs &&
                        instr.op != IrOp::Const) {
                        continue;
                    }
                } else if (cls == HoistClass::Load) {
                    if (has_opaque_smp)
                        continue; // Patchpoint opacity.
                    if (loadClobberedInLoop(fn, loop, instr))
                        continue;
                } else { // ConvertedCheck
                    if (instr.op == IrOp::CheckOverflow)
                        continue; // Operand always loop-defined anyway.
                }

                if (instr.isCheck()) {
                    // Move the check itself to the preheader.
                    IrInstr hoisted = instr;
                    hoisted.a = operand(hoisted.a);
                    hoisted.b = operand(hoisted.b);
                    hoisted.c = operand(hoisted.c);
                    insert_preheader(hoisted);
                    instr.op = IrOp::Nop;
                    instr.smpPc = kNoSmp;
                    ++stats.opsHoisted;
                    changed = true;
                    continue;
                }

                // Value op: compute into a fresh temp in the
                // preheader; the in-loop instruction becomes a copy so
                // every SMP still sees the baseline register written.
                if (invariant_copy.count(instr.dst))
                    continue; // Another def already promoted this reg.
                uint32_t defs = 0;
                for (uint32_t b2 : loop.blocks) {
                    for (const IrInstr &other :
                         fn.blocks[b2].instrs) {
                        if (defOf(other) ==
                            static_cast<int32_t>(instr.dst)) {
                            ++defs;
                        }
                    }
                }

                uint16_t temp = fn.allocTemp();
                IrInstr hoisted = instr;
                hoisted.dst = temp;
                hoisted.a = operand(hoisted.a);
                hoisted.b = operand(hoisted.b);
                hoisted.c = operand(hoisted.c);
                insert_preheader(hoisted);

                uint16_t dst = instr.dst;
                size_t at = static_cast<size_t>(
                    &instr - fn.blocks[b].instrs.data());
                instr = IrInstr();
                instr.op = IrOp::Move;
                instr.dst = dst;
                instr.a = temp;
                if (defs == 1) {
                    // Unique def: every in-loop use sees this value.
                    invariant_copy[dst] = temp;
                } else {
                    // Reused temporary (the bytecode compiler's
                    // expression stack): forward the hoisted value to
                    // the uses this def reaches within its block so
                    // dependent instructions become hoistable too.
                    auto &instrs = fn.blocks[b].instrs;
                    for (size_t j = at + 1; j < instrs.size(); ++j) {
                        IrInstr &later = instrs[j];
                        // Range-operand ops (calls, allocations) use
                        // a/b as a register-window base, not a single
                        // register: stop forwarding there.
                        switch (later.op) {
                          case IrOp::NewArray:
                          case IrOp::NewObject:
                          case IrOp::Call:
                          case IrOp::CallNative:
                          case IrOp::Intrinsic:
                          case IrOp::CallMethod:
                            j = instrs.size();
                            continue;
                          default:
                            break;
                        }
                        if (later.a == dst)
                            later.a = temp;
                        if (later.b == dst)
                            later.b = temp;
                        if (later.c == dst)
                            later.c = temp;
                        if (defOf(later) ==
                            static_cast<int32_t>(dst)) {
                            break;
                        }
                    }
                }
                if (cls == HoistClass::Load)
                    ++stats.loadsPromoted;
                else
                    ++stats.opsHoisted;
                changed = true;
            }
        }
    }

    // Sweep hoisted-check Nops.
    for (uint32_t b : loop.blocks) {
        auto &instrs = fn.blocks[b].instrs;
        std::vector<IrInstr> kept;
        kept.reserve(instrs.size());
        for (const IrInstr &instr : instrs) {
            if (instr.op != IrOp::Nop)
                kept.push_back(instr);
        }
        instrs = std::move(kept);
    }
}

} // namespace

void
runLicm(IrFunction &fn, PassStats &stats)
{
    // Phase 1: make sure every loop has a dedicated preheader (block
    // creation invalidates analyses, so do it up front).
    {
        std::vector<uint32_t> idom = computeIdoms(fn);
        std::vector<NaturalLoop> loops = findLoops(fn, idom);
        for (const NaturalLoop &loop : loops)
            ensurePreheader(fn, loop);
    }

    // Phase 2: hoist, innermost loops first so chains migrate
    // outward through enclosing loops.
    std::vector<uint32_t> idom = computeIdoms(fn);
    std::vector<NaturalLoop> loops = findLoops(fn, idom);
    for (auto it = loops.rbegin(); it != loops.rend(); ++it) {
        uint32_t preheader = ensurePreheader(fn, *it);
        hoistLoop(fn, *it, preheader, stats);
    }
    fn.verify();
}

} // namespace nomap
