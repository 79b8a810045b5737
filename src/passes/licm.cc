#include "passes/passes.h"

#include <algorithm>

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

constexpr uint32_t kNoCopy = ~uint32_t{0};

/**
 * What one loop's hoisting decisions read, gathered in one scan. The
 * hoisting only turns in-loop instructions into copies or Nops and
 * rewrites their uses, so none of this changes while the loop is
 * processed. Storage is @p ctx scratch.
 */
class LoopFacts
{
  public:
    LoopFacts(const IrFunction &fn, const NaturalLoop &loop,
              AnalysisContext &ctx)
        : defCount(ctx.bytes[0]), copyOf(ctx.indices[0]),
          slotStores(ctx.indices[1]), globalStores(ctx.indices[2])
    {
        defCount.assign(fn.numRegs, 0);
        copyOf.assign(fn.numRegs, kNoCopy);
        slotStores.clear();
        globalStores.clear();
        for (uint32_t b : loop.blocks) {
            for (const IrInstr &instr : fn.blocks[b].instrs) {
                int32_t def = defOf(instr);
                if (def >= 0 && defCount[static_cast<size_t>(def)] < 2)
                    ++defCount[static_cast<size_t>(def)];
                opaque |= isOpaqueCall(instr.op);
                opaqueSmp |= instr.isCheck() && !instr.converted;
                elemStore |= instr.op == IrOp::SetElem;
                if (instr.op == IrOp::SetSlot)
                    slotStores.push_back(instr.imm);
                if (instr.op == IrOp::StoreGlobal)
                    globalStores.push_back(instr.imm);
            }
        }
    }

    /** Any un-converted SMP check in the loop? */
    bool hasOpaqueSmp() const { return opaqueSmp; }

    /**
     * Defs of @p reg in the loop, saturated at 2. Registers allocated
     * after the scan (preheader temporaries) have none.
     */
    uint8_t
    defs(uint16_t reg) const
    {
        return reg < defCount.size() ? defCount[reg] : 0;
    }

    /** Preheader temp holding @p reg's invariant value, or kNoCopy. */
    uint32_t
    copy(uint16_t reg) const
    {
        return reg < copyOf.size() ? copyOf[reg] : kNoCopy;
    }

    void setCopy(uint16_t reg, uint16_t temp) { copyOf[reg] = temp; }

    /** Does the loop contain stores/calls that could clobber @p load? */
    bool
    clobbers(const IrInstr &load) const
    {
        if (opaque)
            return true;
        switch (load.op) {
          case IrOp::GetSlot:
            return contains(slotStores, load.imm);
          case IrOp::GetElem:
          case IrOp::GetArrayLen:
            return elemStore;
          case IrOp::LoadGlobal:
            return contains(globalStores, load.imm);
          default:
            return false;
        }
    }

  private:
    static bool
    contains(const std::vector<uint32_t> &imms, uint32_t imm)
    {
        return std::find(imms.begin(), imms.end(), imm) != imms.end();
    }

    std::vector<uint8_t> &defCount;
    std::vector<uint32_t> &copyOf;
    std::vector<uint32_t> &slotStores;
    std::vector<uint32_t> &globalStores;
    bool opaque = false;
    bool opaqueSmp = false;
    bool elemStore = false;
};

void
hoistLoop(IrFunction &fn, AnalysisContext &ctx, const NaturalLoop &loop,
          uint32_t preheader, PassStats &stats)
{
    // Per-register facts, and the map from loop register -> preheader
    // temp holding the invariant value (built as we hoist chains like
    // check -> load -> check).
    LoopFacts facts(fn, loop, ctx);
    bool has_opaque_smp = facts.hasOpaqueSmp();

    auto operand = [&](uint16_t reg) -> uint16_t {
        uint32_t copy = facts.copy(reg);
        return copy == kNoCopy ? reg : static_cast<uint16_t>(copy);
    };
    auto is_invariant = [&](uint16_t reg) {
        return facts.defs(reg) == 0 || facts.copy(reg) != kNoCopy;
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
                    if (facts.clobbers(instr))
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
                if (facts.copy(instr.dst) != kNoCopy)
                    continue; // Another def already promoted this reg.

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
                if (facts.defs(dst) == 1) {
                    // Unique def: every in-loop use sees this value.
                    facts.setCopy(dst, temp);
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

    // Sweep hoisted-check Nops, compacting in place.
    for (uint32_t b : loop.blocks) {
        auto &instrs = fn.blocks[b].instrs;
        size_t kept = 0;
        for (size_t i = 0; i < instrs.size(); ++i) {
            if (instrs[i].op != IrOp::Nop)
                instrs[kept++] = instrs[i];
        }
        instrs.resize(kept);
    }
}

} // namespace

void
runLicm(IrFunction &fn, AnalysisContext &ctx, PassStats &stats)
{
    // Phase 1: make sure every loop has a dedicated preheader (block
    // creation edits the CFG, so do it up front).
    for (const NaturalLoop &loop : ctx.loops())
        ensurePreheader(fn, loop);

    // Phase 2: hoist, innermost loops first so chains migrate
    // outward through enclosing loops.
    const std::vector<NaturalLoop> &loops = ctx.loops();
    for (auto it = loops.rbegin(); it != loops.rend(); ++it) {
        uint32_t preheader = ensurePreheader(fn, *it);
        hoistLoop(fn, ctx, *it, preheader, stats);
    }
    fn.verify();
}

} // namespace nomap
