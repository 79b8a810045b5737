#include "passes/passes.h"

#include "passes/analysis.h"
#include "vm/builtins.h"

namespace nomap {

namespace {

/** Is the instruction always necessary regardless of its result? */
bool
hasSideEffects(const IrInstr &instr)
{
    // Math intrinsics are pure except Math.random (RNG state).
    if (instr.op == IrOp::Intrinsic) {
        return static_cast<BuiltinId>(instr.imm) ==
               BuiltinId::MathRandom;
    }
    switch (instr.op) {
      case IrOp::SetSlot:
      case IrOp::SetElem:
      case IrOp::StoreGlobal:
      case IrOp::GenericSetProp:
      case IrOp::GenericSetIndex:
      case IrOp::Call:
      case IrOp::CallNative:
      case IrOp::CallMethod:
      case IrOp::GenericBinary:
      case IrOp::GenericUnary:
      case IrOp::GenericGetProp:
      case IrOp::GenericGetIndex:
      case IrOp::NewArray:
      case IrOp::NewObject:
      case IrOp::Jump:
      case IrOp::Branch:
      case IrOp::Return:
      case IrOp::ReturnUndef:
      case IrOp::TxBegin:
      case IrOp::TxEnd:
      case IrOp::TxTile:
        return true;
      default:
        return false;
    }
}

void
runDceOnce(IrFunction &fn, PassStats &stats)
{
    Liveness liveness = computeLiveness(fn);

    // Sweep: delete pure ops and loads whose result is dead, and
    // converted checks whose guarded registers are all dead.
    RegSet live(fn.numRegs);
    std::vector<bool> keep;
    for (size_t bi = 0; bi < fn.blocks.size(); ++bi) {
        std::vector<IrInstr> &instrs = fn.blocks[bi].instrs;
        live = liveness.liveOut[bi];
        keep.assign(instrs.size(), true);
        for (size_t ii = instrs.size(); ii-- > 0;) {
            const IrInstr &instr = instrs[ii];
            bool removable = false;
            if (!hasSideEffects(instr) && !instr.isCheck()) {
                int32_t def = defOf(instr);
                if (def >= 0 && !live.test(static_cast<size_t>(def)))
                    removable = true;
            } else if (instr.isCheck() && instr.converted) {
                // A converted check survives only while some operand
                // still feeds live (non-check) computation.
                bool any_use = false;
                bool any_live = false;
                forEachUse(instr, [&](uint16_t reg) {
                    any_use = true;
                    any_live |= live.test(reg);
                });
                removable = any_use && !any_live;
            }
            if (removable) {
                keep[ii] = false;
                ++stats.deadOpsRemoved;
                continue;
            }
            stepLiveness(fn, instr, live);
        }
        size_t kept = 0;
        for (size_t ii = 0; ii < instrs.size(); ++ii) {
            if (keep[ii])
                instrs[kept++] = instrs[ii];
        }
        instrs.resize(kept);
        // Compiled IR lives as long as its function: drop the slack the
        // appends of IR construction left (a no-op once it is tight).
        instrs.shrink_to_fit();
    }
}

} // namespace

void
runDce(IrFunction &fn, PassStats &stats)
{
    // Removing one dead op can make its operands dead; iterate.
    uint32_t before;
    do {
        before = stats.deadOpsRemoved;
        runDceOnce(fn, stats);
    } while (stats.deadOpsRemoved != before);
}

} // namespace nomap
