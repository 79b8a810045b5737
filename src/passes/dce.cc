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

/**
 * One sweep under @p liveness. Each block is walked backward and
 * compacted in place (survivors are written from its end toward its
 * start); @p edited flags the blocks that lost instructions. Returns
 * whether a removed op read a register: only then can the removal
 * have made more ops dead (a removed op's def was dead, and converted
 * checks' uses never count), so only then is another round needed.
 */
bool
sweep(IrFunction &fn, AnalysisContext &ctx, Liveness &liveness,
      std::vector<uint8_t> &edited, PassStats &stats)
{
    // Delete pure ops and loads whose result is dead, and converted
    // checks whose guarded registers are all dead.
    std::vector<uint64_t> &words = ctx.words[0];
    words.assign(regSetWords(fn.numRegs), 0);
    RegSet live(words.data(), words.size());
    bool freed_uses = false;
    for (size_t bi = 0; bi < fn.blocks.size(); ++bi) {
        std::vector<IrInstr> &instrs = fn.blocks[bi].instrs;
        live.assign(liveness.liveOut(bi));
        size_t kept_from = instrs.size();
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
                ++stats.deadOpsRemoved;
                if (!instr.isCheck())
                    forEachUse(instr, [&](uint16_t) { freed_uses = true; });
                continue;
            }
            stepLiveness(fn, instr, live);
            instrs[--kept_from] = instr;
        }
        edited[bi] = kept_from != 0;
        instrs.erase(instrs.begin(),
                     instrs.begin() + static_cast<ptrdiff_t>(kept_from));
    }
    return freed_uses;
}

} // namespace

void
runDce(IrFunction &fn, AnalysisContext &ctx, PassStats &stats)
{
    // Removing one dead op can make its operands dead; iterate. Only
    // the blocks a sweep edited need new summaries before re-solving.
    Liveness &liveness = ctx.liveness();
    std::vector<uint8_t> &edited = ctx.bytes[0];
    edited.resize(fn.blocks.size());
    while (sweep(fn, ctx, liveness, edited, stats)) {
        for (size_t bi = 0; bi < fn.blocks.size(); ++bi) {
            if (edited[bi])
                liveness.summarize(fn, bi);
        }
        liveness.solve(fn);
    }
}

} // namespace nomap
