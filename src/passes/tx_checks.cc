#include "passes/passes.h"

#include <vector>

#include "passes/analysis.h"

namespace nomap {

void
runSofElim(IrFunction &fn, AnalysisContext &, PassStats &stats)
{
    // The Sticky Overflow Flag latches any integer overflow inside a
    // transaction; the outermost XEnd checks it and aborts (paper
    // Figure 7). With that hardware behaviour, per-operation overflow
    // checks inside transactions are pure overhead: delete every
    // converted one. Un-converted checks (outside transactions, or in
    // Base compilation) must stay — x86 has no SOF.
    for (IrBlock &block : fn.blocks) {
        stats.overflowChecksRemoved += static_cast<uint32_t>(
            std::erase_if(block.instrs, [](const IrInstr &instr) {
                return instr.op == IrOp::CheckOverflow && instr.converted;
            }));
    }
}

void
runRemoveConvertedChecks(IrFunction &fn, AnalysisContext &,
                         PassStats &stats)
{
    // NoMap_BC: the paper's unrealistic upper bound where *every*
    // check inside a transaction disappears. Deliberately unsound for
    // corner cases (which is why the paper calls it unrealistic);
    // overflow safety is still preserved by the SOF at XEnd.
    for (IrBlock &block : fn.blocks) {
        stats.checksRemovedUnsafe += static_cast<uint32_t>(
            std::erase_if(block.instrs, [](const IrInstr &instr) {
                return instr.isCheck() && instr.converted;
            }));
    }
}

} // namespace nomap
