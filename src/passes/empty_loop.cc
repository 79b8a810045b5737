#include "passes/passes.h"

#include "passes/analysis.h"

namespace nomap {

namespace {

/**
 * Ops that are pure loop plumbing: induction updates, comparisons,
 * copies, and the transaction tiling marker. A loop whose body is
 * exclusively plumbing computes nothing.
 */
bool
isPlumbing(const IrInstr &instr)
{
    // Any pure computation plus bare control flow. Like LLVM's
    // LoopDeletion, we assume source loops terminate: a loop that
    // computes nothing observable may be removed even though its trip
    // count is data-dependent.
    if (isPureValueOp(instr.op))
        return true;
    // A converted check in an otherwise-empty loop guards values that
    // died with the loop body: skipping its abort commits the same
    // (empty) observable state the Baseline re-execution would
    // produce. Un-converted checks are real deopt points and block
    // deletion.
    if (instr.isCheck() && instr.converted)
        return true;
    switch (instr.op) {
      case IrOp::Nop:
      case IrOp::Jump:
      case IrOp::Branch:
      case IrOp::TxTile:
        return true;
      default:
        return false;
    }
}

} // namespace

void
runEmptyLoopElim(IrFunction &fn, PassStats &stats)
{
    std::vector<uint32_t> idom = computeIdoms(fn);
    std::vector<NaturalLoop> loops = findLoops(fn, idom);

    for (NaturalLoop &loop : loops) {
        // Only single-exit loops exiting from the header.
        if (loop.exitingBlocks.size() != 1 ||
            loop.exitingBlocks[0] != loop.header ||
            loop.exitTargets.size() != 1) {
            continue;
        }
        // Entire body must be plumbing with no un-converted SMPs
        // (those would need the registers the loop produces).
        bool empty = true;
        for (uint32_t b : loop.blocks) {
            for (const IrInstr &instr : fn.blocks[b].instrs) {
                if (!isPlumbing(instr)) {
                    empty = false;
                    break;
                }
            }
            if (!empty)
                break;
        }
        if (!empty)
            continue;

        // No register defined inside may be consumed after the loop.
        uint32_t exit_target = loop.exitTargets[0];
        std::vector<bool> defined = regsDefinedInLoop(fn, loop);
        Liveness liveness = computeLiveness(fn);
        bool escapes = false;
        for (uint16_t r = 0; r < fn.numRegs; ++r)
            escapes |= (defined[r] && liveness.liveIn[exit_target].test(r));
        if (escapes)
            continue;

        // Delete the loop: every outside edge into the header is
        // redirected straight to the exit target.
        for (uint32_t pred : fn.blocks[loop.header].preds) {
            if (loop.contains(pred))
                continue;
            IrBlock &pb = fn.blocks[pred];
            IrInstr &term = pb.instrs.back();
            if (term.op == IrOp::Jump) {
                if (term.imm == loop.header)
                    term.imm = exit_target;
            } else if (term.op == IrOp::Branch) {
                if (term.imm == loop.header)
                    term.imm = exit_target;
                if (term.imm2 == loop.header)
                    term.imm2 = exit_target;
            }
            for (uint32_t &succ : pb.succs) {
                if (succ == loop.header)
                    succ = exit_target;
            }
            fn.blocks[exit_target].preds.push_back(pred);
        }
        // The loop blocks are unreachable now; scrub them into
        // self-consistent stubs so CFG invariants (succ/pred
        // symmetry) keep holding for verify() and later analyses.
        auto &xpreds = fn.blocks[exit_target].preds;
        std::vector<uint32_t> kept_preds;
        for (uint32_t pred : xpreds) {
            if (!loop.contains(pred))
                kept_preds.push_back(pred);
        }
        xpreds = kept_preds;
        for (uint32_t b : loop.blocks) {
            IrBlock &dead = fn.blocks[b];
            dead.instrs.clear();
            IrInstr ret;
            ret.op = IrOp::ReturnUndef;
            dead.instrs.push_back(ret);
            dead.succs.clear();
            dead.preds.clear();
        }
        ++stats.emptyLoopsRemoved;
        // Analyses are stale now; one deletion per invocation of the
        // outer fixpoint is fine.
        break;
    }
}

} // namespace nomap
