#ifndef NOMAP_PASSES_PASSES_H
#define NOMAP_PASSES_PASSES_H

/**
 * @file
 * Optimization passes over the IR.
 *
 * The central design rule (mirroring what the paper observes in real
 * FTL): an *un-converted* check — one still carrying a Stack Map
 * Point — behaves like LLVM's patchpoint intrinsics: it is an opaque
 * barrier that kills memory/check availability facts and keeps every
 * baseline register alive. A check whose SMP NoMap converted to a
 * transactional abort is a plain conditional abort: no barrier, no
 * liveness. Each pass queries `instr.isCheck() && !instr.converted`;
 * there are no per-architecture switches inside the passes — the
 * NoMap planner's conversions alone unlock them.
 *
 * Every pass takes the compile's AnalysisContext (passes/analysis.h):
 * it reads CFG analyses from its cache and uses its scratch storage,
 * so no per-instruction path of a pass hashes or allocates.
 *
 * Pipelines (assembled in ftl/compile.cc):
 *   DFG       : KindInference, LocalCse
 *   FTL Base  : KindInference, CheckElim, LocalCse, Licm, Dce
 *   FTL NoMap*: (planner first) same pipeline + StoreSink +
 *               EmptyLoopElim [+ BoundsCombine] [+ SofElim]
 *               [+ RemoveConvertedChecks for the BC bound]
 */

#include "ir/ir.h"

namespace nomap {

class AnalysisContext;

/** Per-pass change counters, for tests and ablation reporting. */
struct PassStats {
    uint32_t checksRemovedByKinds = 0;
    uint32_t checksRemovedRedundant = 0;
    uint32_t opsCseEliminated = 0;
    uint32_t opsHoisted = 0;
    uint32_t storesSunk = 0;
    uint32_t loadsPromoted = 0;
    uint32_t boundsChecksCombined = 0;
    uint32_t boundsLoopsCombined = 0;
    uint32_t overflowChecksRemoved = 0;
    uint32_t checksRemovedUnsafe = 0;
    uint32_t deadOpsRemoved = 0;
    uint32_t emptyLoopsRemoved = 0;
};

/**
 * Checks deleted or combined, summed across every counter. The pass
 * driver diffs this around each pass to attribute removals per pass
 * in PassReport trace events (the Fig. 3/8/9 explanation signal).
 */
inline uint32_t
totalChecksRemoved(const PassStats &stats)
{
    return stats.checksRemovedByKinds + stats.checksRemovedRedundant +
           stats.boundsChecksCombined + stats.overflowChecksRemoved +
           stats.checksRemovedUnsafe;
}

/** Non-check operations deleted, moved, or promoted, summed. */
inline uint32_t
totalOpsChanged(const PassStats &stats)
{
    return stats.opsCseEliminated + stats.opsHoisted + stats.storesSunk +
           stats.loadsPromoted + stats.deadOpsRemoved +
           stats.emptyLoopsRemoved;
}

/**
 * Static kind inference (models the DFG tier's abstract interpreter):
 * forward dataflow of value kinds through registers; deletes checks
 * whose speculation is already proven (e.g. CheckInt32 on the result
 * of an overflow-checked AddInt). Sound across SMPs, runs everywhere.
 */
void runKindInference(IrFunction &fn, AnalysisContext &ctx,
                      PassStats &stats);

/**
 * Available-check elimination: a check identical to one that
 * dominates it (with no intervening clobber of its operands or of the
 * heap state it depends on) is deleted. Un-converted SMPs kill all
 * facts — in Base compilation this pass therefore achieves almost
 * nothing, exactly the "limited effectiveness" the paper describes.
 */
void runCheckElim(IrFunction &fn, AnalysisContext &ctx,
                  PassStats &stats);

/**
 * Local common-subexpression elimination + redundant-load elimination
 * within basic blocks. Loads are value-numbered against a per-alias-
 * class memory epoch; stores, opaque calls, and un-converted SMPs
 * bump epochs.
 */
void runLocalCse(IrFunction &fn, AnalysisContext &ctx,
                 PassStats &stats);

/**
 * Loop-invariant code motion. Pure ops hoist everywhere; loads and
 * converted checks hoist out of transactional loops (speculative
 * hoisting is safe under rollback); nothing heap-dependent moves
 * across un-converted SMPs.
 */
void runLicm(IrFunction &fn, AnalysisContext &ctx,
             PassStats &stats);

/**
 * Scalar promotion of loop-invariant object-slot / global locations
 * (the paper's Figure 4(d) `obj.sum` accumulator): load in the
 * preheader, keep the value in a register, store once at the
 * transaction commit points. Only legal inside transactions.
 */
void runStoreSink(IrFunction &fn, AnalysisContext &ctx,
                  PassStats &stats);

/**
 * NoMap_B's bounds-check combining: per-loop monotonic induction
 * indices get their per-iteration CheckBounds replaced by a single
 * CheckBoundsRange at the loop exit (paper Figure 6).
 */
void runBoundsCombine(IrFunction &fn, AnalysisContext &ctx,
                      PassStats &stats);

/**
 * Full NoMap's Sticky-Overflow-Flag optimization: deletes converted
 * CheckOverflow instructions; the outermost XEnd checks the SOF
 * (paper Figure 7).
 */
void runSofElim(IrFunction &fn, AnalysisContext &ctx,
                PassStats &stats);

/** NoMap_BC unrealistic bound: delete every converted check. */
void runRemoveConvertedChecks(IrFunction &fn, AnalysisContext &ctx,
                              PassStats &stats);

/**
 * Dead-code elimination. Un-converted SMPs and TxBegin/TxTile keep
 * all baseline registers alive (deopt needs them); converted checks
 * keep nothing and die with the values they guard.
 */
void runDce(IrFunction &fn, AnalysisContext &ctx,
            PassStats &stats);

/**
 * Strong (cycle-aware) dead-code elimination scoped to loops inside
 * transactions: self-feeding accumulators (`a = a + f(i)`) whose
 * values never reach a store, call, branch, or loop exit are deleted
 * even though simple liveness would keep them alive around the back
 * edge. This is what lets whole benchmark kernels become dead code
 * under NoMap (paper Table III).
 */
void runLoopAccumulatorDce(IrFunction &fn, AnalysisContext &ctx,
                           PassStats &stats);

/**
 * Deletes loops whose bodies reduced to pure induction spinning with
 * no live results — the effect that lets NoMap optimize three
 * SunSpider benchmarks away entirely (paper Table III).
 */
void runEmptyLoopElim(IrFunction &fn, AnalysisContext &ctx,
                      PassStats &stats);

} // namespace nomap

#endif // NOMAP_PASSES_PASSES_H
