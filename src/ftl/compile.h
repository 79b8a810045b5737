#ifndef NOMAP_FTL_COMPILE_H
#define NOMAP_FTL_COMPILE_H

/**
 * @file
 * DFG/FTL compilation driver: builds IR from bytecode + profiles,
 * runs the NoMap planner (for NoMap architectures), then the
 * optimization pipeline appropriate to the tier and architecture.
 */

#include <functional>
#include <memory>

#include "engine/config.h"
#include "ir/builder.h"
#include "jit/jit_chain.h"
#include "nomap/planner.h"
#include "passes/passes.h"

namespace nomap {

/** Result of one DFG/FTL compilation. */
struct CompiledIr {
    IrFunction ir;
    PassStats passStats;
    PlanResult planResult;
    /**
     * The chain that executes `ir`. compileFunction leaves it null;
     * the engine builds it when it installs the code, so a chain is
     * freed exactly when its IR is.
     */
    std::unique_ptr<JitChain> chain;
};

/**
 * Adaptive-mode knobs forwarded to the planner (see PlannerConfig).
 * The defaults reproduce static planning exactly.
 */
struct PlanOverrides {
    /** Actual HTM-model write capacity; 0 = paper geometry table. */
    uint64_t capacityBytes = 0;
    /** Controller-learned absolute budget; 0 = fraction of capacity. */
    uint64_t budgetOverrideBytes = 0;
    /** Blacklisted loop-header pcs, ascending. */
    std::vector<uint32_t> blacklistPcs;
};

/**
 * Called after each pass and after the planner with the pass's id,
 * the function and the compile's analysis context. For tests that
 * audit the pipeline between passes; compilation itself passes none.
 */
using PassObserver = std::function<void(
    TracePassId, const IrFunction &, AnalysisContext &)>;

/**
 * Compile @p fn at @p tier for @p arch.
 *
 * @param tx_scope_level NoMap recompilation escalation: 0 = loop
 *        nest, 1 = innermost, 2 = tiled, 3 = no transactions (set
 *        after repeated capacity aborts at run time).
 * @param trace Optional sink for PassReport events: one per pass that
 *        changed the function (checks removed / ops changed deltas)
 *        plus one per planner-wrapped loop. Null disables.
 * @param clock Timestamp source for those events (the engine's
 *        Accounting); null stamps 0.
 * @param overrides Adaptive-controller planner knobs; the default
 *        reproduces static planning bit-for-bit.
 * @param observer Optional per-pass callback (see PassObserver).
 */
CompiledIr compileFunction(const BytecodeFunction &fn, Heap &heap,
                           Tier tier, Architecture arch,
                           uint32_t tx_scope_level = 0,
                           TraceBuffer *trace = nullptr,
                           const TraceClock *clock = nullptr,
                           const PlanOverrides &overrides = {},
                           const PassObserver &observer = {});

} // namespace nomap

#endif // NOMAP_FTL_COMPILE_H
