#ifndef NOMAP_NOMAP_PLANNER_H
#define NOMAP_NOMAP_PLANNER_H

/**
 * @file
 * The NoMap transaction planner — the paper's core contribution
 * (Sections IV-B and V-C).
 *
 * Operating on freshly built FTL IR (before the optimization passes,
 * exactly as the paper runs its transformation before LLVM's
 * pipeline), the planner:
 *
 *  1. places a transaction around each hot loop nest with SMPs,
 *     choosing the scope by estimated write footprint:
 *     whole nest -> innermost loop -> tiled innermost loop
 *     (commit + reopen every K iterations) -> no transaction;
 *  2. replaces every SMP inside the transaction with a transactional
 *     abort (marks the check `converted`);
 *  3. creates the paper's "Entry3": TxBegin carries the bytecode pc of
 *     the loop header so an abort re-enters the Baseline tier at the
 *     top of the loop with the registers captured at TxBegin.
 *
 * The runtime escalates `scopeLevel` when a transaction keeps
 * aborting on capacity (paper: "NoMap then tries to change the code
 * ... and compiles it again"); level 3 removes transactions from
 * loops that contain calls, blaming the callee's footprint.
 */

#include "bytecode/bytecode.h"
#include "htm/transaction.h"
#include "ir/ir.h"

namespace nomap {

/** Planner tuning knobs. */
struct PlannerConfig {
    HtmMode htmMode = HtmMode::Rot;
    /** Fraction of the write capacity the estimate may consume. */
    double capacityBudgetFraction = 0.6;
    /** Escalation: 0 = nest, 1 = innermost, 2 = tiled, 3 = none. */
    uint32_t scopeLevel = 0;
    /** Minimum average trip count for a loop to be worth wrapping. */
    double minTripCount = 4.0;
    /**
     * Write capacity of the actual HTM model in bytes; 0 derives the
     * paper's cache geometry from htmMode. Set from
     * TransactionManager::writeCapacityBytes() when the engine runs a
     * non-default CapacityModel, so plan and hardware share one
     * capacity oracle.
     */
    uint64_t capacityBytes = 0;
    /**
     * Adaptive-controller budget override in bytes: when nonzero it
     * *is* the budget (already safety-scaled from observed abort
     * footprints), replacing fraction * capacity.
     */
    uint64_t budgetOverrideBytes = 0;
    /**
     * Loop-header pcs the adaptive controller blacklisted
     * (ascending). A nest containing one gets no transaction.
     */
    std::vector<uint32_t> blacklistPcs;

    uint64_t
    writeCapacityBytes() const
    {
        if (capacityBytes)
            return capacityBytes;
        return htmMode == HtmMode::Rot ? 256 * 1024 : 32 * 1024;
    }
};

/** One loop the planner wrapped (feeds per-loop trace reports). */
struct LoopPlan {
    /** Bytecode pc of the loop header (= the TxBegin's entry SMP). */
    uint32_t headerPc = 0;
    uint32_t loopId = 0;
    /** SMP-guarding checks converted to aborts inside this loop. */
    uint32_t checksConverted = 0;
    /** Commit-and-reopen interval; 0 = untiled. */
    uint32_t tileEvery = 0;
};

/** What the planner did (for tests, ablations, and recompilation). */
struct PlanResult {
    uint32_t transactionsPlaced = 0;
    uint32_t checksConverted = 0;
    uint32_t tiledLoops = 0;
    uint32_t nestsSkippedIrrevocable = 0;
    uint32_t nestsSkippedCold = 0;
    uint32_t nestsSkippedCapacity = 0;
    /** Nests dropped because a contained loop-header pc is on the
     *  adaptive controller's blacklist. */
    uint32_t nestsSkippedBlacklisted = 0;
    /** Per-wrapped-loop detail, in placement order. */
    std::vector<LoopPlan> loops;
};

class AnalysisContext;

/**
 * Instrument @p fn with transactions. @p ctx is the compile's
 * analysis context (its loops); @p profile supplies per-loop trip
 * counts for the footprint estimate.
 */
PlanResult planTransactions(IrFunction &fn, AnalysisContext &ctx,
                            const FunctionProfile &profile,
                            const PlannerConfig &config);

} // namespace nomap

#endif // NOMAP_NOMAP_PLANNER_H
