#ifndef NOMAP_ENGINE_STATS_H
#define NOMAP_ENGINE_STATS_H

/**
 * @file
 * Execution statistics: the observables every figure and table in the
 * paper is built from.
 *
 * Dynamic instructions are x86-64-equivalent counts produced by the
 * cost model, bucketed exactly like the paper's Figures 8/9:
 *  - NoFTL:   interpreter, Baseline, DFG, and runtime-call instructions;
 *  - NoTM:    FTL instructions outside transactions;
 *  - TMUnopt: FTL instructions inside a transaction but in code that
 *             was compiled without transaction awareness (callees);
 *  - TMOpt:   FTL instructions in transactional, NoMap-optimized code.
 *
 * Checks are bucketed like Figure 3 (Bounds / Overflow / Type /
 * Property / Other). Cycles split into TMTime / NonTMTime like
 * Figures 10/11.
 */

#include <cstddef>
#include <cstdint>

namespace nomap {

/** Check categories as broken down in the paper's Figure 3. */
enum class CheckKind : uint8_t {
    Bounds,
    Overflow,
    Type,
    Property,
    Other,
    NumKinds,
};

/** Printable name for a check kind. */
inline const char *
checkKindName(CheckKind kind)
{
    switch (kind) {
      case CheckKind::Bounds: return "Bounds";
      case CheckKind::Overflow: return "Overflow";
      case CheckKind::Type: return "Type";
      case CheckKind::Property: return "Property";
      case CheckKind::Other: return "Other";
      case CheckKind::NumKinds: break;
    }
    return "?";
}

/** Instruction-count buckets (paper Figures 8/9). */
enum class InstrBucket : uint8_t {
    NoFtl,
    NoTm,
    TmUnopt,
    TmOpt,
    NumBuckets,
};

/** All counters accumulated during one Engine run. */
struct ExecutionStats {
    // ---- Dynamic instructions ---------------------------------------
    uint64_t instr[static_cast<size_t>(InstrBucket::NumBuckets)] = {};

    uint64_t
    totalInstructions() const
    {
        uint64_t total = 0;
        for (uint64_t v : instr)
            total += v;
        return total;
    }

    uint64_t
    instrIn(InstrBucket b) const
    {
        return instr[static_cast<size_t>(b)];
    }

    // ---- SMP-guarding checks executed (FTL code only) ----------------
    uint64_t checks[static_cast<size_t>(CheckKind::NumKinds)] = {};

    uint64_t
    totalChecks() const
    {
        uint64_t total = 0;
        for (uint64_t v : checks)
            total += v;
        return total;
    }

    uint64_t
    checksOf(CheckKind k) const
    {
        return checks[static_cast<size_t>(k)];
    }

    // ---- Cycles -------------------------------------------------------
    double cyclesTm = 0.0;    ///< Cycles spent inside transactions.
    double cyclesNonTm = 0.0; ///< Everything else.

    double totalCycles() const { return cyclesTm + cyclesNonTm; }

    // ---- Tiering / deoptimization --------------------------------------
    uint64_t ftlFunctionCalls = 0; ///< Invocations of FTL-compiled code.
    uint64_t deopts = 0;           ///< OSR exits taken (check failures).
    uint64_t baselineCompiles = 0;
    uint64_t dfgCompiles = 0;
    uint64_t ftlCompiles = 0;
    uint64_t ftlRecompiles = 0;    ///< NoMap transaction-resize recompiles.

    // ---- Transactions (summary copied from TransactionManager) --------
    uint64_t txCommits = 0;
    uint64_t txAborts = 0;
    uint64_t txAbortsCapacity = 0;
    uint64_t txAbortsCheck = 0;
    uint64_t txAbortsSof = 0;
    double avgWriteFootprintBytes = 0.0;
    uint64_t maxWriteFootprintBytes = 0;
    uint32_t maxWriteWaysUsed = 0;

    /** Fold another stats object into this one (suite aggregation). */
    void merge(const ExecutionStats &other);
};

inline void
ExecutionStats::merge(const ExecutionStats &other)
{
    for (size_t i = 0; i < static_cast<size_t>(InstrBucket::NumBuckets);
         ++i) {
        instr[i] += other.instr[i];
    }
    for (size_t i = 0; i < static_cast<size_t>(CheckKind::NumKinds); ++i)
        checks[i] += other.checks[i];
    cyclesTm += other.cyclesTm;
    cyclesNonTm += other.cyclesNonTm;
    ftlFunctionCalls += other.ftlFunctionCalls;
    deopts += other.deopts;
    baselineCompiles += other.baselineCompiles;
    dfgCompiles += other.dfgCompiles;
    ftlCompiles += other.ftlCompiles;
    ftlRecompiles += other.ftlRecompiles;
    uint64_t prev_commits = txCommits;
    txCommits += other.txCommits;
    txAborts += other.txAborts;
    txAbortsCapacity += other.txAbortsCapacity;
    txAbortsCheck += other.txAbortsCheck;
    txAbortsSof += other.txAbortsSof;
    if (txCommits > 0) {
        avgWriteFootprintBytes =
            (avgWriteFootprintBytes * static_cast<double>(prev_commits) +
             other.avgWriteFootprintBytes *
                 static_cast<double>(other.txCommits)) /
            static_cast<double>(txCommits);
    }
    if (other.maxWriteFootprintBytes > maxWriteFootprintBytes)
        maxWriteFootprintBytes = other.maxWriteFootprintBytes;
    if (other.maxWriteWaysUsed > maxWriteWaysUsed)
        maxWriteWaysUsed = other.maxWriteWaysUsed;
}

} // namespace nomap

#endif // NOMAP_ENGINE_STATS_H
