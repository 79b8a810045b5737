#ifndef NOMAP_INTERP_BYTECODE_EXECUTOR_H
#define NOMAP_INTERP_BYTECODE_EXECUTOR_H

/**
 * @file
 * Tier 0 (Interpreter) and Tier 1 (Baseline) executor.
 *
 * Both tiers execute the same register bytecode; they differ in the
 * per-operation instruction cost (the interpreter pays dispatch and
 * boxing overhead on every op) and in property access: the Baseline
 * tier uses monomorphic inline caches seeded by the shared profile,
 * the Interpreter always takes the generic runtime path.
 *
 * Both tiers collect type feedback into FunctionProfile — that
 * feedback is what the DFG/FTL IR builder speculates on (and what
 * each FTL check guards).
 *
 * The executor also serves as the OSR-exit landing pad: runFrom()
 * resumes execution at an arbitrary bytecode pc with a materialized
 * register file, which is exactly what a deoptimizing SMP (or an
 * aborting NoMap transaction) transfers to.
 *
 * The dispatch loop is multi-versioned over a compile-time feature
 * mask (see kFeat* below) selected once per call, so the common
 * configuration — batched accounting, quickening on — runs a loop
 * with zero feature checks compiled into it.
 */

#include <vector>

#include "bytecode/compiler.h"
#include "interp/exec_env.h"

namespace nomap {

/** Executes bytecode in Interpreter or Baseline mode. */
class BytecodeExecutor
{
  public:
    BytecodeExecutor(ExecEnv &env, Tier tier);

    /** Normal call entry. */
    Value run(BytecodeFunction &fn, const Value *args, uint32_t nargs);

    /**
     * OSR entry: resume at @p pc with the given locals (registers
     * [0, numLocals) of the frame; temporaries start undefined).
     */
    Value runFrom(BytecodeFunction &fn, const std::vector<Value> &locals,
                  uint32_t pc);

  private:
    /**
     * Feature mask bits for executeImpl. Each combination compiles a
     * separate copy of the dispatch loop, so a disabled feature costs
     * nothing — not even a predicted branch.
     */
    static constexpr unsigned kFeatBatched = 1u; ///< Batched accounting.
    static constexpr unsigned kFeatQuicken = 2u; ///< Rewrite warm ops.

    Value execute(BytecodeFunction &fn, std::vector<Value> &regs,
                  uint32_t pc);

    /**
     * The dispatch loop. kFeat & kFeatBatched selects the accounting
     * strategy: set charges each straight-line run's static cost once
     * on run entry (refunding the unexecuted suffix on an early exit),
     * clear charges every op individually. kFeat & kFeatQuicken
     * enables in-place rewriting of generic ops to their quickened
     * forms as feedback warms up. Every variant must produce
     * bit-identical results, ExecutionStats, and traces (vcycles
     * only per accounting mode); the differential accounting and
     * quickening tests enforce it.
     */
    template <unsigned kFeat>
    Value executeImpl(BytecodeFunction &fn, std::vector<Value> &regs,
                      uint32_t pc);

    /**
     * One-shot superinstruction fusion over a function's code:
     * rewrites compare+branch pairs to QCmpBranch and
     * const+compare+branch triples to QConstCmpBranch, in place. All
     * constituent ops keep their pc and operands, so jump targets,
     * profiles, and charge plans are untouched.
     */
    static void quickenStatic(BytecodeFunction &fn);

    void profileBinary(ArithProfile &prof, Value lhs, Value rhs,
                       Value result);

    ExecEnv &env;
    Tier tier;
};

} // namespace nomap

#endif // NOMAP_INTERP_BYTECODE_EXECUTOR_H
