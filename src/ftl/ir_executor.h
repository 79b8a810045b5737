#ifndef NOMAP_FTL_IR_EXECUTOR_H
#define NOMAP_FTL_IR_EXECUTOR_H

/**
 * @file
 * Executor for DFG/FTL IR.
 *
 * This stands in for the machine code LLVM would emit: it runs the
 * optimized IR while the cost model counts the x86-64-equivalent
 * dynamic instructions each IR op would have compiled to. Everything
 * observable — check executions by category, deoptimizations through
 * stack maps, transactions with true rollback and Baseline re-entry,
 * cache and HTM footprint traffic — happens for real.
 *
 * Speculative-execution rule: inside a transaction, a type-mismatched
 * fast op (possible after NoMap's speculative hoisting or check
 * combining) produces a deterministic garbage value, exactly like
 * hardware executing past a removed check; the transaction's
 * remaining/sunk checks abort before such garbage can commit. Outside
 * a transaction every fast op is fully guarded by construction and a
 * mismatch is a compiler bug (simulator panic).
 *
 * The op bodies are not written here: they live once, in
 * op_bodies.inc, and this executor's dispatch loop and the region
 * template tier's (src/jit/) both expand them, so op semantics cannot
 * drift between the two tiers. This loop stays the reference that
 * tests/test_jit.cc compares the template tier against; what that
 * differential still pins is the part each loop owns: dispatch, label
 * binding, superinstruction fusion, and the tx-aware/non-aware
 * variant split.
 */

#include "engine/config.h"
#include "interp/bytecode_executor.h"
#include "ir/ir.h"

namespace nomap {

/** Executes one IR function invocation (including nested tiers). */
class IrExecutor
{
  public:
    IrExecutor(ExecEnv &env, BytecodeExecutor &baseline,
               const EngineConfig &config);

    /**
     * Run @p ir. @p fn is the bytecode (deopt target / profiles).
     * May recursively dispatch calls through env.dispatcher.
     */
    Value run(IrFunction &ir, BytecodeFunction &fn, const Value *args,
              uint32_t nargs);

  private:
    /**
     * Feature mask bits for runImpl. Each combination compiles a
     * separate copy of the dispatch loop, selected once per run, so a
     * disabled feature costs nothing on the hot path — not even a
     * predicted branch.
     */
    static constexpr unsigned kFeatBatched = 1u; ///< Batched accounting.
    static constexpr unsigned kFeatInject = 2u;  ///< Fault plan armed.
    static constexpr unsigned kFeatTrace = 4u;   ///< Trace sink live.

    /**
     * The dispatch loop, walking the function's flat predecoded run
     * stream. kFeat & kFeatBatched selects the accounting strategy:
     * set charges each charge segment's static cost once on segment
     * entry (refunding the unexecuted suffix on deopt/abort/watchdog
     * exits), clear charges every op individually. kFeatInject
     * compiles in the fault-injection polls (env.inj is non-null for
     * the whole run or not at all); kFeatTrace the trace-event emits
     * (TraceBuffer::enabled() is fixed at construction). Every
     * variant must produce bit-identical results, ExecutionStats, and
     * traces; the differential accounting/trace/chaos tests enforce
     * it.
     */
    template <unsigned kFeat>
    Value runImpl(IrFunction &ir, BytecodeFunction &fn,
                  const Value *args, uint32_t nargs);

    ExecEnv &env;
    BytecodeExecutor &baseline;
    const EngineConfig &config;
};

} // namespace nomap

#endif // NOMAP_FTL_IR_EXECUTOR_H
