#ifndef NOMAP_JIT_JIT_EXECUTOR_H
#define NOMAP_JIT_JIT_EXECUTOR_H

/**
 * @file
 * The region template-compilation tier (EngineConfig::jitTier).
 *
 * Executes a JitChain (jit_chain.h): each record carries the address
 * of a build-time-compiled handler template specialized for its
 * (opcode, operand-shape) pair, and each template ends by jumping
 * straight through the *next record's* bound address — so a hot
 * region runs as a chain of continuations with zero dispatch-table
 * lookups, zero opcode decode, and zero operand-shape tests, its
 * indirect branches replicated per template so the host BTB learns
 * the region's actual control flow (the vmgen/gforth replication
 * trick, applied to bound per-record continuations).
 *
 * The op bodies are shared with the FTL executor: both loops expand
 * ftl/op_bodies.inc, so an op's Accounting calls, fault-injection
 * sites, trace events, deopt/OSR-into-Baseline and transactional
 * abort/unwind paths are one piece of code. This loop owns only its
 * dispatch (label capture and binding), the per-op preamble, and the
 * fused superinstruction templates, which are composed from the same
 * file's helpers. tests/test_jit.cc pins that part: the compiled tier
 * is bit-identical to FTL in results, ExecutionStats, and trace
 * streams, so it is a pure host-speed tier, exactly like quickening
 * and batching before it.
 */

#include <array>

#include "engine/config.h"
#include "interp/bytecode_executor.h"
#include "jit/jit_chain.h"

namespace nomap {

/** Executes one compiled-region invocation (including nested tiers). */
class JitExecutor
{
  public:
    JitExecutor(ExecEnv &env, BytecodeExecutor &baseline,
                const EngineConfig &config);

    /**
     * Run @p chain (compiled from @p ir, which stays the source of
     * truth for tier/txAware/constants). @p fn is the bytecode
     * function (deopt target / profiles). Rebinds the chain's
     * template addresses if the engine's feature mask changed since
     * the last run. May recursively dispatch calls through
     * env.dispatcher.
     */
    Value run(JitChain &chain, IrFunction &ir, BytecodeFunction &fn,
              const Value *args, uint32_t nargs);

  private:
    // Feature mask bits, identical to IrExecutor's: each combination
    // is a separately compiled copy of the continuation templates,
    // selected (and bound into the chain) once per run.
    static constexpr unsigned kFeatBatched = 1u;
    static constexpr unsigned kFeatInject = 2u;
    static constexpr unsigned kFeatTrace = 4u;

    using LabelTable = std::array<const void *, kNumJitSpecs>;

    /**
     * The template bodies. Static (not a member) so the label-capture
     * call can run without an instance: when @p capture is non-null
     * the function stores every template's label address into it and
     * returns immediately — @p self and the run operands may be null.
     * kAware compiles the tx-owner/watchdog machinery; non-aware
     * chains (no transaction-boundary ops, so this frame can never
     * own a transaction) run the lean variant where the fused
     * superinstruction templates live.
     */
    template <unsigned kFeat, bool kAware>
    static Value runImpl(JitExecutor *self, JitChain *chain,
                         IrFunction *ir, BytecodeFunction *fn,
                         const Value *args, uint32_t nargs,
                         const void **capture);

    /** Memoized label table of one template variant. */
    template <unsigned kFeat, bool kAware>
    static const LabelTable &labels();

    /** Bind every record's `fn` for @p feat (and chain->aware). */
    static void bind(JitChain &chain, unsigned feat);

    ExecEnv &env;
    BytecodeExecutor &baseline;
    const EngineConfig &config;
};

} // namespace nomap

#endif // NOMAP_JIT_JIT_EXECUTOR_H
