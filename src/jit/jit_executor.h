#ifndef NOMAP_JIT_JIT_EXECUTOR_H
#define NOMAP_JIT_JIT_EXECUTOR_H

/**
 * @file
 * Executor for DFG/FTL code.
 *
 * This stands in for the machine code LLVM would emit: it runs the
 * optimized IR while the cost model counts the x86-64-equivalent
 * dynamic instructions each IR op would have compiled to. Everything
 * observable — check executions by category, deoptimizations through
 * stack maps, transactions with true rollback and Baseline re-entry,
 * cache and HTM footprint traffic — happens for real.
 *
 * Every DFG and FTL activation runs as a JitChain (jit_chain.h): each
 * record carries the address of a build-time-compiled handler
 * template for its op spec, and each template ends by jumping
 * straight through the *next record's* bound address — so a region
 * runs as a chain of continuations with zero dispatch-table lookups
 * and zero opcode decode, its indirect branches replicated per
 * template so the host BTB learns the region's actual control flow
 * (the vmgen/gforth replication trick, applied to bound per-record
 * continuations).
 *
 * The unfused op bodies live in jit/op_bodies.inc; this loop owns the
 * dispatch (label capture and binding), the per-op preamble, and the
 * fused superinstruction templates, which are composed from the same
 * file's helpers. Whether a chain fuses is EngineConfig::jitTier;
 * tests/test_jit.cc pins that fused chains are bit-identical to
 * unfused ones in results, ExecutionStats, and trace streams, so
 * fusion is a pure host-speed choice.
 *
 * Speculative-execution rule: inside a transaction, a type-mismatched
 * fast op (possible after NoMap's speculative hoisting or check
 * combining) produces a deterministic garbage value, exactly like
 * hardware executing past a removed check; the transaction's
 * remaining/sunk checks abort before such garbage can commit. Outside
 * a transaction every fast op is fully guarded by construction and a
 * mismatch is a compiler bug (simulator panic).
 */

#include <array>

#include "engine/config.h"
#include "interp/bytecode_executor.h"
#include "jit/jit_chain.h"

namespace nomap {

/** Executes one DFG/FTL invocation (including nested tiers). */
class JitExecutor
{
  public:
    JitExecutor(ExecEnv &env, BytecodeExecutor &baseline,
                const EngineConfig &config);

    /**
     * Run @p chain (compiled from @p ir, which stays the source of
     * truth for tier/txAware/constants). @p fn is the bytecode
     * function (deopt target / profiles). Rebinds the chain's
     * template addresses if the accounting mode changed since the
     * last run. May recursively dispatch calls through
     * env.dispatcher.
     */
    Value run(JitChain &chain, IrFunction &ir, BytecodeFunction &fn,
              const Value *args, uint32_t nargs);

  private:
    /**
     * The one compile-time feature bit, selected (and bound into the
     * chain) once per run. Batched charges each charge segment's
     * static cost once on segment entry (refunding the unexecuted
     * suffix on deopt/abort/watchdog exits); clear, every op is
     * charged individually. Both produce bit-identical results,
     * ExecutionStats, and trace events but for vcycles (a batched
     * clock read includes its segment's unexecuted suffix); the
     * differential tests enforce it. Fault injection and tracing are
     * runtime tests with out-of-line slow paths.
     */
    static constexpr unsigned kFeatBatched = 1u; ///< Batched accounting.

    /** Variant index bit: the chain is tx-aware (JitChain::aware). */
    static constexpr unsigned kVariantAware = 2u;
    /** Template variants: both accounting modes, tx-aware or not. */
    static constexpr unsigned kNumVariants = 4;

    using LabelTable = std::array<const void *, kNumJitSpecs>;
    using RunFn = Value (*)(JitExecutor *self, JitChain *chain,
                            IrFunction *ir, BytecodeFunction *fn,
                            const Value *args, uint32_t nargs,
                            const void **capture);

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

    /** runImpl instantiations, indexed by variant. */
    static const RunFn kVariants[kNumVariants];

    /** Memoized label table of one template variant. */
    static const LabelTable &labels(unsigned variant);

    ExecEnv &env;
    BytecodeExecutor &baseline;
    const EngineConfig &config;
};

} // namespace nomap

#endif // NOMAP_JIT_JIT_EXECUTOR_H
