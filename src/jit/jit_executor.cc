#include "jit/jit_executor.h"

#include <cmath>
#include <mutex>

#include "support/logging.h"

/**
 * Template dispatch: continuation chains. The unfused op bodies are
 * not written here: this loop expands jit/op_bodies.inc and supplies
 * only the dispatch around them plus the fused superinstruction
 * templates, which are composed from that file's helpers.
 *
 * Every body ends in OP_NEXT(): advance ip, run the per-op
 * accounting/watchdog preamble, then jump straight through the next
 * record's bound label (`goto *ip->fn`). The indirect branch is
 * *replicated into every template* instead of funneling through one
 * shared dispatch site, and the target comes out of the record itself
 * — no dispatch-table load, no opcode decode.
 *
 * Records are index-aligned with the function's flat predecoded run
 * stream (ExecInstr in ir/ir.h): block order, branch targets
 * pre-resolved to flat indices, the batched charge plan folded into
 * each record. Per-op bounds checks are unnecessary —
 * computeChargePlan validates once that every block ends in a
 * terminator and every branch target is in range, so `ip` can only
 * move between valid records.
 *
 * Control-flow templates (Jump/Branch/fused compare+branch) and
 * transaction boundaries re-enter at jit_seg_entry, which opens a new
 * batched charge segment.
 */
#define OP_NEXT()                                                       \
    do {                                                                \
        ++ip;                                                           \
        JIT_PEROP();                                                    \
        goto *ip->fn;                                                   \
    } while (0)

/** The op just executed ends its charge segment (tx boundary). */
#define OP_NEXT_NEWSEG()                                                \
    do {                                                                \
        ++ip;                                                           \
        goto jit_seg_entry;                                             \
    } while (0)

#define OP_ENTER_SEG() goto jit_seg_entry

/**
 * Per-op preamble: per-op charge in the reference accounting mode,
 * and — in tx-aware chains only — the tx-owner instruction counter
 * and watchdog. A timer interrupt would abort a transaction that runs
 * unreasonably long (e.g. spinning on garbage after speculative check
 * removal); the engine.watchdog site polls too, once per
 * in-transaction instruction, so a FaultPlan can kill a transaction
 * at any point of its lifetime. The counter advances per-op in both
 * accounting modes so its firing point never moves; only its compare
 * is inline (jit_watchdog has the rest). Non-aware chains compile to
 * nothing here (this frame can never own a transaction), which is
 * what makes their continuation chain branch-free between templates.
 */
#define JIT_PEROP()                                                     \
    do {                                                                \
        if constexpr (!kBatched) {                                      \
            env.acct.chargeInstructions(ir.tier, ip->ownScaled,         \
                                        ir.txAware);                    \
        }                                                               \
        if constexpr (kAware) {                                         \
            if (tx_owner) {                                             \
                tx_instr += ip->ownScaled;                              \
                if (tx_instr >= watchdog_fast_limit) [[unlikely]]       \
                    goto jit_watchdog;                                  \
            }                                                           \
        }                                                               \
    } while (0)

/**
 * Advance into the second record of a fused superinstruction: the
 * per-op charge still happens per component (the charge-call sequence
 * — and its cancellation polls — must match an unfused chain
 * executing the two records separately). No watchdog: fused templates
 * are bound only in non-aware chains.
 */
#define JIT_FUSED_ADVANCE()                                             \
    do {                                                                \
        ++ip;                                                           \
        if constexpr (!kBatched) {                                      \
            env.acct.chargeInstructions(ir.tier, ip->ownScaled,         \
                                        ir.txAware);                    \
        }                                                               \
    } while (0)

/**
 * Fused compare+branch: the compare result still lands in
 * R[cmp.dst] (the register is part of the baseline mirror a later
 * deopt may hand over), then the Branch record executes in the same
 * template. The Branch body's toBoolean() of the freshly stored
 * boolean is the boolean itself, so the branch takes `taken`
 * directly. Garbage path (non-numeric operands inside a transaction)
 * stores false and falls through, exactly like Cmp-then-Branch.
 */
#define JIT_CMP_BRANCH(name, cmp_expr)                                  \
    lbl_CmpBranch##name : {                                             \
        OP_CMP(cmp_expr)                                                \
        JIT_FUSED_ADVANCE();                                            \
        ip = base + (taken ? ip->imm : ip->imm2);                       \
        goto jit_seg_entry;                                             \
    }

/**
 * Fused int-arith + CheckOverflow on the arith's destination. The
 * check is spelled out rather than reached by a jump into the
 * CheckOverflow body, so each fused template keeps its own
 * replicated dispatch branch.
 */
#define JIT_ARITH_CHK_OVF(arith, wide_expr)                             \
    lbl_##arith##ChkOvf : {                                             \
        OP_INT_ARITH(wide_expr)                                         \
        JIT_FUSED_ADVANCE();                                            \
        if (ftl)                                                        \
            env.acct.recordCheck(CheckKind::Overflow);                  \
        bool pass = !OVF[ip->a];                                        \
        OP_CHECK_TAIL(CheckKind::Overflow, FaultSite::CheckOverflow);   \
    }

namespace nomap {

// trace.cc renders Deopt check kinds from a mirrored name table; pin
// the numeric layout so the two cannot drift apart.
static_assert(static_cast<uint8_t>(CheckKind::Bounds) == 0 &&
              static_cast<uint8_t>(CheckKind::Overflow) == 1 &&
              static_cast<uint8_t>(CheckKind::Type) == 2 &&
              static_cast<uint8_t>(CheckKind::Property) == 3 &&
              static_cast<uint8_t>(CheckKind::Other) == 4);

namespace {

/**
 * Fault injection at a check whose real test passed: true when the
 * armed plan forces it to fail. Every armed check site counts this
 * occurrence (no short-circuiting), so occurrence numbering never
 * depends on which other actions are armed. A forced failure is only
 * honored where the recovery can run: unconverted checks need an SMP
 * to OSR through; converted checks need a live transaction to abort.
 */
[[gnu::cold, gnu::noinline]] bool
injectCheckFailure(ExecEnv &env, const JitInstr &r, FaultSite site)
{
    bool force = env.inj->fire(site);
    force |= env.inj->fire(FaultSite::CheckAny);
    if (!r.converted && r.smpPc != kNoSmp)
        force |= env.inj->fire(FaultSite::FtlOsr, r.smpPc);
    return force && (r.converted ? env.htm.inTransaction()
                                 : r.smpPc != kNoSmp);
}

/** Trace a deopt of check @p kind to the SMP at bytecode @p pc. */
[[gnu::cold, gnu::noinline]] void
traceDeopt(ExecEnv &env, CheckKind kind, uint32_t func_id, uint32_t pc)
{
    env.trace->emit({.vcycles = env.acct.virtualCycles(),
                     .type = TraceEventType::Deopt,
                     .code = static_cast<uint8_t>(kind),
                     .funcId = func_id,
                     .pc = pc});
}

} // namespace

JitExecutor::JitExecutor(ExecEnv &env_, BytecodeExecutor &baseline_,
                         const EngineConfig &config_)
    : env(env_), baseline(baseline_), config(config_)
{
}

const JitExecutor::RunFn JitExecutor::kVariants[kNumVariants] = {
    &runImpl<0, false>, &runImpl<kFeatBatched, false>,
    &runImpl<0, true>, &runImpl<kFeatBatched, true>,
};

const JitExecutor::LabelTable &
JitExecutor::labels(unsigned variant)
{
    // Label addresses are plain code addresses of this translation
    // unit, identical across executor instances, so one process-wide
    // capture per variant suffices. Capture lazily: touching a
    // variant's code pages costs resident memory, and a process
    // typically runs the two batched ones of the four.
    static std::array<LabelTable, kNumVariants> tables;
    static std::once_flag captured[kNumVariants];
    std::call_once(captured[variant], [variant] {
        kVariants[variant](nullptr, nullptr, nullptr, nullptr, nullptr,
                           0, tables[variant].data());
    });
    return tables[variant];
}

Value
JitExecutor::run(JitChain &chain, IrFunction &ir, BytecodeFunction &fn,
                 const Value *args, uint32_t nargs)
{
    // Rebind only when the accounting mode changed between runs.
    unsigned feat = env.perOpAccounting ? 0u : kFeatBatched;
    unsigned variant = (chain.aware ? kVariantAware : 0u) | feat;
    if (chain.boundFeat != feat) {
        const LabelTable &table = labels(variant);
        for (JitInstr &r : chain.records)
            r.fn = table[static_cast<size_t>(r.spec)];
        chain.boundFeat = feat;
    }
    return kVariants[variant](this, &chain, &ir, &fn, args, nargs,
                              nullptr);
}

template <unsigned kFeat, bool kAware>
Value
JitExecutor::runImpl(JitExecutor *self, JitChain *chain,
                     IrFunction *irp, BytecodeFunction *fnp,
                     const Value *args, uint32_t nargs,
                     const void **capture)
{
    constexpr bool kBatched = (kFeat & kFeatBatched) != 0;

    // Label capture: store every template's address and leave before
    // touching any run operand (they are null in this mode). GCC's
    // -Wdangling-pointer misreads &&label as a local's address; label
    // addresses are code addresses, valid for the process lifetime.
    if (capture) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdangling-pointer"
#define NOMAP_JIT_CAPTURE(name)                                         \
        capture[static_cast<size_t>(JitSpec::name)] = &&lbl_##name;
        NOMAP_OP_SPEC_LIST(NOMAP_JIT_CAPTURE)
        NOMAP_JIT_FUSED_SPEC_LIST(NOMAP_JIT_CAPTURE)
#undef NOMAP_JIT_CAPTURE
#pragma GCC diagnostic pop
        return Value::undefined();
    }

    ExecEnv &env = self->env;
    BytecodeExecutor &baseline = self->baseline;
    [[maybe_unused]] const EngineConfig &config = self->config;
    IrFunction &ir = *irp;
    BytecodeFunction &fn = *fnp;

    FrameLease frameLease(env, ir.numRegs);
    FlagLease flagLease(env, ir.numRegs);
    Value *const R = frameLease.regs().data();
    uint8_t *const OVF = flagLease.flags().data();
    for (uint32_t i = 0; i < fn.numParams && i < nargs; ++i)
        R[i] = args[i];
    const Value *const consts = ir.constants.data();

    const bool ftl = ir.tier == Tier::Ftl;
    // Frame prologue + argument marshalling.
    env.acct.chargeInstructions(ir.tier, 8, ir.txAware);

    // Transaction-owner state for this frame (in non-aware chains the
    // owner flag is provably never set and the per-op watchdog
    // compiles out).
    bool tx_owner = false;
    std::vector<Value> tx_snapshot;
    uint32_t tx_entry_pc = 0;
    [[maybe_unused]] uint64_t tx_instr = 0;
    // JIT_PEROP's compare: 0 (an armed run, or a limit of UINT64_MAX)
    // sends every in-transaction op to jit_watchdog.
    [[maybe_unused]] const uint64_t watchdog_fast_limit =
        env.inj ? 0 : config.txWatchdogInstructions + 1;
    [[maybe_unused]] uint64_t tile_count = 0;
    // Transactional context when the current segment was charged — a
    // refund must come out of the same cycle bucket even if an abort
    // has flipped the context since.
    bool seg_charged_tm = false;

    const JitInstr *const base = chain->records.data();
    const JitInstr *ip = base;

    auto sync_tx_flag = [&] {
        env.acct.setInTransaction(env.htm.inTransaction());
    };

    // Batched mode: take back the charged-but-unexecuted suffix of
    // the current segment (everything after the op at ip). Zero when
    // the op at ip ends its segment.
    [[maybe_unused]] auto refundAfterCurrent = [&] {
        uint64_t rest =
            static_cast<uint64_t>(ip->chargeFrom) - ip->ownScaled;
        if (rest) {
            env.acct.refundInstructions(ir.tier, rest, ir.txAware,
                                        seg_charged_tm);
        }
    };

    // After an abort (memory already rolled back), re-enter the
    // Baseline tier at the transaction's entry SMP (paper "Entry3").
    auto resume_baseline = [&]() -> Value {
        env.mem.discardSpeculative();
        tx_owner = false;
        sync_tx_flag();
        std::vector<Value> locals(
            tx_snapshot.begin(),
            tx_snapshot.begin() +
                std::min<size_t>(tx_snapshot.size(), ir.bytecodeRegs));
        return baseline.runFrom(fn, locals, tx_entry_pc);
    };

    try {
    jit_seg_entry:
        // Entering a new charge segment: region entry, a branch
        // target, or the record after a transaction-boundary op.
        if constexpr (kBatched) {
            seg_charged_tm = env.acct.inTransaction();
            env.acct.chargeInstructions(ir.tier, ip->chargeFrom,
                                        ir.txAware);
        }

        JIT_PEROP();
        goto *ip->fn;

    [[maybe_unused]] jit_watchdog:
        // JIT_PEROP's slow path; survivors dispatch the record at ip.
        if (tx_instr > config.txWatchdogInstructions ||
            (env.inj && env.inj->fire(FaultSite::EngineTxWatchdog))) {
            if constexpr (kBatched)
                refundAfterCurrent();
            env.acct.chargeCycles(env.htm.abort(AbortCode::Irrevocable));
            return resume_baseline();
        }
        goto *ip->fn;

#include "jit/op_bodies.inc"

        // ---- Fused superinstruction templates --------------------------
        // Bound only in non-aware chains (buildJitChain): the second
        // component's per-op charge happens inside the template, so
        // the observable accounting sequence is identical to an
        // unfused chain executing the two records back to back.
        JIT_CMP_BRANCH(Lt, x < y)
        JIT_CMP_BRANCH(Le, x <= y)
        JIT_CMP_BRANCH(Gt, x > y)
        JIT_CMP_BRANCH(Ge, x >= y)
        JIT_CMP_BRANCH(Eq, x == y)
        JIT_CMP_BRANCH(Ne, x != y)
        JIT_ARITH_CHK_OVF(AddInt,
                          static_cast<int64_t>(va.asInt32()) + vb.asInt32())
        JIT_ARITH_CHK_OVF(SubInt,
                          static_cast<int64_t>(va.asInt32()) - vb.asInt32())
        JIT_ARITH_CHK_OVF(MulInt,
                          static_cast<int64_t>(va.asInt32()) * vb.asInt32())
    } catch (TxAbortUnwind &) {
        if constexpr (kBatched) {
            // The charged segment's ops after the faulting one never
            // executed — whether the throw came from this frame's own
            // converted check / capacity overflow or surfaced out of
            // a callee. (ExecutionCancelled is deliberately NOT
            // caught: cancellation voids the stats and the engine
            // must be reset, so there is nothing to refund.)
            refundAfterCurrent();
        }
        if (!tx_owner) {
            sync_tx_flag();
            throw; // Outer frame owns the transaction.
        }
        return resume_baseline();
    }
}

} // namespace nomap
