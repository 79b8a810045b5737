#include "ftl/ir_executor.h"

#include <cmath>

#include "support/logging.h"

/**
 * Dispatch: direct threading. Each record carries its op spec
 * (ExecInstr::spec, stamped by computeChargePlan), and the loop jumps
 * through a per-spec label table into the spec's body. The bodies
 * themselves live in op_bodies.inc, shared with the template tier's
 * loop (jit/jit_executor.cc); this file supplies the loop around
 * them. OP_NEXT() advances to the next record, OP_NEXT_NEWSEG() does
 * the same but re-enters segment charging (transaction-boundary ops),
 * and Jump/Branch enter vm_seg_entry after retargeting.
 *
 * The loop walks the function's flat predecoded run stream (see
 * ExecInstr in ir/ir.h): one contiguous array of 32-byte records in
 * block order, branch targets pre-resolved to flat indices, the
 * batched charge plan folded into each record. Per-op bounds checks
 * are unnecessary — computeChargePlan validates once that every block
 * ends in a terminator and every branch target is in range, so `ip`
 * can only move between valid records.
 */
#define OP_NEXT() goto vm_next
#define OP_NEXT_NEWSEG() goto vm_next_newseg
#define OP_ENTER_SEG() goto vm_seg_entry

namespace nomap {

// trace.cc renders Deopt check kinds from a mirrored name table; pin
// the numeric layout so the two cannot drift apart.
static_assert(static_cast<uint8_t>(CheckKind::Bounds) == 0 &&
              static_cast<uint8_t>(CheckKind::Overflow) == 1 &&
              static_cast<uint8_t>(CheckKind::Type) == 2 &&
              static_cast<uint8_t>(CheckKind::Property) == 3 &&
              static_cast<uint8_t>(CheckKind::Other) == 4);

IrExecutor::IrExecutor(ExecEnv &env_, BytecodeExecutor &baseline_,
                       const EngineConfig &config_)
    : env(env_), baseline(baseline_), config(config_)
{
}

Value
IrExecutor::run(IrFunction &ir, BytecodeFunction &fn, const Value *args,
                uint32_t nargs)
{
    // Hand-built IR in tests never goes through compileFunction; build
    // its charge plan (and flat run stream) on first execution.
    if (!ir.chargePlanReady)
        computeChargePlan(ir);
    // Select the specialized loop once per run. env.inj is armed (or
    // not) for a whole engine run, and TraceBuffer::enabled() is
    // fixed at construction, so neither can change under a running
    // frame.
    unsigned feat = (env.perOpAccounting ? 0u : kFeatBatched) |
                    (env.inj ? kFeatInject : 0u) |
                    (env.trace && env.trace->enabled() ? kFeatTrace
                                                       : 0u);
    switch (feat) {
      case 0:
        return runImpl<0>(ir, fn, args, nargs);
      case kFeatBatched:
        return runImpl<kFeatBatched>(ir, fn, args, nargs);
      case kFeatInject:
        return runImpl<kFeatInject>(ir, fn, args, nargs);
      case kFeatBatched | kFeatInject:
        return runImpl<kFeatBatched | kFeatInject>(ir, fn, args,
                                                   nargs);
      case kFeatTrace:
        return runImpl<kFeatTrace>(ir, fn, args, nargs);
      case kFeatBatched | kFeatTrace:
        return runImpl<kFeatBatched | kFeatTrace>(ir, fn, args, nargs);
      case kFeatInject | kFeatTrace:
        return runImpl<kFeatInject | kFeatTrace>(ir, fn, args, nargs);
      default:
        return runImpl<kFeatBatched | kFeatInject | kFeatTrace>(
            ir, fn, args, nargs);
    }
}

template <unsigned kFeat>
Value
IrExecutor::runImpl(IrFunction &ir, BytecodeFunction &fn,
                    const Value *args, uint32_t nargs)
{
    constexpr bool kBatched = (kFeat & kFeatBatched) != 0;
    constexpr bool kInject = (kFeat & kFeatInject) != 0;
    constexpr bool kTrace = (kFeat & kFeatTrace) != 0;
    // Every FTL frame may own a transaction: the tx bodies and the
    // per-op watchdog are always live here.
    constexpr bool kAware = true;

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

    // Transaction-owner state for this frame.
    bool tx_owner = false;
    std::vector<Value> tx_snapshot;
    uint32_t tx_entry_pc = 0;
    uint64_t tx_instr = 0;
    uint64_t tile_count = 0;
    // Transactional context when the current segment was charged — a
    // refund must come out of the same cycle bucket even if an abort
    // has flipped the context since.
    bool seg_charged_tm = false;

    const ExecInstr *const base = ir.flat.data();
    const ExecInstr *ip = base;

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
        static const void *const kDispatch[] = {
#define NOMAP_OP_SPEC_LABEL(name) &&lbl_##name,
            NOMAP_OP_SPEC_LIST(NOMAP_OP_SPEC_LABEL)
#undef NOMAP_OP_SPEC_LABEL
        };
        static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                      kNumOpSpecs);

    vm_seg_entry:
        // Entering a new charge segment: block entry, or the
        // instruction after a transaction-boundary op (whose
        // successors execute — and must be charged — under the new
        // transactional context).
        if constexpr (kBatched) {
            seg_charged_tm = env.acct.inTransaction();
            env.acct.chargeInstructions(ir.tier, ip->chargeFrom,
                                        ir.txAware);
        }

    vm_top:
        // Per-op mode pays each op's scaled cost here; batched mode
        // already paid it as part of the segment charge. The watchdog
        // counter advances per-op in both modes so its firing point
        // (and the engine.watchdog injection site below) never moves.
        if constexpr (!kBatched) {
            env.acct.chargeInstructions(ir.tier, ip->ownScaled,
                                        ir.txAware);
        }
        if (tx_owner) {
            tx_instr += ip->ownScaled;

            // Watchdog: a timer interrupt would abort a transaction
            // that runs unreasonably long (e.g. spinning on garbage
            // after speculative check removal). The engine.watchdog
            // site polls here too — once per in-transaction
            // instruction — so a FaultPlan can kill a transaction at
            // any point of its lifetime.
            bool kill = tx_instr > config.txWatchdogInstructions;
            if constexpr (kInject)
                kill = kill ||
                       env.inj->fire(FaultSite::EngineTxWatchdog);
            if (kill) {
                if constexpr (kBatched)
                    refundAfterCurrent();
                env.acct.chargeCycles(
                    env.htm.abort(AbortCode::Irrevocable));
                return resume_baseline();
            }
        }

        goto *kDispatch[static_cast<size_t>(ip->spec)];

#include "ftl/op_bodies.inc"

    vm_next:
        ++ip;
        goto vm_top;

    vm_next_newseg:
        // The op just executed ended a charge segment (transaction
        // boundary): its successors run under the new transactional
        // context, so batched mode opens a fresh segment for them.
        ++ip;
        goto vm_seg_entry;
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
