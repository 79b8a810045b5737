#ifndef NOMAP_JIT_JIT_CHAIN_H
#define NOMAP_JIT_JIT_CHAIN_H

/**
 * @file
 * The compiled-region representation every DFG and FTL function runs
 * as.
 *
 * A JitChain is the "region code" the template compiler emits for one
 * DFG- or FTL-compiled function: the flat predecoded ExecInstr stream
 * (ir/ir.h) re-packed into JitInstr records, each carrying
 *
 *  - a *template binding*: the address of the build-time-compiled
 *    handler for this record's op spec (`fn`, a computed-goto label
 *    captured from the executor), so dispatch is one indirect jump
 *    through the record itself — no opcode table lookup, no
 *    operand-shape tests at run time; and
 *  - the record's *literal pool entry*: the operand registers,
 *    immediates, SMP and charge-plan fields copied verbatim from the
 *    ExecInstr, so the handler reads its operands from the record it
 *    dispatched through.
 *
 * Shape specialization is already done in the flat stream: each
 * ExecInstr carries its op spec (split per opcode, compares per
 * BinaryOp subop), and buildJitChain copies it. The chain's own
 * decision is fusion (EngineConfig::jitTier): in regions that contain
 * no transaction-boundary ops, adjacent records may be fused into
 * superinstruction templates (compare+branch, int-arith+overflow-
 * check) that execute both records in one handler with the exact same
 * observable charge/check/injection sequence as running them
 * separately. The unfused chain is the reference the fused one is
 * tested against.
 *
 * Region boundaries are inherited wholesale from the flat stream:
 * records keep their flat indices (Jump/Branch targets remain valid),
 * charge segments keep their edges, and every deopt/OSR/abort exit
 * is the shared op-body machinery. The chain is a pure host-side
 * acceleration structure — nothing guest-visible lives here.
 */

#include <memory>
#include <vector>

#include "ir/ir.h"

namespace nomap {

/**
 * X-macro list of the fused superinstruction templates, the only
 * template bodies the executor writes itself (every unfused spec's
 * body is in jit/op_bodies.inc). Bound only in
 * non-tx-aware chains; the second record of a fused pair keeps its
 * standalone binding so jump targets may still land on it.
 */
#define NOMAP_JIT_FUSED_SPEC_LIST(V)                                    \
    V(CmpBranchLt)                                                      \
    V(CmpBranchLe)                                                      \
    V(CmpBranchGt)                                                      \
    V(CmpBranchGe)                                                      \
    V(CmpBranchEq)                                                      \
    V(CmpBranchNe)                                                      \
    V(AddIntChkOvf)                                                     \
    V(SubIntChkOvf)                                                     \
    V(MulIntChkOvf)

/**
 * Handler-template ids: the unfused op specs (same values as OpSpec,
 * so a flat record's spec converts by cast) followed by the fused
 * templates.
 */
enum class JitSpec : uint8_t {
#define NOMAP_JIT_SPEC_ENUM(name) name,
    NOMAP_OP_SPEC_LIST(NOMAP_JIT_SPEC_ENUM)
    NOMAP_JIT_FUSED_SPEC_LIST(NOMAP_JIT_SPEC_ENUM)
#undef NOMAP_JIT_SPEC_ENUM
};
static_assert(static_cast<size_t>(JitSpec::TxTile) + 1 == kNumOpSpecs);

/** Number of handler templates (label-table size). */
constexpr size_t kNumJitSpecs =
    static_cast<size_t>(JitSpec::MulIntChkOvf) + 1;

/**
 * One linked region record: the bound template continuation plus this
 * record's literal-pool slice. Field meanings match ExecInstr
 * (ir/ir.h); `fn` is filled by JitExecutor when the chain is bound
 * for an accounting mode.
 */
struct JitInstr {
    /** Bound handler-template address (label of the live variant). */
    const void *fn = nullptr;
    /** Handler template: the flat record's spec, or its fused form. */
    JitSpec spec = JitSpec::Nop;
    /** Original op (kept for introspection/validation, not dispatch). */
    IrOp op = IrOp::Nop;
    /** NoMap converted this check's SMP into a transactional abort. */
    bool converted = false;
    uint16_t dst = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    uint16_t c = 0;
    /** Jump/Branch: flat index of the target record. */
    uint32_t imm = 0;
    uint32_t imm2 = 0;
    /** Bytecode pc of the SMP this check deopts to (kNoSmp if none). */
    uint32_t smpPc = kNoSmp;
    /** This op's tier-scaled static cost. */
    uint32_t ownScaled = 0;
    /** Cost of [this .. charge-segment end]. */
    uint32_t chargeFrom = 0;
};

/** Sentinel: chain not yet bound for any accounting mode. */
constexpr unsigned kJitUnbound = ~0u;

/**
 * One compiled region chain (per DFG- or FTL-compiled function).
 * Records are index-aligned with IrFunction::flat, so flat branch
 * targets carry over unchanged and the chain's entry is the flat
 * stream's first segment edge. A chain lives exactly as long as the
 * IR it was built from (CompiledIr::chain) — records alias nothing,
 * but charge-plan fields must track the live IR.
 */
struct JitChain {
    std::vector<JitInstr> records;
    /**
     * True when the region contains transaction-boundary ops: the
     * executor runs the tx-owner/watchdog-aware variant and
     * buildJitChain never fuses (a fused body would skip the per-op
     * watchdog poll between its two components).
     */
    bool aware = false;
    /** Accounting mode `fn` is bound for (kJitUnbound: none). */
    unsigned boundFeat = kJitUnbound;
};

/**
 * Compile @p ir's flat stream into a region chain: copy each record
 * (spec included) into the literal pool and, when @p fuse is set,
 * fuse superinstruction pairs where legal. Computes the charge plan
 * first if the function never went through compileFunction
 * (hand-built IR in tests). The chain holds no pointers into @p ir.
 */
std::unique_ptr<JitChain> buildJitChain(IrFunction &ir,
                                        bool fuse = true);

} // namespace nomap

#endif // NOMAP_JIT_JIT_CHAIN_H
