#include "jit/jit_chain.h"

namespace nomap {

namespace {

/** Fused compare+branch template of a compare spec. */
JitSpec
cmpBranchSpecOf(OpSpec cmp)
{
    switch (cmp) {
      case OpSpec::CmpLt: return JitSpec::CmpBranchLt;
      case OpSpec::CmpLe: return JitSpec::CmpBranchLe;
      case OpSpec::CmpGt: return JitSpec::CmpBranchGt;
      case OpSpec::CmpGe: return JitSpec::CmpBranchGe;
      case OpSpec::CmpEq: return JitSpec::CmpBranchEq;
      default: return JitSpec::CmpBranchNe;
    }
}

/** Fused int-arith+overflow-check template of an int-arith spec. */
JitSpec
arithChkOvfSpecOf(OpSpec arith)
{
    switch (arith) {
      case OpSpec::AddInt: return JitSpec::AddIntChkOvf;
      case OpSpec::SubInt: return JitSpec::SubIntChkOvf;
      default: return JitSpec::MulIntChkOvf;
    }
}

} // namespace

std::unique_ptr<JitChain>
buildJitChain(IrFunction &ir, bool fuse)
{
    // Hand-built IR in tests never goes through compileFunction;
    // build its charge plan (and flat run stream) first.
    if (!ir.chargePlanReady)
        computeChargePlan(ir);

    auto chain = std::make_unique<JitChain>();
    const std::vector<ExecInstr> &flat = ir.flat;
    const size_t n = flat.size();

    for (const ExecInstr &e : flat)
        chain->aware = chain->aware || isTxBoundaryOp(e.op);

    // A record is a jump target when any Jump/Branch retargets to it;
    // fusion must not swallow such a record into its predecessor's
    // template, since control flow can enter at it directly.
    std::vector<bool> isTarget(n, false);
    for (const ExecInstr &e : flat) {
        if (e.op == IrOp::Jump) {
            isTarget[e.imm] = true;
        } else if (e.op == IrOp::Branch) {
            isTarget[e.imm] = true;
            isTarget[e.imm2] = true;
        }
    }

    chain->records.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const ExecInstr &e = flat[i];
        JitInstr &r = chain->records[i];
        r.spec = static_cast<JitSpec>(e.spec);
        r.op = e.op;
        r.converted = e.converted;
        r.dst = e.dst;
        r.a = e.a;
        r.b = e.b;
        r.c = e.c;
        r.imm = e.imm;
        r.imm2 = e.imm2;
        r.smpPc = e.smpPc;
        r.ownScaled = e.ownScaled;
        r.chargeFrom = e.chargeFrom;

        // Superinstruction fusion: pair this record with its
        // successor when the pair's combined template preserves the
        // exact per-op charge/check/injection sequence. Disabled in
        // tx-aware chains (the fused body would skip the per-op
        // tx-owner watchdog poll between the two components), and
        // when the successor is a jump target (it must stay
        // independently enterable — it keeps its standalone template
        // either way; fused fallthrough simply never reaches it).
        if (!fuse || chain->aware || i + 1 >= n || isTarget[i + 1])
            continue;
        const ExecInstr &next = flat[i + 1];
        bool cmp = e.spec >= OpSpec::CmpLt && e.spec <= OpSpec::CmpNe;
        bool arith = e.spec == OpSpec::AddInt ||
                     e.spec == OpSpec::SubInt || e.spec == OpSpec::MulInt;
        if (cmp && next.op == IrOp::Branch && next.a == e.dst) {
            r.spec = cmpBranchSpecOf(e.spec);
        } else if (arith && next.op == IrOp::CheckOverflow &&
                   next.a == e.dst) {
            r.spec = arithChkOvfSpecOf(e.spec);
        }
    }

    return chain;
}

} // namespace nomap
