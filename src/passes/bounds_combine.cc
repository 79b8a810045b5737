#include "passes/passes.h"

#include "passes/analysis.h"
#include "support/logging.h"

namespace nomap {

namespace {

/** Where a register is defined inside a loop. */
struct DefSite {
    uint32_t block = 0;
    uint32_t index = 0;
    const IrInstr *instr = nullptr;
    uint32_t count = 0;
};

DefSite
findDef(const IrFunction &fn, const NaturalLoop &loop, uint16_t reg)
{
    DefSite site;
    for (uint32_t b : loop.blocks) {
        const auto &instrs = fn.blocks[b].instrs;
        for (uint32_t i = 0; i < instrs.size(); ++i) {
            if (defOf(instrs[i]) == static_cast<int32_t>(reg)) {
                site.block = b;
                site.index = i;
                site.instr = &instrs[i];
                ++site.count;
            }
        }
    }
    return site;
}

/** Follow single-def Move chains inside the loop. */
uint16_t
resolveCopy(const IrFunction &fn, const NaturalLoop &loop, uint16_t reg,
            int depth = 0)
{
    if (depth > 4)
        return reg;
    DefSite site = findDef(fn, loop, reg);
    if (site.count == 1 && site.instr->op == IrOp::Move)
        return resolveCopy(fn, loop, site.instr->a, depth + 1);
    return reg;
}

/**
 * Value-at-site copy resolution: walk backwards from (block, index)
 * through Move chains. A register with no earlier def in the block
 * resolves to itself (its value at block entry). This sees through
 * the bytecode compiler's reused expression temporaries.
 */
uint16_t
resolveCopyAt(const IrFunction &fn, uint32_t block, size_t index,
              uint16_t reg, int depth = 0)
{
    if (depth > 6)
        return reg;
    const auto &instrs = fn.blocks[block].instrs;
    for (size_t i = index; i-- > 0;) {
        if (defOf(instrs[i]) == static_cast<int32_t>(reg)) {
            if (instrs[i].op == IrOp::Move) {
                return resolveCopyAt(fn, block, i, instrs[i].a,
                                     depth + 1);
            }
            return reg;
        }
    }
    return reg;
}

/** Fetch the int32 payload of a Const-defined register, if so. */
bool
constValue(const IrFunction &fn, const NaturalLoop &loop, uint16_t reg,
           int32_t *out)
{
    DefSite site = findDef(fn, loop, reg);
    const IrInstr *def = nullptr;
    if (site.count == 1) {
        def = site.instr;
    } else if (site.count == 0) {
        // Defined outside the loop; find the last def anywhere (must
        // be a unique Const for us to trust it).
        uint32_t found = 0;
        for (const IrBlock &block : fn.blocks) {
            for (const IrInstr &instr : block.instrs) {
                if (defOf(instr) == static_cast<int32_t>(reg)) {
                    def = &instr;
                    ++found;
                }
            }
        }
        if (found != 1)
            return false;
    }
    if (!def || def->op != IrOp::Const)
        return false;
    Value v = fn.constants[def->imm];
    if (!v.isInt32())
        return false;
    *out = v.asInt32();
    return true;
}

/** Detected monotonic induction variable. */
struct Induction {
    uint16_t reg = 0;
    int32_t step = 0; ///< Signed per-iteration delta.
};

/**
 * Recognize `i = i + c` compiled as:
 *   t  <- AddInt/SubInt (copy-of i), cstReg
 *   i  <- Move t
 * with both defs unique in the loop.
 */
bool
detectInduction(const IrFunction &fn, const NaturalLoop &loop,
                uint16_t reg, Induction *out)
{
    DefSite move_site = findDef(fn, loop, reg);
    if (move_site.count != 1 || move_site.instr->op != IrOp::Move)
        return false;
    uint16_t t = move_site.instr->a;
    // The increment lives in a reused expression temporary: find the
    // def that actually reaches the Move, not a globally unique one.
    const auto &minstrs = fn.blocks[move_site.block].instrs;
    const IrInstr *arith = nullptr;
    uint32_t arith_index = 0;
    for (uint32_t j = move_site.index; j-- > 0;) {
        if (defOf(minstrs[j]) == static_cast<int32_t>(t)) {
            arith = &minstrs[j];
            arith_index = j;
            break;
        }
    }
    if (!arith)
        return false;
    if (arith->op != IrOp::AddInt && arith->op != IrOp::SubInt)
        return false;
    if (resolveCopyAt(fn, move_site.block, arith_index, arith->a) !=
        reg) {
        return false;
    }
    int32_t step = 0;
    if (!constValue(fn, loop, arith->b, &step) || step == 0)
        return false;
    if (arith->op == IrOp::SubInt)
        step = -step;
    out->reg = reg;
    out->step = step;
    return true;
}

/**
 * The loop must exit only through its header, and the header
 * condition must compare the induction variable against a
 * loop-invariant register (this guarantees the loop cannot spin on
 * values loaded through a bounds check we are about to remove).
 */
bool
headerExitOnInduction(const IrFunction &fn, const NaturalLoop &loop,
                      const std::vector<uint8_t> &defined,
                      uint16_t induction_reg)
{
    if (loop.exitingBlocks.size() != 1 ||
        loop.exitingBlocks[0] != loop.header) {
        return false;
    }
    const IrBlock &header = fn.blocks[loop.header];
    const IrInstr &term = header.instrs.back();
    if (term.op != IrOp::Branch)
        return false;
    // The compare that reaches the branch must involve the induction
    // variable and an invariant operand.
    const auto &hinstrs = header.instrs;
    for (size_t i = hinstrs.size() - 1; i-- > 0;) {
        const IrInstr &instr = hinstrs[i];
        if (defOf(instr) != static_cast<int32_t>(term.a))
            continue;
        if (instr.op != IrOp::CmpInt && instr.op != IrOp::CmpDouble)
            return false;
        uint16_t x = resolveCopyAt(fn, loop.header, i, instr.a);
        uint16_t y = resolveCopyAt(fn, loop.header, i, instr.b);
        bool x_ind = (x == induction_reg);
        bool y_ind = (y == induction_reg);
        if (!x_ind && !y_ind)
            return false;
        uint16_t other = x_ind ? y : x;
        return other == induction_reg || !defined[other];
    }
    // Condition computed outside the header (e.g. while(flag)):
    // cannot prove termination independence; bail.
    return false;
}

void
combineLoop(IrFunction &fn, AnalysisContext &ctx, const NaturalLoop &loop,
            PassStats &stats)
{
    // Collect converted CheckBounds on invariant arrays indexed by a
    // monotonic induction variable.
    // A tiled loop commits before the sunk range check would run;
    // removing its per-iteration checks could commit out-of-bounds
    // garbage, so tiled loops keep their checks.
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            if (instr.op == IrOp::TxTile)
                return;
        }
    }

    std::vector<uint8_t> &defined = ctx.bytes[0];
    regsDefinedInLoop(fn, loop, defined);
    struct Target {
        uint16_t arrReg;
        Induction ind;
    };
    std::vector<Target> targets;
    bool any_candidate = false;

    for (uint32_t b : loop.blocks) {
        const auto &binstrs = fn.blocks[b].instrs;
        for (size_t i = 0; i < binstrs.size(); ++i) {
            const IrInstr &instr = binstrs[i];
            if (instr.op != IrOp::CheckBounds || !instr.converted)
                continue;
            any_candidate = true;
            uint16_t arr = resolveCopyAt(fn, b, i, instr.a);
            if (defined[arr])
                continue; // Array register varies.
            uint16_t idx = resolveCopyAt(fn, b, i, instr.b);
            Induction ind;
            if (!detectInduction(fn, loop, idx, &ind))
                continue;
            if (!headerExitOnInduction(fn, loop, defined, ind.reg))
                continue;
            bool seen = false;
            for (const Target &t : targets) {
                seen |= (t.arrReg == arr && t.ind.reg == ind.reg);
            }
            if (!seen)
                targets.push_back({arr, ind});
        }
    }
    if (!any_candidate || targets.empty())
        return;

    // Snapshot the induction start value in the preheader.
    uint32_t preheader = ensurePreheader(fn, loop);
    std::vector<uint32_t> exits = ensureDedicatedExits(fn, loop);

    for (const Target &target : targets) {
        uint16_t start_copy = fn.allocTemp();
        {
            IrInstr snap;
            snap.op = IrOp::Move;
            snap.dst = start_copy;
            snap.a = target.ind.reg;
            IrBlock &ph = fn.blocks[preheader];
            ph.instrs.insert(ph.instrs.end() - 1, snap);
        }

        // Remove the per-iteration checks for this (array, index),
        // compacting in place. A removed check defines no register, so
        // resolving copies at the compacted position `kept` sees the
        // same defs as at the original position i would.
        uint32_t removed = 0;
        uint32_t smp_pc = kNoSmp;
        for (uint32_t b : loop.blocks) {
            auto &instrs = fn.blocks[b].instrs;
            size_t kept = 0;
            for (size_t i = 0; i < instrs.size(); ++i) {
                const IrInstr &instr = instrs[i];
                if (instr.op == IrOp::CheckBounds && instr.converted &&
                    resolveCopyAt(fn, b, kept, instr.a) ==
                        target.arrReg &&
                    resolveCopyAt(fn, b, kept, instr.b) ==
                        target.ind.reg) {
                    ++removed;
                    smp_pc = instr.smpPc;
                    continue;
                }
                instrs[kept++] = instr;
            }
            instrs.resize(kept);
        }
        if (removed == 0)
            continue;
        stats.boundsChecksCombined += removed;

        // Emit the combined range check at every loop exit:
        //   last = i -/+ step; lo/hi per direction;
        //   CheckBoundsRange(arr, lo, hi)  [passes when hi < lo].
        int32_t step_abs =
            target.ind.step > 0 ? target.ind.step : -target.ind.step;
        uint32_t step_const = fn.addConstant(Value::int32(step_abs));
        for (uint32_t exit : exits) {
            IrBlock &xb = fn.blocks[exit];
            uint16_t step_reg = fn.allocTemp();
            uint16_t last_reg = fn.allocTemp();
            IrInstr cst;
            cst.op = IrOp::Const;
            cst.dst = step_reg;
            cst.imm = step_const;
            IrInstr adj;
            adj.op = target.ind.step > 0 ? IrOp::SubInt : IrOp::AddInt;
            adj.dst = last_reg;
            adj.a = target.ind.reg;
            adj.b = step_reg;
            IrInstr check;
            check.op = IrOp::CheckBoundsRange;
            check.a = target.arrReg;
            check.b = target.ind.step > 0 ? start_copy : last_reg;
            check.c = target.ind.step > 0 ? last_reg : start_copy;
            check.smpPc = smp_pc;
            check.converted = true;
            // Insert at the top of the trampoline, before its Jump.
            xb.instrs.insert(xb.instrs.begin(), check);
            xb.instrs.insert(xb.instrs.begin(), adj);
            xb.instrs.insert(xb.instrs.begin(), cst);
        }
    }
    ++stats.boundsLoopsCombined;
}

} // namespace

void
runBoundsCombine(IrFunction &fn, AnalysisContext &ctx, PassStats &stats)
{
    if (fn.txRegions.empty())
        return;
    // Innermost first, each loop as the analysis of the CFG its
    // predecessors' edits left (combining splits exits).
    std::vector<uint32_t> &headers = ctx.indices[0];
    headers.clear();
    for (const NaturalLoop &loop : ctx.loops())
        headers.push_back(loop.header);
    for (size_t h = headers.size(); h-- > 0;) {
        for (const NaturalLoop &cand : ctx.loops()) {
            if (cand.header == headers[h]) {
                combineLoop(fn, ctx, cand, stats);
                break;
            }
        }
    }
    fn.verify();
}

} // namespace nomap
