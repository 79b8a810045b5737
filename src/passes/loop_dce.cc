#include "passes/passes.h"

#include "passes/analysis.h"
#include "vm/builtins.h"

namespace nomap {

namespace {

/** Pure op or pure intrinsic (Math.* except random). */
bool
pureInLoop(const IrInstr &instr)
{
    if (isPureValueOp(instr.op))
        return true;
    if (instr.op == IrOp::Intrinsic) {
        return static_cast<BuiltinId>(instr.imm) !=
               BuiltinId::MathRandom;
    }
    return false;
}

/** Instruction coordinate inside the loop. */
struct Coord {
    uint32_t block;
    uint32_t index;
};

constexpr uint32_t kOutside = ~uint32_t{0};

/**
 * Mark-and-sweep context for one loop. Resolves each register use to
 * its reaching def: the nearest earlier def in the same block, or —
 * for cross-block flow — every in-loop def of the register. This
 * sees through the bytecode compiler's reused expression temporaries
 * (a register-level analysis would merge unrelated expressions that
 * happen to share a temp).
 *
 * Marks are one flat flag array over the loop's instructions, and
 * each register's in-loop defs one run of a flat array indexed by a
 * per-register offset table.
 */
class LoopMarker
{
  public:
    LoopMarker(const IrFunction &fn_, const NaturalLoop &loop,
               AnalysisContext &ctx)
        : fn(fn_), blockStart(ctx.indices[0]), defStart(ctx.indices[1]),
          marked(ctx.bytes[0])
    {
        // blockStart[b]: flat index of block b's first instruction, or
        // kOutside for blocks outside the loop.
        blockStart.assign(fn.blocks.size(), kOutside);
        uint32_t total = 0;
        defStart.assign(size_t{fn.numRegs} + 1, 0);
        for (uint32_t b : loop.blocks) {
            blockStart[b] = total;
            for (const IrInstr &instr : fn.blocks[b].instrs) {
                int32_t def = defOf(instr);
                if (def >= 0)
                    ++defStart[static_cast<size_t>(def) + 1];
            }
            total += static_cast<uint32_t>(fn.blocks[b].instrs.size());
        }
        marked.assign(total, 0);
        for (size_t r = 0; r < fn.numRegs; ++r)
            defStart[r + 1] += defStart[r];
        // Fill each register's run with its defs in loop-block order;
        // defStart[r] advances while filling and is restored by one
        // shift afterwards.
        defSites.resize(defStart[fn.numRegs]);
        for (uint32_t b : loop.blocks) {
            const auto &instrs = fn.blocks[b].instrs;
            for (uint32_t i = 0; i < instrs.size(); ++i) {
                int32_t def = defOf(instrs[i]);
                if (def >= 0)
                    defSites[defStart[static_cast<size_t>(def)]++] = {b, i};
            }
        }
        for (size_t r = fn.numRegs; r > 0; --r)
            defStart[r] = defStart[r - 1];
        defStart[0] = 0;
    }

    bool
    isMarked(uint32_t block, uint32_t index) const
    {
        if (blockStart[block] == kOutside)
            return true; // Outside the loop: untouched.
        return marked[blockStart[block] + index];
    }

    void
    mark(uint32_t block, uint32_t index)
    {
        uint8_t &flag = marked[blockStart[block] + index];
        if (flag)
            return;
        flag = 1;
        work.push_back({block, index});
    }

    /** Mark the defs reaching a use of @p reg at (block, index). */
    void
    markReachingDefs(uint32_t block, uint32_t index, uint16_t reg)
    {
        const auto &instrs = fn.blocks[block].instrs;
        for (uint32_t i = index; i-- > 0;) {
            if (defOf(instrs[i]) == static_cast<int32_t>(reg)) {
                mark(block, i);
                return;
            }
        }
        markAllDefs(reg); // Live-in to the block: any def may reach.
    }

    /** Seed a cross-block (exit-live) use of @p reg. */
    void
    markAllDefs(uint16_t reg)
    {
        for (uint32_t d = defStart[reg]; d < defStart[reg + 1]; ++d)
            mark(defSites[d].block, defSites[d].index);
    }

    void
    propagate()
    {
        while (!work.empty()) {
            Coord coord = work.back();
            work.pop_back();
            const IrInstr &instr =
                fn.blocks[coord.block].instrs[coord.index];
            forEachUse(instr, [&](uint16_t reg) {
                markReachingDefs(coord.block, coord.index, reg);
            });
        }
    }

  private:
    const IrFunction &fn;
    std::vector<uint32_t> &blockStart;
    std::vector<uint32_t> &defStart;
    std::vector<uint8_t> &marked;
    std::vector<Coord> defSites;
    std::vector<Coord> work;
};

} // namespace

void
runLoopAccumulatorDce(IrFunction &fn, AnalysisContext &ctx,
                      PassStats &stats)
{
    const std::vector<NaturalLoop> &loops = ctx.loops();
    if (loops.empty())
        return;
    Liveness &liveness = ctx.liveness();

    for (const NaturalLoop &loop : loops) {
        // Opaque SMPs or tiling snapshots need every register.
        bool blocked = false;
        for (uint32_t b : loop.blocks) {
            for (const IrInstr &instr : fn.blocks[b].instrs) {
                if ((instr.isCheck() && !instr.converted) ||
                    instr.op == IrOp::TxTile) {
                    blocked = true;
                }
            }
        }
        if (blocked)
            continue;

        LoopMarker marker(fn, loop, ctx);

        // Roots: every non-pure, non-converted-check instruction.
        for (uint32_t b : loop.blocks) {
            const auto &instrs = fn.blocks[b].instrs;
            for (uint32_t i = 0; i < instrs.size(); ++i) {
                const IrInstr &instr = instrs[i];
                if (pureInLoop(instr))
                    continue;
                if (instr.isCheck() && instr.converted)
                    continue;
                marker.mark(b, i);
            }
        }
        // Roots: registers the world after the loop still needs.
        for (uint32_t exiting : loop.exitingBlocks) {
            for (uint32_t succ : fn.blocks[exiting].succs) {
                if (loop.contains(succ))
                    continue;
                RegSet live_in = liveness.liveIn(succ);
                for (uint16_t r = 0; r < fn.numRegs; ++r) {
                    if (live_in.test(r))
                        marker.markAllDefs(r);
                }
            }
        }
        marker.propagate();

        // Sweep: unmarked pure defs die. A converted check dies when
        // a guarded operand's intra-block reaching def died. Each
        // block is decided on its original order, then compacted in
        // place.
        std::vector<uint8_t> &remove = ctx.bytes[1];
        for (uint32_t b : loop.blocks) {
            auto &instrs = fn.blocks[b].instrs;
            remove.assign(instrs.size(), 0);
            for (uint32_t i = 0; i < instrs.size(); ++i) {
                const IrInstr &instr = instrs[i];
                if (pureInLoop(instr)) {
                    remove[i] = !marker.isMarked(b, i);
                } else if (instr.isCheck() && instr.converted) {
                    forEachUse(instr, [&](uint16_t reg) {
                        for (uint32_t j = i; j-- > 0;) {
                            if (defOf(instrs[j]) ==
                                static_cast<int32_t>(reg)) {
                                remove[i] =
                                    remove[i] ||
                                    !marker.isMarked(b, j);
                                break;
                            }
                        }
                    });
                }
            }
            size_t kept = 0;
            for (uint32_t i = 0; i < instrs.size(); ++i) {
                if (remove[i])
                    ++stats.deadOpsRemoved;
                else
                    instrs[kept++] = instrs[i];
            }
            instrs.resize(kept);
        }
    }
}

} // namespace nomap
