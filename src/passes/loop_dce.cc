#include "passes/passes.h"

#include <unordered_map>
#include <utility>

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

/**
 * Mark-and-sweep context for one loop. Resolves each register use to
 * its reaching def: the nearest earlier def in the same block, or —
 * for cross-block flow — every in-loop def of the register. This
 * sees through the bytecode compiler's reused expression temporaries
 * (a register-level analysis would merge unrelated expressions that
 * happen to share a temp).
 */
class LoopMarker
{
  public:
    LoopMarker(const IrFunction &fn_, const NaturalLoop &loop_)
        : fn(fn_), loop(loop_)
    {
        for (uint32_t b : loop.blocks) {
            const auto &instrs = fn.blocks[b].instrs;
            for (uint32_t i = 0; i < instrs.size(); ++i) {
                int32_t def = defOf(instrs[i]);
                if (def >= 0) {
                    defsOf[static_cast<uint16_t>(def)].push_back(
                        {b, i});
                }
            }
        }
        marked.resize(loop.blocks.size());
        for (size_t li = 0; li < loop.blocks.size(); ++li) {
            blockSlot[loop.blocks[li]] = li;
            marked[li].assign(
                fn.blocks[loop.blocks[li]].instrs.size(), false);
        }
    }

    bool
    isMarked(uint32_t block, uint32_t index) const
    {
        auto it = blockSlot.find(block);
        if (it == blockSlot.end())
            return true; // Outside the loop: untouched.
        return marked[it->second][index];
    }

    void
    mark(uint32_t block, uint32_t index)
    {
        size_t slot = blockSlot.at(block);
        if (marked[slot][index])
            return;
        marked[slot][index] = true;
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
        auto it = defsOf.find(reg);
        if (it == defsOf.end())
            return; // Defined outside the loop only.
        for (const Coord &coord : it->second)
            mark(coord.block, coord.index);
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
    const NaturalLoop &loop;
    std::unordered_map<uint16_t, std::vector<Coord>> defsOf;
    std::unordered_map<uint32_t, size_t> blockSlot;
    std::vector<std::vector<bool>> marked;
    std::vector<Coord> work;
};

} // namespace

void
runLoopAccumulatorDce(IrFunction &fn, PassStats &stats)
{
    std::vector<uint32_t> idom = computeIdoms(fn);
    std::vector<NaturalLoop> loops = findLoops(fn, idom);
    if (loops.empty())
        return;
    Liveness liveness = computeLiveness(fn);

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

        LoopMarker marker(fn, loop);

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
                for (uint16_t r = 0; r < fn.numRegs; ++r) {
                    if (liveness.liveIn[succ].test(r))
                        marker.markAllDefs(r);
                }
            }
        }
        marker.propagate();

        // Sweep: unmarked pure defs die. A converted check dies when
        // a guarded operand's intra-block reaching def died.
        for (uint32_t b : loop.blocks) {
            auto &instrs = fn.blocks[b].instrs;
            std::vector<bool> remove(instrs.size(), false);
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
            std::vector<IrInstr> kept;
            kept.reserve(instrs.size());
            for (uint32_t i = 0; i < instrs.size(); ++i) {
                if (remove[i])
                    ++stats.deadOpsRemoved;
                else
                    kept.push_back(instrs[i]);
            }
            instrs = std::move(kept);
        }
    }
}

} // namespace nomap
