#include "passes/passes.h"

#include <algorithm>

#include "passes/analysis.h"
#include "support/logging.h"

namespace nomap {

namespace {

/** A promotable memory location. */
struct Location {
    bool isGlobal = false;
    uint16_t objReg = 0; ///< Invariant object register (slots only).
    uint32_t index = 0;  ///< Slot index or global index.

    /** Packed so that key order is (isGlobal, objReg, index) order. */
    uint64_t
    key() const
    {
        return (uint64_t{isGlobal} << 48) | (uint64_t{objReg} << 32) |
               index;
    }

    bool
    operator==(const Location &other) const
    {
        return key() == other.key();
    }
};

bool
matchLoad(const IrInstr &instr, Location *loc)
{
    if (instr.op == IrOp::GetSlot) {
        loc->isGlobal = false;
        loc->objReg = instr.a;
        loc->index = instr.imm;
        return true;
    }
    if (instr.op == IrOp::LoadGlobal) {
        loc->isGlobal = true;
        loc->objReg = 0;
        loc->index = instr.imm;
        return true;
    }
    return false;
}

bool
matchStore(const IrInstr &instr, Location *loc, uint16_t *src)
{
    if (instr.op == IrOp::SetSlot) {
        loc->isGlobal = false;
        loc->objReg = instr.a;
        loc->index = instr.imm;
        *src = instr.b;
        return true;
    }
    if (instr.op == IrOp::StoreGlobal) {
        loc->isGlobal = true;
        loc->objReg = 0;
        loc->index = instr.imm;
        *src = instr.a;
        return true;
    }
    return false;
}

/** Is this loop fully contained in one of the function's tx regions? */
const TxRegion *
enclosingRegion(const IrFunction &fn, const NaturalLoop &loop)
{
    for (const TxRegion &region : fn.txRegions) {
        bool all = true;
        for (uint32_t b : loop.blocks) {
            bool found = false;
            for (uint32_t rb : region.blocks)
                found |= (rb == b);
            if (!found) {
                all = false;
                break;
            }
        }
        if (all)
            return &region;
    }
    return nullptr;
}

void
promoteLoop(IrFunction &fn, AnalysisContext &ctx, const NaturalLoop &loop,
            const TxRegion &region, PassStats &stats)
{
    if (loopHasUnconvertedSmp(fn, loop) || loopHasOpaqueOps(fn, loop))
        return;

    std::vector<uint8_t> &defined = ctx.bytes[0];
    regsDefinedInLoop(fn, loop, defined);

    // Gather candidate locations: stored at least once, object
    // register invariant, and no ambiguous aliasing (a second access
    // to the same slot index through a *different* object register,
    // or any SetElem that could be... SetElem writes array storage,
    // which never aliases object slots or globals in this VM).
    struct Candidate {
        Location loc;
        uint32_t stores = 0;
        bool invalid = false;
    };
    // A loop touches few locations: a flat list, searched linearly
    // and sorted by location once gathered.
    std::vector<Candidate> candidates;
    auto candidate_at = [&](const Location &loc) -> Candidate & {
        for (Candidate &cand : candidates) {
            if (cand.loc == loc)
                return cand;
        }
        candidates.push_back({loc});
        return candidates.back();
    };
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            Location loc;
            uint16_t src;
            bool store = false;
            if (!matchLoad(instr, &loc)) {
                if (!matchStore(instr, &loc, &src))
                    continue;
                store = true;
            }
            Candidate &cand = candidate_at(loc);
            cand.stores += store;
            if (!loc.isGlobal && defined[loc.objReg])
                cand.invalid = true;
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &x, const Candidate &y) {
                  return x.loc.key() < y.loc.key();
              });
    // Reject same-slot accesses through different registers (the two
    // registers might hold the same object).
    for (Candidate &entry : candidates) {
        if (entry.loc.isGlobal)
            continue;
        for (Candidate &other : candidates) {
            if (other.loc.isGlobal)
                continue;
            if (entry.loc.index == other.loc.index &&
                entry.loc.objReg != other.loc.objReg) {
                entry.invalid = true;
                other.invalid = true;
            }
        }
    }

    // Decide where the final stores go: this loop's own exit blocks
    // if it is the region loop (before TxEnd), otherwise dedicated
    // exit trampolines inside the enclosing transaction.
    std::vector<uint32_t> sink_blocks;
    if (loop.header == region.loopHeader) {
        sink_blocks = region.endBlocks;
    } else {
        sink_blocks = ensureDedicatedExits(fn, loop);
    }

    for (const Candidate &cand : candidates) {
        const Location &loc = cand.loc;
        if (cand.invalid || cand.stores == 0)
            continue;

        uint16_t temp = fn.allocTemp();

        // Preheader (= region begin block for the region loop, or
        // the loop's own preheader): load the initial value. Using
        // the region's begin block is always safe; for inner loops
        // the location is loop-invariant across the outer iterations
        // only if... it is not, so use the loop's own preheader.
        uint32_t ph_block = ensurePreheader(fn, loop);
        IrBlock &ph = fn.blocks[ph_block];
        IrInstr load;
        load.op = loc.isGlobal ? IrOp::LoadGlobal : IrOp::GetSlot;
        load.dst = temp;
        load.a = loc.objReg;
        load.imm = loc.index;
        ph.instrs.insert(ph.instrs.end() - 1, load);

        // Rewrite in-loop accesses.
        for (uint32_t b : loop.blocks) {
            for (IrInstr &instr : fn.blocks[b].instrs) {
                Location l2;
                uint16_t src;
                if (matchLoad(instr, &l2) && l2 == loc) {
                    uint16_t dst = instr.dst;
                    instr = IrInstr();
                    instr.op = IrOp::Move;
                    instr.dst = dst;
                    instr.a = temp;
                    ++stats.loadsPromoted;
                } else if (matchStore(instr, &l2, &src) && l2 == loc) {
                    instr = IrInstr();
                    instr.op = IrOp::Move;
                    instr.dst = temp;
                    instr.a = src;
                    ++stats.storesSunk;
                }
            }
        }

        // A tiled loop commits mid-flight: flush the promoted value
        // to memory right before every TxTile so the committed state
        // (and any abort re-entry) sees it.
        for (uint32_t b : loop.blocks) {
            auto &instrs = fn.blocks[b].instrs;
            for (size_t i = 0; i < instrs.size(); ++i) {
                if (instrs[i].op != IrOp::TxTile)
                    continue;
                IrInstr flush;
                if (loc.isGlobal) {
                    flush.op = IrOp::StoreGlobal;
                    flush.a = temp;
                    flush.imm = loc.index;
                } else {
                    flush.op = IrOp::SetSlot;
                    flush.a = loc.objReg;
                    flush.b = temp;
                    flush.imm = loc.index;
                }
                instrs.insert(instrs.begin() + i, flush);
                ++i; // Skip past the TxTile we just shifted.
            }
        }

        // Materialize the final store at every sink block.
        for (uint32_t sb : sink_blocks) {
            IrBlock &block = fn.blocks[sb];
            IrInstr store;
            if (loc.isGlobal) {
                store.op = IrOp::StoreGlobal;
                store.a = temp;
                store.imm = loc.index;
            } else {
                store.op = IrOp::SetSlot;
                store.a = loc.objReg;
                store.b = temp;
                store.imm = loc.index;
            }
            // Before the terminator and before any TxEnd already
            // placed at the top of the block.
            size_t pos = 0;
            block.instrs.insert(block.instrs.begin() + pos, store);
        }
    }
}

} // namespace

void
runStoreSink(IrFunction &fn, AnalysisContext &ctx, PassStats &stats)
{
    if (fn.txRegions.empty())
        return;
    // Innermost first, each loop as the analysis of the CFG its
    // predecessors' edits left (promotion splits exits and adds
    // preheaders).
    std::vector<uint32_t> &headers = ctx.indices[0];
    headers.clear();
    for (const NaturalLoop &loop : ctx.loops())
        headers.push_back(loop.header);
    for (size_t h = headers.size(); h-- > 0;) {
        for (const NaturalLoop &loop : ctx.loops()) {
            if (loop.header != headers[h])
                continue;
            const TxRegion *region = enclosingRegion(fn, loop);
            if (region)
                promoteLoop(fn, ctx, loop, *region, stats);
            break;
        }
    }
    fn.verify();
}

} // namespace nomap
