#include "passes/analysis.h"

#include <algorithm>

#include "support/logging.h"

namespace nomap {

int32_t
defOf(const IrInstr &instr)
{
    return definesDst(instr.op) ? static_cast<int32_t>(instr.dst) : -1;
}

std::vector<uint32_t>
reversePostorder(const IrFunction &fn)
{
    std::vector<uint8_t> state(fn.blocks.size(), 0);
    std::vector<uint32_t> postorder;
    // Iterative DFS.
    std::vector<std::pair<uint32_t, size_t>> stack;
    stack.emplace_back(0, 0);
    state[0] = 1;
    while (!stack.empty()) {
        auto &[block, next] = stack.back();
        if (next < fn.blocks[block].succs.size()) {
            uint32_t succ = fn.blocks[block].succs[next++];
            if (!state[succ]) {
                state[succ] = 1;
                stack.emplace_back(succ, 0);
            }
        } else {
            postorder.push_back(block);
            stack.pop_back();
        }
    }
    std::reverse(postorder.begin(), postorder.end());
    return postorder;
}

std::vector<uint32_t>
computeIdoms(const IrFunction &fn)
{
    std::vector<uint32_t> rpo = reversePostorder(fn);
    std::vector<uint32_t> rpo_index(fn.blocks.size(), UINT32_MAX);
    for (size_t i = 0; i < rpo.size(); ++i)
        rpo_index[rpo[i]] = static_cast<uint32_t>(i);

    std::vector<uint32_t> idom(fn.blocks.size(), UINT32_MAX);
    idom[0] = 0;

    auto intersect = [&](uint32_t a, uint32_t b) {
        while (a != b) {
            while (rpo_index[a] > rpo_index[b])
                a = idom[a];
            while (rpo_index[b] > rpo_index[a])
                b = idom[b];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t block : rpo) {
            if (block == 0)
                continue;
            uint32_t new_idom = UINT32_MAX;
            for (uint32_t pred : fn.blocks[block].preds) {
                if (idom[pred] == UINT32_MAX)
                    continue; // Not yet processed / unreachable.
                new_idom = new_idom == UINT32_MAX
                               ? pred
                               : intersect(new_idom, pred);
            }
            if (new_idom != UINT32_MAX && idom[block] != new_idom) {
                idom[block] = new_idom;
                changed = true;
            }
        }
    }
    return idom;
}

bool
dominates(const std::vector<uint32_t> &idom, uint32_t a, uint32_t b)
{
    if (idom[b] == UINT32_MAX)
        return false;
    uint32_t cur = b;
    for (;;) {
        if (cur == a)
            return true;
        if (cur == 0)
            return a == 0;
        cur = idom[cur];
    }
}

std::vector<NaturalLoop>
findLoops(const IrFunction &fn, const std::vector<uint32_t> &idom)
{
    std::vector<NaturalLoop> loops;

    // Collect back edges grouped by header.
    std::vector<std::vector<uint32_t>> latches_of(fn.blocks.size());
    for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
        if (idom[b] == UINT32_MAX && b != 0)
            continue; // Unreachable.
        for (uint32_t succ : fn.blocks[b].succs) {
            if (dominates(idom, succ, b))
                latches_of[succ].push_back(b);
        }
    }

    for (uint32_t header = 0; header < fn.blocks.size(); ++header) {
        if (latches_of[header].empty())
            continue;
        NaturalLoop loop;
        loop.header = header;
        loop.latches = latches_of[header];
        loop.loopId = fn.blocks[header].loopId;

        // Standard natural-loop body discovery.
        std::vector<bool> in_loop(fn.blocks.size(), false);
        in_loop[header] = true;
        std::vector<uint32_t> work = loop.latches;
        while (!work.empty()) {
            uint32_t b = work.back();
            work.pop_back();
            if (in_loop[b])
                continue;
            in_loop[b] = true;
            for (uint32_t pred : fn.blocks[b].preds)
                if (!in_loop[pred])
                    work.push_back(pred);
        }
        for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
            if (in_loop[b])
                loop.blocks.push_back(b);
        }
        for (uint32_t b : loop.blocks) {
            bool exits = false;
            for (uint32_t succ : fn.blocks[b].succs) {
                if (!in_loop[succ]) {
                    exits = true;
                    bool seen = false;
                    for (uint32_t t : loop.exitTargets)
                        seen |= (t == succ);
                    if (!seen)
                        loop.exitTargets.push_back(succ);
                }
            }
            if (exits)
                loop.exitingBlocks.push_back(b);
        }
        loops.push_back(std::move(loop));
    }

    // Parent relations: smallest strictly-containing loop.
    for (size_t i = 0; i < loops.size(); ++i) {
        size_t best = SIZE_MAX;
        for (size_t j = 0; j < loops.size(); ++j) {
            if (i == j)
                continue;
            if (loops[j].contains(loops[i].header) &&
                loops[j].blocks.size() > loops[i].blocks.size()) {
                if (best == SIZE_MAX ||
                    loops[j].blocks.size() < loops[best].blocks.size()) {
                    best = j;
                }
            }
        }
        if (best != SIZE_MAX)
            loops[i].parentHeader =
                static_cast<int32_t>(loops[best].header);
    }

    std::sort(loops.begin(), loops.end(),
              [](const NaturalLoop &a, const NaturalLoop &b) {
                  return a.blocks.size() > b.blocks.size();
              });
    return loops;
}

uint32_t
ensurePreheader(IrFunction &fn, const NaturalLoop &loop)
{
    // Gather non-latch predecessors of the header.
    std::vector<uint32_t> outside;
    for (uint32_t pred : fn.blocks[loop.header].preds) {
        bool is_latch = false;
        for (uint32_t latch : loop.latches)
            is_latch |= (latch == pred);
        if (!is_latch)
            outside.push_back(pred);
    }
    if (outside.size() == 1) {
        uint32_t cand = outside[0];
        const IrBlock &cb = fn.blocks[cand];
        if (cb.succs.size() == 1 && cb.succs[0] == loop.header)
            return cand;
    }

    // Create a fresh preheader block jumping to the header and
    // retarget every outside edge to it.
    uint32_t ph = static_cast<uint32_t>(fn.blocks.size());
    fn.blocks.emplace_back();
    IrBlock &phb = fn.blocks.back();
    phb.firstPc = fn.blocks[loop.header].firstPc;
    IrInstr jump;
    jump.op = IrOp::Jump;
    jump.imm = loop.header;
    phb.instrs.push_back(jump);
    phb.succs.push_back(loop.header);

    auto &header_preds = fn.blocks[loop.header].preds;
    for (uint32_t pred : outside) {
        IrBlock &pb = fn.blocks[pred];
        IrInstr &term = pb.instrs.back();
        if (term.op == IrOp::Jump) {
            if (term.imm == loop.header)
                term.imm = ph;
        } else if (term.op == IrOp::Branch) {
            if (term.imm == loop.header)
                term.imm = ph;
            if (term.imm2 == loop.header)
                term.imm2 = ph;
        }
        for (uint32_t &succ : pb.succs) {
            if (succ == loop.header)
                succ = ph;
        }
        phb.preds.push_back(pred);
        header_preds.erase(std::remove(header_preds.begin(),
                                       header_preds.end(), pred),
                           header_preds.end());
    }
    header_preds.push_back(ph);
    return ph;
}

std::vector<uint32_t>
ensureDedicatedExits(IrFunction &fn, NaturalLoop &loop)
{
    std::vector<uint32_t> trampolines;
    for (uint32_t exiting : loop.exitingBlocks) {
        // Copy successors: we mutate the block while iterating.
        std::vector<uint32_t> succs = fn.blocks[exiting].succs;
        for (uint32_t target : succs) {
            if (loop.contains(target))
                continue;
            uint32_t tramp = static_cast<uint32_t>(fn.blocks.size());
            fn.blocks.emplace_back();
            IrBlock &tb = fn.blocks.back();
            tb.firstPc = fn.blocks[target].firstPc;
            IrInstr jump;
            jump.op = IrOp::Jump;
            jump.imm = target;
            tb.instrs.push_back(jump);
            tb.succs.push_back(target);
            tb.preds.push_back(exiting);

            IrBlock &eb = fn.blocks[exiting];
            IrInstr &term = eb.instrs.back();
            if (term.op == IrOp::Jump) {
                if (term.imm == target)
                    term.imm = tramp;
            } else if (term.op == IrOp::Branch) {
                if (term.imm == target)
                    term.imm = tramp;
                if (term.imm2 == target)
                    term.imm2 = tramp;
            }
            for (uint32_t &succ : eb.succs) {
                if (succ == target)
                    succ = tramp;
            }
            auto &tpreds = fn.blocks[target].preds;
            for (uint32_t &pred : tpreds) {
                if (pred == exiting)
                    pred = tramp;
            }
            trampolines.push_back(tramp);
        }
    }
    loop.exitTargets = trampolines;
    return trampolines;
}

bool
loopHasUnconvertedSmp(const IrFunction &fn, const NaturalLoop &loop)
{
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            if (instr.isCheck() && !instr.converted)
                return true;
        }
    }
    return false;
}

bool
loopHasOpaqueOps(const IrFunction &fn, const NaturalLoop &loop)
{
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            if (isOpaqueCall(instr.op))
                return true;
        }
    }
    return false;
}

std::vector<bool>
regsDefinedInLoop(const IrFunction &fn, const NaturalLoop &loop)
{
    std::vector<bool> defined(fn.numRegs, false);
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            int32_t def = defOf(instr);
            if (def >= 0)
                defined[static_cast<size_t>(def)] = true;
        }
    }
    return defined;
}

void
RegSet::setFirst(size_t count)
{
    size_t full = count / 64;
    for (size_t w = 0; w < full; ++w)
        words[w] = ~uint64_t{0};
    if (count % 64)
        words[full] |= (uint64_t{1} << (count % 64)) - 1;
}

bool
RegSet::unionWith(const RegSet &other)
{
    uint64_t added = 0;
    for (size_t w = 0; w < words.size(); ++w) {
        added |= other.words[w] & ~words[w];
        words[w] |= other.words[w];
    }
    return added != 0;
}

void
stepLiveness(const IrFunction &fn, const IrInstr &instr, RegSet &live)
{
    int32_t def = defOf(instr);
    if (def >= 0)
        live.reset(static_cast<size_t>(def));
    bool opaque_smp = instr.isCheck() && !instr.converted;
    if (!instr.isCheck() || opaque_smp)
        forEachUse(instr, [&](uint16_t reg) { live.set(reg); });
    if (opaque_smp || instr.op == IrOp::TxBegin ||
        instr.op == IrOp::TxTile) {
        live.setFirst(fn.bytecodeRegs);
    }
}

Liveness
computeLiveness(const IrFunction &fn)
{
    size_t nblocks = fn.blocks.size();
    Liveness result;
    result.liveOut.assign(nblocks, RegSet(fn.numRegs));
    result.liveIn.assign(nblocks, RegSet(fn.numRegs));
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t bi = nblocks; bi-- > 0;) {
            // Same-size assignments: the sets' storage is reused.
            RegSet &live = result.liveIn[bi];
            live = result.liveOut[bi];
            const std::vector<IrInstr> &instrs = fn.blocks[bi].instrs;
            for (size_t ii = instrs.size(); ii-- > 0;)
                stepLiveness(fn, instrs[ii], live);
            for (uint32_t pred : fn.blocks[bi].preds)
                changed |= result.liveOut[pred].unionWith(live);
        }
    }
    return result;
}

} // namespace nomap
