#include "passes/analysis.h"

#include <algorithm>

#include "support/logging.h"

namespace nomap {

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

namespace {

/** Reverse postorder into @p out; @p state and @p stack are scratch. */
void
reversePostorder(const IrFunction &fn, std::vector<uint32_t> &out,
                 std::vector<uint8_t> &state,
                 std::vector<std::pair<uint32_t, size_t>> &stack)
{
    state.assign(fn.blocks.size(), 0);
    out.clear();
    // Iterative DFS.
    stack.clear();
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
            out.push_back(block);
            stack.pop_back();
        }
    }
    std::reverse(out.begin(), out.end());
}

/** Immediate dominators into @p idom; @p rpo_index is scratch. */
void
computeIdoms(const IrFunction &fn, const std::vector<uint32_t> &rpo,
             std::vector<uint32_t> &idom, std::vector<uint32_t> &rpo_index)
{
    rpo_index.assign(fn.blocks.size(), UINT32_MAX);
    for (size_t i = 0; i < rpo.size(); ++i)
        rpo_index[rpo[i]] = static_cast<uint32_t>(i);

    idom.assign(fn.blocks.size(), UINT32_MAX);
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
}


/**
 * Natural loops into @p loops, reusing its elements' storage; the
 * remaining vectors are scratch.
 */
void
findLoops(const IrFunction &fn, const std::vector<uint32_t> &idom,
          std::vector<NaturalLoop> &loops,
          std::vector<std::pair<uint32_t, uint32_t>> &back_edges,
          std::vector<uint32_t> &headers, std::vector<uint32_t> &work,
          std::vector<uint8_t> &in_loop)
{
    // Collect back edges (header, latch), latches ascending.
    back_edges.clear();
    headers.clear();
    for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
        if (idom[b] == UINT32_MAX && b != 0)
            continue; // Unreachable.
        for (uint32_t succ : fn.blocks[b].succs) {
            if (dominates(idom, succ, b)) {
                back_edges.emplace_back(succ, b);
                if (std::find(headers.begin(), headers.end(), succ) ==
                    headers.end()) {
                    headers.push_back(succ);
                }
            }
        }
    }
    std::sort(headers.begin(), headers.end());

    // One loop per header, in header order.
    loops.resize(headers.size());
    for (size_t li = 0; li < headers.size(); ++li) {
        uint32_t header = headers[li];
        NaturalLoop &loop = loops[li];
        loop.header = header;
        loop.latches.clear();
        for (const auto &[h, latch] : back_edges) {
            if (h == header)
                loop.latches.push_back(latch);
        }
        loop.loopId = fn.blocks[header].loopId;
        loop.parentHeader = -1;
        loop.blocks.clear();
        loop.exitingBlocks.clear();
        loop.exitTargets.clear();

        // Standard natural-loop body discovery.
        in_loop.assign(fn.blocks.size(), 0);
        in_loop[header] = 1;
        work = loop.latches;
        while (!work.empty()) {
            uint32_t b = work.back();
            work.pop_back();
            if (in_loop[b])
                continue;
            in_loop[b] = 1;
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
}

} // namespace

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
    IrBlock &phb = fn.appendBlock();
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
ensureDedicatedExits(IrFunction &fn, const NaturalLoop &loop)
{
    std::vector<uint32_t> trampolines;
    for (uint32_t exiting : loop.exitingBlocks) {
        // Copy successors: we mutate the block while iterating.
        std::vector<uint32_t> succs = fn.blocks[exiting].succs;
        for (uint32_t target : succs) {
            if (loop.contains(target))
                continue;
            uint32_t tramp = static_cast<uint32_t>(fn.blocks.size());
            IrBlock &tb = fn.appendBlock();
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

void
regsDefinedInLoop(const IrFunction &fn, const NaturalLoop &loop,
                  std::vector<uint8_t> &defined)
{
    defined.assign(fn.numRegs, 0);
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            int32_t def = defOf(instr);
            if (def >= 0)
                defined[static_cast<size_t>(def)] = 1;
        }
    }
}

void
RegSet::setFirst(size_t count)
{
    size_t full = count / 64;
    for (size_t i = 0; i < full; ++i)
        w[i] = ~uint64_t{0};
    if (count % 64)
        w[full] |= (uint64_t{1} << (count % 64)) - 1;
}

bool
RegSet::unionWith(const RegSet &other)
{
    uint64_t added = 0;
    for (size_t i = 0; i < n; ++i) {
        added |= other.w[i] & ~w[i];
        w[i] |= other.w[i];
    }
    return added != 0;
}

void
Liveness::compute(const IrFunction &fn)
{
    size_t nblocks = fn.blocks.size();
    words = regSetWords(fn.numRegs);
    gen.resize(nblocks * words);
    kill.resize(nblocks * words);
    for (size_t bi = 0; bi < nblocks; ++bi)
        summarize(fn, bi);
    solve(fn);
}

void
Liveness::summarize(const IrFunction &fn, size_t block)
{
    RegSet g = row(gen, block);
    RegSet k = row(kill, block);
    g.clear();
    k.clear();
    const std::vector<IrInstr> &instrs = fn.blocks[block].instrs;
    for (size_t ii = instrs.size(); ii-- > 0;) {
        stepLiveness(fn, instrs[ii], g);
        int32_t def = defOf(instrs[ii]);
        if (def >= 0)
            k.set(static_cast<size_t>(def));
    }
}

void
Liveness::solve(const IrFunction &fn)
{
    size_t nblocks = fn.blocks.size();
    in.assign(nblocks * words, 0);
    out.assign(nblocks * words, 0);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t bi = nblocks; bi-- > 0;) {
            const uint64_t *g = gen.data() + bi * words;
            const uint64_t *k = kill.data() + bi * words;
            const uint64_t *o = out.data() + bi * words;
            uint64_t *i = in.data() + bi * words;
            for (size_t w = 0; w < words; ++w)
                i[w] = g[w] | (o[w] & ~k[w]);
            RegSet live = liveIn(bi);
            for (uint32_t pred : fn.blocks[bi].preds)
                changed |= liveOut(pred).unionWith(live);
        }
    }
}

const std::vector<uint32_t> &
AnalysisContext::rpo()
{
    if (rpoEpoch != fn.cfgEpoch) {
        reversePostorder(fn, rpoCache, scratchFlags, dfsStack);
        rpoEpoch = fn.cfgEpoch;
    }
    return rpoCache;
}

const std::vector<uint32_t> &
AnalysisContext::idoms()
{
    if (idomEpoch != fn.cfgEpoch) {
        computeIdoms(fn, rpo(), idomCache, scratchIndex);
        idomEpoch = fn.cfgEpoch;
    }
    return idomCache;
}

const std::vector<NaturalLoop> &
AnalysisContext::loops()
{
    if (loopsEpoch != fn.cfgEpoch) {
        findLoops(fn, idoms(), loopsCache, backEdges, scratchIndex,
                  scratchWork, scratchFlags);
        loopsEpoch = fn.cfgEpoch;
    }
    return loopsCache;
}

Liveness &
AnalysisContext::liveness()
{
    live.compute(fn);
    return live;
}

} // namespace nomap
