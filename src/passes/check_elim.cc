#include "passes/passes.h"

#include <algorithm>

#include "passes/analysis.h"

namespace nomap {

namespace {

/**
 * Canonical encoding of a check fact: two checks state the same fact
 * exactly when their keys are equal.
 */
uint64_t
factKey(const IrInstr &instr)
{
    return (static_cast<uint64_t>(instr.op) << 56) |
           (static_cast<uint64_t>(instr.a) << 40) |
           (static_cast<uint64_t>(instr.b) << 24) |
           (static_cast<uint64_t>(instr.imm) & 0xffffff);
}

/** Is this a heap-dependent fact (invalidated by opaque calls)? */
bool
heapDependent(IrOp op)
{
    return op == IrOp::CheckShape || op == IrOp::CheckBounds ||
           op == IrOp::CheckArray;
}

constexpr uint32_t kNoFact = ~uint32_t{0};

/** No fact key has a top byte of 0xff (it holds the op). */
constexpr uint64_t kEmptySlot = ~uint64_t{0};

/**
 * The check facts of one function, numbered densely, as fixed-width
 * bitsets. Fact sets are rows of `words` 64-bit words: the meet is a
 * word-wide AND, and an instruction's transfer an AND-NOT of a
 * precomputed kill mask plus one set bit.
 */
class FactSets
{
  public:
    /**
     * Number every distinct fact of @p fn's checks (one probe of an
     * open-addressing table per check), record each instruction's
     * fact id (kNoFact for non-checks) and build the kill masks.
     * Storage comes from @p ctx's scratch buffers.
     */
    FactSets(const IrFunction &fn, AnalysisContext &ctx)
        : masks(ctx.words[1]), factOf(ctx.indices[0]),
          blockStart(ctx.indices[1]), regs(fn.numRegs)
    {
        size_t nblocks = fn.blocks.size();
        blockStart.resize(nblocks + 1);
        uint32_t total = 0;
        size_t checks = 0;
        for (size_t b = 0; b < nblocks; ++b) {
            blockStart[b] = total;
            for (const IrInstr &instr : fn.blocks[b].instrs)
                checks += instr.isCheck();
            total += static_cast<uint32_t>(fn.blocks[b].instrs.size());
        }
        blockStart[nblocks] = total;
        // Rows wide enough for every check to state its own fact.
        words = regSetWords(checks);

        size_t capacity = 16;
        while (capacity < 2 * checks)
            capacity *= 2;
        std::vector<uint64_t> &slotKey = ctx.words[0];
        std::vector<uint32_t> &slotId = ctx.indices[2];
        slotKey.assign(capacity, kEmptySlot);
        slotId.resize(capacity);

        // Kill masks: row 0 holds the heap-dependent facts, row 1 + r
        // the facts that name register r as an operand.
        masks.assign((1 + regs) * words, 0);
        factOf.resize(total);
        uint32_t facts = 0;
        for (size_t b = 0; b < nblocks; ++b) {
            const std::vector<IrInstr> &instrs = fn.blocks[b].instrs;
            for (size_t i = 0; i < instrs.size(); ++i) {
                const IrInstr &instr = instrs[i];
                uint32_t &fact = factOf[blockStart[b] + i];
                fact = kNoFact;
                if (!instr.isCheck())
                    continue;
                uint64_t key = factKey(instr);
                size_t slot = (key * 0x9e3779b97f4a7c15ull >> 32) &
                              (capacity - 1);
                while (slotKey[slot] != kEmptySlot && slotKey[slot] != key)
                    slot = (slot + 1) & (capacity - 1);
                if (slotKey[slot] == key) {
                    fact = slotId[slot];
                    repeated = true;
                    continue;
                }
                slotKey[slot] = key;
                fact = slotId[slot] = facts++;
                if (heapDependent(instr.op))
                    setBit(masks.data(), fact);
                if (instr.a < regs)
                    setBit(regMask(instr.a), fact);
                if (instr.op == IrOp::CheckBounds && instr.b < regs)
                    setBit(regMask(instr.b), fact);
            }
        }
    }

    /**
     * Do two checks state the same fact? If not, no check is
     * redundant: facts start empty at the entry and only a check adds
     * its own, so a check's fact is available on every path to it only
     * if another check with the same fact precedes it on each.
     */
    bool repeats() const { return repeated; }

    size_t rowWords() const { return words; }

    /** Fact id of instruction @p index of block @p block. */
    uint32_t
    factAt(size_t block, size_t index) const
    {
        return factOf[blockStart[block] + index];
    }

    static bool
    test(const uint64_t *set, uint32_t id)
    {
        return (set[id / 64] >> (id % 64)) & 1;
    }

    /** Apply @p instr (whose fact id is @p fact) to @p set. */
    void
    transfer(const IrInstr &instr, uint32_t fact, uint64_t *set) const
    {
        // Un-converted SMPs are opaque patchpoints: all facts die.
        if (instr.isCheck() && !instr.converted) {
            std::fill(set, set + words, 0);
            setBit(set, fact);
            return;
        }
        if (instr.isCheck()) {
            setBit(set, fact);
            return;
        }
        // Calls / generic ops can reshape objects and resize arrays.
        if (isOpaqueCall(instr.op))
            andNot(set, masks.data());
        if (definesDst(instr.op) && instr.dst < regs)
            andNot(set, regMask(instr.dst));
    }

    /** Add to @p kill every fact @p instr's transfer removes. */
    void
    kills(const IrInstr &instr, uint64_t *kill) const
    {
        if (instr.isCheck()) {
            if (!instr.converted)
                std::fill(kill, kill + words, ~uint64_t{0});
            return;
        }
        if (isOpaqueCall(instr.op))
            orIn(kill, masks.data());
        if (definesDst(instr.op) && instr.dst < regs)
            orIn(kill, regMask(instr.dst));
    }

  private:
    static void
    setBit(uint64_t *set, size_t id)
    {
        set[id / 64] |= uint64_t{1} << (id % 64);
    }

    uint64_t *
    regMask(uint16_t reg) const
    {
        return masks.data() + (1 + size_t{reg}) * words;
    }

    void
    andNot(uint64_t *set, const uint64_t *mask) const
    {
        for (size_t w = 0; w < words; ++w)
            set[w] &= ~mask[w];
    }

    void
    orIn(uint64_t *set, const uint64_t *mask) const
    {
        for (size_t w = 0; w < words; ++w)
            set[w] |= mask[w];
    }

    std::vector<uint64_t> &masks;
    std::vector<uint32_t> &factOf;
    std::vector<uint32_t> &blockStart;
    size_t regs;
    bool repeated = false;
    size_t words = 0;
};

/** @p set = the meet (AND) of the OUT rows of @p b's predecessors. */
void
meetPreds(const IrFunction &fn, uint32_t b, const uint64_t *out,
          const uint8_t *visited, size_t words, uint64_t *set)
{
    std::fill(set, set + words, 0);
    if (b == 0)
        return;
    bool first = true;
    for (uint32_t pred : fn.blocks[b].preds) {
        if (visited && !visited[pred])
            continue;
        const uint64_t *row = out + size_t{pred} * words;
        for (size_t w = 0; w < words; ++w)
            set[w] = first ? row[w] : (set[w] & row[w]);
        first = false;
    }
}

} // namespace

void
runCheckElim(IrFunction &fn, AnalysisContext &ctx, PassStats &stats)
{
    size_t nblocks = fn.blocks.size();
    FactSets facts(fn, ctx);
    if (!facts.repeats())
        return;
    size_t words = facts.rowWords();
    // OUT, GEN and KILL rows of every block, then one working set.
    std::vector<uint64_t> &rows = ctx.words[2];
    rows.assign((3 * nblocks + 1) * words, 0);
    uint64_t *out = rows.data();
    uint64_t *gen = out + nblocks * words;
    uint64_t *kill = gen + nblocks * words;
    uint64_t *set = kill + nblocks * words;

    // Each block's transfer as one gen/kill pair, so the fixpoint
    // iterates on words, not instructions: a step
    // s(y) = (y & ~k) | g after f(x) = (x & ~kill) | gen gives
    // kill |= k and gen = s(gen).
    for (uint32_t b = 0; b < nblocks; ++b) {
        const std::vector<IrInstr> &instrs = fn.blocks[b].instrs;
        for (size_t i = 0; i < instrs.size(); ++i) {
            facts.transfer(instrs[i], facts.factAt(b, i),
                           gen + size_t{b} * words);
            facts.kills(instrs[i], kill + size_t{b} * words);
        }
    }

    std::vector<uint8_t> &visited = ctx.bytes[0];
    visited.assign(nblocks, 0);
    const std::vector<uint32_t> &rpo = ctx.rpo();
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : rpo) {
            meetPreds(fn, b, out, visited.data(), words, set);
            const uint64_t *g = gen + size_t{b} * words;
            const uint64_t *k = kill + size_t{b} * words;
            uint64_t *row = out + size_t{b} * words;
            bool same = visited[b];
            for (size_t w = 0; w < words; ++w) {
                uint64_t next = (set[w] & ~k[w]) | g[w];
                same &= row[w] == next;
                row[w] = next;
            }
            if (!same) {
                visited[b] = 1;
                changed = true;
            }
        }
    }

    // Rewalk with the converged IN sets and drop redundant checks,
    // compacting each block in place.
    for (uint32_t b = 0; b < nblocks; ++b) {
        meetPreds(fn, b, out, nullptr, words, set);
        std::vector<IrInstr> &instrs = fn.blocks[b].instrs;
        size_t kept = 0;
        for (size_t i = 0; i < instrs.size(); ++i) {
            const IrInstr &instr = instrs[i];
            uint32_t fact = facts.factAt(b, i);
            if (fact != kNoFact && FactSets::test(set, fact)) {
                ++stats.checksRemovedRedundant;
                continue;
            }
            facts.transfer(instr, fact, set);
            if (kept != i)
                instrs[kept] = instr;
            ++kept;
        }
        instrs.resize(kept);
    }
}

} // namespace nomap
