#ifndef NOMAP_PASSES_ANALYSIS_H
#define NOMAP_PASSES_ANALYSIS_H

/**
 * @file
 * Shared CFG analyses: register uses/defs, liveness, reverse
 * postorder, dominators, and natural-loop discovery, and the
 * per-compile AnalysisContext that caches them. All passes and the
 * NoMap transaction planner are built on these.
 */

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ir/ir.h"

namespace nomap {

/**
 * Call @p f(reg) for every register @p instr reads, in operand order
 * (register windows of calls and allocations element by element).
 */
template <typename F>
void
forEachUse(const IrInstr &instr, F &&f)
{
    switch (instr.op) {
      case IrOp::Nop:
      case IrOp::Const:
      case IrOp::LoadGlobal:
      case IrOp::Jump:
      case IrOp::ReturnUndef:
      case IrOp::TxBegin:
      case IrOp::TxEnd:
      case IrOp::TxTile:
        break;
      case IrOp::Move:
      case IrOp::NegInt:
      case IrOp::NegDouble:
      case IrOp::BitNotInt:
      case IrOp::ToDouble:
      case IrOp::ToBoolean:
      case IrOp::NotBool:
      case IrOp::CheckInt32:
      case IrOp::CheckNumber:
      case IrOp::CheckShape:
      case IrOp::CheckArray:
      case IrOp::CheckIndexInt:
      case IrOp::CheckOverflow:
      case IrOp::CheckNotHole:
      case IrOp::GetSlot:
      case IrOp::GetArrayLen:
      case IrOp::StoreGlobal:
      case IrOp::GenericUnary:
      case IrOp::GenericGetProp:
      case IrOp::Branch:
      case IrOp::Return:
        f(instr.a);
        break;
      case IrOp::AddInt:
      case IrOp::SubInt:
      case IrOp::MulInt:
      case IrOp::AddDouble:
      case IrOp::SubDouble:
      case IrOp::MulDouble:
      case IrOp::DivDouble:
      case IrOp::ModDouble:
      case IrOp::BitAndInt:
      case IrOp::BitOrInt:
      case IrOp::BitXorInt:
      case IrOp::ShlInt:
      case IrOp::ShrInt:
      case IrOp::UShrInt:
      case IrOp::CmpInt:
      case IrOp::CmpDouble:
      case IrOp::CheckBounds:
      case IrOp::SetSlot:
      case IrOp::GetElem:
      case IrOp::GenericBinary:
      case IrOp::GenericSetProp:
      case IrOp::GenericGetIndex:
        f(instr.a);
        f(instr.b);
        break;
      case IrOp::CheckBoundsRange:
      case IrOp::SetElem:
      case IrOp::GenericSetIndex:
        f(instr.a);
        f(instr.b);
        f(instr.c);
        break;
      case IrOp::NewArray:
        for (uint32_t i = 0; i < instr.imm; ++i)
            f(static_cast<uint16_t>(instr.a + i));
        break;
      case IrOp::NewObject:
      case IrOp::Call:
      case IrOp::CallNative:
      case IrOp::Intrinsic:
        for (uint32_t i = 0; i < instr.b; ++i)
            f(static_cast<uint16_t>(instr.a + i));
        break;
      case IrOp::CallMethod: {
        f(instr.a);
        uint32_t nargs = instr.imm % 16;
        for (uint32_t i = 0; i < nargs; ++i)
            f(static_cast<uint16_t>(instr.b + i));
        break;
      }
    }
}

/** Register written, or -1. */
inline int32_t
defOf(const IrInstr &instr)
{
    return definesDst(instr.op) ? static_cast<int32_t>(instr.dst) : -1;
}

/** True if @p a dominates @p b under @p idom. */
bool dominates(const std::vector<uint32_t> &idom, uint32_t a, uint32_t b);

/** A natural loop. */
struct NaturalLoop {
    uint32_t header = 0;
    /** Blocks in the loop, including the header. */
    std::vector<uint32_t> blocks;
    /** Blocks inside with a successor outside (exit sources). */
    std::vector<uint32_t> exitingBlocks;
    /** Blocks outside with a predecessor inside (exit targets). */
    std::vector<uint32_t> exitTargets;
    /** In-loop predecessors of the header (latches). */
    std::vector<uint32_t> latches;
    /** Loop id from the bytecode LoopHeader, or -1. */
    int32_t loopId = -1;
    /** Header of the innermost enclosing loop, or -1. */
    int32_t parentHeader = -1;

    bool
    contains(uint32_t block) const
    {
        for (uint32_t b : blocks) {
            if (b == block)
                return true;
        }
        return false;
    }
};

/**
 * Guarantee a dedicated preheader: a block whose single successor is
 * the loop header and which is the only non-latch predecessor of the
 * header. May append a new block to the function (a CFG edit: it
 * bumps IrFunction::cfgEpoch).
 *
 * @return The preheader block index.
 */
uint32_t ensurePreheader(IrFunction &fn, const NaturalLoop &loop);

/**
 * Split every loop-exit edge so each exit target reached from the
 * loop is a dedicated trampoline block with only in-loop
 * predecessors (a safe place for sunk stores and combined bounds
 * checks). Returns the trampoline block for each exiting edge, in
 * order; @p loop's exitTargets are stale afterwards. Bumps
 * IrFunction::cfgEpoch when it splits an edge.
 */
std::vector<uint32_t> ensureDedicatedExits(IrFunction &fn,
                                           const NaturalLoop &loop);

/** True if any instruction in the loop is an un-converted SMP check. */
bool loopHasUnconvertedSmp(const IrFunction &fn, const NaturalLoop &loop);

/** True if the loop contains calls or generic (opaque) operations. */
bool loopHasOpaqueOps(const IrFunction &fn, const NaturalLoop &loop);

/**
 * Flag the registers defined anywhere inside the loop:
 * @p defined[r] becomes 1 for each, 0 for the rest of [0, numRegs).
 */
void regsDefinedInLoop(const IrFunction &fn, const NaturalLoop &loop,
                       std::vector<uint8_t> &defined);

/** 64-bit words needed for a set of @p regs registers. */
inline size_t
regSetWords(size_t regs)
{
    return (regs + 63) / 64;
}

/**
 * A register set over caller-owned 64-bit words (see regSetWords), so
 * the liveness fixpoint copies and unions 64 registers at a time and
 * its rows live in one flat, reused array.
 */
class RegSet
{
  public:
    RegSet(uint64_t *words, size_t nwords) : w(words), n(nwords) {}

    bool
    test(size_t reg) const
    {
        return (w[reg / 64] >> (reg % 64)) & 1;
    }

    void set(size_t reg) { w[reg / 64] |= uint64_t{1} << (reg % 64); }

    void
    reset(size_t reg)
    {
        w[reg / 64] &= ~(uint64_t{1} << (reg % 64));
    }

    /** Add registers [0, count). */
    void setFirst(size_t count);

    void
    clear()
    {
        for (size_t i = 0; i < n; ++i)
            w[i] = 0;
    }

    /** Become a copy of @p other (same size). */
    void
    assign(const RegSet &other)
    {
        for (size_t i = 0; i < n; ++i)
            w[i] = other.w[i];
    }

    /** Add every register of @p other; true if that added any. */
    bool unionWith(const RegSet &other);

  private:
    uint64_t *w;
    size_t n;
};

/**
 * Step @p live (the registers live after @p instr) backward to the
 * registers live before it, under the DCE liveness rules:
 * converted-check uses do not count (a check dies with the value it
 * guards), and opaque SMPs, TxBegin and TxTile keep the whole
 * baseline frame alive, since a deopt or transaction snapshot must
 * be able to rebuild it.
 */
inline void
stepLiveness(const IrFunction &fn, const IrInstr &instr, RegSet live)
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

/**
 * Per-block register liveness under stepLiveness's rules: flat arrays
 * of RegSet rows. Each block's transfer is summarized as one gen/kill
 * pair (live-in = gen | (live-out & ~kill)), so solving iterates on
 * words, not instructions. The one liveness analysis DCE, loop DCE
 * and empty-loop elimination share (through
 * AnalysisContext::liveness()).
 */
class Liveness
{
  public:
    RegSet liveIn(size_t block) { return row(in, block); }
    RegSet liveOut(size_t block) { return row(out, block); }

    /** Summarize every block and solve, reusing the rows. */
    void compute(const IrFunction &fn);

    /**
     * Rebuild block @p block's gen/kill from its instructions, by
     * stepping backward: for f(x) = (x & ~kill) | gen and a step
     * s(y) = (y & ~def) | uses, s(f(x)) = (x & ~(kill | def)) | s(gen).
     */
    void summarize(const IrFunction &fn, size_t block);

    /**
     * Solve live-in/live-out to fixpoint from the current gen/kill
     * rows (a pass that edits some blocks re-summarizes just those,
     * then calls this instead of compute()).
     */
    void solve(const IrFunction &fn);

  private:
    RegSet
    row(std::vector<uint64_t> &rows, size_t block)
    {
        return RegSet(rows.data() + block * words, words);
    }

    size_t words = 0;
    std::vector<uint64_t> in;
    std::vector<uint64_t> out;
    std::vector<uint64_t> gen;
    std::vector<uint64_t> kill;
};

/**
 * The per-compile analysis context. compileFunction creates one for
 * the function it compiles and hands it to the planner and to every
 * pass; it dies with the compile, so installed IR carries nothing of
 * it.
 *
 * It caches reverse postorder, immediate dominators and natural loops
 * keyed by IrFunction::cfgEpoch: a query recomputes an analysis only
 * when the epoch moved since it was cached. Every CFG edit must
 * therefore bump the epoch (IrFunction::appendBlock and the edge
 * editors in this file do). A returned reference stays valid and
 * unchanged until the next query of the same analysis, so a pass may
 * keep iterating a loop list while it edits the CFG, and queries
 * again when it wants the analysis of the edited CFG.
 *
 * It also owns the scratch storage the passes reuse, so that no
 * per-block or per-instruction path of a pass allocates: liveness
 * rows, and the word, index and byte buffers below, which a pass
 * sizes with assign()/resize() (reusing capacity) and which hold
 * nothing from one pass to the next.
 */
class AnalysisContext
{
  public:
    explicit AnalysisContext(const IrFunction &fn) : fn(fn) {}

    AnalysisContext(const AnalysisContext &) = delete;
    AnalysisContext &operator=(const AnalysisContext &) = delete;

    /** Reverse postorder over reachable blocks from block 0. */
    const std::vector<uint32_t> &rpo();

    /**
     * Immediate dominators (classic iterative algorithm). idom[0] == 0;
     * unreachable blocks get idom == UINT32_MAX.
     */
    const std::vector<uint32_t> &idoms();

    /**
     * All natural loops (one per header; back edges to the same
     * header are merged), sorted outermost-first by block count.
     */
    const std::vector<NaturalLoop> &loops();

    /**
     * Liveness of the function's current instructions. Always
     * recomputed (instruction edits do not bump the CFG epoch); the
     * rows are reused, and valid until the next call.
     */
    Liveness &liveness();

    /** Scratch: bitset rows and masks, hash-table slots. */
    std::vector<uint64_t> words[3];
    /** Scratch: per-instruction ids, offsets, register maps. */
    std::vector<uint32_t> indices[3];
    /** Scratch: per-register and per-block state and flags. */
    std::vector<uint8_t> bytes[3];

  private:
    static constexpr uint64_t kNone = ~uint64_t{0};

    const IrFunction &fn;
    uint64_t rpoEpoch = kNone;
    uint64_t idomEpoch = kNone;
    uint64_t loopsEpoch = kNone;
    std::vector<uint32_t> rpoCache;
    std::vector<uint32_t> idomCache;
    std::vector<NaturalLoop> loopsCache;
    Liveness live;
    // Storage the recomputations reuse.
    std::vector<std::pair<uint32_t, size_t>> dfsStack;
    std::vector<std::pair<uint32_t, uint32_t>> backEdges;
    std::vector<uint32_t> scratchIndex;
    std::vector<uint32_t> scratchWork;
    std::vector<uint8_t> scratchFlags;
};

} // namespace nomap

#endif // NOMAP_PASSES_ANALYSIS_H
