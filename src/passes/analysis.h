#ifndef NOMAP_PASSES_ANALYSIS_H
#define NOMAP_PASSES_ANALYSIS_H

/**
 * @file
 * Shared CFG analyses: register uses/defs, liveness, reverse
 * postorder, dominators, and natural-loop discovery. All passes and
 * the NoMap transaction planner are built on these.
 */

#include <cstddef>
#include <cstdint>
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
int32_t defOf(const IrInstr &instr);

/** Reverse postorder over reachable blocks from block 0. */
std::vector<uint32_t> reversePostorder(const IrFunction &fn);

/**
 * Immediate dominators (classic iterative algorithm).
 * idom[0] == 0; unreachable blocks get idom == UINT32_MAX.
 */
std::vector<uint32_t> computeIdoms(const IrFunction &fn);

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
 * Find all natural loops (one per header; back edges to the same
 * header are merged). Sorted outermost-first by block count.
 */
std::vector<NaturalLoop> findLoops(const IrFunction &fn,
                                   const std::vector<uint32_t> &idom);

/**
 * Guarantee a dedicated preheader: a block whose single successor is
 * the loop header and which is the only non-latch predecessor of the
 * header. May append a new block to the function (invalidating loop
 * analyses — callers re-run findLoops afterwards if needed).
 *
 * @return The preheader block index.
 */
uint32_t ensurePreheader(IrFunction &fn, const NaturalLoop &loop);

/**
 * Split every loop-exit edge so each exit target reached from the
 * loop is a dedicated trampoline block with only in-loop
 * predecessors (a safe place for sunk stores and combined bounds
 * checks). Returns the trampoline block for each exiting edge.
 * Invalidates dominator/loop analyses.
 */
std::vector<uint32_t> ensureDedicatedExits(IrFunction &fn,
                                           NaturalLoop &loop);

/** True if any instruction in the loop is an un-converted SMP check. */
bool loopHasUnconvertedSmp(const IrFunction &fn, const NaturalLoop &loop);

/** True if the loop contains calls or generic (opaque) operations. */
bool loopHasOpaqueOps(const IrFunction &fn, const NaturalLoop &loop);

/** Registers defined anywhere inside the loop. */
std::vector<bool> regsDefinedInLoop(const IrFunction &fn,
                                    const NaturalLoop &loop);

/**
 * A fixed-size register set stored as 64-bit words, so the liveness
 * fixpoint copies and unions 64 registers at a time.
 */
class RegSet
{
  public:
    explicit RegSet(size_t regs) : words((regs + 63) / 64, 0) {}

    bool
    test(size_t reg) const
    {
        return (words[reg / 64] >> (reg % 64)) & 1;
    }

    void set(size_t reg) { words[reg / 64] |= uint64_t{1} << (reg % 64); }

    void
    reset(size_t reg)
    {
        words[reg / 64] &= ~(uint64_t{1} << (reg % 64));
    }

    /** Add registers [0, count). */
    void setFirst(size_t count);

    /** Add every register of @p other; true if that added any. */
    bool unionWith(const RegSet &other);

  private:
    std::vector<uint64_t> words;
};

/**
 * Step @p live (the registers live after @p instr) backward to the
 * registers live before it, under the DCE liveness rules:
 * converted-check uses do not count (a check dies with the value it
 * guards), and opaque SMPs, TxBegin and TxTile keep the whole
 * baseline frame alive, since a deopt or transaction snapshot must
 * be able to rebuild it.
 */
void stepLiveness(const IrFunction &fn, const IrInstr &instr,
                  RegSet &live);

/** Per-block register liveness, indexed by block. */
struct Liveness {
    std::vector<RegSet> liveIn;
    std::vector<RegSet> liveOut;
};

/**
 * Backward liveness to fixpoint under stepLiveness's rules. The one
 * liveness analysis DCE, loop DCE and empty-loop elimination share.
 */
Liveness computeLiveness(const IrFunction &fn);

} // namespace nomap

#endif // NOMAP_PASSES_ANALYSIS_H
