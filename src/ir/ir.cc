#include "ir/ir.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "support/logging.h"

namespace nomap {

CheckKind
checkKindOf(IrOp op)
{
    switch (op) {
      case IrOp::CheckBounds:
      case IrOp::CheckBoundsRange:
        return CheckKind::Bounds;
      case IrOp::CheckOverflow:
        return CheckKind::Overflow;
      case IrOp::CheckInt32:
      case IrOp::CheckNumber:
      case IrOp::CheckArray:
        return CheckKind::Type;
      case IrOp::CheckShape:
        return CheckKind::Property;
      case IrOp::CheckIndexInt:
      case IrOp::CheckNotHole:
        return CheckKind::Other;
      default:
        panic("checkKindOf on non-check op");
    }
}

const char *
irOpName(IrOp op)
{
    static const char *const kNames[] = {
#define NOMAP_IR_OP_NAME(name) #name,
        NOMAP_IR_OP_LIST(NOMAP_IR_OP_NAME)
#undef NOMAP_IR_OP_NAME
    };
    static_assert(sizeof(kNames) / sizeof(kNames[0]) == kNumIrOps);
    size_t i = static_cast<size_t>(op);
    return i < kNumIrOps ? kNames[i] : "?";
}

/** x86-64-equivalent instruction count for one IR op. */
uint32_t
irBaseCost(IrOp op)
{
    switch (op) {
      case IrOp::Nop: return 0;
      case IrOp::Const: return CostModel::kFtlConst;
      case IrOp::Move: return CostModel::kFtlMove;
      case IrOp::AddInt:
      case IrOp::SubInt:
      case IrOp::MulInt:
      case IrOp::NegInt:
      case IrOp::BitAndInt:
      case IrOp::BitOrInt:
      case IrOp::BitXorInt:
      case IrOp::ShlInt:
      case IrOp::ShrInt:
      case IrOp::UShrInt:
      case IrOp::BitNotInt:
        return CostModel::kFtlArith;
      case IrOp::AddDouble:
      case IrOp::SubDouble:
      case IrOp::MulDouble:
      case IrOp::DivDouble:
      case IrOp::ModDouble:
      case IrOp::NegDouble:
        return CostModel::kFtlDoubleArith;
      case IrOp::CmpInt:
      case IrOp::CmpDouble:
      case IrOp::ToDouble:
      case IrOp::ToBoolean:
      case IrOp::NotBool:
        return 1;
      case IrOp::CheckInt32:
      case IrOp::CheckNumber:
      case IrOp::CheckShape:
      case IrOp::CheckArray:
      case IrOp::CheckIndexInt:
      case IrOp::CheckBounds:
      case IrOp::CheckNotHole:
        return CostModel::kFtlCheck;
      case IrOp::CheckBoundsRange:
        return CostModel::kFtlCheck + 1;
      case IrOp::CheckOverflow:
        return CostModel::kFtlOverflowCheck;
      case IrOp::GetSlot:
      case IrOp::GetArrayLen:
      case IrOp::LoadGlobal:
        return CostModel::kFtlLoad;
      case IrOp::SetSlot:
      case IrOp::StoreGlobal:
        return CostModel::kFtlStore;
      case IrOp::GetElem:
        return CostModel::kFtlLoad + 2 * CostModel::kFtlElemAddr;
      case IrOp::SetElem:
        return CostModel::kFtlStore + 2 * CostModel::kFtlElemAddr;
      case IrOp::GenericBinary:
      case IrOp::GenericUnary:
      case IrOp::GenericGetProp:
      case IrOp::GenericSetProp:
      case IrOp::GenericGetIndex:
      case IrOp::GenericSetIndex:
      case IrOp::NewArray:
      case IrOp::NewObject:
      case IrOp::Call:
      case IrOp::CallNative:
      case IrOp::CallMethod:
        return CostModel::kFtlCallOverhead;
      case IrOp::Intrinsic:
        return 8; // sqrtsd-class inlined sequence.
      case IrOp::Jump:
      case IrOp::Return:
      case IrOp::ReturnUndef:
        return 1;
      case IrOp::Branch:
        return 2;
      case IrOp::TxBegin: return CostModel::kFtlTxBegin;
      case IrOp::TxEnd: return CostModel::kFtlTxEnd;
      case IrOp::TxTile: return 2;
    }
    return 1;
}

namespace {

/** The spec whose body executes @p op with immediate @p imm. */
OpSpec
opSpecOf(IrOp op, uint32_t imm)
{
    switch (op) {
#define NOMAP_OP_SPEC_SAME(name)                                        \
      case IrOp::name:                                                  \
        return OpSpec::name;
        NOMAP_IR_OPS_HEAD(NOMAP_OP_SPEC_SAME)
        NOMAP_IR_OPS_TAIL(NOMAP_OP_SPEC_SAME)
#undef NOMAP_OP_SPEC_SAME
      case IrOp::CmpInt:
      case IrOp::CmpDouble:
        switch (static_cast<BinaryOp>(imm)) {
          case BinaryOp::Lt: return OpSpec::CmpLt;
          case BinaryOp::Le: return OpSpec::CmpLe;
          case BinaryOp::Gt: return OpSpec::CmpGt;
          case BinaryOp::Ge: return OpSpec::CmpGe;
          case BinaryOp::Eq:
          case BinaryOp::StrictEq: return OpSpec::CmpEq;
          case BinaryOp::NotEq:
          case BinaryOp::StrictNotEq: return OpSpec::CmpNe;
          default: return OpSpec::CmpOther;
        }
    }
    panic("opSpecOf: unmapped IR op");
}

/**
 * Tier-scaled static cost of @p op: the DFG executor scales every
 * op's cost individually (lround per op, then sum), so the plan bakes
 * the scaling in per op to stay bit-identical with per-op accounting.
 * One table per tier, computed once.
 */
uint32_t
scaledCost(IrOp op, bool dfg)
{
    static const auto kTable = [] {
        std::array<std::array<uint32_t, kNumIrOps>, 2> table{};
        for (size_t i = 0; i < kNumIrOps; ++i) {
            uint32_t cost = irBaseCost(static_cast<IrOp>(i));
            table[0][i] = cost;
            table[1][i] = static_cast<uint32_t>(
                std::lround(cost * CostModel::kDfgFactor));
        }
        return table;
    }();
    return kTable[dfg][static_cast<size_t>(op)];
}

} // namespace

void
computeChargePlan(IrFunction &fn)
{
    // One-time structural validation, so the executor hot loop can
    // dispatch without per-op bounds checks: every block is non-empty
    // and ends in a terminator (control cannot walk off a block), and
    // every branch target names an existing block.
    size_t nblocks = fn.blocks.size();
    NOMAP_ASSERT(nblocks > 0);
    for (const IrBlock &block : fn.blocks) {
        NOMAP_ASSERT(!block.instrs.empty());
        IrOp last = block.instrs.back().op;
        NOMAP_ASSERT(last == IrOp::Jump || last == IrOp::Branch ||
                     last == IrOp::Return ||
                     last == IrOp::ReturnUndef);
    }

    // Flat predecode: concatenate the blocks into one contiguous
    // stream, stamp each record with its static cost, and rewrite
    // Jump/Branch targets to flat indices.
    bool dfg = fn.tier == Tier::Dfg;
    fn.flatStart.assign(nblocks, 0);
    size_t total = 0;
    for (size_t bi = 0; bi < nblocks; ++bi) {
        fn.flatStart[bi] = static_cast<uint32_t>(total);
        total += fn.blocks[bi].instrs.size();
    }
    fn.flat.clear();
    fn.flat.reserve(total);
    for (const IrBlock &block : fn.blocks) {
        for (const IrInstr &instr : block.instrs) {
            ExecInstr e;
            e.op = instr.op;
            e.converted = instr.converted;
            e.dst = instr.dst;
            e.a = instr.a;
            e.b = instr.b;
            e.c = instr.c;
            e.imm = instr.imm;
            e.imm2 = instr.imm2;
            e.smpPc = instr.smpPc;
            e.ownScaled = scaledCost(instr.op, dfg);
            e.spec = opSpecOf(instr.op, instr.imm);
            if (instr.op == IrOp::Jump) {
                NOMAP_ASSERT(instr.imm < nblocks);
                e.imm = fn.flatStart[instr.imm];
            } else if (instr.op == IrOp::Branch) {
                NOMAP_ASSERT(instr.imm < nblocks &&
                             instr.imm2 < nblocks);
                e.imm = fn.flatStart[instr.imm];
                e.imm2 = fn.flatStart[instr.imm2];
            }
            fn.flat.push_back(e);
        }
        // Charge segments, summed backward from the block's end. A
        // tx-boundary op ends its segment: whatever follows executes
        // under a different transaction state and must be charged
        // separately (the Tm/NonTm cycle split depends on
        // inTransaction at charge time).
        size_t end = fn.flat.size();
        size_t begin = end - block.instrs.size();
        for (size_t i = end; i-- > begin;) {
            ExecInstr &e = fn.flat[i];
            bool seg_end = isTxBoundaryOp(e.op) || i + 1 == end;
            e.chargeFrom =
                e.ownScaled + (seg_end ? 0 : fn.flat[i + 1].chargeFrom);
        }
    }
    fn.chargePlanReady = true;
}

std::string
IrFunction::print() const
{
    std::ostringstream out;
    out << "ir function #" << funcId << " tier=" << tierName(tier)
        << " regs=" << numRegs << " (bytecode " << bytecodeRegs << ")"
        << (txAware ? " tx-aware" : "") << "\n";
    for (size_t bi = 0; bi < blocks.size(); ++bi) {
        const IrBlock &block = blocks[bi];
        out << " block " << bi;
        if (block.loopId >= 0)
            out << " (loop " << block.loopId << ")";
        out << " -> [";
        for (size_t s = 0; s < block.succs.size(); ++s) {
            if (s)
                out << ", ";
            out << block.succs[s];
        }
        out << "]\n";
        for (const IrInstr &instr : block.instrs) {
            out << "   " << irOpName(instr.op);
            if (definesDst(instr.op))
                out << " r" << instr.dst << " <-";
            out << " a=r" << instr.a << " b=r" << instr.b << " c=r"
                << instr.c << " imm=" << instr.imm;
            if (instr.imm2)
                out << " imm2=" << instr.imm2;
            if (instr.smpPc != kNoSmp) {
                out << (instr.converted ? " abort" : " smp@")
                    << instr.smpPc;
            }
            out << "\n";
        }
    }
    return out.str();
}

void
IrFunction::verify() const
{
    NOMAP_ASSERT(!blocks.empty());
    for (size_t bi = 0; bi < blocks.size(); ++bi) {
        const IrBlock &block = blocks[bi];
        NOMAP_ASSERT(!block.instrs.empty());
        const IrInstr &last = block.instrs.back();
        switch (last.op) {
          case IrOp::Jump:
            NOMAP_ASSERT(block.succs.size() == 1);
            NOMAP_ASSERT(last.imm == block.succs[0]);
            break;
          case IrOp::Branch:
            NOMAP_ASSERT(block.succs.size() == 2);
            NOMAP_ASSERT(last.imm == block.succs[0]);
            NOMAP_ASSERT(last.imm2 == block.succs[1]);
            break;
          case IrOp::Return:
          case IrOp::ReturnUndef:
            NOMAP_ASSERT(block.succs.empty());
            break;
          default:
            panic("block %zu not terminated (%s)", bi,
                  irOpName(last.op));
        }
        for (uint32_t succ : block.succs)
            NOMAP_ASSERT(succ < blocks.size());
        for (const IrInstr &instr : block.instrs) {
            if (definesDst(instr.op))
                NOMAP_ASSERT(instr.dst < numRegs);
        }
        // Terminators only at the end.
        for (size_t i = 0; i + 1 < block.instrs.size(); ++i) {
            IrOp op = block.instrs[i].op;
            NOMAP_ASSERT(op != IrOp::Jump && op != IrOp::Branch &&
                         op != IrOp::Return && op != IrOp::ReturnUndef);
        }
    }
    // preds consistent with succs: every block has as many preds as
    // in-edges. The in-edges are counted in fixed windows of target
    // blocks, so the check needs no heap storage.
    constexpr size_t kWindow = 256;
    uint32_t in_edges[kWindow];
    for (size_t base = 0; base < blocks.size(); base += kWindow) {
        size_t end = std::min(blocks.size(), base + kWindow);
        std::fill(in_edges, in_edges + (end - base), 0u);
        for (const IrBlock &block : blocks) {
            for (uint32_t succ : block.succs) {
                if (succ >= base && succ < end)
                    ++in_edges[succ - base];
            }
        }
        for (size_t bi = base; bi < end; ++bi)
            NOMAP_ASSERT(in_edges[bi - base] == blocks[bi].preds.size());
    }
}

} // namespace nomap
