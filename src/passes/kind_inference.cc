#include "passes/passes.h"

#include <algorithm>

#include "passes/analysis.h"
#include "support/logging.h"

namespace nomap {

namespace {

/** Small kind lattice for static inference. */
enum class StaticKind : uint8_t {
    Unknown,  ///< Top: anything.
    Int32,
    Number,   ///< Int32 or double.
    Boolean,
    Array,    ///< Proven array (a register fact: regs don't mutate).
    NotHole,  ///< Known not-undefined, kind otherwise unknown.
};

StaticKind
meet(StaticKind a, StaticKind b)
{
    if (a == b)
        return a;
    auto numeric = [](StaticKind k) {
        return k == StaticKind::Int32 || k == StaticKind::Number;
    };
    if (numeric(a) && numeric(b))
        return StaticKind::Number;
    if (a == StaticKind::Unknown || b == StaticKind::Unknown)
        return StaticKind::Unknown;
    // Different concrete kinds are still known-not-undefined.
    return StaticKind::NotHole;
}

bool
satisfies(StaticKind kind, IrOp check)
{
    switch (check) {
      case IrOp::CheckInt32:
      case IrOp::CheckIndexInt:
        return kind == StaticKind::Int32;
      case IrOp::CheckNumber:
        return kind == StaticKind::Int32 || kind == StaticKind::Number;
      case IrOp::CheckNotHole:
        return kind != StaticKind::Unknown;
      case IrOp::CheckArray:
        return kind == StaticKind::Array;
      default:
        return false; // Shape/bounds/overflow: not register facts.
    }
}

StaticKind
kindOfConstant(Value v)
{
    if (v.isInt32())
        return StaticKind::Int32;
    if (v.isBoxedDouble())
        return StaticKind::Number;
    if (v.isBoolean())
        return StaticKind::Boolean;
    if (v.isUndefined())
        return StaticKind::Unknown;
    return StaticKind::NotHole;
}

/** Transfer function for one instruction; refines @p state. */
void
transfer(const IrFunction &fn, const IrInstr &instr, StaticKind *state)
{
    switch (instr.op) {
      case IrOp::Const:
        state[instr.dst] = kindOfConstant(fn.constants[instr.imm]);
        break;
      case IrOp::Move:
        state[instr.dst] = state[instr.a];
        break;
      case IrOp::AddInt:
      case IrOp::SubInt:
      case IrOp::MulInt:
      case IrOp::NegInt:
        // Guarded by CheckOverflow (or by the SOF at commit): the
        // committed result is always an int32.
        state[instr.dst] = StaticKind::Int32;
        break;
      case IrOp::BitAndInt:
      case IrOp::BitOrInt:
      case IrOp::BitXorInt:
      case IrOp::ShlInt:
      case IrOp::ShrInt:
      case IrOp::BitNotInt:
        state[instr.dst] = StaticKind::Int32;
        break;
      case IrOp::UShrInt: // May exceed int32 range (>>> of negative).
      case IrOp::AddDouble:
      case IrOp::SubDouble:
      case IrOp::MulDouble:
      case IrOp::DivDouble:
      case IrOp::ModDouble:
      case IrOp::NegDouble:
      case IrOp::ToDouble:
        state[instr.dst] = StaticKind::Number;
        break;
      case IrOp::CmpInt:
      case IrOp::CmpDouble:
      case IrOp::ToBoolean:
      case IrOp::NotBool:
        state[instr.dst] = StaticKind::Boolean;
        break;
      case IrOp::GetArrayLen:
        state[instr.dst] = StaticKind::Int32;
        break;
      case IrOp::CheckInt32:
      case IrOp::CheckIndexInt:
        state[instr.a] = StaticKind::Int32;
        break;
      case IrOp::CheckNumber:
        if (state[instr.a] != StaticKind::Int32)
            state[instr.a] = StaticKind::Number;
        break;
      case IrOp::CheckNotHole:
        if (state[instr.a] == StaticKind::Unknown)
            state[instr.a] = StaticKind::NotHole;
        break;
      case IrOp::CheckArray:
        state[instr.a] = StaticKind::Array;
        break;
      case IrOp::CheckBounds:
        // A passed bounds check implies the base is an array.
        state[instr.a] = StaticKind::Array;
        break;
      default: {
        int32_t def = defOf(instr);
        if (def >= 0)
            state[static_cast<size_t>(def)] = StaticKind::Unknown;
        break;
      }
    }
}

} // namespace

void
runKindInference(IrFunction &fn, AnalysisContext &ctx, PassStats &stats)
{
    size_t nblocks = fn.blocks.size();
    size_t regs = fn.numRegs;
    // Flat nblocks x numRegs IN and OUT rows, plus one working state
    // row reused by every block visit: one allocation per run.
    std::vector<StaticKind> rows((2 * nblocks + 1) * regs,
                                 StaticKind::Unknown);
    auto row = [&](size_t i) { return rows.data() + i * regs; };
    StaticKind *state = row(2 * nblocks);
    std::vector<uint8_t> &visited = ctx.bytes[0];
    visited.assign(nblocks, 0);

    const std::vector<uint32_t> &rpo = ctx.rpo();
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : rpo) {
            // Meet over visited predecessors (entry starts Unknown —
            // params can be anything; so does a loop entry with no
            // visited predecessor yet).
            std::fill(state, state + regs, StaticKind::Unknown);
            bool first = true;
            if (b != 0) {
                for (uint32_t pred : fn.blocks[b].preds) {
                    if (!visited[pred])
                        continue;
                    const StaticKind *out = row(nblocks + pred);
                    for (size_t r = 0; r < regs; ++r)
                        state[r] = first ? out[r] : meet(state[r], out[r]);
                    first = false;
                }
            }
            // The same IN gives the same OUT: skip the transfer.
            StaticKind *in = row(b);
            if (visited[b] && std::equal(state, state + regs, in))
                continue;
            std::copy(state, state + regs, in);
            for (const IrInstr &instr : fn.blocks[b].instrs)
                transfer(fn, instr, state);
            StaticKind *out = row(nblocks + b);
            if (!visited[b] || !std::equal(state, state + regs, out)) {
                std::copy(state, state + regs, out);
                visited[b] = 1;
                changed = true;
            }
        }
    }

    // Delete checks that the inferred kinds prove, compacting each
    // block in place. Kinds matter only up to a block's last check.
    for (uint32_t b = 0; b < nblocks; ++b) {
        auto &instrs = fn.blocks[b].instrs;
        size_t end = instrs.size();
        while (end > 0 && !instrs[end - 1].isCheck())
            --end;
        if (end == 0)
            continue;
        std::copy(row(b), row(b) + regs, state);
        size_t kept = 0;
        for (size_t i = 0; i < instrs.size(); ++i) {
            const IrInstr &instr = instrs[i];
            if (i < end) {
                bool removable = instr.isCheck() &&
                                 satisfies(state[instr.a], instr.op);
                transfer(fn, instr, state);
                if (removable) {
                    ++stats.checksRemovedByKinds;
                    continue;
                }
            }
            if (kept != i)
                instrs[kept] = instr;
            ++kept;
        }
        instrs.resize(kept);
    }
}

} // namespace nomap
