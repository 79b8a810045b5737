#ifndef NOMAP_IR_IR_H
#define NOMAP_IR_IR_H

/**
 * @file
 * The typed intermediate representation shared by the DFG and FTL
 * tiers.
 *
 * The IR is a CFG of basic blocks over *virtual registers*. Registers
 * [0, bytecodeRegs) mirror the Baseline frame one-to-one — that
 * identity mapping IS the OSR stack map: a deoptimizing check simply
 * hands registers [0, bytecodeRegs) plus its bytecode pc to the
 * Baseline executor. Registers >= bytecodeRegs are compiler
 * temporaries created by optimization passes (e.g. promoted
 * accumulators) and never appear in stack maps.
 *
 * Checks are first-class instructions. Each check carries:
 *  - its paper Figure-3 category (Bounds/Overflow/Type/Property/Other),
 *  - `smpPc`, the bytecode pc its Stack Map Point transfers to, and
 *  - `converted`, set by NoMap when the SMP has been replaced by a
 *    transactional abort.
 *
 * In Base/DFG compilation, an un-converted check behaves like LLVM's
 * patchpoint/stackmap intrinsics behave in real FTL: an opaque call
 * that (a) keeps every baseline register alive and (b) clobbers
 * memory-availability facts. Both properties are what cripples
 * optimization around SMPs — and both vanish when NoMap converts the
 * SMP to an abort. The passes in src/passes query these properties
 * through the helpers at the bottom of this header.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "engine/cost_model.h"
#include "engine/stats.h"
#include "js/ast.h"
#include "vm/value.h"

namespace nomap {

/**
 * X-macro list of IR operations, in opcode-value order. The enum, the
 * name table, the static cost table, and the executor spec list below
 * are generated from this one list so they can never fall out of
 * sync. It is spelled in three parts so the spec list can replace the
 * two compares with their per-subop bodies.
 */
#define NOMAP_IR_OP_LIST(V)                                             \
    NOMAP_IR_OPS_HEAD(V)                                                \
    V(CmpInt)          /* dst <- ra (BinaryOp)imm rb, int ops */        \
    V(CmpDouble)       /* dst <- ra (BinaryOp)imm rb, numeric */        \
    NOMAP_IR_OPS_TAIL(V)

#define NOMAP_IR_OPS_HEAD(V)                                            \
    V(Nop)                                                              \
    /* ---- Pure value ops -------------------------------------- */    \
    V(Const)           /* dst <- constants[imm] */                      \
    V(Move)            /* dst <- ra */                                  \
    V(AddInt)          /* dst <- ra + rb (sets overflow flag) */        \
    V(SubInt)          /* dst <- ra - rb (overflow flag) */             \
    V(MulInt)          /* dst <- ra * rb (overflow flag) */             \
    V(NegInt)          /* dst <- -ra (ovf on 0 and INT32_MIN) */        \
    V(AddDouble)                                                        \
    V(SubDouble)                                                        \
    V(MulDouble)                                                        \
    V(DivDouble)                                                        \
    V(ModDouble)                                                        \
    V(NegDouble)                                                        \
    V(BitAndInt)                                                        \
    V(BitOrInt)                                                         \
    V(BitXorInt)                                                        \
    V(ShlInt)                                                           \
    V(ShrInt)                                                           \
    V(UShrInt)                                                          \
    V(BitNotInt)

#define NOMAP_IR_OPS_TAIL(V)                                            \
    V(ToDouble)        /* dst <- (double)ra */                          \
    V(ToBoolean)       /* dst <- truthiness(ra) */                      \
    V(NotBool)         /* dst <- !ra (ra is boolean) */                 \
    /* ---- Checks (SMP-guarded speculation guards) ------------- */    \
    V(CheckInt32)      /* ra is an int32            [Type] */           \
    V(CheckNumber)     /* ra is a number            [Type] */           \
    V(CheckShape)      /* ra is object w/ shape imm [Property] */       \
    V(CheckArray)      /* ra is an array            [Type] */           \
    V(CheckIndexInt)   /* ra is an int32 index      [Other] */          \
    V(CheckBounds)     /* rb in [0, len(ra))        [Bounds] */         \
    V(CheckBoundsRange) /* rb..rc in [0, len(ra))   [Bounds] */         \
    V(CheckOverflow)   /* ovf flag of reg ra clear  [Overflow] */       \
    V(CheckNotHole)    /* ra is not undefined       [Other] */          \
    /* ---- Memory ---------------------------------------------- */    \
    V(GetSlot)         /* dst <- object(ra).slots[imm] */               \
    V(SetSlot)         /* object(ra).slots[imm] <- rb */                \
    V(GetArrayLen)     /* dst <- array(ra).length */                    \
    V(GetElem)         /* dst <- array(ra)[rb] */                       \
    V(SetElem)         /* array(ra)[rb] <- rc */                        \
    V(LoadGlobal)      /* dst <- globals[imm] */                        \
    V(StoreGlobal)     /* globals[imm] <- ra */                         \
    /* ---- Generic runtime fallbacks --------------------------- */    \
    V(GenericBinary)   /* dst <- runtime binop (imm=BinaryOp) */        \
    V(GenericUnary)    /* dst <- runtime unop (imm=UnaryOp) */          \
    V(GenericGetProp)  /* dst <- ra.prop[imm] */                        \
    V(GenericSetProp)  /* ra.prop[imm] <- rb */                         \
    V(GenericGetIndex) /* dst <- ra[rb] */                              \
    V(GenericSetIndex) /* ra[rb] <- rc */                               \
    V(NewArray)        /* dst <- [regs ra .. ra+imm-1] */               \
    V(NewObject)       /* dst <- {desc imm, values ra..ra+rb-1} */      \
    /* ---- Calls ----------------------------------------------- */    \
    V(Call)            /* dst <- functions[imm](ra .. ra+rb-1) */       \
    V(CallNative)      /* dst <- builtin[imm](...) (runtime) */         \
    V(Intrinsic)       /* dst <- builtin[imm](...) (inlined) */         \
    V(CallMethod)      /* dst <- ra.m[imm>>4](rb..rb+(imm&15)-1) */     \
    /* ---- Control flow ---------------------------------------- */    \
    V(Jump)            /* goto block imm */                             \
    V(Branch)          /* if truthy(ra) goto imm else imm2 */           \
    V(Return)          /* return ra */                                  \
    V(ReturnUndef)                                                      \
    /* ---- Transactions (NoMap) -------------------------------- */    \
    V(TxBegin)         /* Open tx; smpPc = Baseline re-entry pc */      \
    V(TxEnd)           /* Commit (checks SOF under full NoMap) */       \
    V(TxTile)          /* Commit + reopen every imm iterations */

/** IR operations (see NOMAP_IR_OP_LIST for semantics). */
enum class IrOp : uint8_t {
#define NOMAP_IR_OP_ENUM(name) name,
    NOMAP_IR_OP_LIST(NOMAP_IR_OP_ENUM)
#undef NOMAP_IR_OP_ENUM
};

/** Number of IR operations (name-table size). */
constexpr size_t kNumIrOps = static_cast<size_t>(IrOp::TxTile) + 1;

/**
 * X-macro list of executor op specs: the IR ops with each compare
 * split per BinaryOp subop, so no op body tests its subop at run
 * time. Each spec has exactly one body, in jit/op_bodies.inc;
 * computeChargePlan stamps every ExecInstr with its spec, and
 * buildJitChain binds each record to that spec's body. CmpOther
 * keeps the "bad compare subop" panic for out-of-range immediates.
 */
#define NOMAP_OP_SPEC_LIST(V)                                           \
    NOMAP_IR_OPS_HEAD(V)                                                \
    V(CmpLt)                                                            \
    V(CmpLe)                                                            \
    V(CmpGt)                                                            \
    V(CmpGe)                                                            \
    V(CmpEq)                                                            \
    V(CmpNe)                                                            \
    V(CmpOther)                                                         \
    NOMAP_IR_OPS_TAIL(V)

/** Executor op specs (see NOMAP_OP_SPEC_LIST). */
enum class OpSpec : uint8_t {
#define NOMAP_OP_SPEC_ENUM(name) name,
    NOMAP_OP_SPEC_LIST(NOMAP_OP_SPEC_ENUM)
#undef NOMAP_OP_SPEC_ENUM
};

/** Number of op specs (dispatch-table size). */
constexpr size_t kNumOpSpecs = static_cast<size_t>(OpSpec::TxTile) + 1;

/** Sentinel for "no SMP attached". */
constexpr uint32_t kNoSmp = 0xffffffffu;

/** One IR instruction. */
struct IrInstr {
    IrOp op = IrOp::Nop;
    uint16_t dst = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    uint16_t c = 0;
    uint32_t imm = 0;
    uint32_t imm2 = 0;
    /** Bytecode pc of the SMP this check deopts to (kNoSmp if none). */
    uint32_t smpPc = kNoSmp;
    /** NoMap converted this check's SMP into a transactional abort. */
    bool converted = false;

    bool isCheck() const;
};

/** A basic block. */
struct IrBlock {
    std::vector<IrInstr> instrs;
    std::vector<uint32_t> succs;
    std::vector<uint32_t> preds;
    /** Loop id when this block is a bytecode LoopHeader (-1 if not). */
    int32_t loopId = -1;
    /** First bytecode pc this block was built from. */
    uint32_t firstPc = 0;

    /**
     * Static charge plan for batched accounting, one entry per
     * instruction (empty until computeChargePlan runs): ownScaled[i]
     * is instruction i's tier-scaled static cost; chargeFrom[i] is the
     * summed cost of [i .. end of i's charge segment], where segments
     * end at transaction-boundary ops (whose successor cost must be
     * charged under the new transaction state) and at block ends.
     */
    std::vector<uint32_t> ownScaled;
    std::vector<uint32_t> chargeFrom;
};

/**
 * One predecoded instruction of the flat run format (see
 * IrFunction::flat), which buildJitChain copies record for record
 * into the chain the executor runs. A copy of the IrInstr fields plus
 * the instruction's charge-plan entries, packed into one 32-byte
 * record per op with no per-block indirection. Jump/Branch targets
 * are rewritten from block ids to flat indices at predecode time,
 * and `spec` fills the padding after the operands.
 */
struct ExecInstr {
    IrOp op = IrOp::Nop;
    /** NoMap converted this check's SMP into a transactional abort. */
    bool converted = false;
    uint16_t dst = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    uint16_t c = 0;
    /** The body this record dispatches to: op, or a compare's subop. */
    OpSpec spec = OpSpec::Nop;
    /** Jump/Branch: flat index of the target block's first entry. */
    uint32_t imm = 0;
    uint32_t imm2 = 0;
    /** Bytecode pc of the SMP this check deopts to (kNoSmp if none). */
    uint32_t smpPc = kNoSmp;
    /** This op's tier-scaled static cost (IrBlock::ownScaled). */
    uint32_t ownScaled = 0;
    /** Cost of [this .. charge-segment end] (IrBlock::chargeFrom). */
    uint32_t chargeFrom = 0;
};
static_assert(sizeof(ExecInstr) == 32, "one 32-byte record per op");

/**
 * One transaction region created by the NoMap planner: TxBegin sits
 * at the end of @p beginBlock (the loop preheader), TxEnd at the top
 * of each block in @p endBlocks (dedicated loop-exit blocks).
 */
struct TxRegion {
    uint32_t loopHeader = 0;
    uint32_t beginBlock = 0;
    std::vector<uint32_t> blocks;    ///< Loop blocks inside the region.
    std::vector<uint32_t> endBlocks; ///< Blocks holding the TxEnd.
};

/** A compiled IR function. */
struct IrFunction {
    uint32_t funcId = 0;
    Tier tier = Tier::Ftl;
    /** Registers mirroring the bytecode frame (the stack-map prefix). */
    uint16_t bytecodeRegs = 0;
    /** Total virtual registers including pass-created temporaries. */
    uint16_t numRegs = 0;
    /** True when NoMap instrumented this function with transactions. */
    bool txAware = false;
    /** Set once computeChargePlan has filled every block's plan. */
    bool chargePlanReady = false;

    std::vector<IrBlock> blocks;
    std::vector<Value> constants;
    /** Transaction regions (filled by the NoMap planner). */
    std::vector<TxRegion> txRegions;

    /**
     * Flat run format: every block's instructions predecoded into one
     * contiguous array in block order, with branch targets rewritten
     * to flat indices and the charge plan folded into each record.
     * Built by computeChargePlan alongside the per-block plan;
     * buildJitChain (src/jit/jit_chain.h) lowers it into the bound
     * continuation-template chain the executor runs instead of the
     * block structure. The chain relies on the plan's structural
     * invariant that every Jump/Branch target begins a charge segment
     * (audited by AccountingChargePlan.FlatJumpTargetsBeginSegments).
     */
    std::vector<ExecInstr> flat;
    /** flatStart[b] = flat index of block b's first instruction. */
    std::vector<uint32_t> flatStart;

    /** Allocate a fresh pass temporary register. */
    uint16_t
    allocTemp()
    {
        return numRegs++;
    }

    uint32_t
    addConstant(Value v)
    {
        for (size_t i = 0; i < constants.size(); ++i) {
            if (constants[i] == v)
                return static_cast<uint32_t>(i);
        }
        constants.push_back(v);
        return static_cast<uint32_t>(constants.size() - 1);
    }

    /** Human-readable dump (tests, debugging). */
    std::string print() const;

    /** Structural sanity checks; panics on corruption. */
    void verify() const;
};

// ---- Classification helpers used by passes and executors ---------------

/** True for the Check* family. */
inline bool
isCheckOp(IrOp op)
{
    switch (op) {
      case IrOp::CheckInt32:
      case IrOp::CheckNumber:
      case IrOp::CheckShape:
      case IrOp::CheckArray:
      case IrOp::CheckIndexInt:
      case IrOp::CheckBounds:
      case IrOp::CheckBoundsRange:
      case IrOp::CheckOverflow:
      case IrOp::CheckNotHole:
        return true;
      default:
        return false;
    }
}

/** Figure-3 category of a check op (asserts on non-check ops). */
CheckKind checkKindOf(IrOp op);

/** True if the op reads heap/global memory. */
bool readsMemory(IrOp op);

/** True if the op writes heap/global memory. */
bool writesMemory(IrOp op);

/** True for calls and generic ops that may touch arbitrary state. */
bool isOpaqueCall(IrOp op);

/** True for pure, speculation-free value computations. */
bool isPureValueOp(IrOp op);

/** True if the instruction defines `dst`. */
bool definesDst(IrOp op);

/** Printable op name. */
const char *irOpName(IrOp op);

/** True for transaction-boundary ops (TxBegin/TxEnd/TxTile). */
inline bool
isTxBoundaryOp(IrOp op)
{
    return op == IrOp::TxBegin || op == IrOp::TxEnd ||
           op == IrOp::TxTile;
}

/** Static per-op instruction cost before tier scaling. */
uint32_t irBaseCost(IrOp op);

/**
 * (Re)compute every block's ownScaled/chargeFrom from the instruction
 * stream and the function's tier (DFG scales each op's cost by
 * kDfgFactor before summing, exactly as the executor's per-op mode
 * does), then build the flat predecoded run stream from it. Also
 * performs the one-time structural validation (non-empty terminated
 * blocks, in-range branch targets) that lets the executor hot loop
 * dispatch without per-op bounds checks. The compiler calls this
 * after the pass pipeline; buildJitChain calls it lazily for
 * hand-built functions in tests.
 */
void computeChargePlan(IrFunction &fn);

inline bool
IrInstr::isCheck() const
{
    return isCheckOp(op);
}

} // namespace nomap

#endif // NOMAP_IR_IR_H
