#include "interp/bytecode_executor.h"

#include "support/logging.h"

/**
 * Dispatch strategy. Each op body ends in an indirect jump through a
 * per-opcode label table (GNU labels-as-values, which the build
 * requires) — the classic direct-threaded interpreter, which gives
 * the branch predictor one indirect-branch site per opcode instead of
 * a single shared one. VM_CASE opens an op body, `goto vm_next`
 * advances to the next pc, and jump ops go straight to vm_top after
 * retargeting pc (vm_next also clears the back-edge flag, so jumps
 * must bypass it — exactly the seed loop's continue).
 *
 * Quickening. Warm code is rewritten in place (op field only; pc,
 * operands, and code length never change) to pre-resolved forms:
 *
 *   Binary Add/Sub  -> QAddII/QSubII     after an int32 fast-path hit
 *   GetProp         -> QGetPropMono      after a Baseline IC hit
 *   cmp ; JumpIf    -> QCmpBranch ; JumpIf          (static, 1st run)
 *   LoadConst ; cmp ; JumpIf
 *                   -> QConstCmpBranch ; QCmpBranch ; JumpIf
 *
 * The superinstruction sits at the pc of the first fused op and
 * executes the whole sequence in one dispatch; the tail ops remain in
 * place, so a jump into the middle of a fused sequence lands on plain
 * executable code and every pc-indexed side table stays valid. Each
 * fused body advances `pc` (and clears the back-edge flag) between
 * phases and replays the generic charge-call sequence exactly — the
 * number and order of Accounting calls is observable through the
 * cancellation-poll counter and fault injection, so it must match the
 * unfused execution call for call. The quickened bodies are compiled
 * into every variant (they are semantically complete, including slow
 * fallbacks to the generic bodies); only the *rewriting* is gated on
 * kFeatQuicken, so a non-quickening engine simply never encounters
 * them.
 */
#define VM_CASE(name) lbl_##name:

namespace nomap {

namespace {

/** A Binary op whose result both branches on and compares int32s. */
bool
isCompareBinary(const BytecodeInstr &instr)
{
    if (instr.op != Opcode::Binary)
        return false;
    switch (static_cast<BinaryOp>(instr.imm)) {
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge:
      case BinaryOp::Eq:
      case BinaryOp::NotEq:
      case BinaryOp::StrictEq:
      case BinaryOp::StrictNotEq:
        return true;
      default:
        return false;
    }
}

bool
isJumpIf(const BytecodeInstr &instr)
{
    return instr.op == Opcode::JumpIfTrue ||
           instr.op == Opcode::JumpIfFalse;
}

/**
 * Inline evaluation of a compare on two int32s. Exact: every generic
 * compare reduces to a numeric comparison when both operands are
 * int32 (Lt..Ge via toNumber, Eq/StrictEq via asNumber), and int32 ->
 * double conversion is lossless.
 */
bool
evalIntCompare(BinaryOp op, int32_t a, int32_t b)
{
    switch (op) {
      case BinaryOp::Lt: return a < b;
      case BinaryOp::Le: return a <= b;
      case BinaryOp::Gt: return a > b;
      case BinaryOp::Ge: return a >= b;
      case BinaryOp::Eq:
      case BinaryOp::StrictEq: return a == b;
      case BinaryOp::NotEq:
      case BinaryOp::StrictNotEq: return a != b;
      default:
        panic("evalIntCompare: not a compare op");
    }
}

} // namespace

BytecodeExecutor::BytecodeExecutor(ExecEnv &env_, Tier tier_)
    : env(env_), tier(tier_)
{
    NOMAP_ASSERT(tier == Tier::Interpreter || tier == Tier::Baseline);
}

Value
BytecodeExecutor::run(BytecodeFunction &fn, const Value *args,
                      uint32_t nargs)
{
    FrameLease frame(env, fn.numRegs);
    std::vector<Value> &regs = frame.regs();
    for (uint32_t i = 0; i < fn.numParams; ++i)
        regs[i] = i < nargs ? args[i] : Value::undefined();
    return execute(fn, regs, 0);
}

Value
BytecodeExecutor::runFrom(BytecodeFunction &fn,
                          const std::vector<Value> &locals, uint32_t pc)
{
    FrameLease frame(env, fn.numRegs);
    std::vector<Value> &regs = frame.regs();
    for (size_t i = 0; i < locals.size() && i < regs.size(); ++i)
        regs[i] = locals[i];
    return execute(fn, regs, pc);
}

void
BytecodeExecutor::profileBinary(ArithProfile &prof, Value lhs, Value rhs,
                                Value result)
{
    prof.lhsMask |= valueKindMask(lhs.kind());
    prof.rhsMask |= valueKindMask(rhs.kind());
    prof.resultMask |= valueKindMask(result.kind());
    // Int operands producing a non-int number indicate overflow or a
    // fractional result; the IR builder uses this to decide between
    // int32 speculation (with overflow check) and double math.
    if (lhs.isInt32() && rhs.isInt32() && result.isBoxedDouble())
        prof.sawIntOverflow = true;
}

void
BytecodeExecutor::quickenStatic(BytecodeFunction &fn)
{
    fn.quickened = true;
    size_t n = fn.code.size();
    for (size_t pc = 0; pc + 1 < n; ++pc) {
        BytecodeInstr &i0 = fn.code[pc];
        const BytecodeInstr &i1 = fn.code[pc + 1];
        if (isCompareBinary(i0) && isJumpIf(i1) && i1.b == i0.a) {
            i0.op = Opcode::QCmpBranch;
            continue;
        }
        // The triple head is only installed when the pair behind it
        // fuses too (the next loop iteration rewrites it), so the
        // QConstCmpBranch body can unconditionally chain into the
        // QCmpBranch body.
        if (i0.op == Opcode::LoadConst && pc + 2 < n &&
            isCompareBinary(i1) && (i1.b == i0.a || i1.c == i0.a) &&
            isJumpIf(fn.code[pc + 2]) && fn.code[pc + 2].b == i1.a) {
            i0.op = Opcode::QConstCmpBranch;
        }
    }
}

Value
BytecodeExecutor::execute(BytecodeFunction &fn, std::vector<Value> &regs,
                          uint32_t pc)
{
    // Hand-built functions in tests never go through the compiler;
    // build their charge plan on first execution.
    if (fn.runLen.size() != fn.code.size())
        fn.computeChargePlan();
    // Select the loop variant once per call; inside the loop every
    // feature decision is a compile-time constant.
    if (env.quickening) {
        if (!fn.quickened)
            quickenStatic(fn);
        return env.perOpAccounting
                   ? executeImpl<kFeatQuicken>(fn, regs, pc)
                   : executeImpl<kFeatQuicken | kFeatBatched>(fn, regs,
                                                              pc);
    }
    return env.perOpAccounting
               ? executeImpl<0>(fn, regs, pc)
               : executeImpl<kFeatBatched>(fn, regs, pc);
}

template <unsigned kFeat>
Value
BytecodeExecutor::executeImpl(BytecodeFunction &fn,
                              std::vector<Value> &regs, uint32_t pc)
{
    constexpr bool kBatched = (kFeat & kFeatBatched) != 0;
    constexpr bool kQuicken = (kFeat & kFeatQuicken) != 0;

    const bool interp = tier == Tier::Interpreter;
    const uint32_t base = interp ? CostModel::kInterpDispatch
                                 : CostModel::kBaselineOp;
    FunctionProfile &prof = fn.profile;
    // Hot pointers hoisted out of the loop. The code array never
    // resizes during execution (quickening rewrites the op field in
    // place), and frames never resize, so these stay valid across
    // calls dispatched from op bodies.
    BytecodeInstr *const code = fn.code.data();
    const Value *const constants = fn.constants.data();
    Value *const R = regs.data();
    bool came_from_back_edge = false;
    // Transactional context when the current run was charged — a
    // refund must come out of the same cycle bucket even if an abort
    // has flipped the context since.
    bool run_charged_tm = false;

    auto charge = [&](uint32_t amount) {
        env.acct.chargeInstructions(tier, amount);
    };
    // Batched mode: one charge covers the whole straight-line run
    // starting at `at` (base cost per op plus the static conditional
    // -branch extras; see BytecodeFunction::computeChargePlan).
    auto chargeRunFrom = [&](uint32_t at) {
        NOMAP_ASSERT(at < fn.runLen.size());
        run_charged_tm = env.acct.inTransaction();
        env.acct.chargeInstructions(
            tier, static_cast<uint64_t>(base) * fn.runLen[at] +
                      fn.runExtra[at]);
    };

    const BytecodeInstr *instr = nullptr;

    try {
        if constexpr (kBatched)
            chargeRunFrom(pc);

        static const void *const kDispatch[] = {
#define NOMAP_BYTECODE_OP_LABEL(name) &&lbl_##name,
            NOMAP_BYTECODE_OP_LIST(NOMAP_BYTECODE_OP_LABEL)
#undef NOMAP_BYTECODE_OP_LABEL
        };
        static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                      kNumOpcodes);

    vm_top:
        // No bounds check here: computeChargePlan validated once that
        // every jump target is in range and the function cannot fall
        // off the end of its code.
        instr = &code[pc];
        // Per-op mode pays the tier base cost here, every op; batched
        // mode already paid it as part of the run charge.
        if constexpr (!kBatched)
            charge(base);

        goto *kDispatch[static_cast<size_t>(instr->op)];
        {
          VM_CASE(LoadConst)
            R[instr->a] = constants[instr->imm];
            goto vm_next;

          VM_CASE(Move)
            R[instr->a] = R[instr->b];
            goto vm_next;

          VM_CASE(LoadGlobal)
            R[instr->a] = env.heap.getGlobal(instr->imm);
            env.memAccess(env.heap.globalAddr(instr->imm), false);
            goto vm_next;

          VM_CASE(StoreGlobal)
            env.heap.setGlobal(instr->imm, R[instr->b]);
            env.memAccess(env.heap.globalAddr(instr->imm), true);
            goto vm_next;

          VM_CASE(Binary)
          binary_generic: {
            Value lhs = R[instr->b];
            Value rhs = R[instr->c];
            auto op = static_cast<BinaryOp>(instr->imm);
            Value result;
            if (!interp && lhs.isInt32() && rhs.isInt32() &&
                (op == BinaryOp::Add || op == BinaryOp::Sub)) {
                // Baseline fast path: inline int32 add/sub with an
                // overflow bail to the generic helper.
                int64_t wide = op == BinaryOp::Add
                                   ? static_cast<int64_t>(lhs.asInt32()) +
                                         rhs.asInt32()
                                   : static_cast<int64_t>(lhs.asInt32()) -
                                         rhs.asInt32();
                if (wide >= INT32_MIN && wide <= INT32_MAX) {
                    result = Value::int32(static_cast<int32_t>(wide));
                    charge(2);
                    if constexpr (kQuicken) {
                        code[pc].op = op == BinaryOp::Add
                                          ? Opcode::QAddII
                                          : Opcode::QSubII;
                    }
                } else {
                    result = env.runtime.applyBinary(op, lhs, rhs);
                    env.acct.chargeRuntime(CostModel::kRuntimeGenericOp);
                }
            } else {
                result = env.runtime.applyBinary(op, lhs, rhs);
                env.acct.chargeRuntime(interp
                                           ? CostModel::kRuntimeGenericOp
                                           : CostModel::kBaselineArith);
            }
            profileBinary(prof.arith[pc], lhs, rhs, result);
            R[instr->a] = result;
            goto vm_next;
          }

          VM_CASE(QAddII) {
            // Binary Add that has gone int32 at least once: decode
            // straight to the int32 path, fall back to the full
            // generic body (with identical charging) on a miss.
            Value lhs = R[instr->b];
            Value rhs = R[instr->c];
            if (!interp && lhs.isInt32() && rhs.isInt32()) {
                int64_t wide =
                    static_cast<int64_t>(lhs.asInt32()) + rhs.asInt32();
                if (wide >= INT32_MIN && wide <= INT32_MAX) {
                    Value result =
                        Value::int32(static_cast<int32_t>(wide));
                    charge(2);
                    profileBinary(prof.arith[pc], lhs, rhs, result);
                    R[instr->a] = result;
                    goto vm_next;
                }
            }
            goto binary_generic;
          }

          VM_CASE(QSubII) {
            Value lhs = R[instr->b];
            Value rhs = R[instr->c];
            if (!interp && lhs.isInt32() && rhs.isInt32()) {
                int64_t wide =
                    static_cast<int64_t>(lhs.asInt32()) - rhs.asInt32();
                if (wide >= INT32_MIN && wide <= INT32_MAX) {
                    Value result =
                        Value::int32(static_cast<int32_t>(wide));
                    charge(2);
                    profileBinary(prof.arith[pc], lhs, rhs, result);
                    R[instr->a] = result;
                    goto vm_next;
                }
            }
            goto binary_generic;
          }

          VM_CASE(QConstCmpBranch)
            // LoadConst phase of the fused const+cmp+branch triple,
            // then chain into the pair superinstruction that the
            // static pass installed at pc+1. Mirrors vm_next between
            // the phases: advance pc, clear the back-edge flag, and
            // (per-op mode) pay the next op's base cost.
            R[instr->a] = constants[instr->imm];
            came_from_back_edge = false;
            ++pc;
            instr = &code[pc];
            if constexpr (!kBatched)
                charge(base);
            goto qcmp_branch_body;

          VM_CASE(QCmpBranch)
          qcmp_branch_body: {
            // Compare phase: the original Binary compare at this pc.
            // Identical computation, charges, and profile update;
            // int32 operands additionally skip the runtime dispatch.
            Value lhs = R[instr->b];
            Value rhs = R[instr->c];
            auto op = static_cast<BinaryOp>(instr->imm);
            Value result;
            bool truthy;
            if (lhs.isInt32() && rhs.isInt32()) {
                truthy =
                    evalIntCompare(op, lhs.asInt32(), rhs.asInt32());
                result = Value::boolean(truthy);
            } else {
                result = env.runtime.applyBinary(op, lhs, rhs);
                truthy = env.runtime.toBoolean(result);
            }
            env.acct.chargeRuntime(interp ? CostModel::kRuntimeGenericOp
                                          : CostModel::kBaselineArith);
            profileBinary(prof.arith[pc], lhs, rhs, result);
            R[instr->a] = result;

            // Branch phase: the JumpIf op still in place at pc+1.
            came_from_back_edge = false;
            ++pc;
            instr = &code[pc];
            if constexpr (!kBatched) {
                charge(base);
                charge(2);
            }
            if ((instr->op == Opcode::JumpIfTrue) == truthy) {
                if (instr->imm <= pc) {
                    came_from_back_edge = true;
                    ++prof.backEdgeCount;
                }
                pc = instr->imm;
                if constexpr (kBatched)
                    chargeRunFrom(pc);
                goto vm_top;
            }
            if constexpr (kBatched)
                chargeRunFrom(pc + 1);
            goto vm_next;
          }

          VM_CASE(Unary) {
            Value src = R[instr->b];
            Value result = env.runtime.applyUnary(
                static_cast<UnaryOp>(instr->imm), src);
            ArithProfile &ap = prof.arith[pc];
            ap.lhsMask |= valueKindMask(src.kind());
            ap.resultMask |= valueKindMask(result.kind());
            R[instr->a] = result;
            goto vm_next;
          }

          VM_CASE(GetProp)
          getprop_generic: {
            Value base_v = R[instr->b];
            PropertyProfile &pp = prof.property[pc];
            pp.baseMask |= valueKindMask(base_v.kind());
            Addr addr = 0;
            Value result;
            if (!interp && base_v.isObject()) {
                // Baseline inline cache.
                const JsObject &obj = env.heap.object(base_v.payload());
                if (pp.shape == obj.shape && pp.slot >= 0) {
                    result = env.heap.getSlot(
                        base_v.payload(),
                        static_cast<uint32_t>(pp.slot));
                    addr = env.heap.slotAddr(
                        base_v.payload(),
                        static_cast<uint32_t>(pp.slot));
                    charge(CostModel::kBaselineIcHit);
                    if constexpr (kQuicken)
                        code[pc].op = Opcode::QGetPropMono;
                } else {
                    result = env.runtime.getPropertyGeneric(
                        base_v, instr->imm, &addr);
                    env.acct.chargeRuntime(CostModel::kBaselineIcMiss);
                    int32_t slot = env.heap.shapeTable().lookup(
                        obj.shape, instr->imm);
                    if (pp.shape != kInvalidShape &&
                        pp.shape != obj.shape) {
                        pp.polymorphic = true;
                    }
                    pp.shape = obj.shape;
                    pp.slot = slot;
                }
            } else {
                result = env.runtime.getPropertyGeneric(base_v,
                                                        instr->imm,
                                                        &addr);
                env.acct.chargeRuntime(CostModel::kRuntimePropAccess);
                if (base_v.isObject()) {
                    const JsObject &obj =
                        env.heap.object(base_v.payload());
                    if (pp.shape != kInvalidShape &&
                        pp.shape != obj.shape) {
                        pp.polymorphic = true;
                    }
                    pp.shape = obj.shape;
                    pp.slot = env.heap.shapeTable().lookup(obj.shape,
                                                           instr->imm);
                }
            }
            env.memAccess(addr, false);
            R[instr->a] = result;
            goto vm_next;
          }

          VM_CASE(QGetPropMono) {
            // GetProp that has hit its monomorphic IC: decode straight
            // to the slot load, fall back to the generic body (which
            // re-profiles and repairs the IC) on any mismatch.
            Value base_v = R[instr->b];
            if (!interp && base_v.isObject()) {
                PropertyProfile &pp = prof.property[pc];
                const JsObject &obj = env.heap.object(base_v.payload());
                if (pp.shape == obj.shape && pp.slot >= 0) {
                    pp.baseMask |= valueKindMask(base_v.kind());
                    uint32_t slot = static_cast<uint32_t>(pp.slot);
                    Value result =
                        env.heap.getSlot(base_v.payload(), slot);
                    charge(CostModel::kBaselineIcHit);
                    env.memAccess(
                        env.heap.slotAddr(base_v.payload(), slot),
                        false);
                    R[instr->a] = result;
                    goto vm_next;
                }
            }
            goto getprop_generic;
          }

          VM_CASE(SetProp) {
            Value base_v = R[instr->b];
            PropertyProfile &pp = prof.property[pc];
            pp.baseMask |= valueKindMask(base_v.kind());
            Addr addr = 0;
            if (base_v.isObject()) {
                const JsObject &obj = env.heap.object(base_v.payload());
                if (!interp && pp.shape == obj.shape && pp.slot >= 0) {
                    env.heap.setSlot(base_v.payload(),
                                     static_cast<uint32_t>(pp.slot),
                                     R[instr->c]);
                    addr = env.heap.slotAddr(
                        base_v.payload(),
                        static_cast<uint32_t>(pp.slot));
                    charge(CostModel::kBaselineIcHit);
                } else {
                    if (pp.shape != kInvalidShape &&
                        pp.shape != obj.shape) {
                        pp.polymorphic = true;
                    }
                    env.runtime.setPropertyGeneric(base_v, instr->imm,
                                                   R[instr->c],
                                                   &addr);
                    env.acct.chargeRuntime(
                        interp ? CostModel::kRuntimePropAccess
                               : CostModel::kBaselineIcMiss);
                    const JsObject &after =
                        env.heap.object(base_v.payload());
                    pp.shape = after.shape;
                    pp.slot = env.heap.shapeTable().lookup(after.shape,
                                                           instr->imm);
                }
            } else {
                env.runtime.setPropertyGeneric(base_v, instr->imm,
                                               R[instr->c], &addr);
                env.acct.chargeRuntime(CostModel::kRuntimePropAccess);
            }
            env.memAccess(addr, true);
            goto vm_next;
          }

          VM_CASE(GetIndex) {
            Value base_v = R[instr->b];
            Value index = R[instr->c];
            IndexProfile &ip = prof.index[pc];
            ip.baseMask |= valueKindMask(base_v.kind());
            ip.indexMask |= valueKindMask(index.kind());
            Addr addr = 0;
            Value result =
                env.runtime.getIndexGeneric(base_v, index, &addr);
            if (base_v.isArray() && index.isInt32()) {
                int32_t i = index.asInt32();
                uint32_t len =
                    env.heap.array(base_v.payload()).length();
                if (i < 0 || static_cast<uint32_t>(i) >= len)
                    ip.sawOutOfBounds = true;
                else if (result.isUndefined())
                    ip.sawHole = true;
            }
            ip.elemMask |= valueKindMask(result.kind());
            env.acct.chargeRuntime(interp
                                       ? CostModel::kRuntimeIndexAccess
                                       : CostModel::kBaselineIndex);
            env.memAccess(addr, false);
            R[instr->a] = result;
            goto vm_next;
          }

          VM_CASE(SetIndex) {
            Value base_v = R[instr->a];
            Value index = R[instr->b];
            IndexProfile &ip = prof.index[pc];
            ip.baseMask |= valueKindMask(base_v.kind());
            ip.indexMask |= valueKindMask(index.kind());
            if (base_v.isArray() && index.isInt32()) {
                int32_t i = index.asInt32();
                uint32_t len =
                    env.heap.array(base_v.payload()).length();
                if (i < 0 || static_cast<uint32_t>(i) >= len)
                    ip.sawOutOfBounds = true;
            }
            Addr addr = 0;
            env.runtime.setIndexGeneric(base_v, index, R[instr->c],
                                        &addr);
            env.acct.chargeRuntime(interp
                                       ? CostModel::kRuntimeIndexAccess
                                       : CostModel::kBaselineIndex);
            env.memAccess(addr, true);
            goto vm_next;
          }

          VM_CASE(NewArray) {
            Value arr = env.heap.allocArray(instr->c);
            for (uint16_t i = 0; i < instr->c; ++i) {
                env.heap.setElementFast(arr.payload(), i,
                                        R[instr->b + i]);
            }
            env.acct.chargeRuntime(CostModel::kRuntimeAllocation);
            R[instr->a] = arr;
            goto vm_next;
          }

          VM_CASE(NewObject) {
            Value obj = env.heap.allocObject();
            const ObjectDesc &desc = fn.objectDescs[instr->imm];
            for (uint16_t i = 0; i < instr->c; ++i) {
                env.heap.setProperty(obj.payload(), desc.nameIds[i],
                                     R[instr->b + i]);
            }
            env.acct.chargeRuntime(CostModel::kRuntimeAllocation);
            R[instr->a] = obj;
            goto vm_next;
          }

          VM_CASE(Call) {
            env.acct.chargeRuntime(interp ? CostModel::kRuntimeGenericOp
                                          : CostModel::kBaselineCall);
            R[instr->a] = env.dispatcher.call(
                instr->imm, R + instr->b, instr->c);
            goto vm_next;
          }

          VM_CASE(CallNative) {
            auto bid = static_cast<BuiltinId>(instr->imm);
            if (bid == BuiltinId::Print)
                env.irrevocableEvent();
            env.acct.chargeRuntime(CostModel::kRuntimeNativeCall);
            R[instr->a] = env.builtins.call(
                bid, R + instr->b, instr->c);
            goto vm_next;
          }

          VM_CASE(CallMethod) {
            uint32_t name_id = instr->imm / 16;
            uint32_t nargs = instr->imm % 16;
            env.acct.chargeRuntime(CostModel::kRuntimeMethodCall);
            R[instr->a] = env.builtins.callMethod(
                R[instr->b], name_id, R + instr->c, nargs);
            goto vm_next;
          }

          VM_CASE(Jump)
            if (instr->imm <= pc) {
                came_from_back_edge = true;
                ++prof.backEdgeCount;
            }
            pc = instr->imm;
            if constexpr (kBatched)
                chargeRunFrom(pc);
            goto vm_top;

          VM_CASE(JumpIfTrue)
          VM_CASE(JumpIfFalse) {
            bool truthy = env.runtime.toBoolean(R[instr->b]);
            bool taken = (instr->op == Opcode::JumpIfTrue) == truthy;
            // The conditional-branch extra is static, so batched mode
            // folded it into the run charge (runExtra).
            if constexpr (!kBatched)
                charge(2);
            if (taken) {
                if (instr->imm <= pc) {
                    came_from_back_edge = true;
                    ++prof.backEdgeCount;
                }
                pc = instr->imm;
                if constexpr (kBatched)
                    chargeRunFrom(pc);
                goto vm_top;
            }
            // A conditional jump terminates its run either way: the
            // fall-through path starts a fresh one.
            if constexpr (kBatched)
                chargeRunFrom(pc + 1);
            goto vm_next;
          }

          VM_CASE(Return)
            return R[instr->b];

          VM_CASE(ReturnUndef)
            return Value::undefined();

          VM_CASE(LoopHeader) {
            LoopProfile &lp = prof.loops[instr->imm];
            if (!came_from_back_edge)
                ++lp.entries;
            ++lp.totalIterations;
            goto vm_next;
          }
        }

    vm_next:
        came_from_back_edge = false;
        ++pc;
        goto vm_top;
    } catch (ExecutionCancelled &) {
        // Cancellation voids the stats (the engine must be reset), and
        // the charge that threw was never applied — nothing to refund.
        throw;
    } catch (...) {
        if constexpr (kBatched) {
            // Mid-run exit (transactional abort unwinding through this
            // frame, or an abort thrown by a memory access): the ops
            // after pc in the charged run never executed. Per-op mode
            // stopped charging at pc, so take the suffix back. Fused
            // bodies advance pc between their phases, so pc is the op
            // that was executing in generic terms either way.
            if (!isRunTerminator(fn.code[pc].op) &&
                pc + 1 < fn.code.size()) {
                env.acct.refundInstructions(
                    tier,
                    static_cast<uint64_t>(base) * fn.runLen[pc + 1] +
                        fn.runExtra[pc + 1],
                    false, run_charged_tm);
            }
        }
        throw;
    }
}

#undef VM_CASE

} // namespace nomap
