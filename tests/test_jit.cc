/**
 * @file
 * Differential test for the region template-compilation tier
 * (EngineConfig::jitTier): an Engine run with the compiled tier
 * enabled must be bit-identical — result value, print output, every
 * ExecutionStats counter, and the full trace-event stream including
 * virtual-cycle timestamps — to the FTL reference path, and must
 * compute the same guest-visible results as a pure-interpreter run.
 * The chain of continuation templates is a pure host-speed
 * optimization; nothing guest-visible may move.
 *
 * The equivalence must hold under armed deterministic fault plans
 * (the compiled path fires every injection site the FTL path fires,
 * in the same occurrence order), with tracing enabled, and across
 * adaptive replanning mid-abort-storm — where tier revisions must
 * respect the activeRuns/pendingRecompile deferral so the region
 * chain is never rebuilt under a live activation.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "inject/fault_plan.h"
#include "jit/jit_chain.h"
#include "suites/suite.h"
#include "testing/program_generator.h"
#include "trace/trace.h"

namespace nomap {
namespace {

struct Outcome {
    std::string result;
    std::string printed;
    ExecutionStats stats;
    std::vector<TraceEvent> events;
};

Outcome
runOutcome(const std::string &source, Architecture arch, bool jit,
           uint32_t trace_capacity, const FaultPlan *plan)
{
    EngineConfig config;
    config.arch = arch;
    config.jitTier = jit;
    config.traceCapacity = trace_capacity;
    Engine engine(config);
    if (plan)
        engine.armFaultPlan(plan);
    EngineResult r = engine.run(source);
    Outcome out;
    out.result = r.resultString;
    out.printed = r.printed;
    out.stats = r.stats;
    if (engine.trace())
        out.events = engine.trace()->events();
    return out;
}

void
expectSameStats(const ExecutionStats &jit, const ExecutionStats &ftl)
{
    for (size_t b = 0;
         b < static_cast<size_t>(InstrBucket::NumBuckets); ++b) {
        EXPECT_EQ(jit.instr[b], ftl.instr[b]) << "instr bucket " << b;
    }
    for (size_t k = 0; k < static_cast<size_t>(CheckKind::NumKinds);
         ++k) {
        EXPECT_EQ(jit.checks[k], ftl.checks[k])
            << "check kind " << checkKindName(static_cast<CheckKind>(k));
    }
    // Exact equality on the doubles (see test_accounting_diff): the
    // compiled tier must charge the very same integer units in the
    // very same order.
    EXPECT_EQ(jit.cyclesTm, ftl.cyclesTm);
    EXPECT_EQ(jit.cyclesNonTm, ftl.cyclesNonTm);
    EXPECT_EQ(jit.ftlFunctionCalls, ftl.ftlFunctionCalls);
    EXPECT_EQ(jit.deopts, ftl.deopts);
    EXPECT_EQ(jit.baselineCompiles, ftl.baselineCompiles);
    EXPECT_EQ(jit.dfgCompiles, ftl.dfgCompiles);
    EXPECT_EQ(jit.ftlCompiles, ftl.ftlCompiles);
    EXPECT_EQ(jit.ftlRecompiles, ftl.ftlRecompiles);
    EXPECT_EQ(jit.txCommits, ftl.txCommits);
    EXPECT_EQ(jit.txAborts, ftl.txAborts);
    EXPECT_EQ(jit.txAbortsCapacity, ftl.txAbortsCapacity);
    EXPECT_EQ(jit.txAbortsCheck, ftl.txAbortsCheck);
    EXPECT_EQ(jit.txAbortsSof, ftl.txAbortsSof);
    EXPECT_EQ(jit.avgWriteFootprintBytes, ftl.avgWriteFootprintBytes);
    EXPECT_EQ(jit.maxWriteFootprintBytes, ftl.maxWriteFootprintBytes);
    EXPECT_EQ(jit.maxWriteWaysUsed, ftl.maxWriteWaysUsed);
}

void
expectSameOutcome(const Outcome &jit, const Outcome &ftl)
{
    EXPECT_EQ(jit.result, ftl.result);
    EXPECT_EQ(jit.printed, ftl.printed);
    expectSameStats(jit.stats, ftl.stats);
    // Element-wise trace equality, virtual-cycle timestamps included:
    // the compiled tier must not shift when any event is emitted.
    ASSERT_EQ(jit.events.size(), ftl.events.size());
    for (size_t i = 0; i < jit.events.size(); ++i) {
        EXPECT_TRUE(jit.events[i] == ftl.events[i])
            << "trace event " << i << " differs";
    }
}

void
compareSuite(const std::vector<BenchmarkSpec> &suite, Architecture arch,
             uint32_t trace_capacity = 0,
             const FaultPlan *plan = nullptr)
{
    for (const BenchmarkSpec &spec : suite) {
        SCOPED_TRACE(spec.id + " on " + architectureName(arch));
        expectSameOutcome(
            runOutcome(spec.source, arch, true, trace_capacity, plan),
            runOutcome(spec.source, arch, false, trace_capacity, plan));
    }
}

/** First @p keep entries (keeps the fault/trace sweeps affordable). */
std::vector<BenchmarkSpec>
prefix(const std::vector<BenchmarkSpec> &suite, size_t keep)
{
    if (suite.size() <= keep)
        return suite;
    return std::vector<BenchmarkSpec>(
        suite.begin(), suite.begin() + static_cast<long>(keep));
}

class Jit : public ::testing::TestWithParam<Architecture>
{
};

TEST_P(Jit, SunSpiderMatchesFtlPath)
{
    compareSuite(sunspiderSuite(), GetParam());
}

TEST_P(Jit, KrakenMatchesFtlPath)
{
    compareSuite(krakenSuite(), GetParam());
}

// The three-way contract over generated programs: compiled tier vs
// FTL bit-identical (stats and all), and both agree with a
// pure-interpreter run on everything guest-visible (the interpreter
// tiers differently, so its stats legitimately differ).
TEST_P(Jit, FuzzProgramsMatchFtlAndInterpreter)
{
    const uint64_t first = testutil::fuzzSeedFromEnv(1);
    const uint64_t iters =
        std::max<uint64_t>(1, testutil::fuzzItersFromEnv(40));
    for (uint64_t seed = first; seed < first + iters; ++seed) {
        testutil::ProgramGenerator gen(seed);
        const std::string src = gen.generate();
        SCOPED_TRACE("seed " + std::to_string(seed) + " on " +
                     architectureName(GetParam()) + "\nreproduce: " +
                     testutil::reproHint(seed) + " ./tests/test_jit");
        Outcome jit = runOutcome(src, GetParam(), true, 0, nullptr);
        Outcome ftl = runOutcome(src, GetParam(), false, 0, nullptr);
        expectSameOutcome(jit, ftl);

        EngineConfig interp_config;
        interp_config.arch = GetParam();
        interp_config.maxTier = Tier::Interpreter;
        Engine interp(interp_config);
        EngineResult ir = interp.run(src);
        EXPECT_EQ(jit.result, ir.resultString);
        EXPECT_EQ(jit.printed, ir.printed);
    }
}

TEST_P(Jit, FaultPlansMatchFtlPath)
{
    const char *plans[] = {"htm.abort@2", "check.bounds@5",
                           "check.any@3", "engine.watchdog@400"};
    for (const char *text : plans) {
        SCOPED_TRACE(text);
        FaultPlan plan = FaultPlan::parse(text);
        compareSuite(prefix(sunspiderSuite(), 2), GetParam(), 0,
                     &plan);
        compareSuite(prefix(krakenSuite(), 2), GetParam(), 0, &plan);
    }
}

TEST_P(Jit, TracingMatchesFtlPath)
{
    // Trace ring large enough that no event is evicted, so the
    // streams compare element-for-element with timestamps.
    const uint32_t capacity = 1u << 16;
    compareSuite(prefix(sunspiderSuite(), 2), GetParam(), capacity);
    compareSuite(prefix(krakenSuite(), 2), GetParam(), capacity);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, Jit,
    ::testing::Values(Architecture::Base, Architecture::NoMapS,
                      Architecture::NoMapB, Architecture::NoMap,
                      Architecture::NoMapBC, Architecture::NoMapRTM),
    [](const ::testing::TestParamInfo<Architecture> &info) {
        return std::string(architectureName(info.param));
    });

// Adaptive replanning mid-abort-storm: revisions land at FTL-call
// boundaries and rebuild the region chain via recompileFtl, which
// must respect the activeRuns/pendingRecompile deferral — swapping
// the chain (whose literal pool points at the recompiled IR's charge
// plan) under a live recursive activation would be a use-after-free
// the ASan config catches. The compiled tier must come out of the
// storm bit-identical to the FTL path, replans and refunds included.
TEST(JitRevisionBoundary, AdaptiveReplanMidStormMatchesFtl)
{
    const std::string src = R"JS(
var N = 16384;
var A = [];
for (var i = 0; i < N; i++) A[i] = i % 17;
function storm(a, n, depth) {
    var s = 0;
    for (var j = 0; j < n; j++) {
        a[j] = (a[j] + j) % 1021;
        s = (s + a[j]) % 65536;
    }
    if (depth > 0) s = (s + storm(a, n, depth - 1)) % 65536;
    return s;
}
var out = 0;
for (var r = 0; r < 10; r++) out = (out + storm(A, N, 2)) % 65536;
result = out;
)JS";

    FaultPlan squeeze = FaultPlan::parse("htm.ways@1");
    for (bool adaptive : {false, true}) {
        SCOPED_TRACE(adaptive ? "adaptive replanning"
                              : "static escalation");
        Outcome out[2];
        for (int jit = 0; jit < 2; ++jit) {
            EngineConfig config;
            config.arch = Architecture::NoMap;
            config.adaptive = adaptive;
            config.jitTier = jit != 0;
            // Tier up fast so most storm calls run FTL transactions.
            config.baselineThreshold = 2;
            config.dfgThreshold = 4;
            config.ftlThreshold = 8;
            Engine engine(config);
            engine.armFaultPlan(&squeeze);
            EngineResult r = engine.run(src);
            out[jit].result = r.resultString;
            out[jit].printed = r.printed;
            out[jit].stats = r.stats;

            // Vacuity guards: the storm really did force mid-run
            // replanning (with the recursion live), and no deferred
            // recompile is left owing at the end.
            EXPECT_GE(r.stats.txAborts, 2u);
            EXPECT_GE(r.stats.ftlRecompiles, 1u);
            const FunctionState *state =
                engine.functionState("storm");
            ASSERT_NE(state, nullptr);
            EXPECT_FALSE(state->pendingRecompile);
        }
        expectSameOutcome(out[1], out[0]);
    }
}

/** Printable op spec name (the same text as the IR op it executes). */
std::string
opSpecName(OpSpec spec)
{
    static const char *const kNames[] = {
#define NOMAP_TEST_SPEC_NAME(name) #name,
        NOMAP_OP_SPEC_LIST(NOMAP_TEST_SPEC_NAME)
#undef NOMAP_TEST_SPEC_NAME
    };
    return kNames[static_cast<size_t>(spec)];
}

/**
 * The unfused spec of one flat record, derived independently of the
 * mapping computeChargePlan applies: the op's own name, or for a
 * compare the subop's.
 */
std::string
expectedSpecName(const ExecInstr &e)
{
    if (e.op != IrOp::CmpInt && e.op != IrOp::CmpDouble)
        return irOpName(e.op);
    switch (static_cast<BinaryOp>(e.imm)) {
      case BinaryOp::Lt: return "CmpLt";
      case BinaryOp::Le: return "CmpLe";
      case BinaryOp::Gt: return "CmpGt";
      case BinaryOp::Ge: return "CmpGe";
      case BinaryOp::Eq:
      case BinaryOp::StrictEq: return "CmpEq";
      case BinaryOp::NotEq:
      case BinaryOp::StrictNotEq: return "CmpNe";
      default: return "CmpOther";
    }
}

/** The fused template a record of @p spec may be bound to, if any. */
JitSpec
fusedFormOf(OpSpec spec)
{
    switch (spec) {
      case OpSpec::CmpLt: return JitSpec::CmpBranchLt;
      case OpSpec::CmpLe: return JitSpec::CmpBranchLe;
      case OpSpec::CmpGt: return JitSpec::CmpBranchGt;
      case OpSpec::CmpGe: return JitSpec::CmpBranchGe;
      case OpSpec::CmpEq: return JitSpec::CmpBranchEq;
      case OpSpec::CmpNe: return JitSpec::CmpBranchNe;
      case OpSpec::AddInt: return JitSpec::AddIntChkOvf;
      case OpSpec::SubInt: return JitSpec::SubIntChkOvf;
      case OpSpec::MulInt: return JitSpec::MulIntChkOvf;
      default: return static_cast<JitSpec>(spec);
    }
}

// The differential above is only meaningful if the binder actually
// specializes and fuses: a hot non-transactional (Base) program must
// produce a chain that is index-aligned with the flat stream and
// contains fused superinstruction templates. It also pins the
// one-source contract both loops rely on: every flat record of every
// DFG- and FTL-compiled function carries the unfused spec of its op
// (the body both loops dispatch to), and every chain record carries
// that spec or its fused form.
TEST(JitStructure, HotProgramBuildsFusedChain)
{
    EngineConfig config;
    config.arch = Architecture::Base;
    config.jitTier = true;
    Engine engine(config);
    engine.run(sunspiderSuite()[0].source);
    const CompiledProgram *prog = engine.program();
    ASSERT_NE(prog, nullptr);

    bool any_chain = false;
    bool any_fused = false;
    for (const auto &fnp : prog->functions) {
        const FunctionState *state =
            engine.functionState(fnp->name);
        if (!state || !state->jit)
            continue;
        any_chain = true;
        const IrFunction *ir = engine.ftlIr(fnp->name);
        ASSERT_NE(ir, nullptr);
        ASSERT_EQ(state->jit->records.size(), ir->flat.size());
        for (size_t i = 0; i < state->jit->records.size(); ++i) {
            const JitInstr &r = state->jit->records[i];
            // Literal pool is a faithful copy of the flat record.
            EXPECT_EQ(r.op, ir->flat[i].op);
            EXPECT_EQ(r.ownScaled, ir->flat[i].ownScaled);
            EXPECT_EQ(r.chargeFrom, ir->flat[i].chargeFrom);
            OpSpec flat_spec = ir->flat[i].spec;
            EXPECT_TRUE(r.spec == static_cast<JitSpec>(flat_spec) ||
                        r.spec == fusedFormOf(flat_spec))
                << fnp->name << " record " << i;
            switch (r.spec) {
              case JitSpec::CmpBranchLt:
              case JitSpec::CmpBranchLe:
              case JitSpec::CmpBranchGt:
              case JitSpec::CmpBranchGe:
              case JitSpec::CmpBranchEq:
              case JitSpec::CmpBranchNe:
              case JitSpec::AddIntChkOvf:
              case JitSpec::SubIntChkOvf:
              case JitSpec::MulIntChkOvf:
                any_fused = true;
                EXPECT_FALSE(state->jit->aware)
                    << fnp->name << " record " << i;
                break;
              default:
                break;
            }
        }
    }
    EXPECT_TRUE(any_chain);
    EXPECT_TRUE(any_fused);

    size_t dfg_records = 0;
    size_t ftl_records = 0;
    for (const auto &fnp : prog->functions) {
        const FunctionState *state =
            engine.functionState(fnp->name);
        if (!state)
            continue;
        for (const CompiledIr *compiled :
             {state->dfg.get(), state->ftl.get()}) {
            if (!compiled)
                continue;
            for (size_t i = 0; i < compiled->ir.flat.size(); ++i) {
                const ExecInstr &e = compiled->ir.flat[i];
                EXPECT_EQ(opSpecName(e.spec), expectedSpecName(e))
                    << fnp->name << " " << tierName(compiled->ir.tier)
                    << " record " << i;
            }
            if (compiled->ir.tier == Tier::Dfg)
                dfg_records += compiled->ir.flat.size();
            else
                ftl_records += compiled->ir.flat.size();
        }
    }
    EXPECT_GT(dfg_records, 0u);
    EXPECT_GT(ftl_records, 0u);
}

// Transactional regions must run the tx-aware template variant and
// must not fuse (a fused body would skip the per-op tx-owner watchdog
// poll between its two components).
TEST(JitStructure, TransactionalChainsAreAwareAndUnfused)
{
    EngineConfig config;
    config.arch = Architecture::NoMap;
    config.jitTier = true;
    Engine engine(config);
    engine.run(sunspiderSuite()[0].source);
    const CompiledProgram *prog = engine.program();
    ASSERT_NE(prog, nullptr);

    bool any_aware = false;
    bool any_specialized_cmp = false;
    for (const auto &fnp : prog->functions) {
        const FunctionState *state =
            engine.functionState(fnp->name);
        if (!state || !state->jit)
            continue;
        bool has_tx = false;
        for (const JitInstr &r : state->jit->records)
            has_tx = has_tx || isTxBoundaryOp(r.op);
        EXPECT_EQ(state->jit->aware, has_tx) << fnp->name;
        if (!state->jit->aware)
            continue;
        any_aware = true;
        for (size_t i = 0; i < state->jit->records.size(); ++i) {
            const JitInstr &r = state->jit->records[i];
            EXPECT_LE(static_cast<size_t>(r.spec),
                      static_cast<size_t>(JitSpec::TxTile))
                << fnp->name << " record " << i << " fused";
            // Shape specialization still applies without fusion: a
            // compare in an aware chain keeps its baked-subop
            // standalone template.
            switch (r.spec) {
              case JitSpec::CmpLt:
              case JitSpec::CmpLe:
              case JitSpec::CmpGt:
              case JitSpec::CmpGe:
              case JitSpec::CmpEq:
              case JitSpec::CmpNe:
                any_specialized_cmp = true;
                break;
              default:
                break;
            }
        }
    }
    EXPECT_TRUE(any_aware);
    EXPECT_TRUE(any_specialized_cmp);
}

// Jump/Branch targets must keep their standalone template even when
// the preceding record fused: control can enter at them directly, so
// fusion must never swallow a target into its predecessor.
TEST(JitStructure, JumpTargetsKeepStandaloneTemplates)
{
    EngineConfig config;
    config.arch = Architecture::Base;
    config.jitTier = true;
    Engine engine(config);
    engine.run(sunspiderSuite()[0].source);
    const CompiledProgram *prog = engine.program();
    ASSERT_NE(prog, nullptr);

    bool any_checked = false;
    for (const auto &fnp : prog->functions) {
        const FunctionState *state =
            engine.functionState(fnp->name);
        if (!state || !state->jit)
            continue;
        const std::vector<JitInstr> &recs = state->jit->records;
        std::vector<bool> target(recs.size(), false);
        for (const JitInstr &r : recs) {
            if (r.op == IrOp::Jump) {
                target[r.imm] = true;
            } else if (r.op == IrOp::Branch) {
                target[r.imm] = true;
                target[r.imm2] = true;
            }
        }
        for (size_t i = 0; i + 1 < recs.size(); ++i) {
            if (!target[i + 1])
                continue;
            any_checked = true;
            EXPECT_LE(static_cast<size_t>(recs[i].spec),
                      static_cast<size_t>(JitSpec::TxTile))
                << fnp->name << " record " << i
                << " fused across a jump target";
        }
    }
    EXPECT_TRUE(any_checked);
}

} // namespace
} // namespace nomap
