/**
 * @file
 * Differential test for superinstruction fusion in the DFG/FTL chains
 * (EngineConfig::jitTier): an Engine run with fused chains must be
 * bit-identical — result value, print output, every ExecutionStats
 * counter, and the full trace-event stream including virtual-cycle
 * timestamps — to the unfused reference chains, and must compute the
 * same guest-visible results as a pure-interpreter run. Fusion is a
 * pure host-speed optimization; nothing guest-visible may move.
 *
 * The equivalence must hold for DFG code as well as FTL code, under
 * armed deterministic fault plans (the fused path fires every
 * injection site the unfused path fires, in the same occurrence
 * order), with tracing enabled, and across adaptive replanning
 * mid-abort-storm — where tier revisions must respect the
 * activeRuns/pendingRecompile deferral so the region chain is never
 * freed under a live activation.
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
           uint32_t trace_capacity, const FaultPlan *plan,
           Tier max_tier = Tier::Ftl)
{
    EngineConfig config;
    config.arch = arch;
    config.maxTier = max_tier;
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
expectSameStats(const ExecutionStats &fused, const ExecutionStats &ref)
{
    for (size_t b = 0;
         b < static_cast<size_t>(InstrBucket::NumBuckets); ++b) {
        EXPECT_EQ(fused.instr[b], ref.instr[b]) << "instr bucket " << b;
    }
    for (size_t k = 0; k < static_cast<size_t>(CheckKind::NumKinds);
         ++k) {
        EXPECT_EQ(fused.checks[k], ref.checks[k])
            << "check kind " << checkKindName(static_cast<CheckKind>(k));
    }
    // Exact equality on the doubles (see test_accounting_diff): fused
    // chains must charge the very same integer units in the very
    // same order.
    EXPECT_EQ(fused.cyclesTm, ref.cyclesTm);
    EXPECT_EQ(fused.cyclesNonTm, ref.cyclesNonTm);
    EXPECT_EQ(fused.ftlFunctionCalls, ref.ftlFunctionCalls);
    EXPECT_EQ(fused.deopts, ref.deopts);
    EXPECT_EQ(fused.baselineCompiles, ref.baselineCompiles);
    EXPECT_EQ(fused.dfgCompiles, ref.dfgCompiles);
    EXPECT_EQ(fused.ftlCompiles, ref.ftlCompiles);
    EXPECT_EQ(fused.ftlRecompiles, ref.ftlRecompiles);
    EXPECT_EQ(fused.txCommits, ref.txCommits);
    EXPECT_EQ(fused.txAborts, ref.txAborts);
    EXPECT_EQ(fused.txAbortsCapacity, ref.txAbortsCapacity);
    EXPECT_EQ(fused.txAbortsCheck, ref.txAbortsCheck);
    EXPECT_EQ(fused.txAbortsSof, ref.txAbortsSof);
    EXPECT_EQ(fused.avgWriteFootprintBytes, ref.avgWriteFootprintBytes);
    EXPECT_EQ(fused.maxWriteFootprintBytes, ref.maxWriteFootprintBytes);
    EXPECT_EQ(fused.maxWriteWaysUsed, ref.maxWriteWaysUsed);
}

void
expectSameOutcome(const Outcome &fused, const Outcome &ref)
{
    EXPECT_EQ(fused.result, ref.result);
    EXPECT_EQ(fused.printed, ref.printed);
    expectSameStats(fused.stats, ref.stats);
    // Element-wise trace equality, virtual-cycle timestamps included:
    // fusion must not shift when any event is emitted.
    ASSERT_EQ(fused.events.size(), ref.events.size());
    for (size_t i = 0; i < fused.events.size(); ++i) {
        EXPECT_TRUE(fused.events[i] == ref.events[i])
            << "trace event " << i << " differs";
    }
}

void
compareSuite(const std::vector<BenchmarkSpec> &suite, Architecture arch,
             uint32_t trace_capacity = 0,
             const FaultPlan *plan = nullptr,
             Tier max_tier = Tier::Ftl)
{
    for (const BenchmarkSpec &spec : suite) {
        SCOPED_TRACE(spec.id + " on " + architectureName(arch) +
                     " up to " + tierName(max_tier));
        expectSameOutcome(runOutcome(spec.source, arch, true,
                                     trace_capacity, plan, max_tier),
                          runOutcome(spec.source, arch, false,
                                     trace_capacity, plan, max_tier));
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

// Each suite also runs capped at the DFG, so DFG chains (never
// transactional, so always fusable) meet the unfused reference too.
TEST_P(Jit, SunSpiderMatchesFtlPath)
{
    for (Tier max_tier : {Tier::Ftl, Tier::Dfg})
        compareSuite(sunspiderSuite(), GetParam(), 0, nullptr, max_tier);
}

TEST_P(Jit, KrakenMatchesFtlPath)
{
    for (Tier max_tier : {Tier::Ftl, Tier::Dfg})
        compareSuite(krakenSuite(), GetParam(), 0, nullptr, max_tier);
}

// The three-way contract over generated programs: fused vs unfused
// chains bit-identical (stats and all), and both agree with a
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
        Outcome ref = runOutcome(src, GetParam(), false, 0, nullptr);
        expectSameOutcome(jit, ref);

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
// boundaries and replace the IR and its chain via recompileFtl, which
// must respect the activeRuns/pendingRecompile deferral — freeing
// the chain under a live recursive activation would be a
// use-after-free the ASan config catches. Fused chains must come out
// of the storm bit-identical to unfused ones, replans and refunds
// included.
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
// specializes and fuses: every DFG- and FTL-compiled function of a hot
// non-transactional (Base) program must own a chain that is
// index-aligned with its flat stream, and with fusion on, both DFG and
// FTL chains must contain fused superinstruction templates; with it
// off, none may. It also pins the one-source contract the executor
// relies on: every flat record carries the unfused spec of its op
// (the body the chain binds), and every chain record carries that
// spec or its fused form.
TEST(JitStructure, HotProgramBuildsFusedChain)
{
    for (bool fuse : {true, false}) {
        SCOPED_TRACE(fuse ? "fused" : "unfused");
        EngineConfig config;
        config.arch = Architecture::Base;
        config.jitTier = fuse;
        Engine engine(config);
        engine.run(sunspiderSuite()[0].source);
        const CompiledProgram *prog = engine.program();
        ASSERT_NE(prog, nullptr);

        size_t dfg_records = 0;
        size_t ftl_records = 0;
        bool any_fused_dfg = false;
        bool any_fused_ftl = false;
        for (const auto &fnp : prog->functions) {
            const FunctionState *state =
                engine.functionState(fnp->name);
            if (!state)
                continue;
            for (const CompiledIr *compiled :
                 {state->dfg.get(), state->ftl.get()}) {
                if (!compiled)
                    continue;
                const IrFunction &ir = compiled->ir;
                const bool dfg = ir.tier == Tier::Dfg;
                for (size_t i = 0; i < ir.flat.size(); ++i) {
                    const ExecInstr &e = ir.flat[i];
                    EXPECT_EQ(opSpecName(e.spec), expectedSpecName(e))
                        << fnp->name << " " << tierName(ir.tier)
                        << " record " << i;
                }
                (dfg ? dfg_records : ftl_records) += ir.flat.size();

                ASSERT_NE(compiled->chain, nullptr)
                    << fnp->name << " " << tierName(ir.tier);
                const JitChain &chain = *compiled->chain;
                ASSERT_EQ(chain.records.size(), ir.flat.size());
                for (size_t i = 0; i < chain.records.size(); ++i) {
                    const JitInstr &r = chain.records[i];
                    // Literal pool is a faithful copy of the flat
                    // record.
                    EXPECT_EQ(r.op, ir.flat[i].op);
                    EXPECT_EQ(r.ownScaled, ir.flat[i].ownScaled);
                    EXPECT_EQ(r.chargeFrom, ir.flat[i].chargeFrom);
                    OpSpec flat_spec = ir.flat[i].spec;
                    EXPECT_TRUE(
                        r.spec == static_cast<JitSpec>(flat_spec) ||
                        r.spec == fusedFormOf(flat_spec))
                        << fnp->name << " record " << i;
                    if (static_cast<size_t>(r.spec) <=
                        static_cast<size_t>(JitSpec::TxTile))
                        continue;
                    (dfg ? any_fused_dfg : any_fused_ftl) = true;
                    EXPECT_TRUE(fuse)
                        << fnp->name << " record " << i;
                    EXPECT_FALSE(chain.aware)
                        << fnp->name << " record " << i;
                }
            }
        }
        EXPECT_GT(dfg_records, 0u);
        EXPECT_GT(ftl_records, 0u);
        EXPECT_EQ(any_fused_dfg, fuse);
        EXPECT_EQ(any_fused_ftl, fuse);
    }
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
        if (!state || !state->ftl)
            continue;
        const JitChain &chain = *state->ftl->chain;
        bool has_tx = false;
        for (const JitInstr &r : chain.records)
            has_tx = has_tx || isTxBoundaryOp(r.op);
        EXPECT_EQ(chain.aware, has_tx) << fnp->name;
        if (!chain.aware)
            continue;
        any_aware = true;
        for (size_t i = 0; i < chain.records.size(); ++i) {
            const JitInstr &r = chain.records[i];
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
        if (!state || !state->ftl)
            continue;
        const std::vector<JitInstr> &recs = state->ftl->chain->records;
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
