/**
 * @file
 * Differential test for the batched (per-basic-block) accounting fast
 * path: for every suite program and every architecture, an Engine run
 * with default batched charging must produce ExecutionStats
 * bit-identical to the per-operation reference mode
 * (EngineConfig::perOpAccounting). This is the invariant that lets
 * the executors charge a block's static cost in one call.
 */

#include <gtest/gtest.h>

#include "bytecode/compiler.h"
#include "bytecode/opcode.h"
#include "engine/engine.h"
#include "inject/fault_plan.h"
#include "suites/suite.h"
#include "trace/trace.h"

namespace nomap {
namespace {

ExecutionStats
runStats(const std::string &source, Architecture arch, bool per_op,
         bool jit)
{
    EngineConfig config;
    config.arch = arch;
    config.perOpAccounting = per_op;
    config.jitTier = jit;
    Engine engine(config);
    return engine.run(source).stats;
}

void
expectBitIdentical(const ExecutionStats &batched,
                   const ExecutionStats &per_op)
{
    for (size_t b = 0;
         b < static_cast<size_t>(InstrBucket::NumBuckets); ++b) {
        EXPECT_EQ(batched.instr[b], per_op.instr[b])
            << "instr bucket " << b;
    }
    for (size_t k = 0; k < static_cast<size_t>(CheckKind::NumKinds);
         ++k) {
        EXPECT_EQ(batched.checks[k], per_op.checks[k])
            << "check kind " << checkKindName(static_cast<CheckKind>(k));
    }
    // Exact equality on the doubles, not near-equality: instruction
    // cycles accumulate as integer units and meet floating point in
    // one flush, so the two modes must agree bit for bit.
    EXPECT_EQ(batched.cyclesTm, per_op.cyclesTm);
    EXPECT_EQ(batched.cyclesNonTm, per_op.cyclesNonTm);
    EXPECT_EQ(batched.ftlFunctionCalls, per_op.ftlFunctionCalls);
    EXPECT_EQ(batched.deopts, per_op.deopts);
    EXPECT_EQ(batched.baselineCompiles, per_op.baselineCompiles);
    EXPECT_EQ(batched.dfgCompiles, per_op.dfgCompiles);
    EXPECT_EQ(batched.ftlCompiles, per_op.ftlCompiles);
    EXPECT_EQ(batched.ftlRecompiles, per_op.ftlRecompiles);
    EXPECT_EQ(batched.txCommits, per_op.txCommits);
    EXPECT_EQ(batched.txAborts, per_op.txAborts);
    EXPECT_EQ(batched.txAbortsCapacity, per_op.txAbortsCapacity);
    EXPECT_EQ(batched.txAbortsCheck, per_op.txAbortsCheck);
    EXPECT_EQ(batched.txAbortsSof, per_op.txAbortsSof);
    EXPECT_EQ(batched.avgWriteFootprintBytes,
              per_op.avgWriteFootprintBytes);
    EXPECT_EQ(batched.maxWriteFootprintBytes,
              per_op.maxWriteFootprintBytes);
    EXPECT_EQ(batched.maxWriteWaysUsed, per_op.maxWriteWaysUsed);
}

void
compareSuite(const std::vector<BenchmarkSpec> &suite, Architecture arch,
             bool jit)
{
    for (const BenchmarkSpec &spec : suite) {
        SCOPED_TRACE(spec.id + " on " + architectureName(arch) +
                     (jit ? " (jit tier)" : ""));
        expectBitIdentical(runStats(spec.source, arch, false, jit),
                           runStats(spec.source, arch, true, jit));
    }
}

class AccountingDiff : public ::testing::TestWithParam<Architecture>
{
};

TEST_P(AccountingDiff, SunSpiderStatsMatchPerOpReference)
{
    compareSuite(sunspiderSuite(), GetParam(), false);
}

TEST_P(AccountingDiff, KrakenStatsMatchPerOpReference)
{
    compareSuite(krakenSuite(), GetParam(), false);
}

// The same differential with superinstruction fusion on: the
// per-component charges inside fused templates run nowhere else.
TEST_P(AccountingDiff, SunSpiderJitStatsMatchPerOpReference)
{
    compareSuite(sunspiderSuite(), GetParam(), true);
}

TEST_P(AccountingDiff, KrakenJitStatsMatchPerOpReference)
{
    compareSuite(krakenSuite(), GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, AccountingDiff,
    ::testing::Values(Architecture::Base, Architecture::NoMapS,
                      Architecture::NoMapB, Architecture::NoMap,
                      Architecture::NoMapBC, Architecture::NoMapRTM),
    [](const ::testing::TestParamInfo<Architecture> &info) {
        return std::string(architectureName(info.param));
    });

// Quickening interacts with the charge plan: in-place rewrites and
// superinstruction fusion happen AFTER computeChargePlan ran at
// compile time, so batched-segment refunds on deopt/abort stay an
// exact inverse only if the plan is invariant under the rewrites
// (computeChargePlan classifies ops through genericOpcodeOf). Verify
// by recomputing the plan from live, quickened+fused code and
// comparing it to the stored plan.
TEST(AccountingChargePlan, InvariantUnderQuickening)
{
    EngineConfig config;
    config.arch = Architecture::NoMap;
    Engine engine(config);
    engine.run(sunspiderSuite()[0].source);
    const CompiledProgram *prog = engine.program();
    ASSERT_NE(prog, nullptr);
    bool any_quickened = false;
    for (const auto &fnp : prog->functions) {
        const BytecodeFunction &fn = *fnp;
        SCOPED_TRACE(fn.name);
        for (const BytecodeInstr &instr : fn.code)
            any_quickened = any_quickened || isQuickened(instr.op);
        BytecodeFunction copy = fn;
        copy.computeChargePlan();
        EXPECT_EQ(copy.runLen, fn.runLen);
        EXPECT_EQ(copy.runExtra, fn.runExtra);
    }
    // Guard against vacuity: the run above must actually have
    // rewritten something.
    EXPECT_TRUE(any_quickened);
}

// Region entry audit for the DFG/FTL chains: the executor's
// jit_seg_entry charges chargeFrom[t] when control enters flat index
// t via a Jump/Branch. That is only exact if every such target
// *begins* a charge segment — otherwise the suffix [t..end] would be
// charged on top of a segment already charged in full at its head.
// computeChargePlan guarantees this by ending segments at block ends,
// and blocks end before every target; the observable consequence is
// that the record preceding any target closes its segment (its
// chargeFrom is exactly its own cost). Audit that invariant over every
// FTL flat stream the suites compile, including streams whose
// bytecode was quickened into superinstructions before tier-up.
TEST(AccountingChargePlan, FlatJumpTargetsBeginSegments)
{
    size_t targets_audited = 0;
    for (const BenchmarkSpec &spec : sunspiderSuite()) {
        EngineConfig config;
        config.arch = Architecture::NoMap;
        Engine engine(config);
        engine.run(spec.source);
        const CompiledProgram *prog = engine.program();
        ASSERT_NE(prog, nullptr);
        for (const auto &fnp : prog->functions) {
            const IrFunction *ir = engine.ftlIr(fnp->name);
            if (!ir || ir->flat.empty())
                continue;
            SCOPED_TRACE(spec.id + ":" + fnp->name);
            std::vector<bool> target(ir->flat.size(), false);
            for (const ExecInstr &e : ir->flat) {
                if (e.op == IrOp::Jump) {
                    target[e.imm] = true;
                } else if (e.op == IrOp::Branch) {
                    target[e.imm] = true;
                    target[e.imm2] = true;
                }
            }
            for (size_t t = 1; t < ir->flat.size(); ++t) {
                if (!target[t])
                    continue;
                ++targets_audited;
                const ExecInstr &prev = ir->flat[t - 1];
                EXPECT_EQ(prev.chargeFrom, prev.ownScaled)
                    << "flat " << t - 1
                    << " does not close its segment before the jump "
                       "target at "
                    << t;
            }
        }
    }
    EXPECT_GT(targets_audited, 0u);
}

// OSR exits leave the FTL/JIT region mid-block: the check refunds the
// charged-but-unexecuted suffix of its segment (an exact inverse) and
// Baseline re-enters at the deopt SMP, charging its own plan from
// that mid-block pc — on bytecode that quickening may have rewritten
// into superinstructions after the plan was computed. If either side
// of that handoff were off by even one unit, batched and per-op
// accounting would disagree. Force deopts at such mid-block entry
// points with occurrence-counted check faults and require bit
// identity, on every architecture, with fusion off and on, and with
// tracing off and on. Traced runs must also emit the same events,
// field for field except the vcycles timestamp: batched accounting
// charges a whole segment on entry, so a clock read mid-segment
// already includes the segment's unexecuted suffix.
TEST(AccountingChargePlan, OsrMidBlockRefundsExactly)
{
    const Architecture archs[] = {
        Architecture::Base,   Architecture::NoMapS,
        Architecture::NoMapB, Architecture::NoMap,
        Architecture::NoMapBC, Architecture::NoMapRTM};
    const char *plans[] = {"check.any@3", "check.bounds@5"};
    uint64_t total_deopts = 0;
    uint64_t jit_deopts = 0;
    uint64_t traced_deopts = 0;
    for (const char *text : plans) {
        FaultPlan plan = FaultPlan::parse(text);
        for (Architecture arch : archs) {
            for (const BenchmarkSpec &spec :
                 {sunspiderSuite()[0], sunspiderSuite()[1]}) {
                for (int mode = 0; mode < 4; ++mode) {
                    bool jit = (mode & 1) != 0;
                    uint32_t trace_capacity = mode & 2 ? 1u << 16 : 0;
                    SCOPED_TRACE(spec.id + " on " +
                                 architectureName(arch) + " under " +
                                 text + (jit ? " (fused)" : "") +
                                 (trace_capacity ? " (traced)" : ""));
                    ExecutionStats stats[2];
                    std::vector<TraceEvent> events[2];
                    for (int per_op = 0; per_op < 2; ++per_op) {
                        EngineConfig config;
                        config.arch = arch;
                        config.perOpAccounting = per_op != 0;
                        config.jitTier = jit;
                        config.traceCapacity = trace_capacity;
                        Engine engine(config);
                        engine.armFaultPlan(&plan);
                        stats[per_op] = engine.run(spec.source).stats;
                        if (engine.trace()) {
                            EXPECT_EQ(engine.trace()->dropped(), 0u);
                            events[per_op] = engine.trace()->events();
                        }
                    }
                    expectBitIdentical(stats[0], stats[1]);
                    ASSERT_EQ(events[0].size(), events[1].size());
                    for (size_t i = 0; i < events[0].size(); ++i) {
                        TraceEvent batched = events[0][i];
                        TraceEvent per_op = events[1][i];
                        batched.vcycles = per_op.vcycles = 0;
                        EXPECT_TRUE(batched == per_op)
                            << "trace event " << i << " differs";
                        if (batched.type == TraceEventType::Deopt)
                            ++traced_deopts;
                    }
                    total_deopts += stats[0].deopts;
                    if (jit)
                        jit_deopts += stats[0].deopts;
                }
            }
        }
    }
    // Vacuity guard: the plans really did force OSR exits somewhere
    // in the sweep (unconverted checks deopt to their SMP), also with
    // fusion on, and traced runs recorded them.
    EXPECT_GT(total_deopts, 0u);
    EXPECT_GT(jit_deopts, 0u);
    EXPECT_GT(traced_deopts, 0u);
}

// Plan revisions land at FTL-call boundaries, where batched
// accounting may hold pending, not-yet-flushed instruction units; a
// revision (recompile) must neither drop nor double-charge them, and
// the abort-side refunds around the storm stay an exact inverse. The
// recursive storm also pins the activeRuns/pendingRecompile contract:
// a revision decided while an outer activation of the same function
// is still executing its (old) FTL code must be deferred to the
// outermost return — applying it immediately would free IR mid-run
// (ASan config catches the use-after-free this test was built
// against).
TEST(AccountingRevisionBoundary, AdaptiveReplanIsExactlyAccounted)
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

    // Unfaulted Base reference for the semantics check.
    EngineConfig base;
    base.arch = Architecture::Base;
    Engine ref(base);
    const std::string want = ref.run(src).resultString;

    FaultPlan squeeze = FaultPlan::parse("htm.ways@1");
    for (bool adaptive : {false, true}) {
        SCOPED_TRACE(adaptive ? "adaptive replanning"
                              : "static escalation");
        ExecutionStats stats[2];
        for (int per_op = 0; per_op < 2; ++per_op) {
            EngineConfig config;
            config.arch = Architecture::NoMap;
            config.adaptive = adaptive;
            config.perOpAccounting = per_op != 0;
            // Tier up fast so most storm calls run FTL transactions.
            config.baselineThreshold = 2;
            config.dfgThreshold = 4;
            config.ftlThreshold = 8;
            Engine engine(config);
            engine.armFaultPlan(&squeeze);
            EngineResult r = engine.run(src);
            EXPECT_EQ(r.resultString, want);
            stats[per_op] = r.stats;

            // Vacuity guards: the storm really did force mid-run
            // replanning (with the recursion live), and no deferred
            // recompile is left owing at the end.
            EXPECT_GE(r.stats.txAborts, 2u);
            EXPECT_GE(r.stats.ftlRecompiles, 1u);
            if (adaptive) {
                ASSERT_NE(engine.adaptive(), nullptr);
                EXPECT_GE(engine.adaptive()->revisionsDecided(), 1u);
            }
            const FunctionState *state =
                engine.functionState("storm");
            ASSERT_NE(state, nullptr);
            EXPECT_FALSE(state->pendingRecompile);
        }
        expectBitIdentical(stats[0], stats[1]);
    }
}

} // namespace
} // namespace nomap
