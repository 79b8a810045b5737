#include <gtest/gtest.h>

#include "engine/engine.h"
#include "ftl/compile.h"
#include "js/parser.h"
#include "passes/analysis.h"
#include "passes/passes.h"

namespace nomap {
namespace {

/**
 * Pass tests drive the real pipeline through an Engine (to get
 * genuine profiles) and assert on the PassStats and resulting IR
 * shape per architecture.
 */
class PassTest : public ::testing::Test
{
  protected:
    /** Run src, then return the state of function @p name. */
    const FunctionState *
    trainAndGet(Architecture arch, const std::string &src,
                const std::string &name)
    {
        engine = std::make_unique<Engine>([&] {
            EngineConfig config;
            config.arch = arch;
            return config;
        }());
        engine->run(src);
        return engine->functionState(name);
    }

    static uint32_t
    countOps(const IrFunction &ir, IrOp op)
    {
        uint32_t n = 0;
        for (const IrBlock &block : ir.blocks) {
            for (const IrInstr &instr : block.instrs)
                n += instr.op == op;
        }
        return n;
    }

    std::unique_ptr<Engine> engine;
};

const char *kSumLoop = R"JS(
function sumInto(obj) {
    var len = obj.values.length;
    for (var idx = 0; idx < len; idx++) {
        var value = obj.values[idx];
        obj.sum += value;
    }
    return obj.sum;
}
var o = {values: [], sum: 0};
for (var i = 0; i < 200; i++) o.values[i] = i % 7;
var total = 0;
for (var r = 0; r < 120; r++) { o.sum = 0; total = sumInto(o); }
result = total;
)JS";

TEST_F(PassTest, BaseKeepsSmpsAndStoresInLoop)
{
    const FunctionState *state =
        trainAndGet(Architecture::Base, kSumLoop, "sumInto");
    ASSERT_NE(state, nullptr);
    ASSERT_NE(state->ftl, nullptr);
    const IrFunction &ir = state->ftl->ir;
    EXPECT_FALSE(ir.txAware);
    EXPECT_EQ(countOps(ir, IrOp::TxBegin), 0u);
    // Un-converted checks everywhere.
    uint32_t unconverted = 0;
    for (const IrBlock &block : ir.blocks) {
        for (const IrInstr &instr : block.instrs)
            unconverted += instr.isCheck() && !instr.converted;
    }
    EXPECT_GT(unconverted, 3u);
    // The accumulator store stays inside the loop: no store sinking.
    EXPECT_EQ(state->ftl->passStats.storesSunk, 0u);
}

TEST_F(PassTest, NoMapSConvertsAndPromotes)
{
    const FunctionState *state =
        trainAndGet(Architecture::NoMapS, kSumLoop, "sumInto");
    ASSERT_NE(state, nullptr);
    ASSERT_NE(state->ftl, nullptr);
    const IrFunction &ir = state->ftl->ir;
    EXPECT_TRUE(ir.txAware);
    EXPECT_EQ(countOps(ir, IrOp::TxBegin), 1u);
    EXPECT_GE(countOps(ir, IrOp::TxEnd), 1u);
    EXPECT_GT(state->ftl->planResult.checksConverted, 0u);
    // Figure 4(d): obj.sum promoted to a register, stored at exit.
    EXPECT_EQ(state->ftl->passStats.storesSunk, 1u);
    EXPECT_GE(state->ftl->passStats.loadsPromoted, 1u);
    // Invariant shape check hoisted out of the loop.
    EXPECT_GE(state->ftl->passStats.opsHoisted, 1u);
}

TEST_F(PassTest, NoMapBCombinesBoundsChecks)
{
    const FunctionState *state =
        trainAndGet(Architecture::NoMapB, kSumLoop, "sumInto");
    ASSERT_NE(state->ftl, nullptr);
    EXPECT_GE(state->ftl->passStats.boundsChecksCombined, 1u);
    EXPECT_EQ(countOps(state->ftl->ir, IrOp::CheckBounds), 0u);
    EXPECT_GE(countOps(state->ftl->ir, IrOp::CheckBoundsRange), 1u);
}

TEST_F(PassTest, FullNoMapElidesOverflowChecks)
{
    const FunctionState *state =
        trainAndGet(Architecture::NoMap, kSumLoop, "sumInto");
    ASSERT_NE(state->ftl, nullptr);
    EXPECT_GE(state->ftl->passStats.overflowChecksRemoved, 1u);
    // Only un-converted overflow checks (outside transactions) may
    // remain.
    for (const IrBlock &block : state->ftl->ir.blocks) {
        for (const IrInstr &instr : block.instrs) {
            if (instr.op == IrOp::CheckOverflow) {
                EXPECT_FALSE(instr.converted);
            }
        }
    }
}

TEST_F(PassTest, RtmKeepsOverflowChecks)
{
    // x86 has no SOF: NoMap_RTM runs the NoMap_B pipeline.
    const FunctionState *state =
        trainAndGet(Architecture::NoMapRTM, kSumLoop, "sumInto");
    ASSERT_NE(state->ftl, nullptr);
    EXPECT_EQ(state->ftl->passStats.overflowChecksRemoved, 0u);
    EXPECT_GT(countOps(state->ftl->ir, IrOp::CheckOverflow), 0u);
}

TEST_F(PassTest, BcRemovesEverything)
{
    const FunctionState *state =
        trainAndGet(Architecture::NoMapBC, kSumLoop, "sumInto");
    ASSERT_NE(state->ftl, nullptr);
    for (const IrBlock &block : state->ftl->ir.blocks) {
        for (const IrInstr &instr : block.instrs) {
            EXPECT_FALSE(instr.isCheck() && instr.converted);
        }
    }
    EXPECT_GT(state->ftl->passStats.checksRemovedUnsafe, 0u);
}

TEST_F(PassTest, DfgRunsOnlyLightPasses)
{
    EngineConfig config;
    config.arch = Architecture::NoMap;
    config.maxTier = Tier::Dfg;
    engine = std::make_unique<Engine>(config);
    engine->run(kSumLoop);
    const FunctionState *state = engine->functionState("sumInto");
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->tier, Tier::Dfg);
    ASSERT_NE(state->dfg, nullptr);
    // DFG never gets transactions, even under NoMap configs.
    EXPECT_FALSE(state->dfg->ir.txAware);
    EXPECT_EQ(state->dfg->passStats.storesSunk, 0u);
}

TEST_F(PassTest, KindInferenceRemovesProvableChecks)
{
    // idx is proven int32 by the overflow-checked increment: the
    // compare's CheckInt32 disappears even in Base.
    const FunctionState *state =
        trainAndGet(Architecture::Base, kSumLoop, "sumInto");
    ASSERT_NE(state->ftl, nullptr);
    EXPECT_GT(state->ftl->passStats.checksRemovedByKinds, 0u);
}

const char *kDecreasing = R"JS(
function sumDown(arr) {
    var acc = 0;
    for (var i = arr.length - 1; i >= 0; i--) {
        acc += arr[i];
    }
    return acc;
}
var data = [];
for (var i = 0; i < 128; i++) data[i] = i & 3;
var out = 0;
for (var r = 0; r < 120; r++) out = sumDown(data);
result = out;
)JS";

TEST_F(PassTest, DecreasingInductionAlsoCombines)
{
    const FunctionState *state =
        trainAndGet(Architecture::NoMapB, kDecreasing, "sumDown");
    ASSERT_NE(state->ftl, nullptr);
    EXPECT_GE(state->ftl->passStats.boundsChecksCombined, 1u);
}

const char *kEarlyExit = R"JS(
function findFirst(arr, needle) {
    for (var i = 0; i < arr.length; i++) {
        if (arr[i] == needle) break;
    }
    return i;
}
var data = [];
for (var i = 0; i < 128; i++) data[i] = i;
var out = 0;
for (var r = 0; r < 120; r++) out = findFirst(data, 100);
result = out;
)JS";

TEST_F(PassTest, EarlyExitLoopDoesNotCombine)
{
    // Conservative condition: combining requires a single header
    // exit; the break adds a second one.
    const FunctionState *state =
        trainAndGet(Architecture::NoMapB, kEarlyExit, "findFirst");
    ASSERT_NE(state->ftl, nullptr);
    EXPECT_EQ(state->ftl->passStats.boundsChecksCombined, 0u);
    // Still correct, of course.
}

const char *kDeadLoop = R"JS(
function spin(n) {
    var junk = 0;
    for (var i = 0; i < n; i++) junk += i * 3;
    return 0;
}
var z = 0;
for (var r = 0; r < 120; r++) z += spin(500);
result = z;
)JS";

TEST_F(PassTest, DeadAccumulatorLoopVanishesInTx)
{
    const FunctionState *state =
        trainAndGet(Architecture::NoMap, kDeadLoop, "spin");
    ASSERT_NE(state->ftl, nullptr);
    EXPECT_GT(state->ftl->passStats.deadOpsRemoved, 0u);
    EXPECT_GE(state->ftl->passStats.emptyLoopsRemoved, 1u);
}

TEST_F(PassTest, DeadAccumulatorLoopSurvivesInBase)
{
    // SMP liveness pins the accumulator in Base compilation.
    const FunctionState *state =
        trainAndGet(Architecture::Base, kDeadLoop, "spin");
    ASSERT_NE(state->ftl, nullptr);
    EXPECT_EQ(state->ftl->passStats.emptyLoopsRemoved, 0u);
    EXPECT_GT(countOps(state->ftl->ir, IrOp::AddInt), 0u);
}

TEST_F(PassTest, AnalysisFindsLoopsAndDominators)
{
    const FunctionState *state =
        trainAndGet(Architecture::Base, kSumLoop, "sumInto");
    ASSERT_NE(state->ftl, nullptr);
    const IrFunction &ir = state->ftl->ir;
    AnalysisContext analyses(ir);
    const std::vector<uint32_t> &idom = analyses.idoms();
    const std::vector<NaturalLoop> &loops = analyses.loops();
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_FALSE(loops[0].blocks.empty());
    EXPECT_EQ(loops[0].exitingBlocks.size(), 1u);
    // Entry dominates everything reachable.
    for (uint32_t b = 0; b < ir.blocks.size(); ++b) {
        if (idom[b] != UINT32_MAX) {
            EXPECT_TRUE(dominates(idom, 0, b));
        }
    }
}

} // namespace
} // namespace nomap
