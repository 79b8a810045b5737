#include <cstdlib>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "inject/fault_plan.h"
#include "support/logging.h"

namespace nomap {
namespace {

// ---- Grammar ----------------------------------------------------------

TEST(FaultPlan, ParsePrintRoundTrip)
{
    const char *cases[] = {
        "htm.abort@3",
        "htm.abort@3,check.bounds@17",
        "htm.abort.capacity@1,htm.abort.irrevocable@2,htm.sof@5",
        "htm.store@64,htm.ways@2",
        "check.bounds@1,check.overflow@2,check.type@3,"
        "check.property@4,check.other@5,check.any@6",
        "ftl.osr@2:17",
        "engine.compile@1,engine.watchdog@1000",
        "service.queuefull@2,service.cancel@7,service.retry@1",
    };
    for (const char *text : cases) {
        FaultPlan plan = FaultPlan::parse(text);
        EXPECT_EQ(plan.toString(), text);
        // parse → print → parse is a fixed point.
        EXPECT_EQ(FaultPlan::parse(plan.toString()).toString(), text);
    }
}

TEST(FaultPlan, WhitespaceIsToleratedButNotCanonical)
{
    FaultPlan plan =
        FaultPlan::parse("  htm.abort@1 ,\tcheck.any@2  ");
    EXPECT_EQ(plan.toString(), "htm.abort@1,check.any@2");
    EXPECT_EQ(plan.actions().size(), 2u);
}

TEST(FaultPlan, EmptyStringIsEmptyPlan)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse("  ").empty());
    EXPECT_EQ(FaultPlan().toString(), "");
}

TEST(FaultPlan, MalformedInputThrows)
{
    const char *bad[] = {
        "bogus@1",           // unknown site
        "htm.abort",         // missing @count
        "htm.abort@",        // empty count
        "htm.abort@x",       // non-numeric count
        "htm.abort@0",       // zero count (occurrences are 1-based)
        "htm.abort@1:",      // empty arg
        "htm.abort@1:x",     // non-numeric arg
        "htm.abort@1,",      // trailing comma
        ",htm.abort@1",      // leading comma
        "htm.abort@1,,ftl.osr@1", // empty middle spec
        "check.bounds @1",   // space inside a spec
    };
    for (const char *text : bad) {
        EXPECT_THROW(FaultPlan::parse(text), FatalError)
            << "input: \"" << text << "\"";
    }
}

TEST(FaultPlan, MisspelledSiteIsRejectedAtParseTime)
{
    // A typo'd site must fail loudly when the plan is armed, not arm
    // a spec that can never fire.
    EXPECT_THROW(FaultPlan::parse("net.acept@1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("stm.falback@1"), FatalError);
}

TEST(FaultPlan, ArgFilterOnlyAllowedWhereItCanMatch)
{
    // Only ftl.osr passes a key to FaultInjector::fire, so only it
    // may carry a ':arg' filter. Before this check, a plan like
    // "net.accept@1:7" parsed fine, armed, and silently never fired.
    EXPECT_THROW(FaultPlan::parse("net.accept@1:7"), FatalError);
    EXPECT_THROW(FaultPlan::parse("stm.fallback@1:2"), FatalError);
    EXPECT_THROW(FaultPlan::parse("check.bounds@3:1"), FatalError);
    EXPECT_THROW(
        FaultPlan::parse("htm.abort@1,service.retry@2:9"),
        FatalError);

    // ftl.osr keeps its filter, with and without companions.
    EXPECT_EQ(FaultPlan::parse("ftl.osr@1:7").toString(),
              "ftl.osr@1:7");
    EXPECT_EQ(
        FaultPlan::parse("htm.abort@1,ftl.osr@2:17").toString(),
        "htm.abort@1,ftl.osr@2:17");
}

TEST(FaultPlan, StmFallbackSiteRoundTrips)
{
    FaultPlan plan = FaultPlan::parse("stm.fallback@2");
    ASSERT_EQ(plan.actions().size(), 1u);
    EXPECT_EQ(plan.actions()[0].site, FaultSite::StmFallback);
    EXPECT_EQ(plan.actions()[0].count, 2u);
    EXPECT_EQ(plan.toString(), "stm.fallback@2");

    FaultInjector inj(plan);
    EXPECT_FALSE(inj.fire(FaultSite::StmFallback));
    EXPECT_TRUE(inj.fire(FaultSite::StmFallback));
    EXPECT_FALSE(inj.fire(FaultSite::StmFallback)); // one-shot
}

TEST(FaultPlan, EverySiteNameParses)
{
    for (size_t i = 0; i < kNumFaultSites; ++i) {
        FaultSite site = static_cast<FaultSite>(i);
        std::string spec = std::string(faultSiteName(site)) + "@7";
        FaultPlan plan = FaultPlan::parse(spec);
        ASSERT_EQ(plan.actions().size(), 1u) << spec;
        EXPECT_EQ(plan.actions()[0].site, site);
        EXPECT_EQ(plan.actions()[0].count, 7u);
        EXPECT_EQ(plan.toString(), spec);
    }
}

TEST(FaultPlan, FromEnvReadsFreshEachCall)
{
    ::unsetenv("NOMAP_FAULT_PLAN");
    EXPECT_FALSE(FaultPlan::fromEnv().has_value());
    ::setenv("NOMAP_FAULT_PLAN", "htm.abort@3,check.bounds@17", 1);
    std::optional<FaultPlan> plan = FaultPlan::fromEnv();
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->toString(), "htm.abort@3,check.bounds@17");
    ::setenv("NOMAP_FAULT_PLAN", "", 1);
    EXPECT_FALSE(FaultPlan::fromEnv().has_value());
    ::unsetenv("NOMAP_FAULT_PLAN");
}

// ---- Injector semantics -----------------------------------------------

TEST(FaultInjector, FiresExactlyAtTheNthOccurrence)
{
    FaultInjector inj(FaultPlan::parse("check.bounds@3"));
    EXPECT_FALSE(inj.fire(FaultSite::CheckBounds));
    EXPECT_FALSE(inj.fire(FaultSite::CheckBounds));
    EXPECT_TRUE(inj.fire(FaultSite::CheckBounds));
    EXPECT_FALSE(inj.fire(FaultSite::CheckBounds)); // One-shot.
    EXPECT_EQ(inj.occurrences(FaultSite::CheckBounds), 4u);
    EXPECT_EQ(inj.occurrences(FaultSite::CheckOverflow), 0u);
}

TEST(FaultInjector, UnrelatedSitesDoNotAdvanceTheAction)
{
    FaultInjector inj(FaultPlan::parse("htm.abort@2"));
    EXPECT_FALSE(inj.fire(FaultSite::HtmStore));
    EXPECT_FALSE(inj.fire(FaultSite::HtmAbortExplicit));
    EXPECT_FALSE(inj.fire(FaultSite::HtmStore));
    EXPECT_TRUE(inj.fire(FaultSite::HtmAbortExplicit));
}

TEST(FaultInjector, ArgFilteredActionsOnlyCountMatchingKeys)
{
    FaultInjector inj(FaultPlan::parse("ftl.osr@2:17"));
    EXPECT_FALSE(inj.fire(FaultSite::FtlOsr, 17)); // match #1
    EXPECT_FALSE(inj.fire(FaultSite::FtlOsr, 16)); // no match
    EXPECT_TRUE(inj.fire(FaultSite::FtlOsr, 17));  // match #2: fires
    EXPECT_FALSE(inj.fire(FaultSite::FtlOsr, 17));
    EXPECT_EQ(inj.occurrences(FaultSite::FtlOsr), 4u);
}

TEST(FaultInjector, TwoActionsOnOneSiteFireIndependently)
{
    FaultInjector inj(
        FaultPlan::parse("check.any@1,check.any@3"));
    EXPECT_TRUE(inj.fire(FaultSite::CheckAny));
    EXPECT_FALSE(inj.fire(FaultSite::CheckAny));
    EXPECT_TRUE(inj.fire(FaultSite::CheckAny));
}

TEST(FaultInjector, ValueSiteIsQueriedNotFired)
{
    FaultInjector inj(FaultPlan::parse("htm.ways@2"));
    EXPECT_EQ(inj.valueOf(FaultSite::HtmWaysSqueeze, 0), 2u);
    EXPECT_EQ(inj.valueOf(FaultSite::HtmStore, 9), 9u);
    // fire() never reports a value-site as fired.
    EXPECT_FALSE(inj.fire(FaultSite::HtmWaysSqueeze));
}

// ---- Engine integration -----------------------------------------------

const char kLoopProgram[] = R"JS(
var A = [];
for (var i = 0; i < 24; i++) A[i] = (i * 5) % 17;
function work(a) {
    var s = 0;
    for (var j = 0; j < a.length; j++) {
        a[j] = (a[j] + 1) % 23;
        s = (s + a[j]) % 997;
    }
    return s;
}
var out = 0;
for (var r = 0; r < 90; r++) out = (out + work(A)) % 100000;
result = out;
)JS";

// A check polls its kind's site and check.any on every passing
// execution, also where the first poll fires: occurrence numbering of
// one action must not depend on which other actions are armed.
TEST(FaultInjectorEngine, EveryCheckCountsItsKindAndAnyOccurrence)
{
    EngineConfig config;
    config.arch = Architecture::Base;
    FaultPlan plan = FaultPlan::parse("check.bounds@1,check.type@2");
    Engine engine(config);
    engine.armFaultPlan(&plan);
    engine.run(kLoopProgram);

    const FaultInjector &inj = *engine.faultInjector();
    uint64_t kinds = 0;
    for (FaultSite site :
         {FaultSite::CheckType, FaultSite::CheckBounds,
          FaultSite::CheckProperty, FaultSite::CheckOverflow,
          FaultSite::CheckOther})
        kinds += inj.occurrences(site);
    EXPECT_GT(inj.occurrences(FaultSite::CheckBounds), 0u);
    EXPECT_GT(inj.occurrences(FaultSite::CheckType), 1u);
    EXPECT_EQ(inj.occurrences(FaultSite::CheckAny), kinds);
}

TEST(FaultInjectorEngine, ArmedPlanWithNoMatchingSiteIsZeroOverhead)
{
    // Acceptance criterion: arming a plan whose actions never fire
    // must leave every instruction/check/cycle counter bit-identical
    // to a run with no plan at all.
    EngineConfig config;
    config.arch = Architecture::NoMap;

    Engine plain(config);
    EngineResult ref = plain.run(kLoopProgram);

    FaultPlan plan = FaultPlan::parse(
        "check.bounds@1000000000,engine.watchdog@1000000000,"
        "htm.abort@1000000000,service.cancel@1000000000");
    Engine armed(config);
    armed.armFaultPlan(&plan);
    EngineResult got = armed.run(kLoopProgram);

    EXPECT_EQ(got.resultString, ref.resultString);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(got.stats.instr[i], ref.stats.instr[i]) << i;
    for (size_t i = 0; i < 5; ++i)
        EXPECT_EQ(got.stats.checks[i], ref.stats.checks[i]) << i;
    EXPECT_EQ(got.stats.cyclesTm, ref.stats.cyclesTm);
    EXPECT_EQ(got.stats.cyclesNonTm, ref.stats.cyclesNonTm);
    EXPECT_EQ(got.stats.deopts, ref.stats.deopts);
    EXPECT_EQ(got.stats.txCommits, ref.stats.txCommits);
    EXPECT_EQ(got.stats.txAborts, ref.stats.txAborts);

    // The sites were genuinely polled, just never triggered.
    ASSERT_NE(armed.faultInjector(), nullptr);
    EXPECT_GT(armed.faultInjector()->occurrences(
                  FaultSite::CheckBounds),
              0u);
    EXPECT_GT(armed.faultInjector()->occurrences(
                  FaultSite::EngineTxWatchdog),
              0u);
    EXPECT_GT(
        armed.faultInjector()->occurrences(FaultSite::HtmAbortExplicit),
        0u);
}

TEST(FaultInjectorEngine, ArmDisarmAndReset)
{
    EngineConfig config;
    config.arch = Architecture::NoMap;
    Engine engine(config);
    EXPECT_EQ(engine.faultInjector(), nullptr);

    FaultPlan plan = FaultPlan::parse("htm.abort@1");
    engine.armFaultPlan(&plan);
    ASSERT_NE(engine.faultInjector(), nullptr);
    EngineResult faulted = engine.run(kLoopProgram);
    EXPECT_GT(faulted.stats.txAborts, 0u);

    // reset() re-arms the same plan with fresh counters.
    engine.reset();
    ASSERT_NE(engine.faultInjector(), nullptr);
    EXPECT_EQ(
        engine.faultInjector()->occurrences(FaultSite::HtmAbortExplicit),
        0u);

    engine.armFaultPlan(nullptr);
    EXPECT_EQ(engine.faultInjector(), nullptr);
    engine.reset();
    EngineResult clean = engine.run(kLoopProgram);
    EXPECT_EQ(clean.resultString, faulted.resultString);
    EXPECT_EQ(clean.stats.txAborts, 0u);
}

TEST(FaultInjectorEngine, WaysSqueezeIsMonotoneAcrossRearm)
{
    EngineConfig config;
    config.arch = Architecture::NoMap;
    Engine engine(config);
    EXPECT_EQ(engine.htm().writeWays(), 8u);

    FaultPlan narrow = FaultPlan::parse("htm.ways@2");
    engine.armFaultPlan(&narrow);
    EXPECT_EQ(engine.htm().writeWays(), 2u);

    // Regression: re-arming with a wider squeeze used to re-grow the
    // write set, because squeezeWriteWays() compared the request
    // against the ORIGINAL cache geometry instead of the current
    // associativity. Squeezes must be monotone.
    FaultPlan wide = FaultPlan::parse("htm.ways@4");
    engine.armFaultPlan(&wide);
    EXPECT_EQ(engine.htm().writeWays(), 2u);

    // Disarming does not restore ways (the squeeze models permanently
    // degraded hardware for the life of the isolate); a full reset()
    // rebuilds the VM and re-applies only the armed plan.
    engine.armFaultPlan(nullptr);
    EXPECT_EQ(engine.htm().writeWays(), 2u);
    engine.reset();
    EXPECT_EQ(engine.htm().writeWays(), 8u);
}

TEST(FaultInjectorEngine, WaysSqueezeStillExecutesCorrectly)
{
    EngineConfig config;
    config.arch = Architecture::NoMap;
    Engine plain(config);
    EngineResult ref = plain.run(kLoopProgram);

    FaultPlan plan = FaultPlan::parse("htm.ways@1");
    Engine squeezed(config);
    squeezed.armFaultPlan(&plan);
    EXPECT_EQ(squeezed.htm().writeWays(), 1u);
    EngineResult got = squeezed.run(kLoopProgram);
    // Guest-visible semantics survive the squeeze; only capacity
    // behavior may differ (this workload's footprint fits either way).
    EXPECT_EQ(got.resultString, ref.resultString);
}

TEST(FaultInjectorEngine, EnginePicksUpEnvPlanAtConstruction)
{
    ::setenv("NOMAP_FAULT_PLAN", "htm.abort@1", 1);
    EngineConfig config;
    config.arch = Architecture::NoMap;
    Engine engine(config);
    ::unsetenv("NOMAP_FAULT_PLAN");

    ASSERT_NE(engine.faultInjector(), nullptr);
    EngineResult r = engine.run(kLoopProgram);
    EXPECT_GT(r.stats.txAborts, 0u);

    // armFaultPlan(nullptr) disarms even the env-provided plan.
    engine.armFaultPlan(nullptr);
    EXPECT_EQ(engine.faultInjector(), nullptr);
}

} // namespace
} // namespace nomap
