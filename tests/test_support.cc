#include <gtest/gtest.h>

#include "support/counters.h"
#include "support/logging.h"
#include "support/random.h"
#include "support/statistics.h"

namespace nomap {
namespace {

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 42, "hi"), "x=42 y=hi");
    EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config %d", 7), FatalError);
    try {
        fatal("bad config %d", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad config 7");
    }
}

TEST(Counters, ClampedDeltaNeverWraps)
{
    EXPECT_EQ(clampedDelta(10, 3), 7u);
    EXPECT_EQ(clampedDelta(3, 3), 0u);
    EXPECT_EQ(clampedDelta(3, 10), 0u); // would wrap to ~2^64
}

TEST(Random, Deterministic)
{
    Xorshift64Star a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Xorshift64Star a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Random, DoubleInUnitInterval)
{
    Xorshift64Star rng(99);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, BoundedWithinBound)
{
    Xorshift64Star rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Random, ZeroSeedRemapped)
{
    Xorshift64Star rng(0);
    EXPECT_NE(rng.next(), 0u);
}

TEST(Statistics, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1, 4}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2, 8}), 4.0, 1e-12);
}

TEST(Statistics, MinMax)
{
    EXPECT_DOUBLE_EQ(minOf({3, 1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(maxOf({3, 1, 2}), 3.0);
}

TEST(Statistics, TextTableAligns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "22"});
    std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Statistics, Formatting)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPercent(0.142, 1), "14.2%");
}

} // namespace
} // namespace nomap
