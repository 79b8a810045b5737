#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "htm/capacity_model.h"
#include "htm/transaction.h"
#include "memsim/cache.h"
#include "memsim/footprint.h"
#include "support/random.h"
#include "vm/heap.h"

namespace nomap {
namespace {

/**
 * Property-based sweeps: hardware models are replayed against slow
 * reference implementations under randomized operation streams, and
 * the heap undo log is checked to restore arbitrary mutation
 * sequences exactly.
 */

// ---- Cache vs. reference LRU model ------------------------------------

struct CacheParams {
    uint32_t sizeBytes;
    uint32_t ways;
    uint64_t seed;
};

class CacheProperty : public ::testing::TestWithParam<CacheParams>
{
};

/** Slow, obviously-correct set-associative LRU reference. */
class ReferenceCache
{
  public:
    ReferenceCache(uint32_t size_bytes, uint32_t ways)
        : ways(ways), numSets(size_bytes / (kLineSize * ways)),
          sets(numSets)
    {
    }

    bool
    access(Addr addr)
    {
        uint64_t line = addr / kLineSize;
        auto &set = sets[line & (numSets - 1)];
        ++clock;
        auto it = set.find(line);
        if (it != set.end()) {
            it->second = clock;
            return true;
        }
        if (set.size() >= ways) {
            auto victim = set.begin();
            for (auto jt = set.begin(); jt != set.end(); ++jt) {
                if (jt->second < victim->second)
                    victim = jt;
            }
            set.erase(victim);
        }
        set[line] = clock;
        return false;
    }

  private:
    uint32_t ways;
    uint32_t numSets;
    std::vector<std::map<uint64_t, uint64_t>> sets;
    uint64_t clock = 0;
};

TEST_P(CacheProperty, MatchesReferenceLru)
{
    const CacheParams &p = GetParam();
    Cache cache(p.sizeBytes, p.ways);
    ReferenceCache ref(p.sizeBytes, p.ways);
    Xorshift64Star rng(p.seed);

    // Mixture of hot lines and cold sweeps.
    for (int i = 0; i < 20000; ++i) {
        Addr addr;
        if (rng.nextBounded(4) == 0)
            addr = rng.nextBounded(64) * kLineSize; // Hot region.
        else
            addr = rng.nextBounded(1 << 16) * kLineSize;
        bool expect_hit = ref.access(addr);
        CacheResult got = cache.access(addr, rng.nextBounded(2) == 0);
        EXPECT_EQ(expect_hit, got == CacheResult::Hit)
            << "op " << i << " addr " << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(CacheParams{1024, 1, 11},
                      CacheParams{2048, 2, 12},
                      CacheParams{4096, 4, 13},
                      CacheParams{32 * 1024, 8, 14},
                      CacheParams{256 * 1024, 8, 15},
                      CacheParams{4096, 16, 16}));

// ---- Footprint tracker vs. reference set -------------------------------

class FootprintProperty : public ::testing::TestWithParam<CacheParams>
{
};

TEST_P(FootprintProperty, MatchesReferenceSets)
{
    const CacheParams &p = GetParam();
    FootprintTracker tracker(p.sizeBytes, p.ways);
    uint32_t num_sets = p.sizeBytes / (kLineSize * p.ways);
    std::vector<std::set<uint64_t>> ref(num_sets);
    Xorshift64Star rng(p.seed);

    std::set<uint64_t> all;
    bool overflowed = false;
    for (int i = 0; i < 5000 && !overflowed; ++i) {
        Addr addr = rng.nextBounded(1 << 14) * kLineSize;
        uint64_t line = addr / kLineSize;
        auto &set = ref[line & (num_sets - 1)];
        bool fits = set.count(line) || set.size() < p.ways;
        bool got = tracker.insert(addr);
        ASSERT_EQ(fits, got) << "op " << i;
        if (!fits) {
            overflowed = true;
            break;
        }
        set.insert(line);
        all.insert(line);
        ASSERT_EQ(tracker.lineCount(), all.size());
        ASSERT_TRUE(tracker.contains(addr));
    }
    // Max ways consistency.
    size_t max_ways = 0;
    for (const auto &set : ref)
        max_ways = std::max(max_ways, set.size());
    EXPECT_EQ(tracker.maxWaysUsed(), max_ways);
}

/**
 * Reference footprint: distinct lines per set under a per-set bound
 * (ways == 0: unbounded). One set models a fully associative buffer.
 */
class ReferenceFootprint
{
  public:
    void
    reset(uint32_t num_sets, uint32_t ways_)
    {
        ways = ways_;
        sets.assign(num_sets, {});
        lines = 0;
    }

    void
    clear()
    {
        reset(static_cast<uint32_t>(sets.size()), ways);
    }

    bool
    insert(uint64_t line)
    {
        auto &set = sets[line % sets.size()];
        if (set.count(line))
            return true;
        if (ways != 0 && set.size() >= ways)
            return false;
        set.insert(line);
        ++lines;
        return true;
    }

    bool
    contains(uint64_t line) const
    {
        return sets[line % sets.size()].count(line) != 0;
    }

    size_t lineCount() const { return lines; }

    size_t
    maxWays() const
    {
        size_t max_ways = 0;
        for (const auto &set : sets)
            max_ways = std::max(max_ways, set.size());
        return max_ways;
    }

  private:
    uint32_t ways = 0;
    std::vector<std::set<uint64_t>> sets;
    size_t lines = 0;
};

/**
 * Drive @p insert through many transactions: a random-sized burst of
 * lines, a clear, then the same burst again (a line a clear left
 * behind would now count as already present) and a fresh burst.
 * @p check compares the model against the reference after every
 * insert and after every clear; @p between runs after each clear.
 */
template <typename Insert, typename Clear, typename Check,
          typename Between>
void
runTransactions(uint64_t seed, ReferenceFootprint &ref, Insert insert,
                Clear clear, Check check, Between between)
{
    Xorshift64Star rng(seed);
    std::vector<Addr> burst;
    for (int tx = 0; tx < 60; ++tx) {
        bool replay = tx % 2 == 1;
        if (!replay) {
            burst.clear();
            size_t size = 1 + rng.nextBounded(700);
            for (size_t i = 0; i < size; ++i)
                burst.push_back(rng.nextBounded(1 << 14) * kLineSize);
        }
        for (size_t i = 0; i < burst.size(); ++i) {
            bool fits = ref.insert(burst[i] / kLineSize);
            ASSERT_EQ(insert(burst[i]), fits)
                << "tx " << tx << " insert " << i;
            if (!fits)
                break; // Contents are unspecified until clear().
            check(tx);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        std::vector<Addr> held;
        for (Addr addr : burst) {
            if (ref.contains(addr / kLineSize))
                held.push_back(addr);
        }
        clear();
        ref.clear();
        check(tx);
        between(tx, held);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST_P(FootprintProperty, ClearMatchesReferenceAcrossTransactions)
{
    const CacheParams &p = GetParam();
    FootprintTracker tracker(p.sizeBytes, p.ways);
    ReferenceFootprint ref;
    ref.reset(p.sizeBytes / (kLineSize * p.ways), p.ways);
    runTransactions(
        p.seed, ref,
        [&](Addr addr) {
            bool fits = tracker.insert(addr);
            EXPECT_TRUE(!fits || tracker.contains(addr));
            return fits;
        },
        [&] { tracker.clear(); },
        [&](int tx) {
            ASSERT_EQ(tracker.lineCount(), ref.lineCount()) << "tx " << tx;
            ASSERT_EQ(tracker.footprintBytes(),
                      ref.lineCount() * kLineSize);
            ASSERT_EQ(tracker.maxWaysUsed(), ref.maxWays()) << "tx " << tx;
        },
        [&](int tx, const std::vector<Addr> &held) {
            // Nothing the last transaction held survives its clear.
            for (Addr addr : held)
                ASSERT_FALSE(tracker.contains(addr)) << "tx " << tx;
        });
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FootprintProperty,
    ::testing::Values(CacheParams{1024, 2, 21},
                      CacheParams{8192, 4, 22},
                      CacheParams{32 * 1024, 8, 23},
                      CacheParams{256 * 1024, 8, 24}));

// ---- Capacity models vs. reference sets --------------------------------

// CTest names each case after the raw bytes of its parameter, so the
// struct has no padding: `reserved` fills the two bytes the compiler
// would otherwise leave indeterminate, and is always 0.
struct CapacityModelParams {
    CapacityModelKind kind;
    bool readSet;
    uint16_t reserved;
    uint32_t capacityBytes;
    uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<CapacityModelParams>,
              "CapacityModelParams must have no padding bytes");

class CapacityModelProperty
    : public ::testing::TestWithParam<CapacityModelParams>
{
};

/** The reference shape of @p model under its current squeeze. */
void
resetReferenceTo(ReferenceFootprint &ref, const CapacityModel &model,
                 bool read_set)
{
    uint32_t lines = static_cast<uint32_t>(model.capacityBytes() /
                                           kLineSize);
    if (model.kind() == CapacityModelKind::WaysAssoc)
        ref.reset(lines / model.numWays(), model.numWays());
    else if (!read_set)
        ref.reset(1, lines); // Fully associative write buffer.
    else
        ref.reset(1, 0); // Bloom signature: never overflows.
}

TEST_P(CapacityModelProperty, ClearMatchesReferenceAcrossTransactions)
{
    const CapacityModelParams &p = GetParam();
    std::unique_ptr<CapacityModel> model =
        p.readSet ? makeReadCapacityModel(p.kind, p.capacityBytes, 8)
                  : makeWriteCapacityModel(p.kind, p.capacityBytes, 8);
    bool bloom = p.readSet && p.kind == CapacityModelKind::LimitedSet;
    ReferenceFootprint ref;
    resetReferenceTo(ref, *model, p.readSet);
    runTransactions(
        p.seed, ref, [&](Addr addr) { return model->insert(addr); },
        [&] { model->clear(); },
        [&](int tx) {
            ASSERT_EQ(model->lineCount(), ref.lineCount()) << "tx " << tx;
            ASSERT_EQ(model->footprintBytes(),
                      ref.lineCount() * kLineSize);
            ASSERT_EQ(model->maxWaysUsed(), bloom ? 0 : ref.maxWays())
                << "tx " << tx;
        },
        [&](int tx, const std::vector<Addr> &) {
            if (tx != 30)
                return;
            // One squeeze, between transactions as the manager does.
            uint64_t before = model->capacityBytes();
            model->squeezeWays(4);
            EXPECT_LE(model->capacityBytes(), before);
            resetReferenceTo(ref, *model, p.readSet);
        });
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CapacityModelProperty,
    ::testing::Values(
        CapacityModelParams{CapacityModelKind::WaysAssoc, false, 0,
                            256 * 1024, 31},
        CapacityModelParams{CapacityModelKind::WaysAssoc, false, 0,
                            32 * 1024, 32},
        CapacityModelParams{CapacityModelKind::WaysAssoc, true, 0,
                            256 * 1024, 33},
        CapacityModelParams{CapacityModelKind::LimitedSet, false, 0,
                            256 * 1024, 34},
        CapacityModelParams{CapacityModelKind::LimitedSet, false, 0,
                            32 * 1024, 35},
        CapacityModelParams{CapacityModelKind::LimitedSet, true, 0,
                            256 * 1024, 36}));

// ---- Heap undo log under random mutation streams ------------------------

class UndoProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(UndoProperty, RollbackRestoresExactState)
{
    ShapeTable shapes;
    StringTable strings;
    Heap heap(shapes, strings);
    TransactionManager tm(HtmMode::Rot);
    tm.setRollbackClient(&heap);
    heap.setTransactionManager(&tm);
    Xorshift64Star rng(GetParam());

    // Build initial state.
    std::vector<uint32_t> objs, arrs;
    std::vector<uint32_t> names;
    for (int i = 0; i < 4; ++i) {
        names.push_back(
            strings.intern("p" + std::to_string(i)));
    }
    for (int i = 0; i < 4; ++i) {
        objs.push_back(heap.allocObject().payload());
        arrs.push_back(heap.allocArray(
                               8 + static_cast<uint32_t>(
                                       rng.nextBounded(24)))
                           .payload());
    }
    std::vector<uint32_t> globals;
    for (int i = 0; i < 4; ++i) {
        globals.push_back(
            heap.globalIndex("g" + std::to_string(i)));
    }
    // Pre-transaction mutations (must survive rollback).
    for (int i = 0; i < 40; ++i) {
        heap.setProperty(objs[rng.nextBounded(4)],
                         names[rng.nextBounded(4)],
                         Value::int32(static_cast<int>(i)));
        heap.setElement(arrs[rng.nextBounded(4)],
                        static_cast<int64_t>(rng.nextBounded(16)),
                        Value::int32(static_cast<int>(i * 3)));
        heap.setGlobal(globals[rng.nextBounded(4)],
                       Value::int32(static_cast<int>(i * 7)));
    }

    // Snapshot the observable state.
    auto observe = [&] {
        std::string out;
        for (uint32_t obj : objs) {
            for (uint32_t name : names) {
                out += heap.valueToDisplayString(
                           heap.getProperty(obj, name)) +
                       ";";
            }
        }
        for (uint32_t arr : arrs) {
            out += std::to_string(heap.array(arr).length()) + ":";
            for (uint32_t i = 0; i < heap.array(arr).length(); ++i) {
                out += heap.valueToDisplayString(
                           heap.getElement(arr, i)) +
                       ",";
            }
        }
        for (uint32_t g : globals)
            out += heap.valueToDisplayString(heap.getGlobal(g)) + "|";
        return out;
    };
    std::string before = observe();

    // Transaction with a random mutation storm, then abort.
    tm.begin();
    for (int i = 0; i < 300; ++i) {
        switch (rng.nextBounded(6)) {
          case 0:
            heap.setProperty(objs[rng.nextBounded(4)],
                             names[rng.nextBounded(4)],
                             Value::boxDouble(rng.nextDouble()));
            break;
          case 1:
            heap.setElement(arrs[rng.nextBounded(4)],
                            static_cast<int64_t>(rng.nextBounded(64)),
                            Value::int32(static_cast<int>(
                                rng.nextBounded(1000))));
            break;
          case 2:
            heap.setGlobal(globals[rng.nextBounded(4)],
                           Value::boolean(rng.nextBounded(2) != 0));
            break;
          case 3:
            heap.arrayPush(arrs[rng.nextBounded(4)],
                           Value::int32(9));
            break;
          case 4:
            heap.arrayPop(arrs[rng.nextBounded(4)]);
            break;
          case 5: {
            // Fresh property name: shape transition.
            uint32_t fresh = strings.intern(
                "q" + std::to_string(rng.nextBounded(1000)));
            heap.setProperty(objs[rng.nextBounded(4)], fresh,
                             Value::int32(1));
            break;
          }
        }
    }
    std::string during = observe();
    EXPECT_NE(during, before); // The storm really changed things.
    tm.abort(AbortCode::ExplicitCheck);
    EXPECT_EQ(observe(), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UndoProperty,
                         ::testing::Range<uint64_t>(100, 116));

// ---- SOF semantics across modes -------------------------------------------

TEST(SofProperty, LatchedOverflowAlwaysAbortsAtOutermostEnd)
{
    for (uint64_t seed = 0; seed < 8; ++seed) {
        TransactionManager tm(HtmMode::Rot);
        Xorshift64Star rng(seed);
        tm.begin();
        uint32_t depth = 1;
        bool latched = false;
        for (int i = 0; i < 50; ++i) {
            switch (rng.nextBounded(3)) {
              case 0:
                tm.begin();
                ++depth;
                break;
              case 1:
                if (depth > 1) {
                    EXPECT_TRUE(tm.end().committed);
                    --depth;
                }
                break;
              case 2:
                if (rng.nextBounded(4) == 0) {
                    tm.noteArithmeticOverflow();
                    latched = true;
                }
                break;
            }
        }
        while (depth > 1) {
            EXPECT_TRUE(tm.end().committed);
            --depth;
        }
        CommitResult final_commit = tm.end();
        EXPECT_EQ(final_commit.committed, !latched) << seed;
        if (latched) {
            EXPECT_EQ(final_commit.abortCode,
                      AbortCode::StickyOverflow);
        }
    }
}

} // namespace
} // namespace nomap
