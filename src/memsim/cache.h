#ifndef NOMAP_MEMSIM_CACHE_H
#define NOMAP_MEMSIM_CACHE_H

/**
 * @file
 * Set-associative cache model with LRU replacement and per-line
 * speculative-write (SW) bits.
 *
 * The SW bit marks lines written inside a hardware transaction. A
 * transactional commit flash-clears all SW bits (modeled elsewhere as a
 * fixed 5-cycle cost, following the paper's platform description). A
 * line whose SW bit is set must not be silently evicted: doing so would
 * lose speculative state, so the cache reports the condition to its
 * owner, which translates it into a transaction capacity abort.
 *
 * Host-performance notes (this model sits under every simulated load
 * and store): lines are stored in one flat array indexed by
 * set * ways, the per-set SW population is maintained incrementally
 * instead of recounted per access, and commit/abort walk only the
 * sets that actually hold SW lines rather than the whole cache.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "memsim/addr.h"

namespace nomap {

/** Outcome of a single cache access. */
enum class CacheResult : uint8_t {
    Hit,
    Miss,          ///< Miss; a victim (possibly invalid) was replaced.
    SWConflict,    ///< Miss, and every way of the set holds an SW line.
};

/** Aggregate counters for one cache. */
struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /** Largest number of SW lines simultaneously resident in one set. */
    uint32_t maxSwWaysInSet = 0;

    double
    missRate() const
    {
        uint64_t total = hits + misses;
        return total ? static_cast<double>(misses) / total : 0.0;
    }
};

/**
 * A single level of set-associative cache.
 *
 * Geometry is (size, ways, 64-byte lines). Replacement is true LRU per
 * set, with the twist that SW lines are never chosen as victims while a
 * non-SW candidate exists.
 */
class Cache
{
  public:
    /**
     * @param size_bytes Total capacity in bytes.
     * @param ways Associativity.
     */
    Cache(uint32_t size_bytes, uint32_t ways);

    /**
     * Access one line.
     *
     * @param addr Byte address (any offset within the line).
     * @param is_write True for stores.
     * @param speculative True when executing inside a transaction and
     *        the access is a store whose line must be pinned (SW).
     * @return Hit, Miss, or SWConflict when the line cannot be
     *         installed without evicting speculative state.
     *
     * Defined in the header, yet compilers keep it out of line: in a
     * RelWithDebInfo build it is one weak symbol that the inlined
     * copies of MemHierarchy::access call (8 call sites). Forcing an
     * always_inline L1-MRU fast path grew the IR loop by ~10 % of
     * its text and measured no faster, so it stays a call.
     */
    CacheResult
    access(Addr addr, bool is_write, bool speculative = false)
    {
        uint32_t si = setIndex(addr);
        Addr tag = tagOf(addr);

        // Consecutive accesses usually land on the line the previous
        // access touched (8 values share each 64-byte line), so a
        // one-entry MRU filter skips the associative scan most of the
        // time. The updates below are exactly the scan's hit path, so
        // the model is unchanged; an evicted, retagged, or invalidated
        // MRU line fails the valid/set/tag compare and falls through.
        Line *m = mru;
        if (m && m->valid && mruSet == si && m->tag == tag) {
            m->lruStamp = ++lruClock;
            if (is_write && speculative && !m->sw)
                markSw(*m, si);
            ++statsData.hits;
            if (swTotal != 0)
                trackSwHighWater(si);
            return CacheResult::Hit;
        }

        Line *set = &lines[static_cast<size_t>(si) * ways];
        ++lruClock;

        for (uint32_t w = 0; w < ways; ++w) {
            Line &line = set[w];
            if (line.valid && line.tag == tag) {
                line.lruStamp = lruClock;
                if (is_write && speculative && !line.sw)
                    markSw(line, si);
                ++statsData.hits;
                mru = &line;
                mruSet = si;
                // swTotal == 0 implies every swCount entry is 0, so
                // the high-water compare can't move — skip the
                // swCount[] load on the non-transactional fast path.
                if (swTotal != 0)
                    trackSwHighWater(si);
                return CacheResult::Hit;
            }
        }

        // Miss: pick a victim. Prefer an invalid way, then the LRU
        // non-SW line. If every way holds speculative state,
        // installing the new line would lose transactional writes.
        // (Invalid lines never carry an SW bit, so the chosen victim
        // is always non-SW.)
        Line *victim = nullptr;
        for (uint32_t w = 0; w < ways; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
        }
        if (!victim) {
            for (uint32_t w = 0; w < ways; ++w) {
                Line &line = set[w];
                if (line.sw)
                    continue;
                if (!victim || line.lruStamp < victim->lruStamp)
                    victim = &line;
            }
        }
        if (!victim) {
            ++statsData.misses;
            return CacheResult::SWConflict;
        }

        if (victim->valid)
            ++statsData.evictions;
        victim->valid = true;
        victim->tag = tag;
        victim->sw = false;
        if (is_write && speculative)
            markSw(*victim, si);
        victim->lruStamp = lruClock;
        mru = victim;
        mruSet = si;
        ++statsData.misses;
        if (swTotal != 0)
            trackSwHighWater(si);
        return CacheResult::Miss;
    }

    /** True if the line is currently resident. */
    bool contains(Addr addr) const;

    /** True if the line is resident with its SW bit set. */
    bool isSpeculative(Addr addr) const;

    /** Clear all SW bits (transaction commit). */
    void flashClearSw();

    /** Invalidate all SW lines (transaction abort discards them). */
    void invalidateSw();

    /** Number of lines currently holding speculative state. */
    uint32_t swLineCount() const { return swTotal; }

    /** Drop all lines and reset LRU state (stats are preserved). */
    void invalidateAll();

    const CacheStats &stats() const { return statsData; }
    void resetStats() { statsData = CacheStats(); }

    uint32_t numSets() const
    {
        return static_cast<uint32_t>(swCount.size());
    }
    uint32_t numWays() const { return ways; }

  private:
    struct Line {
        Addr tag = 0;
        uint64_t lruStamp = 0;
        bool valid = false;
        bool sw = false;
    };

    uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<uint32_t>((addr / kLineSize) & setMask);
    }

    Addr
    tagOf(Addr addr) const
    {
        return (addr / kLineSize) >> setShift;
    }

    /** Set a line's SW bit and maintain the incremental population. */
    void
    markSw(Line &line, uint32_t si)
    {
        line.sw = true;
        if (swCount[si]++ == 0)
            swSets.push_back(si);
        ++swTotal;
    }

    void
    trackSwHighWater(uint32_t si)
    {
        if (swCount[si] > statsData.maxSwWaysInSet)
            statsData.maxSwWaysInSet = swCount[si];
    }

    uint32_t ways;
    uint32_t setMask = 0;   ///< numSets - 1 (numSets is a power of 2).
    uint32_t setShift = 0;  ///< log2(numSets), for tag extraction.
    std::vector<Line> lines;      ///< Flat: set * ways + way.
    Line *mru = nullptr;   ///< Last line hit/installed (never dangles:
                           ///< `lines` is sized once in the ctor).
    uint32_t mruSet = 0;   ///< Set index of @ref mru.
    std::vector<uint32_t> swCount; ///< SW lines per set.
    std::vector<uint32_t> swSets;  ///< Sets with swCount > 0 (unique).
    uint32_t swTotal = 0;
    uint64_t lruClock = 0;
    CacheStats statsData;
};

} // namespace nomap

#endif // NOMAP_MEMSIM_CACHE_H
