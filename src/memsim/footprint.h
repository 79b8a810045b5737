#ifndef NOMAP_MEMSIM_FOOTPRINT_H
#define NOMAP_MEMSIM_FOOTPRINT_H

/**
 * @file
 * Set-associative transactional footprint tracker.
 *
 * Hardware transactions bound their speculative state by cache
 * geometry, not by a simple byte budget: a transaction aborts the
 * moment one cache *set* runs out of ways for speculatively-held
 * lines, even if the total footprint is far below capacity. The
 * tracker mirrors the geometry of the cache level that holds the
 * corresponding footprint (ROT writes -> L2; RTM writes -> L1D, RTM
 * reads -> L2) and reports both overflow and the Table-IV statistics:
 * footprint bytes and the maximum associativity any set needed.
 */

#include <cstdint>
#include <vector>

#include "memsim/addr.h"

namespace nomap {

/**
 * Tracks the set of distinct cache lines touched by a transaction
 * against a fixed (sets x ways) geometry.
 */
class FootprintTracker
{
  public:
    /**
     * @param size_bytes Capacity of the backing cache level.
     * @param ways Associativity of the backing cache level.
     */
    FootprintTracker(uint32_t size_bytes, uint32_t ways);

    /**
     * Record that @p addr's line is part of the footprint.
     * @return false if the set holding the line is already full with
     *         other footprint lines (capacity/associativity overflow).
     */
    bool insert(Addr addr);

    /** True if the line is already tracked. */
    bool contains(Addr addr) const;

    /** Distinct lines tracked. */
    uint32_t lineCount() const { return totalLines; }

    /** Footprint in bytes (lines x 64). */
    uint64_t footprintBytes() const
    {
        return static_cast<uint64_t>(totalLines) * kLineSize;
    }

    /** Largest number of tracked lines in any single set. */
    uint32_t maxWaysUsed() const { return maxWays; }

    /**
     * Forget everything (transaction commit or abort). Costs the
     * number of sets the footprint touched, not the geometry's set
     * count: an empty tracker clears in O(1).
     */
    void clear();

    uint32_t numWays() const { return ways; }

  private:
    uint32_t setIndex(Addr addr) const;

    uint32_t ways;
    uint32_t numSets;
    /** Per-set list of line numbers (addr / kLineSize). */
    std::vector<std::vector<Addr>> sets;
    /** Indices of the non-empty sets, in first-touch order. */
    std::vector<uint32_t> touched;
    uint32_t totalLines = 0;
    uint32_t maxWays = 0;
};

} // namespace nomap

#endif // NOMAP_MEMSIM_FOOTPRINT_H
