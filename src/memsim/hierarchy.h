#ifndef NOMAP_MEMSIM_HIERARCHY_H
#define NOMAP_MEMSIM_HIERARCHY_H

/**
 * @file
 * Two-level data cache hierarchy matching the paper's evaluation
 * machine (Intel Skylake i7): 32 KB 8-way L1D and 256 KB 8-way L2,
 * 64-byte lines. Produces per-access latency in cycles for the timing
 * model and hit/miss statistics for the transaction characterization.
 */

#include <cstdint>

#include "memsim/cache.h"

namespace nomap {

/** Latency parameters in CPU cycles. */
struct MemLatency {
    uint32_t l1Hit = 4;
    uint32_t l2Hit = 12;
    uint32_t memAccess = 100;
};

/**
 * L1D + L2 hierarchy. Misses in L1 allocate in both levels (inclusive
 * enough for this model's purposes).
 */
class MemHierarchy
{
  public:
    /** Skylake-like default geometry. */
    MemHierarchy();

    /**
     * Perform one data access.
     *
     * @param addr Byte address.
     * @param is_write True for stores.
     * @param speculative True for transactional stores whose lines
     *        must be pinned with SW bits.
     * @return Latency of the access in cycles.
     *
     * Defined here so it inlines into ExecEnv::memAccess. That is as
     * far as inlining reaches: the executors call memAccess out of
     * line (75 call sites in a RelWithDebInfo build), so a simulated
     * memory operation costs that call plus Cache::access's.
     */
    uint32_t
    access(Addr addr, bool is_write, bool speculative = false)
    {
        if (l1d.access(addr, is_write, speculative) == CacheResult::Hit)
            return lat.l1Hit;
        if (l2c.access(addr, is_write, speculative) == CacheResult::Hit)
            return lat.l2Hit;
        return lat.memAccess;
    }

    /** Commit: flash-clear SW bits in both levels. */
    void commitSpeculative();

    /** Abort: discard speculative lines in both levels. */
    void discardSpeculative();

    Cache &l1() { return l1d; }
    Cache &l2() { return l2c; }
    const Cache &l1() const { return l1d; }
    const Cache &l2() const { return l2c; }

    const MemLatency &latency() const { return lat; }

    void resetStats();

  private:
    Cache l1d;
    Cache l2c;
    MemLatency lat;
};

} // namespace nomap

#endif // NOMAP_MEMSIM_HIERARCHY_H
