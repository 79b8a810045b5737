#include "memsim/cache.h"

#include "support/logging.h"

namespace nomap {

Cache::Cache(uint32_t size_bytes, uint32_t ways_)
    : ways(ways_)
{
    NOMAP_ASSERT(ways > 0);
    NOMAP_ASSERT(size_bytes % (kLineSize * ways) == 0);
    uint32_t num_sets = size_bytes / (kLineSize * ways);
    NOMAP_ASSERT((num_sets & (num_sets - 1)) == 0);
    setMask = num_sets - 1;
    while ((1u << setShift) < num_sets)
        ++setShift;
    lines.resize(static_cast<size_t>(num_sets) * ways);
    swCount.resize(num_sets, 0);
}

bool
Cache::contains(Addr addr) const
{
    const Line *set = &lines[static_cast<size_t>(setIndex(addr)) * ways];
    Addr tag = tagOf(addr);
    for (uint32_t w = 0; w < ways; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

bool
Cache::isSpeculative(Addr addr) const
{
    const Line *set = &lines[static_cast<size_t>(setIndex(addr)) * ways];
    Addr tag = tagOf(addr);
    for (uint32_t w = 0; w < ways; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return set[w].sw;
    }
    return false;
}

void
Cache::flashClearSw()
{
    for (uint32_t si : swSets) {
        Line *set = &lines[static_cast<size_t>(si) * ways];
        for (uint32_t w = 0; w < ways; ++w)
            set[w].sw = false;
        swCount[si] = 0;
    }
    swSets.clear();
    swTotal = 0;
}

void
Cache::invalidateSw()
{
    for (uint32_t si : swSets) {
        Line *set = &lines[static_cast<size_t>(si) * ways];
        for (uint32_t w = 0; w < ways; ++w) {
            if (set[w].sw) {
                set[w].sw = false;
                set[w].valid = false;
            }
        }
        swCount[si] = 0;
    }
    swSets.clear();
    swTotal = 0;
}

void
Cache::invalidateAll()
{
    for (Line &line : lines)
        line = Line();
    for (uint32_t &c : swCount)
        c = 0;
    swSets.clear();
    swTotal = 0;
    lruClock = 0;
}

} // namespace nomap
