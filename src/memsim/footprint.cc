#include "memsim/footprint.h"

#include <algorithm>

#include "support/logging.h"

namespace nomap {

FootprintTracker::FootprintTracker(uint32_t size_bytes, uint32_t ways_)
    : ways(ways_)
{
    NOMAP_ASSERT(ways > 0);
    NOMAP_ASSERT(size_bytes % (kLineSize * ways) == 0);
    numSets = size_bytes / (kLineSize * ways);
    NOMAP_ASSERT((numSets & (numSets - 1)) == 0);
    sets.resize(numSets);
}

uint32_t
FootprintTracker::setIndex(Addr addr) const
{
    return static_cast<uint32_t>((addr / kLineSize) & (numSets - 1));
}

bool
FootprintTracker::insert(Addr addr)
{
    Addr line = addr / kLineSize;
    uint32_t index = setIndex(addr);
    auto &set = sets[index];
    if (std::find(set.begin(), set.end(), line) != set.end())
        return true;
    if (set.size() >= ways)
        return false;
    if (set.empty())
        touched.push_back(index);
    set.push_back(line);
    ++totalLines;
    maxWays = std::max<uint32_t>(maxWays,
                                 static_cast<uint32_t>(set.size()));
    return true;
}

bool
FootprintTracker::contains(Addr addr) const
{
    Addr line = addr / kLineSize;
    const auto &set = sets[setIndex(addr)];
    return std::find(set.begin(), set.end(), line) != set.end();
}

void
FootprintTracker::clear()
{
    for (uint32_t index : touched)
        sets[index].clear();
    touched.clear();
    totalLines = 0;
    maxWays = 0;
}

} // namespace nomap
