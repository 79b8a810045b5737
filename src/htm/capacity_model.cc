#include "htm/capacity_model.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "support/logging.h"

namespace nomap {

namespace {

/**
 * The set-associative geometry the manager historically owned
 * directly. Behavior (insert outcomes, stats, squeeze) is
 * byte-identical to the pre-abstraction TransactionManager.
 */
class WaysAssocModel final : public CapacityModel
{
  public:
    WaysAssocModel(uint32_t size_bytes, uint32_t ways)
        : nominalSize(size_bytes), nominalWays(ways),
          tracker(size_bytes, ways)
    {
    }

    bool insert(Addr addr) override { return tracker.insert(addr); }
    void clear() override { tracker.clear(); }
    uint32_t lineCount() const override { return tracker.lineCount(); }

    uint64_t
    footprintBytes() const override
    {
        return tracker.footprintBytes();
    }

    uint32_t maxWaysUsed() const override
    {
        return tracker.maxWaysUsed();
    }

    uint32_t numWays() const override { return tracker.numWays(); }

    uint64_t
    capacityBytes() const override
    {
        return static_cast<uint64_t>(nominalSize) / nominalWays *
               tracker.numWays();
    }

    void
    squeezeWays(uint32_t ways) override
    {
        // Compare against the *current* associativity, not the
        // original geometry, so squeezes are monotone: squeeze(2)
        // then squeeze(4) leaves the set at 2 ways instead of
        // re-growing it.
        if (ways == 0 || ways >= tracker.numWays())
            return;
        // Keep the set count constant: a real associativity squeeze
        // leaves line indexing untouched and shrinks each set.
        // Deriving the size from the original geometry keeps sets ==
        // size/(ways * line) invariant across repeated squeezes.
        tracker =
            FootprintTracker(nominalSize / nominalWays * ways, ways);
    }

    CapacityModelKind kind() const override
    {
        return CapacityModelKind::WaysAssoc;
    }

  private:
    uint32_t nominalSize;
    uint32_t nominalWays;
    FootprintTracker tracker;
};

/**
 * FORTH-style dedicated write buffer: @p entries distinct lines,
 * fully associative, overflow on the next distinct line. A quarter of
 * the cache-backed capacity in lines — small enough that capacity
 * aborts arrive well before the backing cache would have filled,
 * which is the defining property of limited-set designs.
 */
class LimitedSetModel final : public CapacityModel
{
  public:
    LimitedSetModel(uint32_t capacity_bytes, uint32_t ways)
        : nominalEntries(
              std::max<uint32_t>(1, capacity_bytes / kLineSize / 4)),
          curEntries(std::max<uint32_t>(1,
                                        capacity_bytes / kLineSize / 4)),
          nominalWays(ways), curWays(ways)
    {
        lines.reserve(curEntries);
    }

    bool
    insert(Addr addr) override
    {
        Addr line = addr / kLineSize;
        if (std::find(lines.begin(), lines.end(), line) != lines.end())
            return true;
        if (lines.size() >= curEntries)
            return false;
        lines.push_back(line);
        return true;
    }

    void clear() override { lines.clear(); }

    uint32_t
    lineCount() const override
    {
        return static_cast<uint32_t>(lines.size());
    }

    uint64_t
    footprintBytes() const override
    {
        return static_cast<uint64_t>(lines.size()) * kLineSize;
    }

    /** Fully associative: every line occupies the single set. */
    uint32_t
    maxWaysUsed() const override
    {
        return static_cast<uint32_t>(lines.size());
    }

    uint32_t numWays() const override { return curWays; }

    uint64_t
    capacityBytes() const override
    {
        return static_cast<uint64_t>(curEntries) * kLineSize;
    }

    void
    squeezeWays(uint32_t ways) override
    {
        // Same monotone contract as the associative model, with the
        // entry count standing in for total capacity: scale it by
        // ways/nominal-ways of nominal.
        if (ways == 0 || ways >= curWays)
            return;
        curWays = ways;
        curEntries = std::max<uint32_t>(
            1, nominalEntries / nominalWays * ways);
        if (lines.size() > curEntries)
            lines.resize(curEntries);
    }

    CapacityModelKind kind() const override
    {
        return CapacityModelKind::LimitedSet;
    }

  private:
    uint32_t nominalEntries;
    uint32_t curEntries;
    uint32_t nominalWays;
    uint32_t curWays;
    std::vector<Addr> lines;
};

/**
 * Bloom-filter read signature of kBits bits. Never overflows —
 * signature-based read sets trade capacity aborts for false
 * conflicts, and a single-threaded VM has no conflicts — so insert()
 * always succeeds and nothing ever queries the signature's bits: the
 * model keeps only the exact distinct-line set the footprint
 * statistics need, and reports the signature's size as its capacity.
 */
class BloomSignatureModel final : public CapacityModel
{
  public:
    explicit BloomSignatureModel(uint32_t ways) : nominalWays(ways) {}

    bool
    insert(Addr addr) override
    {
        seen.insert(addr / kLineSize);
        return true;
    }

    void
    clear() override
    {
        if (!seen.empty())
            seen.clear();
    }

    uint32_t
    lineCount() const override
    {
        return static_cast<uint32_t>(seen.size());
    }

    uint64_t
    footprintBytes() const override
    {
        return static_cast<uint64_t>(seen.size()) * kLineSize;
    }

    uint32_t maxWaysUsed() const override { return 0; }
    uint32_t numWays() const override { return nominalWays; }

    /** Unbounded in lines; report the signature's own storage. */
    uint64_t
    capacityBytes() const override
    {
        return static_cast<uint64_t>(kBits) / 8;
    }

    void squeezeWays(uint32_t) override {}

    CapacityModelKind kind() const override
    {
        return CapacityModelKind::LimitedSet;
    }

  private:
    static constexpr uint32_t kBits = 8192;

    uint32_t nominalWays;
    std::unordered_set<Addr> seen;
};

} // namespace

const char *
capacityModelKindName(CapacityModelKind kind)
{
    switch (kind) {
      case CapacityModelKind::WaysAssoc: return "ways-assoc";
      case CapacityModelKind::LimitedSet: return "limited-set";
    }
    return "?";
}

std::unique_ptr<CapacityModel>
makeWriteCapacityModel(CapacityModelKind kind,
                       uint32_t write_capacity_bytes, uint32_t ways)
{
    switch (kind) {
      case CapacityModelKind::WaysAssoc:
        return std::make_unique<WaysAssocModel>(write_capacity_bytes,
                                                ways);
      case CapacityModelKind::LimitedSet:
        return std::make_unique<LimitedSetModel>(write_capacity_bytes,
                                                 ways);
    }
    panic("bad capacity model kind");
}

std::unique_ptr<CapacityModel>
makeReadCapacityModel(CapacityModelKind kind,
                      uint32_t read_capacity_bytes, uint32_t ways)
{
    switch (kind) {
      case CapacityModelKind::WaysAssoc:
        return std::make_unique<WaysAssocModel>(read_capacity_bytes,
                                                ways);
      case CapacityModelKind::LimitedSet:
        return std::make_unique<BloomSignatureModel>(ways);
    }
    panic("bad capacity model kind");
}

} // namespace nomap
