#ifndef NOMAP_HTM_CAPACITY_MODEL_H
#define NOMAP_HTM_CAPACITY_MODEL_H

/**
 * @file
 * Swappable HTM capacity geometries.
 *
 * The paper's HTM bounds transactional footprints by cache geometry
 * (ROT writes -> 256 KB 8-way L2, RTM writes -> 32 KB 8-way L1D), but
 * real HTM designs differ: the FORTH limited read/write-set report
 * describes cores whose speculative write set is a small dedicated
 * fully-associative buffer and whose read set is a bloom-filter
 * signature that never overflows (it only false-conflicts, which a
 * single-threaded VM never sees). A CapacityModel abstracts "what
 * fits": the TransactionManager routes recordWrite/recordRead through
 * one, and the planner asks the same object for its byte capacity, so
 * the plan and the hardware can never disagree about geometry.
 *
 * Two implementations:
 *
 *  - **WaysAssocModel** — the original set-associative cache
 *    geometry, byte-for-byte the historical behavior (it wraps the
 *    same FootprintTracker the manager used to own). The default;
 *    everything downstream is bit-identical to before the
 *    abstraction existed.
 *
 *  - **LimitedSetModel** — a FORTH-style fixed-entry buffer: up to N
 *    distinct lines, fully associative, overflow on the N+1-th line
 *    regardless of addresses. Much smaller than the cache-backed
 *    model (write capacity 64 KB under ROT sizing, 16 KB under RTM
 *    sizing).
 *
 *  - **BloomSignatureModel** — the read-set companion of
 *    LimitedSetModel: a bit-array signature that never overflows,
 *    matching signature-based read tracking. Nothing queries the
 *    signature itself, so the model keeps only the exact lines.
 *
 * Squeeze semantics (the htm.ways value-site) are uniform across
 * models: squeezing to W < current ways shrinks total capacity to
 * W/original-ways of nominal, monotonically (a later, larger W never
 * re-grows the set). For the ways-associative model that is a literal
 * associativity squeeze with the set count constant; the limited-set
 * model scales its entry count by the same ratio against a reference
 * associativity of 8.
 */

#include <cstdint>
#include <memory>

#include "memsim/footprint.h"

namespace nomap {

/** Which capacity geometry a TransactionManager models. */
enum class CapacityModelKind : uint8_t {
    WaysAssoc,  ///< Set-associative cache geometry (the default).
    LimitedSet, ///< FORTH-style fixed-entry write buffer +
                ///< bloom-signature read set.
};

/** Printable model-kind name ("ways-assoc" / "limited-set"). */
const char *capacityModelKindName(CapacityModelKind kind);

/**
 * One speculative footprint set (write or read) with a capacity
 * bound. Implementations must be deterministic: insert outcomes and
 * every statistic depend only on the sequence of lines inserted.
 */
class CapacityModel
{
  public:
    virtual ~CapacityModel() = default;

    /**
     * Record @p addr's line.
     * @return false on capacity overflow (the transaction must
     *         abort); the model's contents are unspecified after an
     *         overflow until clear().
     */
    virtual bool insert(Addr addr) = 0;

    /** Forget everything (commit or abort). */
    virtual void clear() = 0;

    /** Distinct lines currently tracked. */
    virtual uint32_t lineCount() const = 0;

    /** Footprint in bytes (lines x 64). */
    virtual uint64_t footprintBytes() const = 0;

    /**
     * Largest per-set occupancy any transaction needed (Table IV's
     * "ways" column). Fully-associative models report their line
     * high-water mark — every line shares the single set.
     */
    virtual uint32_t maxWaysUsed() const = 0;

    /** Current associativity (reference associativity if unset). */
    virtual uint32_t numWays() const = 0;

    /** Total capacity in bytes under the current (squeezed) shape. */
    virtual uint64_t capacityBytes() const = 0;

    /** Monotone capacity squeeze; see the file comment. */
    virtual void squeezeWays(uint32_t ways) = 0;

    virtual CapacityModelKind kind() const = 0;
};

/**
 * Build the write-set model for @p kind under @p write_capacity_bytes
 * / @p ways nominal geometry (the cache level that backs writes).
 */
std::unique_ptr<CapacityModel>
makeWriteCapacityModel(CapacityModelKind kind,
                       uint32_t write_capacity_bytes, uint32_t ways);

/**
 * Build the read-set model for @p kind (ways-assoc kinds track reads
 * in the same geometry as the backing cache; limited-set kinds use a
 * bloom signature that never overflows).
 */
std::unique_ptr<CapacityModel>
makeReadCapacityModel(CapacityModelKind kind,
                      uint32_t read_capacity_bytes, uint32_t ways);

} // namespace nomap

#endif // NOMAP_HTM_CAPACITY_MODEL_H
