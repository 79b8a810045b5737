#include "htm/transaction.h"

#include <algorithm>

#include "inject/fault_plan.h"
#include "support/logging.h"

namespace nomap {

namespace {

// ROT bounds writes by L2 geometry; RTM bounds writes by L1D geometry.
constexpr uint32_t kL1Size = 32 * 1024;
constexpr uint32_t kL1Ways = 8;
constexpr uint32_t kL2Size = 256 * 1024;
constexpr uint32_t kL2Ways = 8;

// trace.cc renders abort codes from a mirrored name table; pin the
// numeric layout so the two cannot drift apart.
static_assert(static_cast<uint8_t>(AbortCode::None) == 0 &&
              static_cast<uint8_t>(AbortCode::ExplicitCheck) == 1 &&
              static_cast<uint8_t>(AbortCode::Capacity) == 2 &&
              static_cast<uint8_t>(AbortCode::StickyOverflow) == 3 &&
              static_cast<uint8_t>(AbortCode::Irrevocable) == 4);

} // namespace

TransactionManager::TransactionManager(HtmMode mode,
                                       CapacityModelKind capacity_kind)
    : htmMode(mode), capacityKind(capacity_kind),
      writeSet(makeWriteCapacityModel(
          capacity_kind, mode == HtmMode::Rot ? kL2Size : kL1Size,
          mode == HtmMode::Rot ? kL2Ways : kL1Ways)),
      readSet(makeReadCapacityModel(capacity_kind, kL2Size, kL2Ways))
{
}

uint32_t
TransactionManager::begin()
{
    ++depth;
    if (depth > 1)
        return 0; // Flattened nesting: inner begins are free.

    // Both footprint sets are already empty: every outermost commit
    // and abort clears them, and a squeeze builds an empty set.
    sofFlag = false;
    if (rollback)
        rollback->txCheckpoint();
    ++statsData.begins;
    if (inj) {
        pendingInjected = AbortCode::None;
        // Poll every site unconditionally — armed-but-unmatched plans
        // must see identical occurrence numbering whether or not some
        // other site fired first — but the *first* match in the fixed
        // polling order (explicit, capacity, irrevocable) picks the
        // code. A later site firing on the same begin is consumed
        // without overriding the earlier one's code.
        bool fire_explicit = inj->fire(FaultSite::HtmAbortExplicit);
        bool fire_capacity = inj->fire(FaultSite::HtmAbortCapacity);
        bool fire_irrevocable = inj->fire(FaultSite::HtmAbortIrrevocable);
        if (fire_explicit)
            pendingInjected = AbortCode::ExplicitCheck;
        else if (fire_capacity)
            pendingInjected = AbortCode::Capacity;
        else if (fire_irrevocable)
            pendingInjected = AbortCode::Irrevocable;
        if (inj->fire(FaultSite::HtmSofLatch))
            sofFlag = true;
    }
    emitTxEvent(TraceEventType::TxBegin, AbortCode::None, 0, 0);
    return htmMode == HtmMode::Rot ? kRotBeginCycles : kRtmBeginCycles;
}

CommitResult
TransactionManager::end()
{
    NOMAP_ASSERT(depth > 0);
    CommitResult result;
    if (depth > 1) {
        --depth;
        result.committed = true;
        result.cycles = 0;
        return result;
    }

    // Outermost XEnd: the hardware checks the SOF first.
    if (sofFlag) {
        result.committed = false;
        result.abortCode = AbortCode::StickyOverflow;
        result.cycles = abort(AbortCode::StickyOverflow);
        return result;
    }

    uint64_t wf = writeSet->footprintBytes();
    statsData.totalWriteFootprintBytes += wf;
    statsData.maxWriteFootprintBytes =
        std::max(statsData.maxWriteFootprintBytes, wf);
    statsData.maxWriteWaysUsed =
        std::max(statsData.maxWriteWaysUsed, writeSet->maxWaysUsed());
    statsData.totalReadFootprintBytes += readSet->footprintBytes();
    emitTxEvent(TraceEventType::TxCommit, AbortCode::None, wf,
                writeSet->maxWaysUsed());

    depth = 0;
    if (rollback)
        rollback->txDiscardLog();
    writeSet->clear();
    readSet->clear();
    ++statsData.commits;

    result.committed = true;
    result.cycles =
        htmMode == HtmMode::Rot ? kRotCommitCycles : kRtmCommitCycles;
    return result;
}

uint32_t
TransactionManager::abort(AbortCode code)
{
    NOMAP_ASSERT(depth > 0);
    NOMAP_ASSERT(code != AbortCode::None);
    // Capture the footprint *before* rollback clears it: aborted
    // transactions — above all capacity aborts, by definition the
    // largest — must contribute to the footprint maxima, or Table IV
    // reports the maximum of the survivors only.
    uint64_t wf = writeSet->footprintBytes();
    statsData.abortedWriteFootprintBytes += wf;
    statsData.maxWriteFootprintBytes =
        std::max(statsData.maxWriteFootprintBytes, wf);
    statsData.maxWriteWaysUsed =
        std::max(statsData.maxWriteWaysUsed, writeSet->maxWaysUsed());
    emitTxEvent(TraceEventType::TxAbort, code, wf,
                writeSet->maxWaysUsed());
    if (rollback)
        rollback->txRollback();
    finishAbortBookkeeping(code);
    return kAbortCycles;
}

void
TransactionManager::emitTxEvent(TraceEventType type, AbortCode code,
                                uint64_t bytes, uint32_t ways) const
{
    bool traced = trace && trace->enabled();
    if (!traced && !telemetry)
        return;
    TraceEvent event;
    event.vcycles = traceClock ? traceClock->virtualCycles() : 0;
    event.type = type;
    event.code = static_cast<uint8_t>(code);
    event.funcId = traceFuncId;
    event.pc = traceEntryPc;
    event.bytes = bytes;
    event.ways = ways;
    if (traced)
        trace->emit(event);
    if (telemetry)
        telemetry->onTxEvent(event);
}

void
TransactionManager::finishAbortBookkeeping(AbortCode code)
{
    depth = 0;
    sofFlag = false;
    pendingInjected = AbortCode::None;
    writeSet->clear();
    readSet->clear();
    ++statsData.aborts;
    ++statsData.abortsByCode[static_cast<size_t>(code)];
}

void
TransactionManager::squeezeWriteWays(uint32_t ways)
{
    NOMAP_ASSERT(depth == 0);
    // Monotonicity (a later, larger value never re-grows the set)
    // and set-count preservation live inside the model.
    writeSet->squeezeWays(ways);
}

bool
TransactionManager::recordWrite(Addr addr)
{
    NOMAP_ASSERT(depth > 0);
    if (inj && inj->fire(FaultSite::HtmStore)) {
        abort(AbortCode::Capacity);
        return false;
    }
    if (writeSet->insert(addr))
        return true;
    abort(AbortCode::Capacity);
    return false;
}

bool
TransactionManager::recordRead(Addr addr)
{
    NOMAP_ASSERT(depth > 0);
    if (htmMode != HtmMode::Rtm)
        return true; // ROT does not track reads at all.
    if (readSet->insert(addr))
        return true;
    abort(AbortCode::Capacity);
    return false;
}

double
TransactionManager::readLatencyFactor() const
{
    return htmMode == HtmMode::Rtm ? 1.2 : 1.0;
}

const char *
abortCodeName(AbortCode code)
{
    switch (code) {
      case AbortCode::None: return "none";
      case AbortCode::ExplicitCheck: return "explicit-check";
      case AbortCode::Capacity: return "capacity";
      case AbortCode::StickyOverflow: return "sticky-overflow";
      case AbortCode::Irrevocable: return "irrevocable";
    }
    return "unknown";
}

} // namespace nomap
