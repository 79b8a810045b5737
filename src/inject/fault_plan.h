#ifndef NOMAP_INJECT_FAULT_PLAN_H
#define NOMAP_INJECT_FAULT_PLAN_H

/**
 * @file
 * Deterministic fault injection: scriptable failure plans with named
 * injection sites threaded through the whole stack.
 *
 * A **FaultPlan** is a one-line, serializable recipe of failures to
 * inject into an execution: "abort the 3rd transaction", "fail the
 * 17th bounds check", "reject the 2nd enqueue as queue-full". Every
 * layer that can fail exposes a named **FaultSite**; an armed
 * **FaultInjector** counts dynamic occurrences of each site and fires
 * exactly when an action's trigger count is reached. Because the VM is
 * fully deterministic, the same plan on the same program reproduces
 * the same failure, every time, on every machine:
 *
 *     NOMAP_FAULT_PLAN="htm.abort@3,check.bounds@17" ctest ...
 *
 * Grammar (canonical form; parse → toString round-trips exactly):
 *
 *     plan   := spec (',' spec)*
 *     spec   := site '@' count (':' arg)?
 *     site   := lowercase dotted name from the table below
 *     count  := decimal trigger occurrence (1-based), or a value for
 *               value-sites (htm.ways)
 *     arg    := decimal site-specific filter (ftl.osr: the SMP's
 *               bytecode pc)
 *
 * Sites:
 *
 *     htm.abort@N              explicit-check abort at the N-th
 *                              outermost XBegin
 *     htm.abort.capacity@N     capacity abort at the N-th XBegin
 *     htm.abort.irrevocable@N  irrevocable abort at the N-th XBegin
 *     htm.store@K              capacity abort at the K-th
 *                              transactional store
 *     htm.sof@N                latch the Sticky Overflow Flag in the
 *                              N-th transaction (aborts at XEnd)
 *     htm.ways@W               value-site: squeeze the write-set
 *                              associativity to W ways (sets constant,
 *                              capacity shrinks proportionally)
 *     check.bounds@M           force the M-th dynamic check of that
 *     check.overflow@M         kind to fail (unconverted checks OSR
 *     check.type@M             to Baseline; converted checks abort
 *     check.property@M         the transaction)
 *     check.other@M
 *     check.any@M              force the M-th check of any kind
 *     ftl.osr@M[:pc]           force OSR at the M-th SMP-carrying
 *                              check (optionally only at bytecode pc)
 *     engine.compile@N         fail the N-th DFG/FTL (re)compile;
 *                              the function stays at its current code
 *     engine.watchdog@C        fire the transaction watchdog at the
 *                              C-th in-transaction instruction poll
 *     service.queuefull@N      reject the N-th enqueue as QueueFull
 *     service.cancel@P         throw ExecutionCancelled at the P-th
 *                              chargeCycles cancellation poll
 *     service.retry@N          fail the N-th service execution
 *                              attempt with a transient error
 *     service.shardfull@N      shed the N-th sharded-service
 *                              admission as if the shard queue were
 *                              over the shed threshold
 *     net.accept@N             close the N-th accepted connection
 *                              immediately (models accept()/fd
 *                              failure; clients must reconnect)
 *     net.read@N               clamp the N-th socket read to one byte
 *                              (short read: frames arrive in pieces)
 *     net.write@N              clamp the N-th socket write to one
 *                              byte (short write: responses dribble)
 *     net.frame@N              defer processing of the N-th decoded
 *                              request frame by one poll cycle
 *                              (models a slow client's request
 *                              straggling in)
 *     adaptive.decision@N      veto the N-th adaptive plan-revision
 *                              application (the controller rolls its
 *                              assumed state back and re-decides)
 *     adaptive.blacklist@N     at the N-th adaptive revision
 *                              application, force the function
 *                              untransactional (pinned level 3)
 *                              instead of the decided revision
 *
 * Only `ftl.osr` takes a ':arg' filter; a ':arg' on any other site is
 * rejected at parse time. (Before this check, a plan like
 * "net.accept@1:7" armed silently and never fired, because no other
 * call site passes a key to FaultInjector::fire.)
 *
 * Triggers are one-shot: each action fires at most once per injector.
 * Disarmed sites cost a single branch on a nullable pointer; an armed
 * plan whose actions never match changes no externally visible
 * counters (instructions, checks, cycles) — only the injector's own
 * occurrence counts advance.
 *
 * Counters are relaxed atomics so a shared injector (the service's)
 * stays ThreadSanitizer-clean; exact-count triggers across threads
 * remain exact because fetch_add hands out each ordinal once.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace nomap {

/** Every named place a fault can be injected. */
enum class FaultSite : uint8_t {
    HtmAbortExplicit,    ///< htm.abort
    HtmAbortCapacity,    ///< htm.abort.capacity
    HtmAbortIrrevocable, ///< htm.abort.irrevocable
    HtmStore,            ///< htm.store
    HtmSofLatch,         ///< htm.sof
    HtmWaysSqueeze,      ///< htm.ways (value-site)
    CheckBounds,         ///< check.bounds
    CheckOverflow,       ///< check.overflow
    CheckType,           ///< check.type
    CheckProperty,       ///< check.property
    CheckOther,          ///< check.other
    CheckAny,            ///< check.any
    FtlOsr,              ///< ftl.osr
    EngineCompileFail,   ///< engine.compile
    EngineTxWatchdog,    ///< engine.watchdog
    ServiceQueueFull,    ///< service.queuefull
    ServiceCancel,       ///< service.cancel
    ServiceRetry,        ///< service.retry
    ServiceShardFull,    ///< service.shardfull
    NetAccept,           ///< net.accept
    NetRead,             ///< net.read
    NetWrite,            ///< net.write
    NetFrameDefer,       ///< net.frame
    AdaptiveDecision,    ///< adaptive.decision
    AdaptiveBlacklist,   ///< adaptive.blacklist
};

constexpr size_t kNumFaultSites =
    static_cast<size_t>(FaultSite::AdaptiveBlacklist) + 1;

/** Canonical grammar name of a site ("htm.abort", "check.bounds"...). */
const char *faultSiteName(FaultSite site);

/** One "site@count[:arg]" entry of a plan. */
struct FaultAction {
    FaultSite site = FaultSite::HtmAbortExplicit;
    /** 1-based trigger occurrence (or the value for value-sites). */
    uint64_t count = 0;
    /** Optional site-specific filter (ftl.osr: SMP bytecode pc). */
    uint64_t arg = 0;
    bool hasArg = false;
};

/**
 * An immutable, serializable list of fault actions. Plans are plain
 * data: arm one on an Engine/ExecutionService to get a live
 * FaultInjector with fresh counters.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Parse the one-line grammar above. Spaces around specs are
     * tolerated; toString() always emits the canonical spaceless
     * form. Throws FatalError on malformed input (unknown site,
     * missing/invalid count, trailing junk).
     */
    static FaultPlan parse(const std::string &text);

    /** Canonical serialization; parse(toString()) round-trips. */
    std::string toString() const;

    /**
     * Plan from the NOMAP_FAULT_PLAN environment variable, if set and
     * non-empty. Re-reads the environment on every call (no caching)
     * so tests can set the variable between engine constructions.
     */
    static std::optional<FaultPlan> fromEnv();

    const std::vector<FaultAction> &actions() const { return list; }
    bool empty() const { return list.empty(); }

  private:
    std::vector<FaultAction> list;
};

/**
 * Live occurrence counters for one armed plan. One injector per
 * Engine (rebuilt on reset()/re-arm, so counters always start fresh)
 * plus one owned by the ExecutionService for service-level sites.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    /**
     * Count one dynamic occurrence of @p site and report whether an
     * armed action fires here. Actions with an arg filter only count
     * occurrences whose @p key matches. Each action fires exactly
     * once (when its matching-occurrence ordinal equals its count).
     */
    bool fire(FaultSite site, uint64_t key = 0);

    /** Total occurrences of @p site seen so far (all keys). */
    uint64_t occurrences(FaultSite site) const;

    /** Value of a value-site action (htm.ways), or @p fallback. */
    uint64_t valueOf(FaultSite site, uint64_t fallback) const;

    const FaultPlan &plan() const { return planData; }

  private:
    struct ArmedAction {
        FaultAction action;
        std::atomic<uint64_t> matched{0};
    };

    FaultPlan planData;
    std::vector<std::unique_ptr<ArmedAction>> armed;
    std::array<std::atomic<uint64_t>, kNumFaultSites> siteCounts{};
};

} // namespace nomap

#endif // NOMAP_INJECT_FAULT_PLAN_H
