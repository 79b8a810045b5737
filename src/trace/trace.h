#ifndef NOMAP_TRACE_TRACE_H
#define NOMAP_TRACE_TRACE_H

/**
 * @file
 * Low-overhead structured event tracing with deterministic timestamps.
 *
 * The simulator's aggregate counters say *how many* transactions
 * aborted; this layer says *which* ones, *where*, and *why* — the
 * attribution signal behind the paper's Table IV characterization and
 * the <50-deopts claim. Three design rules:
 *
 *  1. **Zero cost when disabled.** Every producer guards with
 *     `buf && buf->enabled()`; `enabled()` is an inlinable load of the
 *     capacity field, and a null buffer is the common case. No trace
 *     site sits on the per-instruction hot path — events fire on
 *     transaction boundaries, deopts, tier-ups, compiles, and request
 *     edges only.
 *
 *  2. **Deterministic timestamps.** Events are stamped with *virtual
 *     cycles* from the engine's Accounting (via the TraceClock
 *     interface), never wall clock. The same program under the same
 *     config produces a bit-identical event stream on every run and
 *     every machine, which is what lets the golden-file trace test
 *     pin the exporter output exactly. The virtual clock is not
 *     strictly monotonic — accounting refunds on deopt/abort can step
 *     it back by a few cycles — but it is reproducible, which is the
 *     property the tests rely on.
 *
 *  3. **Fixed memory.** TraceBuffer is a fixed-capacity ring that
 *     drops the *newest* events once full (the prefix of a trace is
 *     the interesting part for attribution) and counts the drops, so
 *     a runaway workload can neither exhaust memory nor silently
 *     truncate: the drop counters surface in the service metrics.
 *
 * Two exporters render a drained event stream:
 *  - chromeTraceJson(): Chrome `trace_event` JSON (array-of-objects
 *    form), loadable in Perfetto / chrome://tracing. Transactions and
 *    request spans become duration ("B"/"E") events; deopts, tier-ups,
 *    and pass reports become instants. `ts` carries virtual
 *    microseconds (1 vcycle = 1 µs), `tid` the request lane.
 *  - abortAttributionReport(): a text table of the top-N abort sites,
 *    keyed by (function, transaction-entry pc, abort code), with
 *    footprint maxima per site — the capacity-tuning signal.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace nomap {

/** What happened (the event taxonomy; see DESIGN.md §7). */
enum class TraceEventType : uint8_t {
    TxBegin,    ///< Outermost XBegin (htm/transaction.cc).
    TxCommit,   ///< Outermost XEnd committed.
    TxAbort,    ///< Transaction aborted; code = AbortCode.
    Deopt,      ///< OSR exit through a stack map; code = CheckKind.
    TierUp,     ///< Tiering decision; code = destination Tier.
    PassReport, ///< Optimization-pass delta; aux = PassId.
    SpanBegin,  ///< Request-scoped span opens; code = SpanKind.
    SpanEnd,    ///< Request-scoped span closes; code = SpanKind.
};

/** Printable event-type name. */
const char *traceEventTypeName(TraceEventType type);

/** Request-scoped span kinds emitted by the service layer. */
enum class SpanKind : uint8_t {
    Request, ///< Whole request: submit to response.
    Queue,   ///< Time spent queued (instant; wall micros in payload).
    Execute, ///< One execution attempt on an isolate.
    Retry,   ///< A failed attempt that was retried (instant).
};

/** Printable span-kind name. */
const char *spanKindName(SpanKind kind);

/**
 * Identifies which optimization pass a PassReport event describes.
 * Lives here (not in passes/) because the trace layer is below every
 * producer in the link graph; the pass driver in ftl/compile.cc maps
 * each pass invocation to its id.
 */
enum class TracePassId : uint16_t {
    Planner, ///< nomap/planner.cc transaction placement (per loop).
    KindInference,
    CheckElim,
    LocalCse,
    Licm,
    StoreSink,
    Dce,
    LoopAccumulatorDce,
    EmptyLoopElim,
    BoundsCombine,
    SofElim,
    RemoveConvertedChecks,
    /** Not a pass: an adaptive plan revision (engine/engine.cc).
     *  bytes = capacity-override budget, ways = new scope level,
     *  pc = 0 (function-wide) or the blacklisted site. */
    Adaptive,
};

/** Printable pass name. */
const char *tracePassName(TracePassId pass);

/**
 * One fixed-size trace record. The meaning of the payload fields
 * depends on `type`:
 *
 *   TxBegin     funcId/pc = owning function + entry SMP pc
 *   TxCommit    bytes = write footprint, ways = max ways used
 *   TxAbort     code = AbortCode, bytes/ways as TxCommit (recorded
 *               *before* rollback — aborted footprints count)
 *   Deopt       code = CheckKind, funcId/pc = function + SMP pc
 *   TierUp      code = destination Tier, funcId
 *   PassReport  aux = PassId, bytes = checks removed by the pass (or
 *               converted by the planner), ways = dead ops removed
 *               (planner: tile interval), pc = loop header pc
 *   Span*       code = SpanKind, aux = attempt, bytes = wall micros
 */
struct TraceEvent {
    /** Virtual-cycle timestamp (deterministic; see file comment). */
    uint64_t vcycles = 0;
    TraceEventType type = TraceEventType::TxBegin;
    /** AbortCode / CheckKind / Tier / SpanKind, by type. */
    uint8_t code = 0;
    /** PassId or attempt ordinal, by type. */
    uint16_t aux = 0;
    /** Attributed function (IrFunction::funcId; 0 = <main>/unknown). */
    uint32_t funcId = 0;
    /** Bytecode pc: transaction-entry SMP, deopt SMP, loop header. */
    uint32_t pc = 0;
    /** Byte-sized payload (footprint bytes, micros, checks removed). */
    uint64_t bytes = 0;
    /** Ways-sized payload (max ways used, dead ops removed). */
    uint32_t ways = 0;
    /** Exporter lane (request id); 0 = engine-local events. */
    uint32_t tid = 0;

    bool operator==(const TraceEvent &) const = default;
};

/**
 * Receives every transaction-boundary event (TxBegin / TxCommit /
 * TxAbort) as it happens, independently of whether a TraceBuffer is
 * attached or enabled. This is the feed the adaptive planner's
 * controller consumes: unlike the ring buffer — which is sized for
 * post-hoc attribution and drops the newest events once full — a sink
 * sees the complete stream, and it works with tracing disabled
 * entirely. The interface lives here (not in htm/ or nomap/) because
 * trace sits below both in the link graph. Implementations must not
 * re-enter the transaction manager.
 */
class TxTelemetrySink
{
  public:
    virtual ~TxTelemetrySink() = default;

    /** One TxBegin/TxCommit/TxAbort, same payload as the traced form. */
    virtual void onTxEvent(const TraceEvent &event) = 0;
};

/**
 * Deterministic timestamp source. Implemented by the engine's
 * Accounting (virtual cycles charged so far, including pending
 * batched instruction units); the trace layer itself never reads wall
 * clock.
 */
class TraceClock
{
  public:
    virtual ~TraceClock() = default;

    /** Current virtual time, in cycles. */
    virtual uint64_t virtualCycles() const = 0;
};

/** A TraceClock pinned to a constant (tests, detached exporters). */
class FixedTraceClock final : public TraceClock
{
  public:
    explicit FixedTraceClock(uint64_t cycles = 0) : now(cycles) {}
    uint64_t virtualCycles() const override { return now; }
    void set(uint64_t cycles) { now = cycles; }

  private:
    uint64_t now;
};

/**
 * Fixed-capacity event ring. Not internally synchronized: one buffer
 * belongs to one Engine (single-threaded by construction); the
 * service drains it between requests under its own locking.
 */
class TraceBuffer
{
  public:
    /** @param capacity Max events held; 0 = tracing disabled. */
    explicit TraceBuffer(size_t capacity = 0);

    /**
     * The producer-side guard. Inlinable so a disabled buffer costs
     * one load + branch at each (already cold) trace site.
     */
    bool enabled() const { return cap != 0; }

    /**
     * Append @p event if there is room; count a drop otherwise.
     * Events beyond capacity are dropped (keep-oldest policy): the
     * head of a trace carries the attribution story, and keeping it
     * makes truncated traces stable prefixes of full ones.
     */
    void
    emit(const TraceEvent &event)
    {
        if (store.size() < cap) {
            store.push_back(event);
            ++emittedCount;
        } else {
            ++droppedCount;
        }
    }

    /** Events currently held (oldest first). */
    const std::vector<TraceEvent> &events() const { return store; }

    /** Events accepted since construction/clear. */
    uint64_t emitted() const { return emittedCount; }

    /** Events rejected because the buffer was full. */
    uint64_t dropped() const { return droppedCount; }

    size_t capacity() const { return cap; }

    /** Forget all events and zero the emit/drop counters. */
    void clear();

    /** Move the held events out (counters keep their totals). */
    std::vector<TraceEvent> drain();

  private:
    size_t cap;
    std::vector<TraceEvent> store;
    uint64_t emittedCount = 0;
    uint64_t droppedCount = 0;
};

/**
 * Resolves a funcId to a human-readable name for the exporters.
 * Return "" to fall back to "fn#<id>".
 */
using TraceNameResolver = std::function<std::string(uint32_t funcId)>;

/**
 * Render @p events as Chrome trace_event JSON (array form), loadable
 * in Perfetto / chrome://tracing. Deterministic: depends only on the
 * event stream and @p resolver.
 */
std::string chromeTraceJson(const std::vector<TraceEvent> &events,
                            const TraceNameResolver &resolver = {});

/**
 * Render the top-@p top_n abort sites as a text report: one line per
 * (function, entry pc, abort code) site, ordered by abort count
 * descending (ties: function id, pc, code ascending — total order, so
 * the report is deterministic).
 */
std::string
abortAttributionReport(const std::vector<TraceEvent> &events,
                       size_t top_n = 10,
                       const TraceNameResolver &resolver = {});

/**
 * One-line-per-event text dump (stable field order), the form the
 * golden trace test pins.
 */
std::string traceText(const std::vector<TraceEvent> &events);

} // namespace nomap

#endif // NOMAP_TRACE_TRACE_H
