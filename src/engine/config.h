#ifndef NOMAP_ENGINE_CONFIG_H
#define NOMAP_ENGINE_CONFIG_H

/**
 * @file
 * Engine configuration: the architectures of the paper's Table II
 * plus tiering policy knobs.
 */

#include <cstdint>

#include "engine/cost_model.h"
#include "htm/transaction.h"

namespace nomap {

/** The six evaluated architectures (paper Table II). */
enum class Architecture : uint8_t {
    Base,     ///< Unmodified JavaScriptCore-like pipeline.
    NoMapS,   ///< Transactions + SMP->abort + cross-abort opts.
    NoMapB,   ///< NoMap_S + bounds-check hoisting/sinking.
    NoMap,    ///< NoMap_B + SOF overflow-check removal (proposed).
    NoMapBC,  ///< Unrealistic bound: all in-tx checks removed.
    NoMapRTM, ///< NoMap_B on Intel-style heavyweight HTM.
};

/** Printable architecture name (matches the paper's labels). */
inline const char *
architectureName(Architecture arch)
{
    switch (arch) {
      case Architecture::Base: return "Base";
      case Architecture::NoMapS: return "NoMap_S";
      case Architecture::NoMapB: return "NoMap_B";
      case Architecture::NoMap: return "NoMap";
      case Architecture::NoMapBC: return "NoMap_BC";
      case Architecture::NoMapRTM: return "NoMap_RTM";
    }
    return "?";
}

/** Does this architecture place transactions at all? */
inline bool
usesTransactions(Architecture arch)
{
    return arch != Architecture::Base;
}

/** HTM flavor an architecture targets. */
inline HtmMode
htmModeOf(Architecture arch)
{
    return arch == Architecture::NoMapRTM ? HtmMode::Rtm : HtmMode::Rot;
}

/** Full engine configuration. */
struct EngineConfig {
    Architecture arch = Architecture::Base;
    /** Highest tier allowed (paper Table I caps this). */
    Tier maxTier = Tier::Ftl;

    // Tier-up thresholds (hotness = calls + backEdges/8).
    uint64_t baselineThreshold = 4;
    uint64_t dfgThreshold = 16;
    uint64_t ftlThreshold = 60;

    /** Seed for Math.random() and any synthetic workload data. */
    uint64_t rngSeed = 0x5eed;

    /**
     * Abort watchdog: a transaction exceeding this many charged
     * instructions is killed (models the timer interrupt that aborts
     * real hardware transactions).
     */
    uint64_t txWatchdogInstructions = 400ull * 1000 * 1000;

    /** Consecutive explicit aborts before detransactionalizing. */
    uint32_t abortEscalationLimit = 8;

    /**
     * Shared-heap sessions (stm/shared_heap.h): HTM attempts a region
     * gets before it takes the software fallback path (Brown's
     * retry-N-then-fallback template). Ignored outside shared
     * sessions — plain isolate execution never consults it, which is
     * part of why a K=1 shared session stays bit-identical to an
     * isolate.
     */
    uint32_t htmRetryLimit = 4;

    /**
     * Charge accounting per executed operation instead of per basic
     * block. Slow reference mode: the batched fast path must produce
     * bit-identical ExecutionStats (the differential accounting test
     * runs every suite program both ways and compares).
     */
    bool perOpAccounting = false;

    /**
     * Rewrite warm bytecode in place to quickened forms
     * (superinstructions, monomorphic slot loads, int32 arith) and
     * run the quickening-enabled executor variants. Host-side
     * acceleration only: results, ExecutionStats, and traces are
     * bit-identical with quickening on or off (enforced by the
     * quickening differential test). Off is the reference mode.
     */
    bool quickening = true;

    /**
     * Superinstruction fusion in the DFG/FTL chains (src/jit/): when
     * set, buildJitChain fuses adjacent compare+branch and
     * int-arith+overflow-check records into one template. Host-side
     * acceleration only: results, ExecutionStats, and traces are
     * bit-identical with fusion on or off (enforced by the jit
     * differential test). Off, the unfused chain, is the reference
     * mode.
     */
    bool jitTier = false;

    /**
     * Adaptive transaction planning: attach an AdaptiveController to
     * the HTM telemetry stream and revise per-function transaction
     * scopes from observed abort behavior (learned capacity budgets,
     * per-site blacklists, re-widening) instead of the static
     * escalation ladder. Deterministic: decisions are a pure function
     * of the virtual-cycle telemetry stream, and an abort-free run
     * is bit-identical to static planning (enforced by the adaptive
     * differential test). Ignored for Architecture::Base.
     */
    bool adaptive = false;

    /**
     * Capacity-model flavor for the HTM write/read sets.
     * WaysAssoc (the default) is the paper's set-associative cache
     * geometry and the reference mode; LimitedSet models a
     * fixed-entry transactional write buffer (FORTH TR-450-style).
     */
    CapacityModelKind capacityModel = CapacityModelKind::WaysAssoc;

    /**
     * Trace-buffer capacity in events; 0 (the default) disables
     * tracing entirely — no buffer is allocated and every trace site
     * reduces to a null-pointer test. Tracing must not perturb the
     * simulation: ExecutionStats are bit-identical with tracing on or
     * off (enforced by the trace differential test).
     */
    uint32_t traceCapacity = 0;
};

} // namespace nomap

#endif // NOMAP_ENGINE_CONFIG_H
