#ifndef NOMAP_ENGINE_ENGINE_H
#define NOMAP_ENGINE_ENGINE_H

/**
 * @file
 * The public entry point of the library.
 *
 * An Engine owns one complete VM instance: string/shape tables, heap,
 * runtime, builtins, HTM manager, cache hierarchy, code cache, and
 * the tiering controller. `Engine::run` executes a JS-subset program
 * under the configured architecture (paper Table II) and returns the
 * collected ExecutionStats — the raw material for every figure and
 * table reproduction in bench/.
 *
 * Typical use:
 * @code
 *   EngineConfig config;
 *   config.arch = Architecture::NoMap;
 *   Engine engine(config);
 *   EngineResult result = engine.run(source);
 *   std::cout << result.stats.totalInstructions() << "\n";
 * @endcode
 */

#include <atomic>
#include <memory>
#include <string>

#include "engine/config.h"
#include "engine/stats.h"
#include "ftl/compile.h"
#include "inject/fault_plan.h"
#include "interp/bytecode_executor.h"
#include "jit/jit_executor.h"
#include "nomap/adaptive.h"

namespace nomap {

class CompiledProgramCache;

/** Outcome of one Engine::run. */
struct EngineResult {
    /** Value of the program's `result` global (undefined if unset). */
    Value resultValue;
    /** Display string of resultValue (valid after run returns). */
    std::string resultString;
    /** Everything print() emitted. */
    std::string printed;
    /** All counters. */
    ExecutionStats stats;
    /** True when compilation was skipped via the program cache. */
    bool programCacheHit = false;
};

/** Per-function tiering state. */
struct FunctionState {
    Tier tier = Tier::Interpreter;
    std::unique_ptr<CompiledIr> dfg;
    std::unique_ptr<CompiledIr> ftl;
    /** NoMap recompilation escalation (0 nest, 1 inner, 2 tile, 3 off). */
    uint32_t txScopeLevel = 0;
    uint32_t consecutiveCapacityAborts = 0;
    uint32_t consecutiveCheckAborts = 0;
    /** Adaptive mode: learned planner budget (0 = default). */
    uint64_t capacityOverrideBytes = 0;
    /** Adaptive mode: blacklisted loop-header pcs, ascending. */
    std::vector<uint32_t> blacklistedPcs;
    /**
     * Live activations of this function's FTL code (recursion depth).
     * Replacing `ftl` while an outer activation still executes the
     * old IR would be a use-after-free, so recompiles decided inside
     * a recursive call are deferred until the outermost activation
     * returns (see pendingRecompile).
     */
    uint32_t activeRuns = 0;
    /** A scope-escalation recompile is owed once activeRuns == 0. */
    bool pendingRecompile = false;
};

/** One self-contained VM + JIT + hardware model instance. */
class Engine : public CallDispatcher
{
  public:
    explicit Engine(const EngineConfig &config = EngineConfig());
    ~Engine() override;

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Parse, compile, and execute @p source to completion.
     * Throws FatalError on syntax/semantic errors.
     *
     * An Engine may run several programs in sequence: they share the
     * heap (globals persist, like successive scripts in one page) and
     * the statistics accumulate across runs. Use a fresh Engine for
     * isolated measurements.
     */
    EngineResult run(const std::string &source);

    // ---- Serving-layer hooks ------------------------------------------
    /**
     * Zero every per-run counter (ExecutionStats, HTM summary, memory
     * hierarchy stats, accumulated print() output) without touching
     * VM state. A reused isolate calls this between requests so each
     * run reports clean stats instead of accumulating.
     */
    void resetStats();

    /**
     * Tear the VM down to its freshly-constructed state: new heap,
     * tables, runtime, HTM, executors, zeroed stats. After reset()
     * the engine is pristine — it behaves bit-identically to a newly
     * constructed Engine with the same config, which is what lets the
     * service pool reuse isolates across unrelated tenants while
     * keeping per-request determinism, and what makes the shared
     * program cache applicable again.
     */
    void reset();

    /** Has run() executed since construction/reset()? */
    bool pristine() const { return !hasRun; }

    /**
     * Attach a shared compiled-program cache. Consulted by run() only
     * while the engine is pristine (cached programs are only valid
     * against a pristine heap; see program_cache.h). May be null.
     */
    void setProgramCache(CompiledProgramCache *cache)
    {
        programCache = cache;
    }

    /**
     * Install a cooperative cancellation flag (deadline watchdog).
     * When the flag becomes true mid-run, run() throws
     * ExecutionCancelled; the engine must then be reset() or
     * destroyed. Pass nullptr to detach. Survives reset().
     */
    void setCancelFlag(const std::atomic<bool> *flag);

    /**
     * Arm a deterministic fault plan (see src/inject/fault_plan.h):
     * a fresh FaultInjector is wired into the HTM manager, the
     * executors, and the accounting poll site, with all occurrence
     * counters at zero. @p plan must outlive the engine (or its next
     * armFaultPlan/reset call). Passing nullptr disarms injection
     * entirely — including a plan picked up from NOMAP_FAULT_PLAN at
     * construction. reset() re-arms the current plan with fresh
     * counters. Note: an htm.ways squeeze applied while armed is only
     * restored by reset(), not by disarming.
     */
    void armFaultPlan(const FaultPlan *plan);

    /**
     * The live injector (occurrence counters) for the armed plan, or
     * nullptr when no plan is armed.
     */
    const FaultInjector *faultInjector() const
    {
        return injector.get();
    }

    // ---- CallDispatcher ------------------------------------------------
    Value call(uint32_t func_id, const Value *args,
               uint32_t nargs) override;

    // ---- Introspection (tests, benches, examples) ---------------------
    const EngineConfig &config() const { return engineConfig; }
    Heap &heap() { return *heapPtr; }
    TransactionManager &htm() { return *htmPtr; }
    MemHierarchy &memHierarchy() { return *memPtr; }
    const CompiledProgram *program() const { return programPtr.get(); }

    /**
     * The engine's trace buffer, or nullptr when
     * EngineConfig::traceCapacity is 0. Callers drain() it between
     * runs; resetStats()/reset() clear it.
     */
    TraceBuffer *trace() { return tracePtr.get(); }

    /**
     * The adaptive controller, or nullptr unless
     * EngineConfig::adaptive is set (and the architecture places
     * transactions at all). Rebuilt fresh by reset()/armFaultPlan().
     */
    const AdaptiveController *adaptive() const
    {
        return adaptivePtr.get();
    }

    /**
     * Resolve a function id to its source name for trace exporters
     * ("" when unknown / no program loaded).
     */
    std::string functionName(uint32_t func_id) const;

    /** Tiering state of a function (by name; nullptr if unknown). */
    const FunctionState *functionState(const std::string &name) const;

    /** The FTL IR compiled for a function, if any (for inspection). */
    const IrFunction *ftlIr(const std::string &name) const;

  private:
    void initVm();
    void applyFaultPlan();
    void maybeTierUp(uint32_t func_id);
    uint64_t hotness(const BytecodeFunction &fn) const;
    PlanOverrides planOverridesFor(const FunctionState &state) const;
    std::unique_ptr<CompiledIr> compileCode(const BytecodeFunction &fn,
                                            Tier tier,
                                            const FunctionState &state);
    void recompileFtl(uint32_t func_id, FunctionState &state);
    void applyAdaptiveRevision(uint32_t func_id,
                               FunctionState &state);

    EngineConfig engineConfig;
    CompiledProgramCache *programCache = nullptr;
    const std::atomic<bool> *cancelFlag = nullptr;
    /** Plan captured from NOMAP_FAULT_PLAN at construction. */
    std::unique_ptr<FaultPlan> envPlan;
    /** Currently armed plan (envPlan or caller-provided); nullable. */
    const FaultPlan *armedPlan = nullptr;
    std::unique_ptr<FaultInjector> injector;
    bool hasRun = false;

    // Construction order matters: tables before heap, heap before
    // runtime, everything before executors.
    std::unique_ptr<ShapeTable> shapesPtr;
    std::unique_ptr<StringTable> stringsPtr;
    std::unique_ptr<Heap> heapPtr;
    std::unique_ptr<Runtime> runtimePtr;
    std::unique_ptr<Builtins> builtinsPtr;
    std::unique_ptr<TransactionManager> htmPtr;
    std::unique_ptr<MemHierarchy> memPtr;
    std::unique_ptr<AdaptiveController> adaptivePtr;

    ExecutionStats stats;
    std::unique_ptr<Accounting> acctPtr;
    std::unique_ptr<TraceBuffer> tracePtr;
    std::unique_ptr<ExecEnv> envPtr;
    std::unique_ptr<BytecodeExecutor> interpreter;
    std::unique_ptr<BytecodeExecutor> baselineExec;
    std::unique_ptr<JitExecutor> irExec;

    std::unique_ptr<CompiledProgram> programPtr;
    std::vector<FunctionState> functionStates;
};

} // namespace nomap

#endif // NOMAP_ENGINE_ENGINE_H
