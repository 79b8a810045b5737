#include "engine/engine.h"

#include "engine/program_cache.h"
#include "js/parser.h"
#include "support/logging.h"

namespace nomap {

// trace.cc renders tiers from a mirrored name table; pin the layout.
static_assert(static_cast<uint8_t>(Tier::Interpreter) == 0 &&
              static_cast<uint8_t>(Tier::Baseline) == 1 &&
              static_cast<uint8_t>(Tier::Dfg) == 2 &&
              static_cast<uint8_t>(Tier::Ftl) == 3);

Engine::Engine(const EngineConfig &config)
    : engineConfig(config)
{
    if (std::optional<FaultPlan> plan = FaultPlan::fromEnv()) {
        envPlan = std::make_unique<FaultPlan>(std::move(*plan));
        armedPlan = envPlan.get();
    }
    initVm();
}

Engine::Engine(const EngineConfig &config, const ExternalVm &vm)
    : engineConfig(config)
{
    NOMAP_ASSERT(vm.shapes && vm.strings && vm.heap);
    externalVm = true;
    shapesPtr = vm.shapes;
    stringsPtr = vm.strings;
    heapPtr = vm.heap;
    if (std::optional<FaultPlan> plan = FaultPlan::fromEnv()) {
        envPlan = std::make_unique<FaultPlan>(std::move(*plan));
        armedPlan = envPlan.get();
    }
    initVm();
}

void
Engine::initVm()
{
    if (!externalVm) {
        ownedShapes = std::make_unique<ShapeTable>();
        ownedStrings = std::make_unique<StringTable>();
        ownedHeap = std::make_unique<Heap>(*ownedShapes, *ownedStrings);
        shapesPtr = ownedShapes.get();
        stringsPtr = ownedStrings.get();
        heapPtr = ownedHeap.get();
    }
    runtimePtr = std::make_unique<Runtime>(*heapPtr);
    builtinsPtr =
        std::make_unique<Builtins>(*runtimePtr, engineConfig.rngSeed);
    htmPtr = std::make_unique<TransactionManager>(
        htmModeOf(engineConfig.arch), engineConfig.capacityModel);
    memPtr = std::make_unique<MemHierarchy>();

    htmPtr->setRollbackClient(heapPtr);
    // In shared-heap mode the session points the heap at whichever
    // engine is executing the current region; attaching here would
    // just leave it aimed at the last engine constructed.
    if (!externalVm)
        heapPtr->setTransactionManager(htmPtr.get());

    acctPtr = std::make_unique<Accounting>(stats);
    if (engineConfig.traceCapacity > 0) {
        tracePtr =
            std::make_unique<TraceBuffer>(engineConfig.traceCapacity);
    }
    htmPtr->setTrace(tracePtr.get(), acctPtr.get());
    envPtr = std::make_unique<ExecEnv>(
        ExecEnv{*heapPtr, *runtimePtr, *builtinsPtr, *htmPtr, *memPtr,
                *acctPtr, *this, nullptr});
    envPtr->trace = tracePtr.get();
    interpreter =
        std::make_unique<BytecodeExecutor>(*envPtr, Tier::Interpreter);
    baselineExec =
        std::make_unique<BytecodeExecutor>(*envPtr, Tier::Baseline);
    irExec =
        std::make_unique<JitExecutor>(*envPtr, *baselineExec,
                                      engineConfig);
    envPtr->perOpAccounting = engineConfig.perOpAccounting;
    envPtr->quickening = engineConfig.quickening;
    acctPtr->setCancelFlag(cancelFlag);
    applyFaultPlan();
}

void
Engine::applyFaultPlan()
{
    injector.reset();
    if (armedPlan && !armedPlan->empty())
        injector = std::make_unique<FaultInjector>(*armedPlan);
    FaultInjector *inj = injector.get();
    htmPtr->setFaultInjector(inj);
    acctPtr->setFaultInjector(inj);
    envPtr->inj = inj;
    if (inj) {
        uint64_t ways = inj->valueOf(FaultSite::HtmWaysSqueeze, 0);
        if (ways) {
            htmPtr->squeezeWriteWays(
                static_cast<uint32_t>(ways));
        }
    }

    // (Re)build the adaptive controller *after* any ways squeeze so
    // its re-widen ceiling reflects the capacity the model actually
    // has. Re-arming resets controller state along with the injector
    // counters, keeping the two occurrence streams aligned.
    adaptivePtr.reset();
    if (engineConfig.adaptive && usesTransactions(engineConfig.arch)) {
        AdaptiveConfig ac;
        ac.siteBlacklistStreak = engineConfig.abortEscalationLimit;
        ac.modelCapacityBytes = htmPtr->writeCapacityBytes();
        adaptivePtr = std::make_unique<AdaptiveController>(ac);
    }
    htmPtr->setTelemetry(adaptivePtr.get());
}

void
Engine::armFaultPlan(const FaultPlan *plan)
{
    armedPlan = plan;
    applyFaultPlan();
}

Engine::~Engine() = default;

void
Engine::resetStats()
{
    stats = ExecutionStats();
    acctPtr->discardPendingInstructionCycles();
    htmPtr->resetStats();
    memPtr->resetStats();
    builtinsPtr->clearPrinted();
    if (tracePtr)
        tracePtr->clear();
}

void
Engine::reset()
{
    if (externalVm) {
        // The heap and tables belong to the session (and to the other
        // K-1 engines); this engine cannot recreate them.
        fatal("Engine::reset: unsupported on an external-VM engine");
    }
    // Drop execution state, then everything that holds references to
    // the VM (reverse construction order), then the VM itself, and
    // rebuild pristine.
    programPtr.reset();
    functionStates.clear();
    irExec.reset();
    baselineExec.reset();
    interpreter.reset();
    envPtr.reset();
    tracePtr.reset();
    acctPtr.reset();
    memPtr.reset();
    htmPtr.reset();
    builtinsPtr.reset();
    runtimePtr.reset();
    ownedHeap.reset();
    ownedStrings.reset();
    ownedShapes.reset();
    heapPtr = nullptr;
    stringsPtr = nullptr;
    shapesPtr = nullptr;
    stats = ExecutionStats();
    hasRun = false;
    initVm();
}

void
Engine::setCancelFlag(const std::atomic<bool> *flag)
{
    cancelFlag = flag;
    acctPtr->setCancelFlag(flag);
}

EngineResult
Engine::run(const std::string &source)
{
    bool cache_hit = false;
    std::unique_ptr<CompiledProgram> prog;
    if (programCache && !hasRun) {
        uint64_t hash = CompiledProgramCache::hashSource(source);
        prog = programCache->instantiate(hash, source, *heapPtr);
        if (prog) {
            cache_hit = true;
        } else {
            Program ast = parseProgram(source);
            prog = std::make_unique<CompiledProgram>(
                compile(ast, *heapPtr));
            programCache->insert(hash, source, *prog, *heapPtr);
        }
    } else {
        Program ast = parseProgram(source);
        prog =
            std::make_unique<CompiledProgram>(compile(ast, *heapPtr));
    }
    programPtr = std::move(prog);
    hasRun = true;
    envPtr->program = programPtr.get();

    functionStates.clear();
    functionStates.resize(programPtr->functions.size());

    // Execute <main> (always interpreted: top-level runs once).
    interpreter->run(programPtr->main(), nullptr, 0);

    // Convert the batched instruction units into cycles exactly once,
    // before anything reads the stats.
    acctPtr->flushInstructionCycles();

    EngineResult result;
    int32_t result_global = heapPtr->findGlobal("result");
    result.resultValue = result_global >= 0
                             ? heapPtr->getGlobal(
                                   static_cast<uint32_t>(result_global))
                             : Value::undefined();
    result.resultString =
        heapPtr->valueToDisplayString(result.resultValue);
    result.printed = builtinsPtr->printedOutput();

    // Copy transaction summary into the stats.
    const HtmStats &hs = htmPtr->stats();
    stats.txCommits = hs.commits;
    stats.txAborts = hs.aborts;
    stats.txAbortsCapacity =
        hs.abortsByCode[static_cast<size_t>(AbortCode::Capacity)];
    stats.txAbortsCheck =
        hs.abortsByCode[static_cast<size_t>(AbortCode::ExplicitCheck)];
    stats.txAbortsSof = hs.abortsByCode[static_cast<size_t>(
        AbortCode::StickyOverflow)];
    stats.avgWriteFootprintBytes = hs.avgWriteFootprintBytes();
    stats.maxWriteFootprintBytes = hs.maxWriteFootprintBytes;
    stats.maxWriteWaysUsed = hs.maxWriteWaysUsed;

    result.stats = stats;
    result.programCacheHit = cache_hit;
    return result;
}

uint64_t
Engine::hotness(const BytecodeFunction &fn) const
{
    return fn.profile.callCount + fn.profile.backEdgeCount / 8;
}

void
Engine::maybeTierUp(uint32_t func_id)
{
    BytecodeFunction &fn = *programPtr->functions[func_id];
    FunctionState &state = functionStates[func_id];
    uint64_t heat = hotness(fn);

    Tier want = Tier::Interpreter;
    if (heat >= engineConfig.ftlThreshold)
        want = Tier::Ftl;
    else if (heat >= engineConfig.dfgThreshold)
        want = Tier::Dfg;
    else if (heat >= engineConfig.baselineThreshold)
        want = Tier::Baseline;
    if (want > engineConfig.maxTier)
        want = engineConfig.maxTier;
    if (want <= state.tier)
        return;

    // Injected compile failure (engine.compile): the tier-up attempt
    // is abandoned and the function keeps running its current code;
    // the next call re-attempts, like a real OOM'd JIT allocation.
    if ((want == Tier::Dfg || want == Tier::Ftl) && injector &&
        injector->fire(FaultSite::EngineCompileFail)) {
        return;
    }

    switch (want) {
      case Tier::Baseline:
        ++stats.baselineCompiles;
        break;
      case Tier::Dfg:
        state.dfg = compileCode(fn, Tier::Dfg, state);
        ++stats.dfgCompiles;
        break;
      case Tier::Ftl:
        state.ftl = compileCode(fn, Tier::Ftl, state);
        ++stats.ftlCompiles;
        break;
      default:
        break;
    }
    state.tier = want;

    if (tracePtr && tracePtr->enabled()) {
        TraceEvent event;
        event.vcycles = acctPtr->virtualCycles();
        event.type = TraceEventType::TierUp;
        event.code = static_cast<uint8_t>(want);
        event.funcId = func_id;
        tracePtr->emit(event);
    }
}

PlanOverrides
Engine::planOverridesFor(const FunctionState &state) const
{
    PlanOverrides ov;
    // The default WaysAssoc model *is* the paper geometry the planner
    // already assumes; only a swapped-in model re-routes the planner
    // to the live capacity oracle (keeps static compiles bit-stable).
    if (engineConfig.capacityModel != CapacityModelKind::WaysAssoc)
        ov.capacityBytes = htmPtr->writeCapacityBytes();
    if (adaptivePtr) {
        ov.budgetOverrideBytes = state.capacityOverrideBytes;
        ov.blacklistPcs = state.blacklistedPcs;
    }
    return ov;
}

std::unique_ptr<CompiledIr>
Engine::compileCode(const BytecodeFunction &fn, Tier tier,
                    const FunctionState &state)
{
    // The DFG compiles at the default scope with static planning; only
    // FTL code carries the function's escalation and adaptive state.
    bool ftl = tier == Tier::Ftl;
    auto code = std::make_unique<CompiledIr>(compileFunction(
        fn, *heapPtr, tier, engineConfig.arch,
        ftl ? state.txScopeLevel : 0, tracePtr.get(), acctPtr.get(),
        ftl ? planOverridesFor(state) : PlanOverrides()));
    code->chain = buildJitChain(code->ir, engineConfig.jitTier);
    return code;
}

void
Engine::recompileFtl(uint32_t func_id, FunctionState &state)
{
    NOMAP_ASSERT(state.activeRuns == 0);
    // Injected compile failure: the function keeps its current code
    // (the revised plan state stays and rides the next recompile).
    if (injector && injector->fire(FaultSite::EngineCompileFail))
        return;
    state.ftl = compileCode(*programPtr->functions[func_id], Tier::Ftl,
                            state);
    ++stats.ftlRecompiles;
}

void
Engine::applyAdaptiveRevision(uint32_t func_id, FunctionState &state)
{
    std::optional<PlanRevision> rev =
        adaptivePtr->takePending(func_id);
    if (!rev)
        return;

    // adaptive.blacklist: force the function untransactional instead
    // of whatever was decided (models an operator kill switch).
    if (injector && injector->fire(FaultSite::AdaptiveBlacklist)) {
        adaptivePtr->noteForcedBlacklist(func_id);
        state.txScopeLevel = 3;
        state.capacityOverrideBytes = 0;
    } else if (injector &&
               injector->fire(FaultSite::AdaptiveDecision)) {
        // adaptive.decision: veto this application; the controller
        // rolls back and re-decides once the streaks rebuild.
        adaptivePtr->noteVetoed(*rev);
        return;
    } else {
        state.txScopeLevel = rev->scopeLevel;
        state.capacityOverrideBytes = rev->capacityOverrideBytes;
        state.blacklistedPcs = rev->blacklistPcs;
    }

    if (tracePtr && tracePtr->enabled()) {
        TraceEvent event;
        event.vcycles = acctPtr->virtualCycles();
        event.type = TraceEventType::PassReport;
        event.aux = static_cast<uint16_t>(TracePassId::Adaptive);
        event.funcId = func_id;
        event.pc = rev->hasAddedBlacklistPc ? rev->addedBlacklistPc
                                            : 0;
        event.bytes = state.capacityOverrideBytes;
        event.ways = state.txScopeLevel;
        tracePtr->emit(event);
    }
    recompileFtl(func_id, state);
}

Value
Engine::call(uint32_t func_id, const Value *args, uint32_t nargs)
{
    NOMAP_ASSERT(programPtr && func_id < programPtr->functions.size());
    BytecodeFunction &fn = *programPtr->functions[func_id];
    FunctionState &state = functionStates[func_id];

    ++fn.profile.callCount;
    maybeTierUp(func_id);

    switch (state.tier) {
      case Tier::Interpreter:
        return interpreter->run(fn, args, nargs);
      case Tier::Baseline:
        return baselineExec->run(fn, args, nargs);
      case Tier::Dfg:
        return irExec->run(*state.dfg->chain, state.dfg->ir, fn, args,
                           nargs);
      case Tier::Ftl: {
        ++stats.ftlFunctionCalls;
        uint64_t cap_before = htmPtr->stats().abortsByCode[
            static_cast<size_t>(AbortCode::Capacity)];
        uint64_t chk_before = htmPtr->stats().abortsByCode[
            static_cast<size_t>(AbortCode::ExplicitCheck)];
        uint64_t commits_before = htmPtr->stats().commits;

        // Guard the activation: replacing state.ftl mid-run would
        // free IR an outer recursive activation still executes.
        ++state.activeRuns;
        Value v;
        try {
            v = irExec->run(*state.ftl->chain, state.ftl->ir, fn, args,
                            nargs);
        } catch (...) {
            --state.activeRuns;
            throw;
        }
        --state.activeRuns;

        if (adaptivePtr) {
            // Adaptive mode: the controller already decided from the
            // telemetry stream; apply once no activation is live.
            if (state.activeRuns == 0 &&
                adaptivePtr->hasPending(func_id)) {
                applyAdaptiveRevision(func_id, state);
            }
            return v;
        }

        // NoMap runtime policy (paper V-C): repeated capacity aborts
        // shrink the transaction scope and recompile; repeated
        // explicit aborts eventually drop transactions entirely.
        const HtmStats &hs = htmPtr->stats();
        uint64_t new_caps = hs.abortsByCode[static_cast<size_t>(
                                AbortCode::Capacity)] -
                            cap_before;
        uint64_t new_chks = hs.abortsByCode[static_cast<size_t>(
                                AbortCode::ExplicitCheck)] -
                            chk_before;
        uint64_t new_commits = hs.commits - commits_before;
        if (new_commits > 0 && new_caps == 0 && new_chks == 0) {
            state.consecutiveCapacityAborts = 0;
            state.consecutiveCheckAborts = 0;
        }
        if (new_caps > 0) {
            state.consecutiveCapacityAborts +=
                static_cast<uint32_t>(new_caps);
            if (state.consecutiveCapacityAborts >= 2 &&
                state.txScopeLevel < 3) {
                ++state.txScopeLevel;
                state.pendingRecompile = true;
                state.consecutiveCapacityAborts = 0;
            }
        }
        if (new_chks > 0) {
            state.consecutiveCheckAborts +=
                static_cast<uint32_t>(new_chks);
            if (state.consecutiveCheckAborts >=
                    engineConfig.abortEscalationLimit &&
                state.txScopeLevel < 3) {
                state.txScopeLevel = 3;
                state.pendingRecompile = true;
                state.consecutiveCheckAborts = 0;
            }
        }
        // Deferred while recursive activations were live (the old IR
        // must stay allocated until the outermost frame returns).
        if (state.pendingRecompile && state.activeRuns == 0) {
            state.pendingRecompile = false;
            recompileFtl(func_id, state);
        }
        return v;
      }
    }
    panic("bad tier");
}

std::string
Engine::functionName(uint32_t func_id) const
{
    if (!programPtr || func_id >= programPtr->functions.size())
        return "";
    return programPtr->functions[func_id]->name;
}

const FunctionState *
Engine::functionState(const std::string &name) const
{
    if (!programPtr)
        return nullptr;
    int32_t id = programPtr->findFunction(name);
    if (id < 0)
        return nullptr;
    return &functionStates[static_cast<size_t>(id)];
}

const IrFunction *
Engine::ftlIr(const std::string &name) const
{
    const FunctionState *state = functionState(name);
    return state && state->ftl ? &state->ftl->ir : nullptr;
}

} // namespace nomap
