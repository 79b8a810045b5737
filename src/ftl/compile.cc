#include "ftl/compile.h"

#include "passes/analysis.h"
#include "support/logging.h"

namespace nomap {

namespace {

/**
 * Runs passes over one function with the compile's analysis context
 * and attributes their PassStats deltas to PassReport trace events. A
 * pass that changed nothing emits nothing, so traces only carry the
 * passes that explain the final code.
 */
class PassRunner
{
  public:
    PassRunner(IrFunction &ir, AnalysisContext &ctx, PassStats &stats,
               TraceBuffer *trace, const TraceClock *clock,
               const PassObserver &observer)
        : ir(ir), ctx(ctx), stats(stats), trace(trace), clock(clock),
          observer(observer)
    {
    }

    void
    run(TracePassId id,
        void (*pass)(IrFunction &, AnalysisContext &, PassStats &))
    {
        uint32_t checks_before = totalChecksRemoved(stats);
        uint32_t ops_before = totalOpsChanged(stats);
        pass(ir, ctx, stats);
        observe(id);
        if (!trace || !trace->enabled())
            return;
        uint32_t checks = totalChecksRemoved(stats) - checks_before;
        uint32_t ops = totalOpsChanged(stats) - ops_before;
        if (checks == 0 && ops == 0)
            return;
        TraceEvent event;
        event.vcycles = clock ? clock->virtualCycles() : 0;
        event.type = TraceEventType::PassReport;
        event.aux = static_cast<uint16_t>(id);
        event.funcId = ir.funcId;
        event.bytes = checks;
        event.ways = ops;
        trace->emit(event);
    }

    void
    observe(TracePassId id)
    {
        if (observer)
            observer(id, ir, ctx);
    }

  private:
    IrFunction &ir;
    AnalysisContext &ctx;
    PassStats &stats;
    TraceBuffer *trace;
    const TraceClock *clock;
    const PassObserver &observer;
};

/**
 * Drop the slack the builder's appends and the passes' insertions
 * left in every block: compiled IR lives as long as its function.
 * Passes compact in place, so this runs once, at the end.
 */
void
trimInstrs(IrFunction &ir)
{
    for (IrBlock &block : ir.blocks)
        block.instrs.shrink_to_fit();
}

} // namespace

CompiledIr
compileFunction(const BytecodeFunction &fn, Heap &heap, Tier tier,
                Architecture arch, uint32_t tx_scope_level,
                TraceBuffer *trace, const TraceClock *clock,
                const PlanOverrides &overrides,
                const PassObserver &observer)
{
    CompiledIr out;
    out.ir = buildIr(fn, heap, tier);
    AnalysisContext ctx(out.ir);
    PassRunner passes(out.ir, ctx, out.passStats, trace, clock, observer);

    if (tier == Tier::Dfg) {
        // The DFG runs its abstract interpreter and little else.
        passes.run(TracePassId::KindInference, runKindInference);
        passes.run(TracePassId::LocalCse, runLocalCse);
        trimInstrs(out.ir);
        out.ir.verify();
        computeChargePlan(out.ir);
        return out;
    }

    // FTL. NoMap's transformation runs *before* the optimization
    // pipeline so every pass sees aborts instead of SMPs (paper IV-B).
    if (usesTransactions(arch)) {
        PlannerConfig pc;
        pc.htmMode = htmModeOf(arch);
        pc.scopeLevel = tx_scope_level;
        pc.capacityBytes = overrides.capacityBytes;
        pc.budgetOverrideBytes = overrides.budgetOverrideBytes;
        pc.blacklistPcs = overrides.blacklistPcs;
        out.planResult = planTransactions(out.ir, ctx, fn.profile, pc);
        passes.observe(TracePassId::Planner);
        if (trace && trace->enabled()) {
            for (const LoopPlan &plan : out.planResult.loops) {
                TraceEvent event;
                event.vcycles = clock ? clock->virtualCycles() : 0;
                event.type = TraceEventType::PassReport;
                event.aux =
                    static_cast<uint16_t>(TracePassId::Planner);
                event.funcId = out.ir.funcId;
                event.pc = plan.headerPc;
                event.bytes = plan.checksConverted;
                event.ways = plan.tileEvery;
                trace->emit(event);
            }
        }
    }

    passes.run(TracePassId::KindInference, runKindInference);
    passes.run(TracePassId::CheckElim, runCheckElim);
    passes.run(TracePassId::LocalCse, runLocalCse);
    passes.run(TracePassId::Licm, runLicm);
    passes.run(TracePassId::StoreSink, runStoreSink);
    // A second round: promotion and hoisting expose more redundancy.
    passes.run(TracePassId::LocalCse, runLocalCse);
    passes.run(TracePassId::CheckElim, runCheckElim);
    passes.run(TracePassId::Dce, runDce);
    for (int i = 0; i < 6; ++i) {
        uint32_t before = out.passStats.emptyLoopsRemoved +
                          out.passStats.deadOpsRemoved;
        passes.run(TracePassId::LoopAccumulatorDce,
                   runLoopAccumulatorDce);
        passes.run(TracePassId::Dce, runDce);
        passes.run(TracePassId::EmptyLoopElim, runEmptyLoopElim);
        if (out.passStats.emptyLoopsRemoved +
                out.passStats.deadOpsRemoved == before) {
            break;
        }
    }

    switch (arch) {
      case Architecture::Base:
      case Architecture::NoMapS:
        break;
      case Architecture::NoMapB:
      case Architecture::NoMapRTM:
        passes.run(TracePassId::BoundsCombine, runBoundsCombine);
        break;
      case Architecture::NoMap:
        passes.run(TracePassId::BoundsCombine, runBoundsCombine);
        passes.run(TracePassId::SofElim, runSofElim);
        break;
      case Architecture::NoMapBC:
        passes.run(TracePassId::BoundsCombine, runBoundsCombine);
        passes.run(TracePassId::RemoveConvertedChecks,
                   runRemoveConvertedChecks);
        break;
    }

    trimInstrs(out.ir);
    out.ir.verify();
    computeChargePlan(out.ir);
    return out;
}

} // namespace nomap
