#include "nomap/planner.h"

#include <algorithm>
#include <cmath>

#include "passes/analysis.h"
#include "support/logging.h"
#include "vm/builtins.h"

namespace nomap {

namespace {

/** Effective trip count of a loop including enclosing repetition. */
double
effectiveTrips(const NaturalLoop &loop,
               const std::vector<NaturalLoop> &loops,
               const FunctionProfile &profile)
{
    double trips = 1.0;
    const NaturalLoop *cur = &loop;
    for (int depth = 0; depth < 8 && cur; ++depth) {
        if (cur->loopId >= 0 &&
            static_cast<size_t>(cur->loopId) < profile.loops.size()) {
            trips *= std::max(
                1.0, profile.loops[cur->loopId].avgTripCount());
        }
        const NaturalLoop *parent = nullptr;
        if (cur->parentHeader >= 0) {
            for (const NaturalLoop &cand : loops) {
                if (cand.header ==
                    static_cast<uint32_t>(cur->parentHeader)) {
                    parent = &cand;
                    break;
                }
            }
        }
        cur = parent;
    }
    return trips;
}

/** Rough write-footprint estimate in bytes for one loop. */
uint64_t
estimateWriteFootprint(const IrFunction &fn, const NaturalLoop &loop,
                       const std::vector<NaturalLoop> &loops,
                       const FunctionProfile &profile)
{
    double bytes = 0.0;
    double outer = effectiveTrips(loop, loops, profile);
    for (uint32_t b : loop.blocks) {
        // Repetition of this block relative to the wrapped loop: the
        // innermost loop containing it.
        double trips = outer;
        for (const NaturalLoop &inner : loops) {
            if (inner.header != loop.header && inner.contains(b) &&
                loop.contains(inner.header)) {
                trips = std::max(trips,
                                 effectiveTrips(inner, loops, profile));
            }
        }
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            switch (instr.op) {
              case IrOp::SetElem:
              case IrOp::GenericSetIndex:
                bytes += 8.0 * trips; // Distinct elements.
                break;
              case IrOp::SetSlot:
              case IrOp::StoreGlobal:
              case IrOp::GenericSetProp:
                bytes += 64.0; // One line, rewritten in place.
                break;
              case IrOp::CallMethod:
                bytes += 8.0 * trips; // push()-style growth.
                break;
              case IrOp::Call:
                bytes += 512.0; // Callee writes, unknown.
                break;
              case IrOp::NewArray:
              case IrOp::NewObject:
                bytes += 64.0 * trips;
                break;
              default:
                break;
            }
        }
    }
    return static_cast<uint64_t>(bytes);
}

bool
containsIrrevocable(const IrFunction &fn, const NaturalLoop &loop)
{
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            if (instr.op == IrOp::CallNative &&
                static_cast<BuiltinId>(instr.imm) == BuiltinId::Print) {
                return true;
            }
        }
    }
    return false;
}

bool
containsCall(const IrFunction &fn, const NaturalLoop &loop)
{
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            if (instr.op == IrOp::Call ||
                instr.op == IrOp::CallMethod) {
                return true;
            }
        }
    }
    return false;
}

/** Any loop-header pc in this nest on the adaptive blacklist? */
bool
nestBlacklisted(const IrFunction &fn, const NaturalLoop &nest,
                const std::vector<NaturalLoop> &loops,
                const std::vector<uint32_t> &blacklist_pcs)
{
    if (blacklist_pcs.empty())
        return false;
    auto listed = [&](uint32_t header) {
        return std::binary_search(blacklist_pcs.begin(),
                                  blacklist_pcs.end(),
                                  fn.blocks[header].firstPc);
    };
    if (listed(nest.header))
        return true;
    for (const NaturalLoop &inner : loops) {
        if (inner.header != nest.header &&
            nest.contains(inner.header) && listed(inner.header)) {
            return true;
        }
    }
    return false;
}

bool
loopHasChecks(const IrFunction &fn, const NaturalLoop &loop)
{
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            if (instr.isCheck())
                return true;
        }
    }
    return false;
}

/** Per-iteration write bytes for the tiling computation. */
double
writeBytesPerIteration(const IrFunction &fn, const NaturalLoop &loop)
{
    double bytes = 0.0;
    for (uint32_t b : loop.blocks) {
        for (const IrInstr &instr : fn.blocks[b].instrs) {
            switch (instr.op) {
              case IrOp::SetElem:
              case IrOp::GenericSetIndex:
              case IrOp::CallMethod:
                bytes += 8.0;
                break;
              case IrOp::SetSlot:
              case IrOp::StoreGlobal:
              case IrOp::GenericSetProp:
                bytes += 1.0; // Amortized: same line each iteration.
                break;
              case IrOp::Call:
                bytes += 64.0;
                break;
              default:
                break;
            }
        }
    }
    return bytes;
}

/** Wrap @p loop in a transaction; convert its checks to aborts. */
void
wrapLoop(IrFunction &fn, const NaturalLoop &loop, uint32_t tile_every,
         PlanResult &result)
{
    uint32_t converted_before = result.checksConverted;
    uint32_t preheader = ensurePreheader(fn, loop);
    std::vector<uint32_t> exits = ensureDedicatedExits(fn, loop);

    // TxBegin: the transaction's Stack Map Point. An abort re-enters
    // Baseline at the loop-header bytecode pc ("Entry3") with the
    // registers captured here.
    IrInstr begin;
    begin.op = IrOp::TxBegin;
    begin.smpPc = fn.blocks[loop.header].firstPc;
    IrBlock &ph = fn.blocks[preheader];
    ph.instrs.insert(ph.instrs.end() - 1, begin);

    for (uint32_t exit : exits) {
        IrInstr end;
        end.op = IrOp::TxEnd;
        IrBlock &xb = fn.blocks[exit];
        xb.instrs.insert(xb.instrs.begin(), end);
    }

    if (tile_every > 0) {
        IrInstr tile;
        tile.op = IrOp::TxTile;
        tile.imm = tile_every;
        tile.smpPc = fn.blocks[loop.header].firstPc;
        IrBlock &hb = fn.blocks[loop.header];
        hb.instrs.insert(hb.instrs.begin(), tile);
        ++result.tiledLoops;
    }

    // SMP -> abort: it is safe to drop these SMPs because FTL code
    // has no entry points other than the function head (paper IV-B).
    for (uint32_t b : loop.blocks) {
        for (IrInstr &instr : fn.blocks[b].instrs) {
            if (instr.isCheck() && !instr.converted) {
                instr.converted = true;
                ++result.checksConverted;
            }
        }
    }

    TxRegion region;
    region.loopHeader = loop.header;
    region.beginBlock = preheader;
    region.blocks = loop.blocks;
    region.endBlocks = exits;
    fn.txRegions.push_back(std::move(region));
    ++result.transactionsPlaced;
    fn.txAware = true;

    LoopPlan plan;
    plan.headerPc = fn.blocks[loop.header].firstPc;
    plan.loopId =
        loop.loopId >= 0 ? static_cast<uint32_t>(loop.loopId) : 0;
    plan.checksConverted = result.checksConverted - converted_before;
    plan.tileEvery = tile_every;
    result.loops.push_back(plan);
}

} // namespace

PlanResult
planTransactions(IrFunction &fn, AnalysisContext &ctx,
                 const FunctionProfile &profile,
                 const PlannerConfig &config)
{
    PlanResult result;
    if (config.scopeLevel >= 4)
        return result;

    // Wrapping edits the CFG; the plan is made on the loops as they
    // were before the first wrap.
    const std::vector<NaturalLoop> &loops = ctx.loops();

    // An adaptive override *is* the budget (already safety-scaled
    // from observed abort footprints); otherwise budget = fraction of
    // the model capacity, as in the paper.
    uint64_t budget =
        config.budgetOverrideBytes
            ? config.budgetOverrideBytes
            : static_cast<uint64_t>(
                  config.capacityBudgetFraction *
                  static_cast<double>(config.writeCapacityBytes()));

    // Work on top-level nests, outermost first.
    for (const NaturalLoop &nest : loops) {
        if (nest.parentHeader >= 0)
            continue;
        if (nestBlacklisted(fn, nest, loops, config.blacklistPcs)) {
            ++result.nestsSkippedBlacklisted;
            continue;
        }
        if (containsIrrevocable(fn, nest)) {
            ++result.nestsSkippedIrrevocable;
            continue;
        }
        if (!loopHasChecks(fn, nest)) {
            // Nothing to convert: a transaction would be pure
            // overhead.
            continue;
        }
        double trips = effectiveTrips(nest, loops, profile);
        if (trips < config.minTripCount) {
            ++result.nestsSkippedCold;
            continue;
        }

        // Candidate scopes, largest first: the nest itself, then the
        // innermost hot loop, then a tiled innermost loop.
        const NaturalLoop *innermost = &nest;
        for (const NaturalLoop &cand : loops) {
            if (cand.header != nest.header &&
                nest.contains(cand.header) &&
                (innermost == &nest ||
                 cand.blocks.size() < innermost->blocks.size())) {
                innermost = &cand;
            }
        }

        uint32_t level = config.scopeLevel;
        if (level == 0) {
            uint64_t estimate =
                estimateWriteFootprint(fn, nest, loops, profile);
            if (estimate <= budget) {
                wrapLoop(fn, nest, 0, result);
                continue;
            }
            level = 1;
        }
        if (level == 1) {
            if (innermost != &nest) {
                uint64_t estimate = estimateWriteFootprint(
                    fn, *innermost, loops, profile);
                if (estimate <= budget) {
                    wrapLoop(fn, *innermost, 0, result);
                    continue;
                }
            }
            level = 2;
        }
        if (level == 2) {
            // Tile the innermost loop so one tile's writes fit.
            if (containsCall(fn, *innermost)) {
                // Paper: blame the callee; drop the transaction.
                ++result.nestsSkippedCapacity;
                continue;
            }
            double per_iter = writeBytesPerIteration(fn, *innermost);
            uint32_t k = per_iter > 0.0
                             ? static_cast<uint32_t>(
                                   static_cast<double>(budget) /
                                   per_iter)
                             : 4096;
            k = std::clamp<uint32_t>(k, 16, 1u << 20);
            wrapLoop(fn, *innermost, k, result);
            continue;
        }
        // level >= 3: no transaction for this nest.
        ++result.nestsSkippedCapacity;
    }

    fn.verify();
    return result;
}

} // namespace nomap
