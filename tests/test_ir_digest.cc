/**
 * @file
 * IR-digest differential: pins the exact post-pass IR of every DFG
 * and FTL compile of the suites (S01-S26, K01-K14) and of a seeded
 * set of generated programs, on all six architectures. The same
 * compiles also audit the per-compile analysis cache (see the
 * AnalysisCache test at the end).
 *
 * Each program runs on a fresh Engine (which supplies real profiles
 * and the installed DFG/FTL code). Every function the engine compiled
 * is then compiled again through compileFunction at the DFG tier and
 * at the FTL tier for every planner scope level the architecture
 * uses. The installed IR and every recompile are hashed field by
 * field: each IrInstr field, block succs/preds in order, loop ids and
 * first pcs, numRegs, bytecodeRegs, txAware, constants and txRegions.
 * One digest line per (program, architecture) is compared with
 * tests/golden/ir_digest.golden.txt.
 *
 * A pass rewrite that is meant to be output-preserving must leave the
 * golden unchanged; one that changes the IR on purpose regenerates it
 * with NOMAP_UPDATE_GOLDEN=1 ./tests/test_ir_digest and explains the
 * diff.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "engine/engine.h"
#include "ftl/compile.h"
#include "passes/analysis.h"
#include "suites/suite.h"
#include "testing/program_generator.h"

namespace nomap {
namespace {

constexpr Architecture kArchs[] = {
    Architecture::Base,  Architecture::NoMapS,  Architecture::NoMapB,
    Architecture::NoMap, Architecture::NoMapBC, Architecture::NoMapRTM,
};

/** Generated programs in the digest set (seeds 1..kGeneratedPrograms). */
constexpr uint64_t kGeneratedPrograms = 12;

/** FNV-1a over explicitly listed fields (no struct padding). */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    addList(const std::vector<uint32_t> &values)
    {
        add(values.size());
        for (uint32_t v : values)
            add(v);
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

void
digestIr(const IrFunction &ir, Digest &d)
{
    d.add(ir.funcId);
    d.add(static_cast<uint64_t>(ir.tier));
    d.add(ir.bytecodeRegs);
    d.add(ir.numRegs);
    d.add(ir.txAware);
    d.add(ir.blocks.size());
    for (const IrBlock &block : ir.blocks) {
        d.add(block.instrs.size());
        for (const IrInstr &instr : block.instrs) {
            d.add(static_cast<uint64_t>(instr.op));
            d.add(instr.dst);
            d.add(instr.a);
            d.add(instr.b);
            d.add(instr.c);
            d.add(instr.imm);
            d.add(instr.imm2);
            d.add(instr.smpPc);
            d.add(instr.converted);
        }
        d.addList(block.succs);
        d.addList(block.preds);
        d.add(static_cast<uint32_t>(block.loopId));
        d.add(block.firstPc);
    }
    d.add(ir.constants.size());
    for (const Value &v : ir.constants)
        d.add(v.rawBits());
    d.add(ir.txRegions.size());
    for (const TxRegion &region : ir.txRegions) {
        d.add(region.loopHeader);
        d.add(region.beginBlock);
        d.addList(region.blocks);
        d.addList(region.endBlocks);
    }
}

/**
 * Run @p source on @p arch, then call @p f(ir) for the installed IR
 * and for a fresh compile of every function the engine compiled: once
 * at the DFG tier and once per planner scope level at the FTL tier.
 * The fresh compiles run @p observer after every pass. Returns the
 * number of IR functions visited.
 */
template <typename F>
uint32_t
forEachCompiledIr(const std::string &source, Architecture arch, F &&f,
                  const PassObserver &observer = {})
{
    EngineConfig config;
    config.arch = arch;
    Engine engine(config);
    engine.run(source);
    const CompiledProgram *program = engine.program();
    uint32_t levels = usesTransactions(arch) ? 4 : 1;
    uint32_t visited = 0;
    for (uint32_t id = 0; id < program->functions.size(); ++id) {
        const FunctionState *state =
            engine.functionState(engine.functionName(id));
        if (!state || (!state->dfg && !state->ftl))
            continue;
        for (const auto *code : {state->dfg.get(), state->ftl.get()}) {
            if (code) {
                f(code->ir);
                ++visited;
            }
        }
        const BytecodeFunction &fn = *program->functions[id];
        f(compileFunction(fn, engine.heap(), Tier::Dfg, arch, 0, nullptr,
                          nullptr, {}, observer)
              .ir);
        ++visited;
        for (uint32_t level = 0; level < levels; ++level) {
            f(compileFunction(fn, engine.heap(), Tier::Ftl, arch, level,
                              nullptr, nullptr, {}, observer)
                  .ir);
            ++visited;
        }
    }
    return visited;
}

struct Program {
    std::string id;
    std::string source;
};

std::vector<Program>
digestPrograms()
{
    std::vector<Program> programs;
    for (const auto *suite : {&sunspiderSuite(), &krakenSuite()}) {
        for (const BenchmarkSpec &spec : *suite)
            programs.push_back({spec.id, spec.source});
    }
    for (uint64_t seed = 1; seed <= kGeneratedPrograms; ++seed) {
        char id[8];
        std::snprintf(id, sizeof(id), "G%02u",
                      static_cast<unsigned>(seed));
        programs.push_back(
            {id, testutil::ProgramGenerator(seed).generate()});
    }
    return programs;
}

std::string
goldenPath()
{
    return std::string(NOMAP_GOLDEN_DIR) + "/ir_digest.golden.txt";
}

bool
updateMode()
{
    const char *v = std::getenv("NOMAP_UPDATE_GOLDEN");
    return v && *v && std::string(v) != "0";
}

TEST(IrDigest, PostPassIrMatchesGolden)
{
    std::ostringstream actual;
    for (const Program &program : digestPrograms()) {
        for (Architecture arch : kArchs) {
            Digest d;
            uint32_t count = forEachCompiledIr(
                program.source, arch,
                [&](const IrFunction &ir) { digestIr(ir, d); });
            char line[96];
            std::snprintf(line, sizeof(line), "%s %s %u %016llx\n",
                          program.id.c_str(), architectureName(arch),
                          count,
                          static_cast<unsigned long long>(d.value()));
            actual << line;
        }
    }
    std::string path = goldenPath();
    if (updateMode()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << path;
        out << actual.str();
        return;
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream expected;
    expected << in.rdbuf();
    ASSERT_FALSE(expected.str().empty())
        << "missing golden " << path
        << " — bootstrap with NOMAP_UPDATE_GOLDEN=1";
    EXPECT_EQ(actual.str(), expected.str())
        << "post-pass IR drifted from " << path
        << "; if intentional, regenerate with NOMAP_UPDATE_GOLDEN=1 "
           "and review the diff";
}

void
expectSameLoops(const std::vector<NaturalLoop> &cached,
                const std::vector<NaturalLoop> &fresh)
{
    ASSERT_EQ(cached.size(), fresh.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
        SCOPED_TRACE("loop " + std::to_string(i));
        EXPECT_EQ(cached[i].header, fresh[i].header);
        EXPECT_EQ(cached[i].blocks, fresh[i].blocks);
        EXPECT_EQ(cached[i].exitingBlocks, fresh[i].exitingBlocks);
        EXPECT_EQ(cached[i].exitTargets, fresh[i].exitTargets);
        EXPECT_EQ(cached[i].latches, fresh[i].latches);
        EXPECT_EQ(cached[i].loopId, fresh[i].loopId);
        EXPECT_EQ(cached[i].parentHeader, fresh[i].parentHeader);
    }
}

/**
 * After every pass of every compile of the digest set, the analysis
 * context's cached RPO, dominators and loops equal a fresh
 * computation (a new context over the same IR): a pass that edits the
 * CFG without bumping IrFunction::cfgEpoch leaves a stale cache and
 * fails here.
 */
TEST(AnalysisCache, MatchesFreshComputationAfterEveryPass)
{
    uint64_t audits = 0;
    uint64_t cfg_edits = 0;
    PassObserver audit = [&](TracePassId id, const IrFunction &ir,
                             AnalysisContext &ctx) {
        SCOPED_TRACE(std::string("after ") + tracePassName(id));
        AnalysisContext fresh(ir);
        EXPECT_EQ(ctx.rpo(), fresh.rpo());
        EXPECT_EQ(ctx.idoms(), fresh.idoms());
        expectSameLoops(ctx.loops(), fresh.loops());
        ++audits;
        cfg_edits += ir.cfgEpoch;
    };
    for (const Program &program : digestPrograms()) {
        for (Architecture arch : kArchs) {
            SCOPED_TRACE(program.id + " on " + architectureName(arch));
            forEachCompiledIr(
                program.source, arch, [](const IrFunction &) {}, audit);
            if (HasFailure())
                return;
        }
    }
    // The set exercises the pipeline, and passes that edit the CFG.
    EXPECT_GT(audits, 10000u);
    EXPECT_GT(cfg_edits, 0u);
}

} // namespace
} // namespace nomap
