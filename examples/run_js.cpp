/**
 * @file
 * Command-line runner: execute a JS-subset file (or one of the
 * built-in suite benchmarks) under a chosen architecture and print
 * the program output plus the full statistics block.
 *
 * Usage:
 *   run_js [--arch base|nomap_s|nomap_b|nomap|nomap_bc|nomap_rtm]
 *          [--tier interp|baseline|dfg|ftl] [--jit]
 *          (<file.js> | --bench S01..S26|K01..K14)
 *
 * --jit fuses superinstructions in the DFG/FTL chains
 * (EngineConfig::jitTier) — host speed only; the printed result and
 * every statistic must be identical with and without it.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "engine/engine.h"
#include "suites/suite.h"
#include "support/logging.h"

using namespace nomap;

namespace {

bool
parseArch(const char *name, Architecture *out)
{
    const struct {
        const char *name;
        Architecture arch;
    } table[] = {
        {"base", Architecture::Base},
        {"nomap_s", Architecture::NoMapS},
        {"nomap_b", Architecture::NoMapB},
        {"nomap", Architecture::NoMap},
        {"nomap_bc", Architecture::NoMapBC},
        {"nomap_rtm", Architecture::NoMapRTM},
    };
    for (const auto &entry : table) {
        if (std::strcmp(entry.name, name) == 0) {
            *out = entry.arch;
            return true;
        }
    }
    return false;
}

bool
parseTier(const char *name, Tier *out)
{
    const struct {
        const char *name;
        Tier tier;
    } table[] = {
        {"interp", Tier::Interpreter},
        {"baseline", Tier::Baseline},
        {"dfg", Tier::Dfg},
        {"ftl", Tier::Ftl},
    };
    for (const auto &entry : table) {
        if (std::strcmp(entry.name, name) == 0) {
            *out = entry.tier;
            return true;
        }
    }
    return false;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: run_js [--arch <arch>] [--tier <tier>] "
                 "[--jit] (<file.js> | --bench <id>)\n"
                 "  arch: base nomap_s nomap_b nomap nomap_bc "
                 "nomap_rtm (default base)\n"
                 "  tier: interp baseline dfg ftl (default ftl)\n"
                 "  --jit: fuse superinstructions in DFG/FTL "
                 "chains (same stats, faster host)\n"
                 "  bench ids: S01..S26, K01..K14\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    EngineConfig config;
    std::string source;
    std::string label;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--arch") == 0 && i + 1 < argc) {
            if (!parseArch(argv[++i], &config.arch))
                return usage();
        } else if (std::strcmp(argv[i], "--tier") == 0 &&
                   i + 1 < argc) {
            if (!parseTier(argv[++i], &config.maxTier))
                return usage();
        } else if (std::strcmp(argv[i], "--jit") == 0) {
            config.jitTier = true;
        } else if (std::strcmp(argv[i], "--bench") == 0 &&
                   i + 1 < argc) {
            const BenchmarkSpec *spec = findBenchmark(argv[++i]);
            if (!spec) {
                std::fprintf(stderr, "unknown benchmark id\n");
                return 2;
            }
            source = spec->source;
            label = spec->id + " (" + spec->name + ")";
        } else if (argv[i][0] != '-') {
            std::ifstream in(argv[i]);
            if (!in) {
                std::fprintf(stderr, "cannot open %s\n", argv[i]);
                return 2;
            }
            std::ostringstream buf;
            buf << in.rdbuf();
            source = buf.str();
            label = argv[i];
        } else {
            return usage();
        }
    }
    if (source.empty())
        return usage();

    try {
        Engine engine(config);
        EngineResult r = engine.run(source);
        std::printf("%s under %s (max tier %s%s)\n", label.c_str(),
                    architectureName(config.arch),
                    tierName(config.maxTier),
                    config.jitTier ? ", fused chains" : "");
        if (!r.printed.empty())
            std::printf("--- program output ---\n%s----------------"
                        "------\n", r.printed.c_str());
        std::printf("result        : %s\n", r.resultString.c_str());
        std::printf("instructions  : %llu (NoFTL %llu, NoTM %llu, "
                    "TMUnopt %llu, TMOpt %llu)\n",
                    static_cast<unsigned long long>(
                        r.stats.totalInstructions()),
                    static_cast<unsigned long long>(r.stats.instr[0]),
                    static_cast<unsigned long long>(r.stats.instr[1]),
                    static_cast<unsigned long long>(r.stats.instr[2]),
                    static_cast<unsigned long long>(r.stats.instr[3]));
        std::printf("cycles        : %.0f (TM %.0f / non-TM %.0f)\n",
                    r.stats.totalCycles(), r.stats.cyclesTm,
                    r.stats.cyclesNonTm);
        std::printf("checks        : %llu total",
                    static_cast<unsigned long long>(
                        r.stats.totalChecks()));
        for (int k = 0; k < 5; ++k) {
            std::printf("  %s %llu",
                        checkKindName(static_cast<CheckKind>(k)),
                        static_cast<unsigned long long>(
                            r.stats.checks[k]));
        }
        std::printf("\n");
        std::printf("tiering       : %llu baseline, %llu DFG, %llu "
                    "FTL compiles; %llu deopts\n",
                    static_cast<unsigned long long>(
                        r.stats.baselineCompiles),
                    static_cast<unsigned long long>(
                        r.stats.dfgCompiles),
                    static_cast<unsigned long long>(
                        r.stats.ftlCompiles),
                    static_cast<unsigned long long>(r.stats.deopts));
        std::printf("transactions  : %llu commits, %llu aborts, avg "
                    "write footprint %.1f KB (max %.1f KB)\n",
                    static_cast<unsigned long long>(r.stats.txCommits),
                    static_cast<unsigned long long>(r.stats.txAborts),
                    r.stats.avgWriteFootprintBytes / 1024.0,
                    r.stats.maxWriteFootprintBytes / 1024.0);
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
