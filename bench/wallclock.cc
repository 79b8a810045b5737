/**
 * @file
 * Host wall-clock throughput of the simulator itself (not a paper
 * artifact): nanoseconds of host time per simulated guest
 * instruction, per suite, reported as median/p50/p95 over repeated
 * full passes after untimed warmup. This is the regression gauge for
 * executor-dispatch and accounting changes — guest-visible stats are
 * pinned bit-identical by test_accounting_diff, so the only thing
 * allowed to move here is host speed.
 *
 * To make the committed baseline portable across machines, a fixed
 * integer/memory calibration kernel is timed immediately after each
 * suite's passes, and `normalized_ns_per_instr` = median ns/instr
 * divided by that *adjacent* kernel ns/iteration. Measuring the
 * kernel next to the suite (rather than once per run) matters on
 * shared hosts: CPU-steal load comes in multi-second epochs, and a
 * calibration taken in a different epoch than the suite would skew
 * the ratio instead of cancelling the load.
 *
 * Writes BENCH_wallclock.json (schema_version 4) into the working
 * directory, one row per (suite, arch, tier) with tier one of
 * "interp" (pure interpreter), "ftl" (DFG/FTL code as unfused
 * chains, the reference), or "jit" (the same chains with
 * superinstruction fusion, EngineConfig::jitTier). The ftl and jit
 * rows are measured
 * *interleaved*: their repetitions alternate pass for pass inside the
 * same load epoch, so the ftl/jit ratio printed under "Interleaved
 * tier speedups" is robust against shared-host load drift — that
 * ratio is what the README perf-trajectory table quotes. `--tier=T`
 * restricts the run to a single tier (ad-hoc measurement; the
 * written JSON is then partial and the baseline diff goes
 * report-only as stale). Full runs additionally measure the
 * quick-clipped suites and record them under "quick_suites", so a
 * full-mode baseline can be checked by the fast `--quick`
 * perf-regression CTest. `--traced` runs every pass with the engine
 * trace ring enabled (EngineConfig::traceCapacity) to gauge the
 * overhead of event emission; the untraced numbers are what the
 * check.sh envelope and the committed baseline guard.
 *
 * `--baseline=FILE` diffs this run against a previously committed
 * BENCH_wallclock.json. The gate statistic is the *minimum* ns/instr
 * over the repetitions (host load only ever inflates a sample, so
 * the min is the most noise-robust estimate of true speed), and a
 * (suite, arch) only fails when BOTH the raw min ratio and the
 * calibration-normalized min ratio exceed NOMAP_PERF_TOLERANCE
 * percent (default 15): a genuine code regression shows through
 * both metrics, while an epoch mismatch between run and baseline
 * typically distorts only one. A REGRESSED verdict triggers up to
 * two re-measurements of just the flagged groups, folding the new
 * samples into the min before re-judging — noise epochs converge
 * the min down, real regressions survive every retry. Exit code 1
 * on a regression that survives. Under
 * sanitizer builds (NOMAP_SANITIZED) the diff is report-only —
 * sanitizer instrumentation skews the engine and the calibration
 * kernel differently, so the ratio is not meaningful there.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

using namespace nomap;
using namespace nomap::bench;

namespace {

/** Nearest-rank percentile of a sample set; 0 if empty. */
double
percentileOf(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    if (idx >= xs.size())
        idx = xs.size() - 1;
    return xs[idx];
}

/**
 * ns per iteration of a fixed xorshift64 + array-walk kernel (best of
 * three runs). ALU work plus L1 traffic, like the interpreter loop,
 * so it scales with host speed the same way the measured ns/instr
 * does and their ratio is machine-portable.
 */
double
hostCalibrationSample()
{
    static uint64_t lanes[1024];
    constexpr uint64_t kIters = 1ull << 24;
    std::memset(lanes, 0, sizeof lanes);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        lanes[i & 1023] += x;
    }
    auto end = std::chrono::steady_clock::now();
    // Volatile sink keeps the kernel from being optimized away.
    volatile uint64_t sink = x + lanes[0];
    (void)sink;
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                             start)
            .count());
    return ns / static_cast<double>(kIters);
}

double
hostCalibrationNsPerIter()
{
    double best = 0.0;
    for (int attempt = 0; attempt < 3; ++attempt) {
        double per = hostCalibrationSample();
        if (attempt == 0 || per < best)
            best = per;
    }
    return best;
}

/**
 * One measured execution tier. "interp" caps the engine at the
 * interpreter; "ftl" runs DFG/FTL code as unfused chains (the
 * reference); "jit" runs the same chains with superinstruction
 * fusion.
 */
struct TierSpec {
    const char *name;
    Tier maxTier;
    bool jitTier;
};

constexpr TierSpec kAllTiers[] = {
    {"interp", Tier::Interpreter, false},
    {"ftl", Tier::Ftl, false},
    {"jit", Tier::Ftl, true},
};

struct SuiteTiming {
    std::string suite;
    std::string arch;
    std::string tier;
    size_t benchmarks = 0;
    uint64_t guestInstructions = 0;
    std::vector<double> nsPerInstr;
    /**
     * Per-rep ns/instr divided by the calibration-kernel sample timed
     * in the SAME repetition. A load burst inflates the pass and its
     * adjacent kernel sample alike, so these quotients are stable
     * across load epochs in a way the raw samples are not — the
     * baseline gate's normalized statistic is the min of this series.
     */
    std::vector<double> normPerInstr;
    /** Best calibration kernel ns/iter seen across the reps. */
    double calibration = 0.0;
};

/** One timed full pass of @p suite under @p tier; ns per guest instr. */
double
timeOnePass(const std::vector<BenchmarkSpec> &suite, Architecture arch,
            const TierSpec &tier, uint32_t trace_capacity,
            uint64_t &instr_out)
{
    auto start = std::chrono::steady_clock::now();
    std::vector<RunResult> runs = runSuite(
        suite, arch, tier.maxTier, trace_capacity, tier.jitTier);
    auto end = std::chrono::steady_clock::now();
    uint64_t instr = 0;
    for (const RunResult &r : runs)
        instr += r.stats.totalInstructions();
    instr_out = instr;
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                             start)
            .count());
    return ns / static_cast<double>(instr);
}

/**
 * Time @p suite under every tier in @p tiers, interleaved: each
 * repetition cycles through the tiers pass for pass, so all tiers'
 * samples come from the same load epochs and inter-tier ratios (the
 * ftl/jit speedup in particular) see shared-host load cancel instead
 * of landing on one side. Returns one SuiteTiming per tier, all
 * sharing one epoch-local calibration timed right after the block.
 */
std::vector<SuiteTiming>
timeSuiteTiers(const std::string &name,
               const std::vector<BenchmarkSpec> &suite,
               Architecture arch,
               const std::vector<TierSpec> &tiers, int reps,
               int warmups, uint32_t trace_capacity)
{
    std::vector<SuiteTiming> out(tiers.size());
    for (size_t k = 0; k < tiers.size(); ++k) {
        out[k].suite = name;
        out[k].arch = architectureName(arch);
        out[k].tier = tiers[k].name;
        out[k].benchmarks = suite.size();
    }

    // Untimed warmup passes so one-time costs (host allocator,
    // page-in) don't land in the timed samples.
    for (int w = 0; w < warmups; ++w) {
        for (const TierSpec &tier : tiers) {
            runSuite(suite, arch, tier.maxTier, trace_capacity,
                     tier.jitTier);
        }
    }

    double calibration = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        std::vector<double> per_tier(tiers.size());
        for (size_t k = 0; k < tiers.size(); ++k) {
            uint64_t instr = 0;
            per_tier[k] = timeOnePass(suite, arch, tiers[k],
                                      trace_capacity, instr);
            out[k].guestInstructions = instr;
            out[k].nsPerInstr.push_back(per_tier[k]);
        }
        // Rep-local calibration: one kernel sample timed inside the
        // same repetition as the passes it normalizes, so a
        // shared-host load epoch hits pass and kernel alike and
        // cancels in the per-rep quotient. (A single end-of-suite
        // calibration is not enough — quick-clipped passes run in
        // tens of milliseconds, and steal bursts shorter than the
        // suite block used to skew the ratio instead of cancelling.)
        double cal = hostCalibrationSample();
        for (size_t k = 0; k < tiers.size(); ++k)
            out[k].normPerInstr.push_back(per_tier[k] / cal);
        if (rep == 0 || cal < calibration)
            calibration = cal;
    }
    for (SuiteTiming &t : out)
        t.calibration = calibration;
    return out;
}

/** First @p keep entries, independent of --quick (for quick_suites). */
std::vector<BenchmarkSpec>
firstN(const std::vector<BenchmarkSpec> &suite, size_t keep)
{
    if (suite.size() <= keep)
        return suite;
    return std::vector<BenchmarkSpec>(
        suite.begin(), suite.begin() + static_cast<long>(keep));
}

void
emitSuiteArray(std::FILE *out, const char *key,
               const std::vector<SuiteTiming> &timings, bool last)
{
    std::fprintf(out, "  \"%s\": [\n", key);
    for (size_t i = 0; i < timings.size(); ++i) {
        const SuiteTiming &t = timings[i];
        double median = medianOf(t.nsPerInstr);
        std::fprintf(
            out,
            "    {\"suite\": \"%s\", \"arch\": \"%s\", "
            "\"tier\": \"%s\", "
            "\"benchmarks\": %zu, \"guest_instructions\": %llu,\n"
            "     \"ns_per_instr_median\": %.6f, "
            "\"ns_per_instr_p50\": %.6f, "
            "\"ns_per_instr_p95\": %.6f, "
            "\"ns_per_instr_min\": %.6f,\n"
            "     \"calibration_ns_per_iter\": %.6f, "
            "\"normalized_ns_per_instr\": %.6f, "
            "\"ns_per_instr_norm_min\": %.6f}%s\n",
            t.suite.c_str(), t.arch.c_str(), t.tier.c_str(),
            t.benchmarks,
            static_cast<unsigned long long>(t.guestInstructions),
            median, percentileOf(t.nsPerInstr, 50.0),
            percentileOf(t.nsPerInstr, 95.0), minOf(t.nsPerInstr),
            t.calibration, median / t.calibration,
            minOf(t.normPerInstr), i + 1 < timings.size() ? "," : "");
    }
    std::fprintf(out, "  ]%s\n", last ? "" : ",");
}

// ---------------------------------------------------------------
// Baseline comparison (--baseline=FILE)
// ---------------------------------------------------------------

struct BaselineEntry {
    std::string suite;
    std::string arch;
    /** Execution tier of the row; empty in pre-v4 baselines. */
    std::string tier;
    double normalized = 0.0;
    /** Raw min ns/instr over reps; 0 when absent (old baselines). */
    double minRaw = 0.0;
    /** Min over per-rep (ns/instr ÷ rep-local kernel sample); 0 when
     *  absent (baselines written before rep-local calibration). */
    double normMin = 0.0;
    /** Epoch-local calibration ns/iter; 0 when absent. */
    double calibration = 0.0;
    /** Benchmarks in the suite when the baseline was recorded; 0 when
     *  absent. A mismatch against the current suite means the
     *  baseline predates a suite-set change. */
    size_t benchmarks = 0;
};

bool
readFile(const char *path, std::string &out)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f)
        return false;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

/** Value of `"key": "..."` inside @p obj, or empty. */
std::string
jsonString(const std::string &obj, const char *key)
{
    std::string pat = std::string("\"") + key + "\": \"";
    size_t at = obj.find(pat);
    if (at == std::string::npos)
        return "";
    at += pat.size();
    size_t end = obj.find('"', at);
    if (end == std::string::npos)
        return "";
    return obj.substr(at, end - at);
}

/** Value of `"key": <number>` inside @p obj, or @p fallback. */
double
jsonNumber(const std::string &obj, const char *key, double fallback)
{
    std::string pat = std::string("\"") + key + "\": ";
    size_t at = obj.find(pat);
    if (at == std::string::npos)
        return fallback;
    return std::strtod(obj.c_str() + at + pat.size(), nullptr);
}

/**
 * Parse the (suite, arch, normalized) entries of one `"key": [...]`
 * array in a self-authored BENCH_wallclock.json. The writer's format
 * is fixed (see emitSuiteArray), so a scanner is sufficient — no
 * general JSON parser needed.
 */
std::vector<BaselineEntry>
parseSuiteArray(const std::string &json, const char *key)
{
    std::vector<BaselineEntry> entries;
    std::string pat = std::string("\"") + key + "\": [";
    size_t at = json.find(pat);
    if (at == std::string::npos)
        return entries;
    size_t end = json.find(']', at);
    if (end == std::string::npos)
        return entries;
    std::string body = json.substr(at + pat.size(), end - at - pat.size());
    size_t pos = 0;
    while ((pos = body.find('{', pos)) != std::string::npos) {
        size_t close = body.find('}', pos);
        if (close == std::string::npos)
            break;
        std::string obj = body.substr(pos, close - pos + 1);
        BaselineEntry e;
        e.suite = jsonString(obj, "suite");
        e.arch = jsonString(obj, "arch");
        e.tier = jsonString(obj, "tier");
        e.normalized = jsonNumber(obj, "normalized_ns_per_instr", 0.0);
        e.minRaw = jsonNumber(obj, "ns_per_instr_min", 0.0);
        e.normMin = jsonNumber(obj, "ns_per_instr_norm_min", 0.0);
        e.calibration = jsonNumber(obj, "calibration_ns_per_iter", 0.0);
        e.benchmarks =
            static_cast<size_t>(jsonNumber(obj, "benchmarks", 0.0));
        if (!e.suite.empty() && !e.arch.empty() && e.normalized > 0.0)
            entries.push_back(e);
        pos = close + 1;
    }
    return entries;
}

/**
 * Diff @p current against the committed baseline at @p path.
 * Returns 0 if every (suite, arch) is within tolerance, 1 on
 * regression (always 0 when @p report_only).
 *
 * Gate statistic: min ns/instr over reps (load only inflates
 * samples, so the min estimates unloaded speed best). A suite is
 * REGRESSED only when both the raw min ratio and the normalized
 * ratio exceed the tolerance — real regressions move both, epoch
 * skew usually moves one. The normalized statistic is the min of
 * the per-rep (pass ÷ rep-local kernel sample) quotients when both
 * sides recorded it (ns_per_instr_norm_min), falling back to
 * min / end-of-suite calibration for older baselines.
 *
 * Staleness vs regression: a baseline that predates the current
 * schema or suite set (schema_version != 4, a (suite, arch, tier)
 * triple with no baseline row, or a per-suite benchmark-count
 * change) is not evidence of a slowdown — the numbers are simply no
 * longer comparable. Those runs print what they can, say why, and
 * return 0 with a regenerate reminder instead of failing the gate.
 * Genuine within-schema regressions still return 1.
 */
int
compareToBaseline(const char *path,
                  const std::vector<SuiteTiming> &current,
                  bool quick, bool report_only,
                  std::vector<std::pair<std::string, std::string>>
                      *flagged_groups = nullptr)
{
    std::string json;
    if (!readFile(path, json)) {
        std::fprintf(stderr, "cannot read baseline %s\n", path);
        return report_only ? 0 : 1;
    }
    // A quick run compares against the baseline's quick-clipped
    // entries (a full-mode baseline records them as "quick_suites";
    // a quick-mode baseline as "suites"). A full run compares
    // against full "suites".
    std::vector<BaselineEntry> base;
    if (quick) {
        base = parseSuiteArray(json, "quick_suites");
        if (base.empty() &&
            json.find("\"quick\": true") != std::string::npos)
            base = parseSuiteArray(json, "suites");
    } else {
        base = parseSuiteArray(json, "suites");
    }
    if (base.empty()) {
        // A readable baseline with nothing to compare predates the
        // current schema (e.g. no "quick_suites" array yet) — that is
        // staleness, not a regression.
        std::fprintf(stderr,
                     "baseline %s has no comparable entries for this "
                     "mode (%s); it predates the current schema — "
                     "regenerate it with a full ./bench/wallclock "
                     "run\n",
                     path, quick ? "quick" : "full");
        return 0;
    }

    double tolerance = 15.0;
    if (const char *env = std::getenv("NOMAP_PERF_TOLERANCE")) {
        double v = std::strtod(env, nullptr);
        if (v > 0.0)
            tolerance = v;
    }

    std::vector<std::string> stale_reasons;
    int base_schema =
        static_cast<int>(jsonNumber(json, "schema_version", 0.0));
    if (base_schema != 4) {
        stale_reasons.push_back(
            "baseline schema_version is " +
            std::to_string(base_schema) +
            ", current writer emits 4 (per-tier rows)");
    }

    // Fallback calibration for pre-v3 baselines that recorded only a
    // single run-level kernel timing (first occurrence in the file
    // is the top-level field).
    double base_global_cal =
        jsonNumber(json, "calibration_ns_per_iter", 0.0);

    std::printf("Baseline comparison vs %s (min ns/instr over reps, "
                "raw and normalized, tolerance %.1f%%%s)\n\n",
                path, tolerance,
                report_only ? ", report-only: sanitized build" : "");
    TextTable table;
    table.header({"Suite", "Arch", "Tier", "Base-min", "Cur-min",
                  "RawRatio", "NormRatio", "Verdict"});
    int regressions = 0;
    for (const SuiteTiming &t : current) {
        const BaselineEntry *match = nullptr;
        for (const BaselineEntry &e : base) {
            if (e.suite == t.suite && e.arch == t.arch &&
                e.tier == t.tier) {
                match = &e;
                break;
            }
        }
        double cur_min = minOf(t.nsPerInstr);
        if (!match) {
            stale_reasons.push_back("no baseline row for (" +
                                    t.suite + ", " + t.arch + ", " +
                                    t.tier + ")");
            table.row({t.suite, t.arch, t.tier, "-",
                       fmtDouble(cur_min, 3), "-", "-",
                       "no-baseline"});
            continue;
        }
        if (match->benchmarks > 0 &&
            match->benchmarks != t.benchmarks) {
            // The suite's benchmark set changed since the baseline
            // was recorded; its ns/instr is a different workload.
            stale_reasons.push_back(
                "(" + t.suite + ", " + t.arch + ") has " +
                std::to_string(t.benchmarks) +
                " benchmarks, baseline recorded " +
                std::to_string(match->benchmarks));
            table.row({t.suite, t.arch, t.tier,
                       fmtDouble(match->minRaw, 3),
                       fmtDouble(cur_min, 3), "-", "-",
                       "suite-changed"});
            continue;
        }
        double base_cal = match->calibration > 0.0
                              ? match->calibration
                              : base_global_cal;
        double raw_ratio = 0.0;
        if (match->minRaw > 0.0)
            raw_ratio = cur_min / match->minRaw;
        double norm_ratio;
        if (match->normMin > 0.0 && !t.normPerInstr.empty()) {
            // Preferred: both sides carry rep-local normalized
            // samples, whose min is stable across load epochs.
            norm_ratio = minOf(t.normPerInstr) / match->normMin;
        } else if (match->minRaw > 0.0 && base_cal > 0.0) {
            norm_ratio = (cur_min / t.calibration) /
                         (match->minRaw / base_cal);
        } else {
            // Old baseline without min fields: median-normalized
            // comparison is all that is available.
            norm_ratio = (medianOf(t.nsPerInstr) / t.calibration) /
                         match->normalized;
        }
        double limit = 1.0 + tolerance / 100.0;
        // Both metrics must agree before a regression is declared;
        // with only one metric available, it decides alone.
        bool regressed = norm_ratio > limit &&
                         (raw_ratio == 0.0 || raw_ratio > limit);
        if (regressed) {
            ++regressions;
            if (flagged_groups)
                flagged_groups->push_back({t.suite, t.arch});
        }
        table.row({t.suite, t.arch, t.tier,
                   match->minRaw > 0.0 ? fmtDouble(match->minRaw, 3)
                                       : "-",
                   fmtDouble(cur_min, 3),
                   raw_ratio > 0.0 ? fmtDouble(raw_ratio, 3) : "-",
                   fmtDouble(norm_ratio, 3),
                   regressed ? "REGRESSED" : "ok"});
    }
    std::printf("%s\n", table.render().c_str());
    if (!stale_reasons.empty()) {
        std::printf("baseline %s predates the current schema/suite "
                    "set:\n",
                    path);
        for (const std::string &r : stale_reasons)
            std::printf("  - %s\n", r.c_str());
        std::printf("comparison is report-only; regenerate the "
                    "committed baseline with a full ./bench/wallclock "
                    "run\n");
        return 0;
    }
    if (regressions > 0) {
        std::printf("%d suite(s) regressed beyond %.1f%%%s\n",
                    regressions, tolerance,
                    report_only ? " (ignored: sanitized build)" : "");
        return report_only ? 0 : 1;
    }
    std::printf("all suites within tolerance\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    bool traced = false;
    const char *baseline_path = nullptr;
    const char *tier_filter = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--traced") == 0)
            traced = true;
        else if (std::strncmp(argv[i], "--baseline=", 11) == 0)
            baseline_path = argv[i] + 11;
        else if (std::strncmp(argv[i], "--tier=", 7) == 0)
            tier_filter = argv[i] + 7;
    }

    // Tier set: all three by default; --tier=interp|ftl|jit restricts
    // to one for ad-hoc measurement (the baseline diff then reports
    // the missing rows as stale rather than failing).
    std::vector<TierSpec> tiers;
    for (const TierSpec &tier : kAllTiers) {
        if (!tier_filter || std::strcmp(tier_filter, tier.name) == 0)
            tiers.push_back(tier);
    }
    if (tiers.empty()) {
        std::fprintf(stderr,
                     "unknown --tier=%s (known: interp, ftl, jit)\n",
                     tier_filter);
        return 1;
    }

    const uint32_t trace_capacity = traced ? 65536 : 0;
    // 5 quick reps, not 3: the quick-clipped sunspider passes run in
    // tens of milliseconds, and on a shared host a min over 3 such
    // samples does not converge — the baseline gate then flags pure
    // load noise. Min over 5 keeps both sides of the ratio honest
    // while the quick run stays well under its CTest timeout.
    const int kQuickReps = 5, kQuickWarmups = 1;
    const int kFullReps = 7, kFullWarmups = 2;
    const bool quick = quickMode();
    const int reps = quick ? kQuickReps : kFullReps;
    const int warmups = quick ? kQuickWarmups : kFullWarmups;

    // Run-level calibration: recorded for the JSON header and the
    // console banner. The per-suite (epoch-local) calibrations taken
    // inside timeSuite are what normalization and the baseline gate
    // actually use.
    double calibration = hostCalibrationNsPerIter();
    std::printf("Host wall-clock per guest instruction "
                "(%d repetitions after %d warmup pass(es)%s%s)\n"
                "calibration kernel: %.4f ns/iter\n\n",
                reps, warmups, quick ? ", --quick" : "",
                traced ? ", --traced" : "", calibration);

    std::vector<SuiteTiming> timings;
    for (Architecture arch :
         {Architecture::Base, Architecture::NoMap}) {
        std::vector<SuiteTiming> rows = timeSuiteTiers(
            "sunspider", clipForQuick(sunspiderSuite()), arch, tiers,
            reps, warmups, trace_capacity);
        timings.insert(timings.end(), rows.begin(), rows.end());
        rows = timeSuiteTiers("kraken", clipForQuick(krakenSuite()),
                              arch, tiers, reps, warmups,
                              trace_capacity);
        timings.insert(timings.end(), rows.begin(), rows.end());
    }

    // Full runs also measure the quick-clipped suites, so the
    // committed full-mode baseline carries entries the fast --quick
    // perf-regression CTest can compare against.
    std::vector<SuiteTiming> quick_timings;
    if (!quick) {
        for (Architecture arch :
             {Architecture::Base, Architecture::NoMap}) {
            std::vector<SuiteTiming> rows = timeSuiteTiers(
                "sunspider", firstN(sunspiderSuite(), 2), arch, tiers,
                kQuickReps, kQuickWarmups, trace_capacity);
            quick_timings.insert(quick_timings.end(), rows.begin(),
                                 rows.end());
            rows = timeSuiteTiers("kraken", firstN(krakenSuite(), 2),
                                  arch, tiers, kQuickReps,
                                  kQuickWarmups, trace_capacity);
            quick_timings.insert(quick_timings.end(), rows.begin(),
                                 rows.end());
        }
    }

    TextTable table;
    table.header({"Suite", "Arch", "Tier", "GuestInstr",
                  "ns/instr med", "ns/instr p95", "ns/instr min",
                  "normalized"});
    for (const SuiteTiming &t : timings) {
        double median = medianOf(t.nsPerInstr);
        table.row({t.suite, t.arch, t.tier,
                   std::to_string(t.guestInstructions),
                   fmtDouble(median, 3),
                   fmtDouble(percentileOf(t.nsPerInstr, 95.0), 3),
                   fmtDouble(minOf(t.nsPerInstr), 3),
                   fmtDouble(median / t.calibration, 3)});
    }
    std::printf("%s\n", table.render().c_str());

    // The interleaved ftl/jit ratio: both tiers' samples alternated
    // inside the same load epoch, so their min-over-reps ratio is the
    // defensible host-speedup number for the README perf-trajectory
    // table.
    bool any_pair = false;
    TextTable speedups;
    speedups.header({"Suite", "Arch", "ftl min", "jit min",
                     "speedup(min)", "speedup(med)"});
    for (const SuiteTiming &ftl : timings) {
        if (ftl.tier != "ftl")
            continue;
        for (const SuiteTiming &jit : timings) {
            if (jit.tier != "jit" || jit.suite != ftl.suite ||
                jit.arch != ftl.arch)
                continue;
            any_pair = true;
            speedups.row(
                {ftl.suite, ftl.arch,
                 fmtDouble(minOf(ftl.nsPerInstr), 3),
                 fmtDouble(minOf(jit.nsPerInstr), 3),
                 fmtDouble(minOf(ftl.nsPerInstr) /
                               minOf(jit.nsPerInstr),
                           3),
                 fmtDouble(medianOf(ftl.nsPerInstr) /
                               medianOf(jit.nsPerInstr),
                           3)});
        }
    }
    if (any_pair) {
        std::printf("Interleaved tier speedups (ftl vs jit, "
                    "same-epoch samples)\n%s\n",
                    speedups.render().c_str());
    }

    const char *path = "BENCH_wallclock.json";
    std::FILE *out = std::fopen(path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(out,
                 "{\n  \"schema_version\": 4,\n"
                 "  \"quick\": %s,\n  \"traced\": %s,\n"
                 "  \"repetitions\": %d,\n"
                 "  \"warmup_passes\": %d,\n"
                 "  \"calibration_ns_per_iter\": %.6f,\n",
                 quick ? "true" : "false", traced ? "true" : "false",
                 reps, warmups, calibration);
    emitSuiteArray(out, "suites", timings, quick_timings.empty());
    if (!quick_timings.empty())
        emitSuiteArray(out, "quick_suites", quick_timings, true);
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);

    if (baseline_path) {
#ifdef NOMAP_SANITIZED
        const bool report_only = true;
#else
        const bool report_only = false;
#endif
        // Accumulate-and-retry: a REGRESSED verdict re-measures the
        // flagged suite×arch groups and FOLDS the new samples into
        // the old rows before re-judging. The gate statistic is a
        // min, so for pure load noise (this container is cgroup
        // CPU-share throttled — co-tenant epochs never show in our
        // own loadavg) extra samples from a later epoch converge the
        // min down to true speed and the verdict flips to ok, while
        // a genuine code regression keeps the min high through every
        // retry. Only flagged groups re-run, so a clean gate pays
        // nothing.
        const int kGateRetries = 2;
        int rc = 0;
        for (int attempt = 0;; ++attempt) {
            std::vector<std::pair<std::string, std::string>> flagged;
            rc = compareToBaseline(baseline_path, timings, quick,
                                   report_only, &flagged);
            if (rc == 0 || attempt == kGateRetries)
                break;
            std::sort(flagged.begin(), flagged.end());
            flagged.erase(
                std::unique(flagged.begin(), flagged.end()),
                flagged.end());
            std::printf("re-measuring %zu flagged group(s) to "
                        "separate load noise from regression "
                        "(retry %d of %d)\n\n",
                        flagged.size(), attempt + 1, kGateRetries);
            for (const auto &group : flagged) {
                Architecture arch = Architecture::Base;
                for (Architecture a :
                     {Architecture::Base, Architecture::NoMap}) {
                    if (group.second == architectureName(a))
                        arch = a;
                }
                std::vector<SuiteTiming> rows = timeSuiteTiers(
                    group.first,
                    group.first == "sunspider"
                        ? clipForQuick(sunspiderSuite())
                        : clipForQuick(krakenSuite()),
                    arch, tiers, reps, 0, trace_capacity);
                for (const SuiteTiming &row : rows) {
                    for (SuiteTiming &t : timings) {
                        if (t.suite != row.suite ||
                            t.arch != row.arch ||
                            t.tier != row.tier)
                            continue;
                        t.nsPerInstr.insert(t.nsPerInstr.end(),
                                            row.nsPerInstr.begin(),
                                            row.nsPerInstr.end());
                        t.normPerInstr.insert(
                            t.normPerInstr.end(),
                            row.normPerInstr.begin(),
                            row.normPerInstr.end());
                        if (row.calibration < t.calibration)
                            t.calibration = row.calibration;
                    }
                }
            }
        }
        return rc;
    }
    return 0;
}
