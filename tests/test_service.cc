#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "service/engine_pool.h"
#include "service/mpmc_queue.h"
#include "support/logging.h"

namespace nomap {
namespace {

const Architecture kAllArchs[] = {
    Architecture::Base,   Architecture::NoMapS, Architecture::NoMapB,
    Architecture::NoMap,  Architecture::NoMapBC,
    Architecture::NoMapRTM,
};

EngineConfig
configFor(Architecture arch)
{
    EngineConfig config;
    config.arch = arch;
    return config;
}

// Three small workloads that all reach the FTL tier (and, on NoMap
// architectures, place transactions): an object/array reduction, an
// overflow-heavy arithmetic kernel, and a bounds-heavy array kernel.
const char *kScripts[] = {
    R"JS(
function makeObj(n) {
    var obj = {values: [], sum: 0};
    for (var i = 0; i < n; i++) obj.values[i] = i % 7;
    return obj;
}
function sumInto(obj) {
    var len = obj.values.length;
    for (var idx = 0; idx < len; idx++) {
        obj.sum += obj.values[idx];
    }
    return obj.sum;
}
var o = makeObj(150);
var total = 0;
for (var r = 0; r < 110; r++) {
    o.sum = 0;
    total = sumInto(o);
}
result = total;
)JS",
    R"JS(
function mix(seed, rounds) {
    var h = seed;
    for (var i = 0; i < rounds; i++) {
        h = (h * 31 + i) % 65521;
        h = h + (h % 13);
    }
    return h;
}
var acc = 0;
for (var r = 0; r < 130; r++) {
    acc = (acc + mix(r, 90)) % 1000000;
}
result = acc;
)JS",
    R"JS(
function fill(a, n) {
    for (var i = 0; i < n; i++) a[i] = (i * i) % 97;
    return a;
}
function scan(a, n) {
    var best = 0;
    for (var i = 0; i < n; i++) {
        if (a[i] > best) best = a[i];
    }
    return best;
}
var arr = [];
fill(arr, 120);
var peak = 0;
for (var r = 0; r < 120; r++) {
    peak = scan(arr, 120);
}
result = peak;
)JS",
};
constexpr size_t kNumScripts = sizeof(kScripts) / sizeof(kScripts[0]);

/** Counters that must be bit-identical between pooled and sequential
 *  execution (the differential contract of the serving layer). */
void
expectStatsEqual(const ExecutionStats &a, const ExecutionStats &b,
                 const std::string &context)
{
    for (size_t i = 0;
         i < static_cast<size_t>(InstrBucket::NumBuckets); ++i) {
        EXPECT_EQ(a.instr[i], b.instr[i]) << context << " instr[" << i
                                          << "]";
    }
    for (size_t i = 0; i < static_cast<size_t>(CheckKind::NumKinds);
         ++i) {
        EXPECT_EQ(a.checks[i], b.checks[i])
            << context << " checks[" << i << "]";
    }
    EXPECT_EQ(a.deopts, b.deopts) << context;
    EXPECT_EQ(a.ftlFunctionCalls, b.ftlFunctionCalls) << context;
    EXPECT_EQ(a.ftlCompiles, b.ftlCompiles) << context;
    EXPECT_EQ(a.ftlRecompiles, b.ftlRecompiles) << context;
    EXPECT_EQ(a.txCommits, b.txCommits) << context;
    EXPECT_EQ(a.txAborts, b.txAborts) << context;
    EXPECT_EQ(a.txAbortsCapacity, b.txAbortsCapacity) << context;
    EXPECT_EQ(a.txAbortsCheck, b.txAbortsCheck) << context;
    EXPECT_EQ(a.txAbortsSof, b.txAbortsSof) << context;
    EXPECT_DOUBLE_EQ(a.totalCycles(), b.totalCycles()) << context;
}

// ---- Differential concurrency test -------------------------------------

TEST(Service, ConcurrentExecutionMatchesSequential)
{
    // Sequential reference: every (arch, script) on a fresh Engine.
    struct Expected {
        std::string resultString;
        ExecutionStats stats;
    };
    std::vector<Expected> expected;
    for (Architecture arch : kAllArchs) {
        for (const char *src : kScripts) {
            Engine engine(configFor(arch));
            EngineResult r = engine.run(src);
            expected.push_back({r.resultString, r.stats});
        }
    }

    ServiceConfig sc;
    sc.workers = 4;
    sc.queueCapacity = 128;
    ExecutionService service(sc);

    // Two pooled repeats of every pair, interleaved across workers:
    // the second round exercises isolate reuse and program-cache hits.
    constexpr int kRounds = 2;
    std::vector<std::future<Response>> futures;
    for (int round = 0; round < kRounds; ++round) {
        for (Architecture arch : kAllArchs) {
            for (const char *src : kScripts) {
                Request req;
                req.source = src;
                req.config = configFor(arch);
                futures.push_back(service.submit(std::move(req)));
            }
        }
    }

    size_t idx = 0;
    for (int round = 0; round < kRounds; ++round) {
        for (size_t a = 0; a < 6; ++a) {
            for (size_t s = 0; s < kNumScripts; ++s) {
                Response resp = futures[idx++].get();
                const Expected &want = expected[a * kNumScripts + s];
                std::string context = strprintf(
                    "round %d arch %s script %zu", round,
                    architectureName(kAllArchs[a]), s);
                ASSERT_TRUE(resp.ok())
                    << context << ": " << resp.error;
                EXPECT_EQ(resp.resultString, want.resultString)
                    << context;
                expectStatsEqual(resp.stats, want.stats, context);
            }
        }
    }

    ServiceMetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.completed, futures.size());
    EXPECT_EQ(snap.succeeded, futures.size());
    EXPECT_GT(snap.cacheHits, 0u);
    EXPECT_GT(snap.enginesReused, 0u);
    EXPECT_GT(snap.throughputRps, 0.0);
}

// ---- Program cache ------------------------------------------------------

TEST(Service, ProgramCacheSkipsRecompilation)
{
    ServiceConfig sc;
    sc.workers = 2;
    ExecutionService service(sc);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 8; ++i) {
        Request req;
        req.source = kScripts[0];
        futures.push_back(service.submit(std::move(req)));
    }
    int hits = 0;
    std::string first;
    for (auto &f : futures) {
        Response r = f.get();
        ASSERT_TRUE(r.ok()) << r.error;
        if (first.empty())
            first = r.resultString;
        EXPECT_EQ(r.resultString, first);
        hits += r.programCacheHit ? 1 : 0;
    }
    EXPECT_GE(hits, 6); // at most one cold compile per worker
    ServiceMetricsSnapshot snap = service.metrics();
    EXPECT_GE(snap.cacheHits, static_cast<uint64_t>(hits));
    EXPECT_EQ(snap.cacheEntries, 1u);
}

TEST(ProgramCache, InstantiationIsBitIdenticalToCompile)
{
    CompiledProgramCache cache;

    Engine uncached((EngineConfig()));
    EngineResult want = uncached.run(kScripts[1]);

    Engine cold((EngineConfig()));
    cold.setProgramCache(&cache);
    EngineResult miss = cold.run(kScripts[1]);
    EXPECT_FALSE(miss.programCacheHit);

    Engine warm((EngineConfig()));
    warm.setProgramCache(&cache);
    EngineResult hit = warm.run(kScripts[1]);
    EXPECT_TRUE(hit.programCacheHit);

    EXPECT_EQ(hit.resultString, want.resultString);
    expectStatsEqual(hit.stats, want.stats, "cache hit");
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().rebindFailures, 0u);
}

// ---- Robustness paths ---------------------------------------------------

TEST(Service, TimeoutProducesTimeoutResponse)
{
    ServiceConfig sc;
    sc.workers = 1;
    ExecutionService service(sc);

    Request req;
    req.source = R"JS(
var i = 0;
while (i < 400000000) { i = i + 1; }
result = i;
)JS";
    req.timeoutMs = 30;
    Response resp = service.submit(std::move(req)).get();
    EXPECT_EQ(resp.status, ResponseStatus::Timeout);
    EXPECT_NE(resp.error.find("deadline"), std::string::npos);

    // The worker survives: a subsequent request still succeeds.
    Request ok;
    ok.source = "result = 21 * 2;";
    Response after = service.submit(std::move(ok)).get();
    ASSERT_TRUE(after.ok()) << after.error;
    EXPECT_EQ(after.resultString, "42");

    // Deadlines too far out for int64_t microseconds saturate instead
    // of wrapping into the past.
    for (uint64_t huge : {uint64_t{1} << 62, UINT64_MAX}) {
        Request far;
        far.source = "result = 21 * 2;";
        far.timeoutMs = huge;
        Response r = service.submit(std::move(far)).get();
        ASSERT_TRUE(r.ok()) << huge << ": " << r.error;
        EXPECT_EQ(r.resultString, "42");
    }

    EXPECT_EQ(service.metrics().timeouts, 1u);
}

TEST(Service, FatalErrorBecomesErrorResponse)
{
    ServiceConfig sc;
    sc.workers = 1;
    ExecutionService service(sc);

    Request bad;
    bad.source = "var = ;";
    Response resp = service.submit(std::move(bad)).get();
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_FALSE(resp.error.empty());
    EXPECT_EQ(resp.attempts, 1u); // user errors are not retried

    Request good;
    good.source = "result = 7;";
    Response after = service.submit(std::move(good)).get();
    ASSERT_TRUE(after.ok()) << after.error;
    EXPECT_EQ(after.resultString, "7");
    EXPECT_EQ(service.metrics().errors, 1u);
}

TEST(Service, TransientFailuresAreRetriedOnFreshIsolates)
{
    ServiceConfig sc;
    sc.workers = 2;
    sc.defaultMaxRetries = 2;
    std::atomic<uint64_t> injected{0};
    sc.failureInjection = [&](const Request &, uint32_t attempt) {
        if (attempt == 0) {
            injected.fetch_add(1);
            return true;
        }
        return false;
    };
    ExecutionService service(sc);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 6; ++i) {
        Request req;
        req.source = "result = 5 + 6;";
        futures.push_back(service.submit(std::move(req)));
    }
    for (auto &f : futures) {
        Response r = f.get();
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.resultString, "11");
        EXPECT_EQ(r.attempts, 2u);
    }
    EXPECT_EQ(injected.load(), 6u);
    EXPECT_EQ(service.metrics().retries, 6u);
}

TEST(Service, ExhaustedRetriesReportError)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.defaultMaxRetries = 1;
    sc.failureInjection = [](const Request &, uint32_t) {
        return true; // every attempt fails
    };
    ExecutionService service(sc);

    Request req;
    req.source = "result = 1;";
    Response resp = service.submit(std::move(req)).get();
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_EQ(resp.attempts, 2u);
    EXPECT_NE(resp.error.find("injected"), std::string::npos);
}

TEST(Service, QueueFullRejectsWithBackpressureResponse)
{
    // The injection hook doubles as a worker blocker: request id 77
    // parks inside the worker until released, holding the single
    // worker busy without burning CPU.
    std::atomic<bool> release{false};
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 1;
    sc.failureInjection = [&](const Request &req, uint32_t) {
        while (req.id == 77 &&
               !release.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        return false;
    };
    ExecutionService service(sc);

    Request slow;
    slow.id = 77;
    slow.source = "result = 1;";
    std::future<Response> slow_future =
        service.submit(std::move(slow));
    while (service.metrics().inFlight == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Fill the single queue slot, then overflow it.
    Request queued;
    queued.source = "result = 2;";
    std::future<Response> queued_future =
        service.submit(std::move(queued));

    Request overflow;
    overflow.source = "result = 3;";
    Response rejected = service.trySubmit(std::move(overflow)).get();
    EXPECT_EQ(rejected.status, ResponseStatus::QueueFull);
    EXPECT_NE(rejected.error.find("queue full"), std::string::npos);

    release.store(true, std::memory_order_release);
    EXPECT_TRUE(slow_future.get().ok());
    Response queued_resp = queued_future.get();
    ASSERT_TRUE(queued_resp.ok()) << queued_resp.error;
    EXPECT_EQ(queued_resp.resultString, "2");
    EXPECT_EQ(service.metrics().rejected, 1u);
}

TEST(Service, ShutdownDrainsQueuedWorkAndRejectsNewWork)
{
    auto service = std::make_unique<ExecutionService>([] {
        ServiceConfig sc;
        sc.workers = 2;
        return sc;
    }());

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 10; ++i) {
        Request req;
        req.source = "result = " + std::to_string(i) + " * 2;";
        futures.push_back(service->submit(std::move(req)));
    }
    service->shutdown();
    for (int i = 0; i < 10; ++i) {
        Response r = futures[static_cast<size_t>(i)].get();
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.resultString, std::to_string(i * 2));
    }

    Request late;
    late.source = "result = 0;";
    Response refused = service->submit(std::move(late)).get();
    EXPECT_EQ(refused.status, ResponseStatus::Shutdown);
}

// ---- Engine reuse primitives -------------------------------------------

TEST(Engine, ResetStatsReportsPerRunCounters)
{
    // Accumulating engine: run twice, stats pile up.
    Engine accumulating((EngineConfig()));
    ExecutionStats first = accumulating.run(kScripts[0]).stats;
    ExecutionStats cumulative = accumulating.run(kScripts[0]).stats;
    ASSERT_GT(cumulative.totalInstructions(),
              first.totalInstructions());

    // Same engine history, but with resetStats() between runs: the
    // second run reports exactly the marginal counters.
    Engine clean((EngineConfig()));
    clean.run(kScripts[0]);
    clean.resetStats();
    ExecutionStats marginal = clean.run(kScripts[0]).stats;
    EXPECT_EQ(marginal.totalInstructions(),
              cumulative.totalInstructions() -
                  first.totalInstructions());
    EXPECT_EQ(marginal.txCommits,
              cumulative.txCommits - first.txCommits);
}

TEST(Engine, ResetRestoresPristineDeterminism)
{
    EngineConfig config = configFor(Architecture::NoMap);
    Engine reference(config);
    EngineResult want = reference.run(kScripts[0]);

    Engine reused(config);
    reused.run(kScripts[2]); // dirty the isolate with another tenant
    reused.reset();
    EXPECT_TRUE(reused.pristine());
    EngineResult got = reused.run(kScripts[0]);
    EXPECT_EQ(got.resultString, want.resultString);
    expectStatsEqual(got.stats, want.stats, "after reset");
}

// ---- Queue + logging + histogram units ---------------------------------

TEST(MpmcQueue, OrderingBackpressureAndDrain)
{
    BoundedMpmcQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    int three = 3;
    EXPECT_FALSE(q.tryPush(std::move(three))); // full
    EXPECT_EQ(q.size(), 2u);

    auto a = q.pop();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, 1);
    EXPECT_TRUE(q.push(3));

    q.close();
    EXPECT_FALSE(q.push(4)); // closed to producers
    EXPECT_EQ(*q.pop(), 2);  // but drains
    EXPECT_EQ(*q.pop(), 3);
    EXPECT_FALSE(q.pop().has_value()); // closed + empty
}

TEST(Logging, ConcurrentSinkReceivesWholeLines)
{
    std::mutex lines_mutex;
    std::vector<std::string> lines;
    setLogSink([&](LogLevel, const std::string &msg) {
        std::lock_guard<std::mutex> lock(lines_mutex);
        lines.push_back(msg);
    });
    LogLevel saved = logLevel();
    setLogLevel(LogLevel::Warning);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i)
                warn("thread %d message %d", t, i);
        });
    }
    for (auto &th : threads)
        th.join();

    setLogSink(nullptr);
    setLogLevel(saved);

    ASSERT_EQ(lines.size(),
              static_cast<size_t>(kThreads * kPerThread));
    for (const std::string &line : lines) {
        EXPECT_EQ(line.rfind("thread ", 0), 0u) << line;
        EXPECT_NE(line.find(" message "), std::string::npos) << line;
    }
}

TEST(Logging, AtomicLevelFiltersBelowThreshold)
{
    int count = 0;
    setLogSink([&](LogLevel, const std::string &) { ++count; });
    LogLevel saved = logLevel();

    setLogLevel(LogLevel::Error);
    warn("filtered out");
    logMessage(LogLevel::Info, "also filtered");
    EXPECT_EQ(count, 0);
    logMessage(LogLevel::Error, "emitted");
    EXPECT_EQ(count, 1);

    setLogLevel(LogLevel::Debug);
    logMessage(LogLevel::Debug, "now emitted");
    EXPECT_EQ(count, 2);

    setLogSink(nullptr);
    setLogLevel(saved);
}

TEST(LatencyHistogram, PercentilesTrackRecordedDistribution)
{
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_NEAR(h.mean(), 500.5, 0.1);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    // Geometric buckets have ~25% relative error.
    EXPECT_NEAR(h.percentile(50.0), 500.0, 150.0);
    EXPECT_NEAR(h.percentile(99.0), 990.0, 260.0);
    EXPECT_LE(h.percentile(100.0), 1000.0);
}

} // namespace
} // namespace nomap
