#include "service/engine_pool.h"

#include <algorithm>
#include <chrono>

#include "support/logging.h"

namespace nomap {

// ---- EnginePool --------------------------------------------------------

EnginePool::EnginePool(size_t max_idle_per_config)
    : maxIdlePerConfig(max_idle_per_config)
{
}

std::string
engineConfigKey(const EngineConfig &config)
{
    // traceCapacity is part of the identity: a shelved traceless
    // isolate must never serve a request that expects a trace buffer.
    // Knobs with no guest-visible effect (perOpAccounting, jitTier —
    // chain fusion is pinned bit-identical to unfused chains by the
    // jit differential) stay out of the key on purpose: shelving must
    // not fragment per host-speed flavor.
    return strprintf(
        "%u|%u|%llu|%llu|%llu|%llu|%llu|%u|%u",
        static_cast<unsigned>(config.arch),
        static_cast<unsigned>(config.maxTier),
        static_cast<unsigned long long>(config.baselineThreshold),
        static_cast<unsigned long long>(config.dfgThreshold),
        static_cast<unsigned long long>(config.ftlThreshold),
        static_cast<unsigned long long>(config.rngSeed),
        static_cast<unsigned long long>(config.txWatchdogInstructions),
        static_cast<unsigned>(config.abortEscalationLimit),
        static_cast<unsigned>(config.traceCapacity));
}

std::unique_ptr<Engine>
EnginePool::acquire(const EngineConfig &config)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = idle.find(engineConfigKey(config));
        if (it != idle.end() && !it->second.empty()) {
            std::unique_ptr<Engine> engine =
                std::move(it->second.back());
            it->second.pop_back();
            ++counters.reused;
            return engine;
        }
        ++counters.created;
    }
    return std::make_unique<Engine>(config);
}

void
EnginePool::release(std::unique_ptr<Engine> engine)
{
    if (!engine)
        return;
    // Reset outside the lock: it rebuilds the whole VM.
    engine->reset();
    engine->setProgramCache(nullptr);
    engine->setCancelFlag(nullptr);
    std::lock_guard<std::mutex> lock(mutex);
    auto &shelf = idle[engineConfigKey(engine->config())];
    if (shelf.size() < maxIdlePerConfig) {
        shelf.push_back(std::move(engine));
    } else {
        ++counters.discarded;
    }
}

void
EnginePool::discard(std::unique_ptr<Engine> engine)
{
    if (!engine)
        return;
    engine.reset();
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.discarded;
}

EnginePool::Stats
EnginePool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

size_t
EnginePool::idleCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    size_t n = 0;
    for (const auto &entry : idle)
        n += entry.second.size();
    return n;
}

// ---- ExecutionService --------------------------------------------------

int64_t
ExecutionService::nowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ExecutionService::ExecutionService(ServiceConfig config)
    : cfg(std::move(config)),
      programCache(cfg.programCacheCapacity),
      pool(cfg.maxIdleEnginesPerConfig),
      queue(cfg.queueCapacity),
      startUs(nowUs())
{
    const FaultPlan *plan = cfg.faultPlan;
    if (!plan) {
        if (std::optional<FaultPlan> env = FaultPlan::fromEnv()) {
            envPlan = std::make_unique<FaultPlan>(std::move(*env));
            plan = envPlan.get();
        }
    }
    if (plan && !plan->empty())
        injector = std::make_unique<FaultInjector>(*plan);

    size_t n = cfg.workers ? cfg.workers : 1;
    slots.reserve(n);
    workers.reserve(n);
    for (size_t i = 0; i < n; ++i)
        slots.push_back(std::make_unique<WorkerSlot>());
    for (size_t i = 0; i < n; ++i)
        workers.emplace_back(&ExecutionService::workerMain, this, i);
    watchdog = std::thread(&ExecutionService::watchdogMain, this);
}

ExecutionService::~ExecutionService()
{
    shutdown();
}

void
ExecutionService::shutdown()
{
    std::lock_guard<std::mutex> lock(shutdownMutex);
    if (shutdownDone)
        return;
    queue.close();
    for (std::thread &worker : workers)
        worker.join();
    // The watchdog outlives the workers so draining jobs keep their
    // deadlines enforced.
    watchdogStop.store(true, std::memory_order_release);
    watchdog.join();
    shutdownDone = true;
}

std::future<Response>
ExecutionService::submit(Request request)
{
    return enqueue(std::move(request), /*block=*/true);
}

std::future<Response>
ExecutionService::trySubmit(Request request)
{
    return enqueue(std::move(request), /*block=*/false);
}

bool
ExecutionService::pushJob(Job &&job, bool block, Response *rejection)
{
    if (job.request.id == 0) {
        job.request.id =
            nextRequestId.fetch_add(1, std::memory_order_relaxed);
    }
    job.enqueuedUs = nowUs();
    {
        std::lock_guard<std::mutex> lock(metricsMutex);
        ++submitted;
    }
    bool injected_reject =
        injector && injector->fire(FaultSite::ServiceQueueFull);
    bool accepted = !injected_reject &&
                    (block ? queue.push(std::move(job))
                           : queue.tryPush(std::move(job)));
    if (accepted) {
        // High-water mark of the queue depth: the admission-control
        // signal the shed policy keys on. size() right after the push
        // may already include later pushes, which only ever raises
        // the mark — fine for a maximum.
        uint64_t depth = queue.size();
        std::lock_guard<std::mutex> lock(metricsMutex);
        if (depth > queueDepthHighWater)
            queueDepthHighWater = depth;
        return true;
    }
    // The failed (or skipped) push left the job unmoved: reject in
    // place.
    rejection->id = job.request.id;
    if (injected_reject) {
        rejection->status = ResponseStatus::QueueFull;
        rejection->error = "request queue full (injected fault)";
    } else if (queue.closed()) {
        rejection->status = ResponseStatus::Shutdown;
        rejection->error = "service is shutting down";
    } else {
        rejection->status = ResponseStatus::QueueFull;
        rejection->error = strprintf(
            "request queue full (capacity %llu)",
            static_cast<unsigned long long>(queue.capacity()));
    }
    {
        std::lock_guard<std::mutex> lock(metricsMutex);
        ++rejected;
    }
    return false;
}

std::future<Response>
ExecutionService::enqueue(Request request, bool block)
{
    Job job;
    job.request = std::move(request);
    std::future<Response> future = job.promise.get_future();
    Response rejection;
    if (!pushJob(std::move(job), block, &rejection)) {
        // pushJob left the job unmoved, so its promise is still ours
        // to fulfill.
        job.promise.set_value(std::move(rejection));
    }
    return future;
}

void
ExecutionService::submitAsync(Request request,
                              std::function<void(Response)> done)
{
    Job job;
    job.request = std::move(request);
    job.done = std::move(done);
    Response rejection;
    if (!pushJob(std::move(job), /*block=*/false, &rejection))
        job.done(std::move(rejection));
}

void
ExecutionService::recordShed()
{
    std::lock_guard<std::mutex> lock(metricsMutex);
    ++shedCount;
}

void
ExecutionService::workerMain(size_t index)
{
    WorkerSlot &slot = *slots[index];
    while (auto job = queue.pop()) {
        inFlight.fetch_add(1, std::memory_order_relaxed);
        Response response = execute(*job, slot);
        recordResponse(response);
        inFlight.fetch_sub(1, std::memory_order_relaxed);
        if (job->done)
            job->done(std::move(response));
        else
            job->promise.set_value(std::move(response));
    }
}

void
ExecutionService::watchdogMain()
{
    while (!watchdogStop.load(std::memory_order_acquire)) {
        int64_t now = nowUs();
        for (auto &slot : slots) {
            int64_t deadline =
                slot->deadlineUs.load(std::memory_order_acquire);
            if (deadline != 0 && now >= deadline)
                slot->cancel.store(true, std::memory_order_release);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

Response
ExecutionService::execute(Job &job, WorkerSlot &slot)
{
    Response response;
    response.id = job.request.id;
    response.shard = job.request.shard;
    int64_t started = nowUs();
    response.queueMicros =
        static_cast<double>(started - job.enqueuedUs);

    uint64_t timeout_ms = job.request.timeoutMs
                              ? job.request.timeoutMs
                              : cfg.defaultTimeoutMs;
    // A deadline past int64_t's range saturates to the latest one.
    int64_t deadline = 0;
    if (timeout_ms &&
        (__builtin_mul_overflow(timeout_ms, 1000, &deadline) ||
         __builtin_add_overflow(deadline, job.enqueuedUs, &deadline)))
        deadline = INT64_MAX;
    uint32_t max_retries =
        job.request.maxRetries >= 0
            ? static_cast<uint32_t>(job.request.maxRetries)
            : cfg.defaultMaxRetries;

    if (deadline != 0 && started >= deadline) {
        response.status = ResponseStatus::Timeout;
        response.error = strprintf(
            "deadline of %llu ms expired while queued",
            static_cast<unsigned long long>(timeout_ms));
        response.totalMicros =
            static_cast<double>(nowUs() - job.enqueuedUs);
        return response;
    }

    for (uint32_t attempt = 0;; ++attempt) {
        response.attempts = attempt + 1;
        std::unique_ptr<Engine> engine =
            pool.acquire(job.request.config);
        if (cfg.enableProgramCache)
            engine->setProgramCache(&programCache);
        slot.cancel.store(false, std::memory_order_release);
        engine->setCancelFlag(&slot.cancel);
        if (deadline != 0)
            slot.deadlineUs.store(deadline, std::memory_order_release);
        try {
            if (injector &&
                injector->fire(FaultSite::ServiceRetry)) {
                throw std::runtime_error(
                    "injected transient failure (fault plan)");
            }
            if (cfg.failureInjection &&
                cfg.failureInjection(job.request, attempt)) {
                throw std::runtime_error(
                    "injected transient failure");
            }
            EngineResult result = engine->run(job.request.source);
            slot.deadlineUs.store(0, std::memory_order_release);
            engine->setCancelFlag(nullptr);
            response.status = ResponseStatus::Ok;
            response.resultString = std::move(result.resultString);
            response.printed = std::move(result.printed);
            response.stats = result.stats;
            response.programCacheHit = result.programCacheHit;
            // Drain before release(): reset() clears the buffer.
            if (TraceBuffer *tb = engine->trace()) {
                response.traceEvents = tb->drain();
                response.traceDropped = tb->dropped();
            }
            pool.release(std::move(engine));
            break;
        } catch (const ExecutionCancelled &) {
            slot.deadlineUs.store(0, std::memory_order_release);
            pool.discard(std::move(engine));
            response.status = ResponseStatus::Timeout;
            response.error = strprintf(
                "deadline of %llu ms exceeded during execution",
                static_cast<unsigned long long>(timeout_ms));
            break;
        } catch (const FatalError &e) {
            // Deterministic user error: retrying cannot help.
            slot.deadlineUs.store(0, std::memory_order_release);
            pool.discard(std::move(engine));
            response.status = ResponseStatus::Error;
            response.error = e.what();
            break;
        } catch (const std::exception &e) {
            slot.deadlineUs.store(0, std::memory_order_release);
            pool.discard(std::move(engine));
            if (attempt < max_retries) {
                logMessage(LogLevel::Warning,
                           "request %llu attempt %u failed (%s); "
                           "retrying on a fresh isolate",
                           static_cast<unsigned long long>(
                               job.request.id),
                           attempt + 1, e.what());
                continue;
            }
            response.status = ResponseStatus::Error;
            response.error = strprintf(
                "failed after %u attempts: %s", attempt + 1,
                e.what());
            break;
        }
    }

    int64_t finished = nowUs();
    response.execMicros = static_cast<double>(finished - started);
    response.totalMicros =
        static_cast<double>(finished - job.enqueuedUs);

    // Wrap the engine's events in request-scoped spans. Span
    // timestamps stay in virtual-cycle coordinates so they nest over
    // the transaction events in the exporter; the wall-clock
    // measurements ride along as span payloads (they are the only
    // nondeterministic fields in a trace).
    if (response.ok() && job.request.config.traceCapacity > 0) {
        uint32_t lane = static_cast<uint32_t>(job.request.id);
        uint64_t end_vc = 0;
        for (TraceEvent &event : response.traceEvents) {
            event.tid = lane;
            end_vc = std::max(end_vc, event.vcycles);
        }
        auto span = [lane](TraceEventType type, SpanKind kind,
                           uint64_t vcycles, uint16_t attempt,
                           double micros) {
            TraceEvent event;
            event.vcycles = vcycles;
            event.type = type;
            event.code = static_cast<uint8_t>(kind);
            event.aux = attempt;
            event.bytes =
                micros > 0.0 ? static_cast<uint64_t>(micros) : 0;
            event.tid = lane;
            return event;
        };
        // The Request span carries the routing identity: funcId =
        // shard index, pc = wire connection id, aux = event-loop
        // ordinal (all 0 for in-process submissions). Exporters
        // surface them so traces can be grouped by
        // shard/connection/loop.
        auto tag_routing = [&](TraceEvent event) {
            event.funcId = job.request.shard;
            event.pc =
                static_cast<uint32_t>(job.request.connectionId);
            event.aux = static_cast<uint16_t>(job.request.loop);
            return event;
        };
        std::vector<TraceEvent> wrapped;
        wrapped.reserve(response.traceEvents.size() + 8);
        wrapped.push_back(tag_routing(span(TraceEventType::SpanBegin,
                                           SpanKind::Request, 0, 0,
                                           response.totalMicros)));
        wrapped.push_back(span(TraceEventType::SpanBegin,
                               SpanKind::Queue, 0, 0,
                               response.queueMicros));
        wrapped.push_back(span(TraceEventType::SpanEnd, SpanKind::Queue,
                               0, 0, response.queueMicros));
        for (uint32_t a = 1; a < response.attempts; ++a) {
            uint16_t attempt = static_cast<uint16_t>(a);
            wrapped.push_back(span(TraceEventType::SpanBegin,
                                   SpanKind::Retry, 0, attempt, 0.0));
            wrapped.push_back(span(TraceEventType::SpanEnd,
                                   SpanKind::Retry, 0, attempt, 0.0));
        }
        uint16_t attempts = static_cast<uint16_t>(response.attempts);
        wrapped.push_back(span(TraceEventType::SpanBegin,
                               SpanKind::Execute, 0, attempts,
                               response.execMicros));
        wrapped.insert(wrapped.end(), response.traceEvents.begin(),
                       response.traceEvents.end());
        wrapped.push_back(span(TraceEventType::SpanEnd,
                               SpanKind::Execute, end_vc, attempts,
                               response.execMicros));
        wrapped.push_back(tag_routing(span(TraceEventType::SpanEnd,
                                           SpanKind::Request, end_vc,
                                           0, response.totalMicros)));
        response.traceEvents = std::move(wrapped);
    }
    return response;
}

void
ExecutionService::recordResponse(const Response &response)
{
    std::lock_guard<std::mutex> lock(metricsMutex);
    ++completed;
    switch (response.status) {
      case ResponseStatus::Ok:
        ++succeeded;
        aggregate.merge(response.stats);
        break;
      case ResponseStatus::Timeout:
        ++timeouts;
        break;
      default:
        ++errors;
        break;
    }
    retriesTotal += response.attempts - 1;
    traceEventsTotal += response.traceEvents.size();
    traceDropsTotal += response.traceDropped;
    latency.record(response.totalMicros);
}

ServiceMetricsSnapshot
ExecutionService::metrics() const
{
    ServiceMetricsSnapshot snap;
    snap.uptimeSeconds =
        static_cast<double>(nowUs() - startUs) / 1e6;
    snap.workers = workers.size();
    snap.queueDepth = queue.size();
    snap.queueCapacity = queue.capacity();
    snap.inFlight = inFlight.load(std::memory_order_relaxed);

    {
        std::lock_guard<std::mutex> lock(metricsMutex);
        snap.submitted = submitted;
        snap.rejected = rejected;
        snap.shed = shedCount;
        snap.queueDepthHighWater = queueDepthHighWater;
        snap.completed = completed;
        snap.succeeded = succeeded;
        snap.errors = errors;
        snap.timeouts = timeouts;
        snap.retries = retriesTotal;
        snap.traceEvents = traceEventsTotal;
        snap.traceDrops = traceDropsTotal;
        snap.p50Micros = latency.percentile(50.0);
        snap.p95Micros = latency.percentile(95.0);
        snap.p99Micros = latency.percentile(99.0);
        snap.meanMicros = latency.mean();
        snap.maxMicros = latency.max();
        snap.aggregate = aggregate;
    }
    if (snap.uptimeSeconds > 0.0) {
        snap.throughputRps =
            static_cast<double>(snap.completed) / snap.uptimeSeconds;
    }

    EnginePool::Stats pool_stats = pool.stats();
    snap.enginesCreated = pool_stats.created;
    snap.enginesReused = pool_stats.reused;
    snap.enginesDiscarded = pool_stats.discarded;
    snap.enginesIdle = pool.idleCount();

    ProgramCacheStats cache_stats = programCache.stats();
    snap.cacheHits = cache_stats.hits;
    snap.cacheMisses = cache_stats.misses;
    snap.cacheEntries = programCache.size();
    return snap;
}

} // namespace nomap
