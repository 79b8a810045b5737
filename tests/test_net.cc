#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include "engine/engine.h"
#include "inject/fault_plan.h"
#include "net/client.h"
#include "net/poller.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/sharded_service.h"
#include "support/logging.h"

#include <unistd.h>

namespace nomap {
namespace {

// Tests for the networked serving front-end: wire codec, shard
// router, admission control, and the loopback end-to-end differential
// — every TCP-served response must be bit-identical to a sequential
// in-process Engine::run of the same source and config, including
// when net.* fault sites are armed.

const Architecture kDiffArchs[] = {
    Architecture::Base,
    Architecture::NoMapB,
    Architecture::NoMap,
    Architecture::NoMapRTM,
};

// Compact workloads that reach the FTL tier (and place transactions
// on NoMap architectures) — same shape as test_service's scripts.
const char *kScripts[] = {
    R"JS(
function sumInto(obj) {
    var len = obj.values.length;
    for (var idx = 0; idx < len; idx++) obj.sum += obj.values[idx];
    return obj.sum;
}
var o = {values: [], sum: 0};
for (var i = 0; i < 120; i++) o.values[i] = i % 7;
var total = 0;
for (var r = 0; r < 100; r++) {
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
for (var r = 0; r < 110; r++) {
    acc = (acc + mix(r, 80)) % 1000000;
}
result = acc;
)JS",
    R"JS(
function scan(a, n) {
    var best = 0;
    for (var i = 0; i < n; i++) {
        if (a[i] > best) best = a[i];
    }
    return best;
}
var arr = [];
for (var i = 0; i < 100; i++) arr[i] = (i * i) % 97;
var peak = 0;
for (var r = 0; r < 100; r++) {
    peak = scan(arr, 100);
}
result = peak;
)JS",
};
constexpr size_t kNumScripts = sizeof(kScripts) / sizeof(kScripts[0]);

/** Sequential in-process reference for one (arch, script). */
struct Reference {
    std::string resultString;
    std::string printed;
    WireResponse digest;
};

Reference
referenceFor(Architecture arch, const std::string &source)
{
    EngineConfig config;
    config.arch = arch;
    Engine engine(config);
    EngineResult r = engine.run(source);
    Response scaffold;
    scaffold.stats = r.stats;
    Reference ref;
    ref.resultString = r.resultString;
    ref.printed = r.printed;
    ref.digest = responseToWire(scaffold);
    return ref;
}

/** Assert a wire response matches the reference bit-for-bit. */
void
expectBitIdentical(const WireResponse &got, const Reference &ref,
                   const std::string &context)
{
    ASSERT_EQ(got.status, static_cast<uint8_t>(ResponseStatus::Ok))
        << context << ": " << got.error;
    EXPECT_EQ(got.resultString, ref.resultString) << context;
    EXPECT_EQ(got.printed, ref.printed) << context;
    EXPECT_EQ(got.instructions, ref.digest.instructions) << context;
    EXPECT_EQ(got.checks, ref.digest.checks) << context;
    EXPECT_EQ(got.cyclesBits, ref.digest.cyclesBits) << context;
    EXPECT_EQ(got.txCommits, ref.digest.txCommits) << context;
    EXPECT_EQ(got.txAborts, ref.digest.txAborts) << context;
    EXPECT_EQ(got.deopts, ref.digest.deopts) << context;
}

/** Poll a counter until @p pred holds or ~2s elapse. */
template <typename Pred>
bool
eventually(Pred pred)
{
    for (int i = 0; i < 400; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

/**
 * Event loops for loopback servers: NOMAP_NET_LOOPS (>= 1, default 1)
 * lets CI run the whole label single- and multi-loop. Tests that
 * *depend* on one loop (fd-reuse, deterministic rejection) pin
 * loops = 1 explicitly instead.
 */
size_t
envLoops()
{
    const char *env = getenv("NOMAP_NET_LOOPS");
    if (!env || !*env)
        return 1;
    long value = atol(env);
    return value < 1 ? 1 : static_cast<size_t>(value);
}

// ---- Wire codec --------------------------------------------------------

WireRequest
sampleRequest()
{
    WireRequest request;
    request.id = 0x1122334455667788ull;
    request.arch = static_cast<uint8_t>(Architecture::NoMapRTM);
    request.timeoutMs = 2500;
    request.maxRetries = 3;
    request.traceCapacity = 4096;
    request.tenant = "tenant-a";
    request.source = "result = 1 + 2;\n";
    return request;
}

WireResponse
sampleResponse()
{
    WireResponse response;
    response.id = 42;
    response.status = static_cast<uint8_t>(ResponseStatus::Ok);
    response.shard = 3;
    response.attempts = 2;
    response.programCacheHit = 1;
    response.error = "";
    response.resultString = "12345";
    response.printed = "a\nb\n";
    response.instructions = 998877;
    response.checks = 5544;
    response.cyclesBits = 0x40fe240c9fbe76c9ull;
    response.txCommits = 17;
    response.txAborts = 3;
    response.deopts = 1;
    return response;
}

TEST(Wire, RequestRoundTrips)
{
    WireRequest in = sampleRequest();
    std::string payload = encodeRequestPayload(in);
    WireRequest out;
    std::string error;
    ASSERT_TRUE(decodeRequestPayload(payload, &out, &error)) << error;
    EXPECT_EQ(in, out);

    // Defaults (empty strings, zero fields) round-trip too.
    WireRequest empty;
    payload = encodeRequestPayload(empty);
    ASSERT_TRUE(decodeRequestPayload(payload, &out, &error)) << error;
    EXPECT_EQ(empty, out);
}

TEST(Wire, ResponseRoundTrips)
{
    WireResponse in = sampleResponse();
    std::string payload = encodeResponsePayload(in);
    WireResponse out;
    std::string error;
    ASSERT_TRUE(decodeResponsePayload(payload, &out, &error))
        << error;
    EXPECT_EQ(in, out);
}

TEST(Wire, EveryTruncationOfRequestPayloadIsRejected)
{
    std::string payload = encodeRequestPayload(sampleRequest());
    for (size_t cut = 0; cut < payload.size(); ++cut) {
        WireRequest out;
        std::string error;
        EXPECT_FALSE(decodeRequestPayload(payload.substr(0, cut),
                                          &out, &error))
            << "prefix of " << cut << " bytes decoded";
        EXPECT_FALSE(error.empty());
    }
}

TEST(Wire, EveryTruncationOfResponsePayloadIsRejected)
{
    std::string payload = encodeResponsePayload(sampleResponse());
    for (size_t cut = 0; cut < payload.size(); ++cut) {
        WireResponse out;
        std::string error;
        EXPECT_FALSE(decodeResponsePayload(payload.substr(0, cut),
                                           &out, &error))
            << "prefix of " << cut << " bytes decoded";
    }
}

TEST(Wire, TrailingBytesAreRejected)
{
    std::string payload = encodeRequestPayload(sampleRequest());
    payload.push_back('\0');
    WireRequest out;
    std::string error;
    EXPECT_FALSE(decodeRequestPayload(payload, &out, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(Wire, VersionAndKindMismatchesAreRejected)
{
    std::string payload = encodeRequestPayload(sampleRequest());
    std::string wrong_version = payload;
    wrong_version[0] = static_cast<char>(kWireVersion + 1);
    WireRequest req;
    std::string error;
    EXPECT_FALSE(decodeRequestPayload(wrong_version, &req, &error));
    EXPECT_NE(error.find("version"), std::string::npos);

    // A response payload fed to the request decoder (and vice versa).
    std::string response_payload =
        encodeResponsePayload(sampleResponse());
    EXPECT_FALSE(decodeRequestPayload(response_payload, &req, &error));
    WireResponse resp;
    EXPECT_FALSE(decodeResponsePayload(payload, &resp, &error));
}

TEST(Wire, OutOfRangeEnumsAreRejected)
{
    WireResponse response = sampleResponse();
    response.status =
        static_cast<uint8_t>(ResponseStatus::Shed) + 1;
    std::string payload = encodeResponsePayload(response);
    WireResponse out;
    std::string error;
    EXPECT_FALSE(decodeResponsePayload(payload, &out, &error));
    EXPECT_NE(error.find("status"), std::string::npos);

    WireRequest request = sampleRequest();
    request.arch =
        static_cast<uint8_t>(Architecture::NoMapRTM) + 1;
    Request converted;
    EXPECT_FALSE(wireToRequest(request, &converted, &error));
    EXPECT_NE(error.find("architecture"), std::string::npos);

    request = sampleRequest();
    for (uint32_t capacity : {kMaxWireTraceCapacity + 1, 0xFFFFFFFFu}) {
        request.traceCapacity = capacity;
        EXPECT_FALSE(wireToRequest(request, &converted, &error));
        EXPECT_NE(error.find("trace capacity"), std::string::npos);
    }
    request.traceCapacity = kMaxWireTraceCapacity;
    EXPECT_TRUE(wireToRequest(request, &converted, &error));
    EXPECT_EQ(converted.config.traceCapacity, kMaxWireTraceCapacity);
}

TEST(Wire, FrameDecoderReassemblesByteAtATime)
{
    std::string stream =
        frameMessage(encodeRequestPayload(sampleRequest())) +
        frameMessage("second") + frameMessage("");
    FrameDecoder decoder;
    std::vector<std::string> frames;
    for (char byte : stream) {
        decoder.feed(&byte, 1);
        std::string payload, error;
        while (decoder.next(&payload, &error) ==
               FrameDecoder::Result::Frame)
            frames.push_back(payload);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0], encodeRequestPayload(sampleRequest()));
    EXPECT_EQ(frames[1], "second");
    EXPECT_EQ(frames[2], "");
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
}

TEST(Wire, FrameDecoderHandlesBatchedFrames)
{
    std::string stream = frameMessage("a") + frameMessage("bb") +
                         frameMessage("ccc");
    FrameDecoder decoder;
    decoder.feed(stream.data(), stream.size());
    std::string payload, error;
    EXPECT_EQ(decoder.next(&payload, &error),
              FrameDecoder::Result::Frame);
    EXPECT_EQ(payload, "a");
    EXPECT_EQ(decoder.next(&payload, &error),
              FrameDecoder::Result::Frame);
    EXPECT_EQ(payload, "bb");
    EXPECT_EQ(decoder.next(&payload, &error),
              FrameDecoder::Result::Frame);
    EXPECT_EQ(payload, "ccc");
    EXPECT_EQ(decoder.next(&payload, &error),
              FrameDecoder::Result::NeedMore);
}

TEST(Wire, OversizedFrameLengthPoisonsDecoder)
{
    FrameDecoder decoder;
    uint32_t huge = kMaxFramePayloadBytes + 1;
    char header[4];
    std::memcpy(header, &huge, 4); // Test runs little-endian hosts.
    decoder.feed(header, 4);
    std::string payload, error;
    EXPECT_EQ(decoder.next(&payload, &error),
              FrameDecoder::Result::Error);
    EXPECT_NE(error.find("exceeds"), std::string::npos);

    // Poisoned: further feeds are ignored, Error is sticky.
    std::string good = frameMessage("x");
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(&payload, &error),
              FrameDecoder::Result::Error);
}

TEST(Wire, FrameMessageRefusesOverCapPayload)
{
    std::string at_cap(kMaxFramePayloadBytes, 'x');
    EXPECT_EQ(frameMessage(at_cap).size(), at_cap.size() + 4);
    at_cap.push_back('x');
    EXPECT_THROW(frameMessage(at_cap), FatalError);
}

TEST(Wire, FrameDecoderBufferedBytesAcrossCompaction)
{
    // bufferedBytes() must equal fed-minus-consumed at every step,
    // including across the lazy compaction threshold (the internal
    // buffer only erase()s its consumed prefix once it passes 4 KiB
    // and dominates the buffer) — many partial feeds of multi-KiB
    // frames walk the decoder back and forth across that edge.
    std::string stream;
    std::vector<std::string> expected;
    for (int i = 0; i < 6; ++i) {
        expected.push_back(std::string(3000, static_cast<char>('a' + i)));
        stream += frameMessage(expected.back());
    }

    FrameDecoder decoder;
    std::vector<std::string> got;
    size_t fed = 0, consumed = 0, pos = 0;
    const size_t kChunk = 1234; // Never aligned with frame edges.
    while (pos < stream.size()) {
        size_t n = std::min(kChunk, stream.size() - pos);
        decoder.feed(stream.data() + pos, n);
        pos += n;
        fed += n;
        std::string payload, error;
        while (decoder.next(&payload, &error) ==
               FrameDecoder::Result::Frame) {
            consumed += 4 + payload.size(); // Header + payload.
            got.push_back(payload);
        }
        ASSERT_EQ(decoder.bufferedBytes(), fed - consumed)
            << "after feeding " << fed << " bytes";
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
}

// ---- Shard router ------------------------------------------------------

TEST(ShardRouter, PlacementIsStableAcrossInstances)
{
    ShardRouter a(4), b(4);
    for (int t = 0; t < 32; ++t) {
        Request request;
        request.tenant = "tenant-" + std::to_string(t);
        request.config.arch = Architecture::NoMap;
        size_t first = a.route(request);
        EXPECT_EQ(first, b.route(request));
        EXPECT_EQ(first, a.route(request)); // And across calls.
        EXPECT_LT(first, 4u);
    }
}

TEST(ShardRouter, DistinctTenantsCoverAllShards)
{
    ShardRouter router(4);
    std::set<size_t> hit;
    for (int t = 0; t < 64; ++t) {
        Request request;
        request.tenant = "tenant-" + std::to_string(t);
        hit.insert(router.route(request));
    }
    EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardRouter, ConfigIdentityAffectsPlacement)
{
    // The hash covers the EngineConfig identity, not just the tenant:
    // at least one of these arch variants must land elsewhere.
    ShardRouter router(4);
    Request request;
    request.tenant = "pinned";
    request.config.arch = Architecture::Base;
    size_t base = router.route(request);
    bool moved = false;
    for (Architecture arch :
         {Architecture::NoMapS, Architecture::NoMapB,
          Architecture::NoMap, Architecture::NoMapBC,
          Architecture::NoMapRTM}) {
        request.config.arch = arch;
        if (router.route(request) != base)
            moved = true;
    }
    EXPECT_TRUE(moved);
    EXPECT_EQ(ShardRouter(1).route(request), 0u);
}

// ---- Poller ------------------------------------------------------------

TEST(Poller, PipeReadinessSmoke)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    Poller poller;
    poller.add(fds[0], kPollIn);
    poller.add(fds[1], kPollOut);
    EXPECT_EQ(poller.watchedCount(), 2u);

    std::vector<Poller::Event> events;
    poller.wait(&events, 100);
    // Write end is writable; read end not yet readable.
    bool read_ready = false, write_ready = false;
    for (const Poller::Event &event : events) {
        if (event.fd == fds[0] && (event.ready & kPollIn))
            read_ready = true;
        if (event.fd == fds[1] && (event.ready & kPollOut))
            write_ready = true;
    }
    EXPECT_FALSE(read_ready);
    EXPECT_TRUE(write_ready);

    ASSERT_EQ(write(fds[1], "x", 1), 1);
    poller.modify(fds[1], 0); // Mute the write end.
    poller.wait(&events, 1000);
    read_ready = false;
    for (const Poller::Event &event : events) {
        if (event.fd == fds[0] && (event.ready & kPollIn))
            read_ready = true;
    }
    EXPECT_TRUE(read_ready);

    poller.remove(fds[0]);
    poller.remove(fds[1]);
    EXPECT_EQ(poller.watchedCount(), 0u);
    close(fds[0]);
    close(fds[1]);
    EXPECT_TRUE(std::string(Poller::backendName()) == "epoll" ||
                std::string(Poller::backendName()) == "poll");
}

TEST(Poller, ModifyAndRemoveSurviveFdClosedUnderneath)
{
    // Teardown races close fds before the poller hears about them;
    // modify()/remove() on a watched-but-closed fd must not crash on
    // either backend. The backends diverge on whether modify() keeps
    // the entry (the epoll backend drops it, since the kernel
    // already forgot the fd), so only the end state is asserted.
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    Poller poller;
    poller.add(fds[0], kPollIn);
    close(fds[0]);
    poller.modify(fds[0], kPollIn | kPollOut);
    if (poller.watchedCount() > 0)
        poller.remove(fds[0]);
    EXPECT_EQ(poller.watchedCount(), 0u);

    // remove() directly on a closed fd.
    poller.add(fds[1], kPollOut);
    close(fds[1]);
    poller.remove(fds[1]);
    EXPECT_EQ(poller.watchedCount(), 0u);

    // The poller still works afterwards.
    int fresh[2];
    ASSERT_EQ(pipe(fresh), 0);
    poller.add(fresh[1], kPollOut);
    std::vector<Poller::Event> events;
    poller.wait(&events, 100);
    bool writable = false;
    for (const Poller::Event &event : events)
        writable |= event.fd == fresh[1] && (event.ready & kPollOut);
    EXPECT_TRUE(writable);
    poller.remove(fresh[1]);
    close(fresh[0]);
    close(fresh[1]);
}

// ---- Sharded service (in-process) --------------------------------------

TEST(ShardedService, DifferentialAcrossShardsAndTenants)
{
    std::map<std::string, Reference> refs;
    for (size_t s = 0; s < kNumScripts; ++s)
        refs[kScripts[s]] =
            referenceFor(Architecture::NoMap, kScripts[s]);

    ShardedServiceConfig config;
    config.shards = 3;
    config.shard.workers = 2;
    ShardedService service(config);

    std::vector<std::future<Response>> futures;
    std::vector<std::string> sources;
    for (int round = 0; round < 2; ++round) {
        for (int t = 0; t < 6; ++t) {
            for (size_t s = 0; s < kNumScripts; ++s) {
                Request request;
                request.tenant = "tenant-" + std::to_string(t);
                request.source = kScripts[s];
                request.config.arch = Architecture::NoMap;
                size_t expect_shard = service.shardOf(request);
                sources.push_back(request.source);
                futures.push_back(
                    service.submit(std::move(request)));
                EXPECT_LT(expect_shard, 3u);
            }
        }
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        Response response = futures[i].get();
        ASSERT_TRUE(response.ok()) << response.error;
        const Reference &ref = refs[sources[i]];
        EXPECT_EQ(response.resultString, ref.resultString);
        WireResponse digest = responseToWire(response);
        EXPECT_EQ(digest.instructions, ref.digest.instructions);
        EXPECT_EQ(digest.cyclesBits, ref.digest.cyclesBits);
        EXPECT_LT(response.shard, 3u);
    }

    ShardedMetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.routed, futures.size());
    EXPECT_EQ(snap.shedTotal, 0u);
    uint64_t per_shard_total = 0;
    for (const auto &shard : snap.perShard)
        per_shard_total += shard.routed;
    EXPECT_EQ(per_shard_total, futures.size());
}

TEST(ShardedService, InjectedShardFullShedsDeterministically)
{
    FaultPlan plan = FaultPlan::parse("service.shardfull@2");
    ShardedServiceConfig config;
    config.shards = 2;
    config.shard.workers = 1;
    config.faultPlan = &plan;
    ShardedService service(config);

    Request r;
    r.source = "result = 1;";
    Response first = service.submit(r).get();
    Response second = service.submit(r).get();
    Response third = service.submit(r).get();
    EXPECT_EQ(first.status, ResponseStatus::Ok);
    EXPECT_EQ(second.status, ResponseStatus::Shed);
    EXPECT_NE(second.error.find("injected"), std::string::npos);
    EXPECT_EQ(third.status, ResponseStatus::Ok);

    ShardedMetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.shedTotal, 1u);
    EXPECT_EQ(snap.routed, 2u);
}

TEST(ShardedService, QueueDepthAdmissionControlSheds)
{
    ShardedServiceConfig config;
    config.shards = 1;
    config.shard.workers = 1;
    config.shedQueueDepth = 1;
    ShardedService service(config);

    // Occupy the single worker with a long script, wait until it is
    // in flight (queue empty), then fill the queue to the shed line.
    Request blocker;
    blocker.source = R"JS(
var acc = 0;
for (var i = 0; i < 400000; i++) { acc = (acc + i) % 65521; }
result = acc;
)JS";
    std::future<Response> running = service.submit(blocker);
    ASSERT_TRUE(eventually([&] {
        ServiceMetricsSnapshot snap = service.shard(0).metrics();
        return snap.inFlight == 1 && snap.queueDepth == 0;
    }));

    Request quick;
    quick.source = "result = 7;";
    // Depth 0 < 1: admitted, now queued behind the blocker.
    std::future<Response> queued = service.submit(quick);
    ASSERT_TRUE(eventually(
        [&] { return service.shard(0).metrics().queueDepth == 1; }));
    // Depth 1 >= 1: shed immediately, never enqueued.
    Response shed = service.submit(quick).get();
    EXPECT_EQ(shed.status, ResponseStatus::Shed);
    EXPECT_NE(shed.error.find("queue depth"), std::string::npos);

    EXPECT_EQ(running.get().status, ResponseStatus::Ok);
    EXPECT_EQ(queued.get().status, ResponseStatus::Ok);

    ShardedMetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.shedTotal, 1u);
    EXPECT_EQ(snap.perShard[0].service.shed, 1u);
    EXPECT_GE(snap.perShard[0].service.queueDepthHighWater, 1u);
}

TEST(ShardedService, RequestSpansCarryShardTag)
{
    ShardedServiceConfig config;
    config.shards = 4;
    config.shard.workers = 1;
    ShardedService service(config);

    Request request;
    request.tenant = "span-tenant";
    request.source = "result = 41 + 1;";
    request.config.traceCapacity = 4096;
    Response response = service.submit(request).get();
    ASSERT_TRUE(response.ok()) << response.error;
    ASSERT_FALSE(response.traceEvents.empty());

    bool saw_request_span = false;
    for (const TraceEvent &event : response.traceEvents) {
        if (event.type != TraceEventType::SpanBegin &&
            event.type != TraceEventType::SpanEnd)
            continue;
        if (event.code != static_cast<uint8_t>(SpanKind::Request))
            continue;
        saw_request_span = true;
        EXPECT_EQ(event.funcId, response.shard);
        EXPECT_EQ(event.pc, 0u); // In-process: no connection id.
    }
    EXPECT_TRUE(saw_request_span);
}

// ---- Loopback end-to-end -----------------------------------------------

/** Run the kernel mix over one connection, assert bit-identity. */
void
runLoopbackDifferential(NoMapServer *server,
                        const std::vector<Architecture> &archs,
                        int rounds)
{
    std::map<std::pair<int, std::string>, Reference> refs;
    for (Architecture arch : archs) {
        for (size_t s = 0; s < kNumScripts; ++s) {
            refs[{static_cast<int>(arch), kScripts[s]}] =
                referenceFor(arch, kScripts[s]);
        }
    }

    NetClient client;
    client.connect("127.0.0.1", server->port());

    struct Sent {
        Architecture arch;
        std::string source;
    };
    std::map<uint64_t, Sent> sent;
    uint64_t next_id = 1;
    for (int round = 0; round < rounds; ++round) {
        for (Architecture arch : archs) {
            for (size_t s = 0; s < kNumScripts; ++s) {
                WireRequest request;
                request.id = next_id++;
                request.arch = static_cast<uint8_t>(arch);
                request.tenant =
                    "tenant-" + std::to_string(s % 3);
                request.source = kScripts[s];
                client.sendRequest(request);
                sent[request.id] = {arch, kScripts[s]};
            }
        }
    }
    for (size_t i = 0; i < sent.size(); ++i) {
        WireResponse response = client.recvResponse();
        auto it = sent.find(response.id);
        ASSERT_NE(it, sent.end());
        const Reference &ref =
            refs[{static_cast<int>(it->second.arch),
                  it->second.source}];
        expectBitIdentical(
            response, ref,
            strprintf("id %llu arch %s",
                      static_cast<unsigned long long>(response.id),
                      architectureName(it->second.arch)));
        EXPECT_LT(response.shard,
                  server->service().shardCount());
    }
}

TEST(NetLoopback, ServedResponsesBitIdenticalAcrossArchitectures)
{
    ServerConfig config;
    config.loops = envLoops();
    config.service.shards = 2;
    config.service.shard.workers = 2;
    NoMapServer server(std::move(config));
    server.start();
    ASSERT_NE(server.port(), 0);
    EXPECT_EQ(server.loopCount(), envLoops());

    std::vector<Architecture> archs(std::begin(kDiffArchs),
                                    std::end(kDiffArchs));
    // Two rounds: the second exercises isolate reuse + program-cache
    // hits behind the wire.
    runLoopbackDifferential(&server, archs, 2);

    NetConnectionCounters counters = server.connectionCounters();
    EXPECT_EQ(counters.accepted, 1u);
    EXPECT_EQ(counters.decodeErrors, 0u);
    EXPECT_EQ(counters.framesIn,
              2u * archs.size() * kNumScripts);
    EXPECT_EQ(counters.framesOut, counters.framesIn);
    server.stop();
    EXPECT_EQ(server.connectionCounters().active, 0u);
}

TEST(NetLoopback, DifferentialHoldsUnderArmedFaultPlan)
{
    // Short reads, short writes, and frame deferrals degrade
    // *packetization and timing*, never content: every response must
    // still be bit-identical to the in-process reference.
    FaultPlan plan = FaultPlan::parse(
        "net.read@1,net.read@3,net.read@7,net.write@2,net.write@5,"
        "net.frame@1,net.frame@4");
    ServerConfig config;
    config.loops = envLoops();
    config.service.shards = 2;
    config.service.shard.workers = 2;
    config.faultPlan = &plan;
    NoMapServer server(std::move(config));
    server.start();

    std::vector<Architecture> archs = {Architecture::Base,
                                       Architecture::NoMap};
    runLoopbackDifferential(&server, archs, 2);

    NetConnectionCounters counters = server.connectionCounters();
    EXPECT_EQ(counters.deferredFrames, 2u); // net.frame@1 and @4.
    EXPECT_EQ(counters.decodeErrors, 0u);
    server.stop();
}

TEST(NetLoopback, InjectedAcceptFailureDropsFirstConnection)
{
    // The injector is shared across loops (relaxed-atomic counters),
    // so net.accept@1 fires exactly once no matter which loop's
    // listener wins the first connection.
    FaultPlan plan = FaultPlan::parse("net.accept@1");
    ServerConfig config;
    config.loops = envLoops();
    config.service.shards = 1;
    config.service.shard.workers = 1;
    config.faultPlan = &plan;
    NoMapServer server(std::move(config));
    server.start();

    // First connection: kernel-accepted, then failed by the injected
    // site — the client observes a close before any response.
    EXPECT_THROW(
        {
            NetClient doomed;
            doomed.connect("127.0.0.1", server.port());
            WireRequest request;
            request.id = 1;
            request.source = "result = 1;";
            doomed.sendRequest(request);
            doomed.recvResponse();
        },
        FatalError);
    ASSERT_TRUE(eventually([&] {
        return server.connectionCounters().acceptFaults == 1;
    }));

    // The site has fired; the next connection serves normally.
    NetClient client;
    client.connect("127.0.0.1", server.port());
    WireRequest request;
    request.id = 2;
    request.source = "result = 6 * 7;";
    WireResponse response = client.call(request);
    EXPECT_EQ(response.status,
              static_cast<uint8_t>(ResponseStatus::Ok));
    EXPECT_EQ(response.resultString, "42");
    server.stop();
}

TEST(NetLoopback, OversizedFrameAnswersErrorThenCloses)
{
    ServerConfig config;
    config.loops = envLoops();
    NoMapServer server(std::move(config));
    server.start();

    NetClient client;
    client.connect("127.0.0.1", server.port());
    uint32_t huge = kMaxFramePayloadBytes + 1;
    std::string header(reinterpret_cast<const char *>(&huge), 4);
    client.sendBytes(header);

    WireResponse response = client.recvResponse();
    EXPECT_EQ(response.status,
              static_cast<uint8_t>(ResponseStatus::Error));
    EXPECT_NE(response.error.find("protocol error"),
              std::string::npos);
    // The stream is unresynchronizable: the server closes it.
    EXPECT_THROW(client.recvResponse(), FatalError);
    ASSERT_TRUE(eventually([&] {
        return server.connectionCounters().decodeErrors == 1;
    }));

    // A fresh connection is unaffected.
    NetClient fresh;
    fresh.connect("127.0.0.1", server.port());
    WireRequest request;
    request.id = 1;
    request.source = "result = 5;";
    EXPECT_EQ(fresh.call(request).resultString, "5");
    server.stop();
}

TEST(NetLoopback, MalformedPayloadKeepsConnectionUsable)
{
    ServerConfig config;
    config.loops = envLoops();
    NoMapServer server(std::move(config));
    server.start();

    NetClient client;
    client.connect("127.0.0.1", server.port());
    // Framing is valid, payload is garbage: per-request error, the
    // stream stays in sync.
    client.sendBytes(frameMessage("not a real payload"));
    WireResponse bad = client.recvResponse();
    EXPECT_EQ(bad.status,
              static_cast<uint8_t>(ResponseStatus::Error));
    EXPECT_NE(bad.error.find("bad request"), std::string::npos);

    // Out-of-range architecture: also a per-request error.
    WireRequest bad_arch;
    bad_arch.id = 7;
    bad_arch.arch = 250;
    bad_arch.source = "result = 1;";
    client.sendRequest(bad_arch);
    WireResponse arch_response = client.recvResponse();
    EXPECT_EQ(arch_response.status,
              static_cast<uint8_t>(ResponseStatus::Error));
    EXPECT_EQ(arch_response.id, 7u);

    WireRequest good;
    good.id = 8;
    good.source = "result = 2 + 2;";
    WireResponse response = client.call(good);
    EXPECT_EQ(response.status,
              static_cast<uint8_t>(ResponseStatus::Ok));
    EXPECT_EQ(response.resultString, "4");
    EXPECT_EQ(server.connectionCounters().decodeErrors, 2u);
    server.stop();
}

TEST(NetLoopback, HugeTraceCapacityAnswersErrorAndServerKeepsServing)
{
    ServerConfig config;
    config.loops = envLoops();
    NoMapServer server(std::move(config));
    server.start();

    NetClient client;
    client.connect("127.0.0.1", server.port());
    // Reserving 2^32 trace events would throw std::bad_alloc on a
    // worker thread and terminate the server; it must be refused as a
    // bad request instead.
    WireRequest huge;
    huge.id = 1;
    huge.traceCapacity = 0xFFFFFFFFu;
    huge.source = "result = 1;";
    WireResponse refused = client.call(huge);
    EXPECT_EQ(refused.status,
              static_cast<uint8_t>(ResponseStatus::Error));
    EXPECT_EQ(refused.id, 1u);
    EXPECT_NE(refused.error.find("trace capacity"), std::string::npos);

    WireRequest good;
    good.id = 2;
    good.source = "result = 3 + 4;";
    WireResponse response = client.call(good);
    EXPECT_EQ(response.status,
              static_cast<uint8_t>(ResponseStatus::Ok));
    EXPECT_EQ(response.resultString, "7");
    server.stop();
}

TEST(NetLoopback, DeepNestingAnswersErrorAndServerKeepsServing)
{
    ServerConfig config;
    config.loops = envLoops();
    NoMapServer server(std::move(config));
    server.start();

    NetClient client;
    client.connect("127.0.0.1", server.port());
    // 200k nested parentheses would overflow a worker thread's stack
    // in the recursive-descent parser and kill every tenant; the
    // parser's nesting limit must turn it into an error response.
    WireRequest deep;
    deep.id = 1;
    deep.source = "result = " + std::string(200000, '(') + "1" +
                  std::string(200000, ')') + ";";
    WireResponse refused = client.call(deep);
    EXPECT_EQ(refused.status,
              static_cast<uint8_t>(ResponseStatus::Error));
    EXPECT_EQ(refused.id, 1u);
    EXPECT_NE(refused.error.find("nesting too deep"), std::string::npos)
        << refused.error;

    WireRequest good;
    good.id = 2;
    good.source = "result = 3 + 4;";
    WireResponse response = client.call(good);
    EXPECT_EQ(response.status,
              static_cast<uint8_t>(ResponseStatus::Ok));
    EXPECT_EQ(response.resultString, "7");
    server.stop();
}

TEST(NetLoopback, OverCapResponseAnswersErrorAndConnectionKeepsServing)
{
    ServerConfig config;
    config.loops = envLoops();
    NoMapServer server(std::move(config));
    server.start();

    NetClient client;
    client.connect("127.0.0.1", server.port());
    // 9 MiB of print output: its response frame would exceed
    // kMaxFramePayloadBytes, which the client's decoder treats as an
    // unrecoverable stream error. The server must answer Error instead.
    WireRequest chatty;
    chatty.id = 1;
    chatty.source = R"JS(
var line = "";
for (var i = 0; i < 1023; i++) line = line + "x";
for (var r = 0; r < 9216; r++) print(line);
result = 1;
)JS";
    WireResponse refused = client.call(chatty);
    EXPECT_EQ(refused.status,
              static_cast<uint8_t>(ResponseStatus::Error));
    EXPECT_EQ(refused.id, 1u);
    EXPECT_NE(refused.error.find("exceeds the " +
                                 std::to_string(kMaxFramePayloadBytes) +
                                 "-byte frame cap"),
              std::string::npos)
        << refused.error;
    EXPECT_TRUE(refused.printed.empty());

    WireRequest good;
    good.id = 2;
    good.source = "result = 3 + 4;";
    WireResponse response = client.call(good);
    EXPECT_EQ(response.status,
              static_cast<uint8_t>(ResponseStatus::Ok));
    EXPECT_EQ(response.resultString, "7");
    EXPECT_EQ(server.connectionCounters().decodeErrors, 0u);
    server.stop();
}

TEST(NetLoopback, ShedStatusCrossesTheWire)
{
    FaultPlan plan = FaultPlan::parse("service.shardfull@1");
    ServerConfig config;
    config.loops = envLoops();
    config.service.shards = 1;
    config.service.shard.workers = 1;
    config.faultPlan = &plan;
    NoMapServer server(std::move(config));
    server.start();

    NetClient client;
    client.connect("127.0.0.1", server.port());
    WireRequest request;
    request.id = 1;
    request.source = "result = 1;";
    WireResponse shed = client.call(request);
    EXPECT_EQ(shed.status,
              static_cast<uint8_t>(ResponseStatus::Shed));
    EXPECT_NE(shed.error.find("shed"), std::string::npos);

    request.id = 2;
    WireResponse ok = client.call(request);
    EXPECT_EQ(ok.status, static_cast<uint8_t>(ResponseStatus::Ok));

    ShardedMetricsSnapshot snap = server.metrics();
    EXPECT_EQ(snap.shedTotal, 1u);
    EXPECT_EQ(snap.connections.framesOut, 2u);
    server.stop();
}

TEST(NetLoopback, MultiLoopServesBitIdenticalWithPerLoopMetrics)
{
    ServerConfig config;
    config.loops = 4;
    config.service.shards = 2;
    config.service.shard.workers = 2;
    NoMapServer server(std::move(config));
    server.start();
    ASSERT_EQ(server.loopCount(), 4u);

    // Six connections, each running the differential: with
    // SO_REUSEPORT the kernel spreads them across loops; in the
    // fallback the acceptor round-robins them. Either way every
    // response must stay bit-identical and the per-loop counters
    // must tile the totals exactly.
    std::vector<Architecture> archs = {Architecture::Base,
                                       Architecture::NoMap};
    for (int c = 0; c < 6; ++c)
        runLoopbackDifferential(&server, archs, 1);

    NetConnectionCounters counters = server.connectionCounters();
    EXPECT_EQ(counters.accepted, 6u);
    EXPECT_EQ(counters.decodeErrors, 0u);

    ShardedMetricsSnapshot snap = server.metrics();
    EXPECT_EQ(snap.loops, 4u);
    ASSERT_EQ(snap.eventLoops.size(), 4u);
    uint64_t loop_accepted = 0, loop_frames_in = 0,
             loop_frames_out = 0;
    for (const NetLoopCounters &loop : snap.eventLoops) {
        EXPECT_GE(loop.loop, 1u);
        EXPECT_LE(loop.loop, 4u);
        loop_accepted += loop.accepted;
        loop_frames_in += loop.framesIn;
        loop_frames_out += loop.framesOut;
    }
    EXPECT_EQ(loop_accepted, counters.accepted);
    EXPECT_EQ(loop_frames_in, counters.framesIn);
    EXPECT_EQ(loop_frames_out, counters.framesOut);

    // Wire requests are tagged with their loop: slot 0 (in-process)
    // stays zero and the per-loop router counters tile the total.
    ASSERT_EQ(snap.routedPerLoop.size(), 5u);
    EXPECT_EQ(snap.routedPerLoop[0], 0u);
    uint64_t routed_by_loop = 0;
    for (uint64_t n : snap.routedPerLoop)
        routed_by_loop += n;
    EXPECT_EQ(routed_by_loop, snap.routed);

    std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"event_loops\""), std::string::npos);
    EXPECT_NE(json.find("\"routed_per_loop\""), std::string::npos);
    server.stop();
    EXPECT_EQ(server.connectionCounters().active, 0u);
}

TEST(NetLoopback, CloseAndReacceptWithinOnePollBatchIsSafe)
{
    // Regression canary for the stale-Conn* dispatch bug: a
    // connection with POLLOUT backlog whose read side closes inside a
    // poll batch frees its fd; when an accept in the same batch
    // reuses that fd, the old dispatch code touched the freed Conn
    // through the saved pointer (and could flush the *new* conn for
    // the stale event). The fix re-looks-up the fd and matches the
    // conn id. The interleaving is probabilistic, so iterate: under
    // ASan any hit on the old code crashes; the fixed code must
    // serve the replacement connection correctly every time.
    ServerConfig config;
    config.loops = 1; // fd reuse only recycles within one loop.
    config.sendBufferBytes = 4096;
    config.service.shards = 1;
    config.service.shard.workers = 2;
    NoMapServer server(std::move(config));
    server.start();

    // ~40 KiB of print output: overflows the 4 KiB server send
    // buffer + 4 KiB client receive window, so the response backlog
    // keeps POLLOUT armed while the client never reads.
    const char *kChatty = R"JS(
var line = "";
for (var i = 0; i < 100; i++) line = line + "x";
for (var r = 0; r < 400; r++) print(line);
result = 1;
)JS";

    uint64_t served = 0;
    for (int iter = 0; iter < 12; ++iter) {
        NetClient backlogged;
        backlogged.setReceiveBuffer(4096);
        backlogged.connect("127.0.0.1", server.port());
        WireRequest chatty;
        chatty.id = 1000 + static_cast<uint64_t>(iter);
        chatty.source = kChatty;
        backlogged.sendRequest(chatty);
        // Wait until the response is queued on the connection (the
        // frames_out counter bumps at append time), so its socket
        // has unflushed backlog and POLLOUT interest.
        ++served;
        ASSERT_TRUE(eventually([&] {
            return server.connectionCounters().framesOut >= served;
        }));
        // EOF + pending backlog: readable and writable fire in one
        // event; the close frees the fd for the next accept.
        backlogged.close();

        NetClient replacement;
        replacement.connect("127.0.0.1", server.port());
        WireRequest probe;
        probe.id = 2000 + static_cast<uint64_t>(iter);
        probe.source = "result = 6 * 7;";
        WireResponse response = replacement.call(probe);
        EXPECT_EQ(response.status,
                  static_cast<uint8_t>(ResponseStatus::Ok));
        EXPECT_EQ(response.id, probe.id);
        EXPECT_EQ(response.resultString, "42");
        ++served;
    }
    server.stop();
    EXPECT_EQ(server.connectionCounters().active, 0u);
}

TEST(NetLoopback, MalformedPayloadThenPeerResetDoesNotTouchFreedConn)
{
    // Regression canary for the processFrame error-path UAF: a
    // well-framed but malformed payload makes processFrame queue an
    // error frame and flush inline; when the peer has already reset
    // the connection that send() fails hard (ECONNRESET/EPIPE) and
    // closeConn frees the Conn — the old handleReadable then read
    // conn->id through the freed pointer. Loopback delivers the
    // payload and the RST back-to-back, so the kernel hands the
    // server the data first (queued bytes drain before sk_err) and
    // fails the send that follows; iterate to cover the remaining
    // timing window. Under ASan any hit on the old code crashes; the
    // fixed server must stay up and keep serving.
    ServerConfig config;
    config.loops = 1;
    config.service.shards = 1;
    config.service.shard.workers = 1;
    NoMapServer server(std::move(config));
    server.start();

    const std::string hostile = frameMessage("not a real payload");
    for (int iter = 0; iter < 64; ++iter) {
        int fd = socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr {};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server.port());
        ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        ASSERT_EQ(send(fd, hostile.data(), hostile.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(hostile.size()));
        // SO_LINGER with zero timeout turns close() into a RST.
        linger hard {};
        hard.l_onoff = 1;
        hard.l_linger = 0;
        setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
        ::close(fd);
    }

    // Quiesce: every reset connection the kernel let through accept()
    // must be closed again (whether one in the accept queue survives
    // its RST is kernel-specific, so no exact count is asserted).
    ASSERT_TRUE(eventually([&] {
        NetConnectionCounters c = server.connectionCounters();
        return c.accepted > 0 && c.closed == c.accepted;
    }));
    NetClient probe;
    probe.connect("127.0.0.1", server.port());
    WireRequest request;
    request.id = 7;
    request.source = "result = 6 * 7;";
    EXPECT_EQ(probe.call(request).resultString, "42");
    server.stop();
    EXPECT_EQ(server.connectionCounters().active, 0u);
}

TEST(NetLoopback, MaxConnectionRejectionCountsAsRejected)
{
    ServerConfig config;
    config.loops = 1; // One acceptor makes the cap exact.
    config.maxConnections = 2;
    config.service.shards = 1;
    config.service.shard.workers = 1;
    NoMapServer server(std::move(config));
    server.start();

    WireRequest request;
    request.id = 1;
    request.source = "result = 2;";

    NetClient first, second;
    first.connect("127.0.0.1", server.port());
    EXPECT_EQ(first.call(request).resultString, "2");
    second.connect("127.0.0.1", server.port());
    EXPECT_EQ(second.call(request).resultString, "2");
    ASSERT_TRUE(eventually(
        [&] { return server.connectionCounters().accepted == 2; }));

    // Over the cap: the kernel completes the handshake, the server
    // closes it unserved — counted as rejected, NOT accepted+closed.
    NetClient over;
    over.connect("127.0.0.1", server.port());
    EXPECT_THROW(
        {
            over.sendRequest(request);
            over.recvResponse();
        },
        FatalError);
    ASSERT_TRUE(eventually(
        [&] { return server.connectionCounters().rejected == 1; }));
    NetConnectionCounters counters = server.connectionCounters();
    EXPECT_EQ(counters.accepted, 2u);
    EXPECT_EQ(counters.closed, 0u);
    EXPECT_EQ(counters.active, 2u);
    EXPECT_NE(server.metricsJson().find("\"rejected\": 1"),
              std::string::npos);

    // Freeing a slot readmits new connections.
    first.close();
    ASSERT_TRUE(eventually(
        [&] { return server.connectionCounters().closed == 1; }));
    NetClient readmitted;
    readmitted.connect("127.0.0.1", server.port());
    EXPECT_EQ(readmitted.call(request).resultString, "2");
    EXPECT_EQ(server.connectionCounters().accepted, 3u);
    server.stop();
}

TEST(NetLoopback, TransientAcceptFailureBacksOffAndRecovers)
{
    // Drive a real EMFILE through accept(2) by exhausting the fd
    // table, and check the loop counts the fault, drops accept
    // interest for a backoff tick instead of hot-spinning on the
    // level-triggered listener, and serves new connections again
    // once fds free up. (Whether the connection pending during the
    // failure survives is kernel-specific — some stacks keep it
    // queued, some reset it — so only fresh-connection recovery is
    // asserted.)
    ServerConfig config;
    config.loops = 1;
    config.acceptBackoffMs = 25;
    config.service.shards = 1;
    config.service.shard.workers = 1;
    NoMapServer server(std::move(config));
    server.start();

    // The triggering socket must exist before exhaustion: connect()
    // on an existing fd needs no new descriptor, and the handshake
    // completes in the listen backlog without the server's help.
    int clientFd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(clientFd, 0);

    rlimit saved {};
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit tight = saved;
    tight.rlim_cur = 128; // Plenty above current usage, quick to fill.
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);
    std::vector<int> hogs;
    for (;;) {
        int fd = dup(clientFd);
        if (fd < 0)
            break;
        hogs.push_back(fd);
    }
    ASSERT_FALSE(hogs.empty());

    sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(clientFd,
                        reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // accept() hits EMFILE: fault counted, accept interest dropped.
    ASSERT_TRUE(eventually([&] {
        NetConnectionCounters c = server.connectionCounters();
        return c.acceptFaults >= 1 && c.acceptBackoffs >= 1;
    }));
    EXPECT_EQ(server.connectionCounters().accepted, 0u);

    // Release the fd table; after the backoff tick the listener
    // re-arms and fresh connections are served again.
    for (int fd : hogs)
        close(fd);
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
    close(clientFd);

    NetClient client;
    client.connect("127.0.0.1", server.port());
    WireRequest request;
    request.id = 9;
    request.source = "result = 3 * 3;";
    WireResponse response = client.call(request);
    EXPECT_EQ(response.status,
              static_cast<uint8_t>(ResponseStatus::Ok));
    EXPECT_EQ(response.resultString, "9");
    EXPECT_GE(server.connectionCounters().accepted, 1u);
    server.stop();
}

TEST(ShardedService, LoopOrdinalTagsSpansAndRouterCounters)
{
    // The wire path stamps Request::loop (EventLoop::processFrame);
    // the span wrapper must carry it into the Request span's aux
    // field, and the router must count admissions per loop.
    // Exercised in-process with an explicit ordinal; in-process
    // submissions themselves stay loop 0, keeping trace goldens and
    // the slot-0 counter unchanged.
    ShardedServiceConfig config;
    config.shards = 2;
    config.shard.workers = 1;
    config.loops = 4;
    ShardedService service(config);

    Request request;
    request.source = "result = 3;";
    request.config.traceCapacity = 4096;
    request.connectionId = 99;
    request.loop = 3;
    Response response = service.submit(request).get();
    ASSERT_TRUE(response.ok()) << response.error;

    bool saw_request_span = false;
    for (const TraceEvent &event : response.traceEvents) {
        if (event.type != TraceEventType::SpanBegin &&
            event.type != TraceEventType::SpanEnd)
            continue;
        if (event.code != static_cast<uint8_t>(SpanKind::Request))
            continue;
        saw_request_span = true;
        EXPECT_EQ(event.aux, 3u);
        EXPECT_EQ(event.pc, 99u);
    }
    EXPECT_TRUE(saw_request_span);

    Request inproc;
    inproc.source = "result = 4;";
    ASSERT_TRUE(service.submit(inproc).get().ok());

    ShardedMetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.loops, 4u);
    ASSERT_EQ(snap.routedPerLoop.size(), 5u);
    EXPECT_EQ(snap.routedPerLoop[3], 1u);
    EXPECT_EQ(snap.routedPerLoop[0], 1u); // The in-process submit.
    EXPECT_EQ(snap.routedPerLoop[1], 0u);
}

TEST(ShardedService, ConnectionIdTagsRequestSpans)
{
    // The wire path stamps Request::connectionId before submission
    // (NoMapServer::processFrame); the span wrapper must carry it
    // into the Request span's pc field for per-connection grouping
    // in trace views. Exercised here in-process with an explicit id.
    ShardedServiceConfig config;
    config.shards = 2;
    config.shard.workers = 1;
    ShardedService service(config);

    Request request;
    request.source = "result = 3;";
    request.config.traceCapacity = 4096;
    request.connectionId = 99;
    Response response = service.submit(request).get();
    ASSERT_TRUE(response.ok()) << response.error;

    bool saw_request_span = false;
    for (const TraceEvent &event : response.traceEvents) {
        if (event.type != TraceEventType::SpanBegin &&
            event.type != TraceEventType::SpanEnd)
            continue;
        if (event.code != static_cast<uint8_t>(SpanKind::Request))
            continue;
        saw_request_span = true;
        EXPECT_EQ(event.pc, 99u);
        EXPECT_EQ(event.funcId, response.shard);
    }
    EXPECT_TRUE(saw_request_span);
}

} // namespace
} // namespace nomap
