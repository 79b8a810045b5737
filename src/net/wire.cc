#include "net/wire.h"

#include <cstring>

#include "support/logging.h"

namespace nomap {

namespace {

// ---- Little-endian primitives -----------------------------------------

void
putU8(std::string *out, uint8_t v)
{
    out->push_back(static_cast<char>(v));
}

void
putU32(std::string *out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putString(std::string *out, const std::string &s)
{
    putU32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
}

/** Bounds-checked reader over one payload. */
struct Reader {
    const std::string &data;
    size_t pos = 0;
    bool failed = false;

    bool
    take(void *out, size_t n)
    {
        if (failed || data.size() - pos < n) {
            failed = true;
            return false;
        }
        std::memcpy(out, data.data() + pos, n);
        pos += n;
        return true;
    }

    uint8_t
    u8()
    {
        uint8_t v = 0;
        take(&v, 1);
        return v;
    }

    uint32_t
    u32()
    {
        unsigned char b[4] = {};
        if (!take(b, 4))
            return 0;
        return static_cast<uint32_t>(b[0]) |
               static_cast<uint32_t>(b[1]) << 8 |
               static_cast<uint32_t>(b[2]) << 16 |
               static_cast<uint32_t>(b[3]) << 24;
    }

    uint64_t
    u64()
    {
        uint64_t lo = u32();
        uint64_t hi = u32();
        return lo | hi << 32;
    }

    std::string
    str()
    {
        uint32_t n = u32();
        if (failed || data.size() - pos < n) {
            failed = true;
            return "";
        }
        std::string s(data, pos, n);
        pos += n;
        return s;
    }

    bool
    done() const
    {
        return !failed && pos == data.size();
    }
};

bool
fail(std::string *error, const char *what)
{
    if (error)
        *error = what;
    return false;
}

} // namespace

// ---- Payload codecs ----------------------------------------------------

std::string
encodeRequestPayload(const WireRequest &request)
{
    std::string out;
    putU8(&out, kWireVersion);
    putU8(&out, 'Q'); // Message kind: request.
    putU64(&out, request.id);
    putU8(&out, request.arch);
    putU64(&out, request.timeoutMs);
    putU32(&out, static_cast<uint32_t>(request.maxRetries));
    putU32(&out, request.traceCapacity);
    putString(&out, request.tenant);
    putString(&out, request.source);
    return out;
}

bool
decodeRequestPayload(const std::string &payload, WireRequest *request,
                     std::string *error)
{
    Reader r{payload};
    if (r.u8() != kWireVersion)
        return fail(error, "wire version mismatch");
    if (r.u8() != 'Q')
        return fail(error, "not a request frame");
    request->id = r.u64();
    request->arch = r.u8();
    request->timeoutMs = r.u64();
    request->maxRetries = static_cast<int32_t>(r.u32());
    request->traceCapacity = r.u32();
    request->tenant = r.str();
    request->source = r.str();
    if (r.failed)
        return fail(error, "truncated request payload");
    if (!r.done())
        return fail(error, "trailing bytes after request payload");
    return true;
}

std::string
encodeResponsePayload(const WireResponse &response)
{
    std::string out;
    putU8(&out, kWireVersion);
    putU8(&out, 'R'); // Message kind: response.
    putU64(&out, response.id);
    putU8(&out, response.status);
    putU32(&out, response.shard);
    putU32(&out, response.attempts);
    putU8(&out, response.programCacheHit);
    putString(&out, response.error);
    putString(&out, response.resultString);
    putString(&out, response.printed);
    putU64(&out, response.instructions);
    putU64(&out, response.checks);
    putU64(&out, response.cyclesBits);
    putU64(&out, response.txCommits);
    putU64(&out, response.txAborts);
    putU64(&out, response.deopts);
    return out;
}

bool
decodeResponsePayload(const std::string &payload,
                      WireResponse *response, std::string *error)
{
    Reader r{payload};
    if (r.u8() != kWireVersion)
        return fail(error, "wire version mismatch");
    if (r.u8() != 'R')
        return fail(error, "not a response frame");
    response->id = r.u64();
    response->status = r.u8();
    response->shard = r.u32();
    response->attempts = r.u32();
    response->programCacheHit = r.u8();
    response->error = r.str();
    response->resultString = r.str();
    response->printed = r.str();
    response->instructions = r.u64();
    response->checks = r.u64();
    response->cyclesBits = r.u64();
    response->txCommits = r.u64();
    response->txAborts = r.u64();
    response->deopts = r.u64();
    if (r.failed)
        return fail(error, "truncated response payload");
    if (!r.done())
        return fail(error, "trailing bytes after response payload");
    if (response->status > static_cast<uint8_t>(ResponseStatus::Shed))
        return fail(error, "response status out of range");
    return true;
}

std::string
frameMessage(const std::string &payload)
{
    std::string out;
    out.reserve(payload.size() + 4);
    putU32(&out, static_cast<uint32_t>(payload.size()));
    out.append(payload);
    return out;
}

// ---- FrameDecoder ------------------------------------------------------

void
FrameDecoder::feed(const char *data, size_t size)
{
    if (poisoned)
        return;
    // Compact lazily: only when the consumed prefix dominates, so
    // steady-state streaming is amortized O(bytes).
    if (consumed > 4096 && consumed * 2 > buffer.size()) {
        buffer.erase(0, consumed);
        consumed = 0;
    }
    buffer.append(data, size);
}

FrameDecoder::Result
FrameDecoder::next(std::string *payload, std::string *error)
{
    if (poisoned) {
        if (error)
            *error = poisonReason;
        return Result::Error;
    }
    size_t available = buffer.size() - consumed;
    if (available < 4)
        return Result::NeedMore;
    const unsigned char *p = reinterpret_cast<const unsigned char *>(
        buffer.data() + consumed);
    uint32_t length = static_cast<uint32_t>(p[0]) |
                      static_cast<uint32_t>(p[1]) << 8 |
                      static_cast<uint32_t>(p[2]) << 16 |
                      static_cast<uint32_t>(p[3]) << 24;
    if (length > kMaxFramePayloadBytes) {
        poisoned = true;
        poisonReason = strprintf(
            "frame length %u exceeds cap %u", length,
            kMaxFramePayloadBytes);
        if (error)
            *error = poisonReason;
        return Result::Error;
    }
    if (available - 4 < length)
        return Result::NeedMore;
    payload->assign(buffer, consumed + 4, length);
    consumed += 4 + static_cast<size_t>(length);
    return Result::Frame;
}

// ---- Conversions -------------------------------------------------------

bool
wireToRequest(const WireRequest &wire, Request *request,
              std::string *error)
{
    if (wire.arch >
        static_cast<uint8_t>(Architecture::NoMapRTM)) {
        if (error) {
            *error = strprintf("architecture %u out of range",
                               static_cast<unsigned>(wire.arch));
        }
        return false;
    }
    if (wire.traceCapacity > kMaxWireTraceCapacity) {
        if (error) {
            *error = strprintf("trace capacity %u out of range",
                               static_cast<unsigned>(wire.traceCapacity));
        }
        return false;
    }
    request->id = wire.id;
    request->source = wire.source;
    request->config = EngineConfig();
    request->config.arch = static_cast<Architecture>(wire.arch);
    request->config.traceCapacity = wire.traceCapacity;
    request->timeoutMs = wire.timeoutMs;
    request->maxRetries = wire.maxRetries;
    request->tenant = wire.tenant;
    return true;
}

WireResponse
responseToWire(const Response &response)
{
    WireResponse wire;
    wire.id = response.id;
    wire.status = static_cast<uint8_t>(response.status);
    wire.shard = response.shard;
    wire.attempts = response.attempts;
    wire.programCacheHit = response.programCacheHit ? 1 : 0;
    wire.error = response.error;
    wire.resultString = response.resultString;
    wire.printed = response.printed;
    wire.instructions = response.stats.totalInstructions();
    wire.checks = response.stats.totalChecks();
    double cycles = response.stats.totalCycles();
    std::memcpy(&wire.cyclesBits, &cycles, sizeof(cycles));
    wire.txCommits = response.stats.txCommits;
    wire.txAborts = response.stats.txAborts;
    wire.deopts = response.stats.deopts;
    return wire;
}

} // namespace nomap
