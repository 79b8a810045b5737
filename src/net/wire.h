#ifndef NOMAP_NET_WIRE_H
#define NOMAP_NET_WIRE_H

/**
 * @file
 * The wire protocol: length-prefixed binary frames.
 *
 * Framing: every message is `u32-LE payload-length` followed by
 * exactly that many payload bytes. Lengths above
 * kMaxFramePayloadBytes are a protocol error (a corrupt or hostile
 * length prefix must not make the server buffer gigabytes); the
 * stream cannot be resynchronized after one, so the connection is
 * closed.
 *
 * Payloads are flat little-endian structs with length-prefixed
 * strings — no nested framing, no varints, every field
 * unconditionally present, so truncation is always detectable
 * (decode reads past the end => error) and encode/decode round-trips
 * bit-exactly. A version byte leads each payload; mismatches are
 * decode errors, not best-effort parses.
 *
 * The response carries the execution result plus a **stats digest**
 * (instruction/check/cycle/tx counters, cycles as the raw IEEE-754
 * bit pattern). The digest is what lets a remote client assert the
 * differential guarantee end-to-end: a TCP-served response must be
 * bit-identical — result string, printed output, and digest — to a
 * sequential in-process Engine::run of the same source and config.
 */

#include <cstdint>
#include <string>

#include "service/request.h"

namespace nomap {

/** Wire protocol version; bump on any layout change. */
constexpr uint8_t kWireVersion = 1;

/** Hard cap on one frame's payload (decode error above this). */
constexpr uint32_t kMaxFramePayloadBytes = 8u << 20;

/**
 * Largest trace capacity a wire request may ask for. The engine
 * reserves that many trace events up front (about 40 MiB here), so an
 * unchecked value could exhaust the server's memory.
 */
constexpr uint32_t kMaxWireTraceCapacity = 1u << 20;

/** The subset of Request a remote client controls. */
struct WireRequest {
    uint64_t id = 0;
    uint8_t arch = 0; ///< Architecture (validated on decode).
    uint64_t timeoutMs = 0;
    int32_t maxRetries = -1;
    uint32_t traceCapacity = 0; ///< At most kMaxWireTraceCapacity.
    std::string tenant;
    std::string source;

    bool operator==(const WireRequest &) const = default;
};

/** The wire form of a Response (stats digest, not full stats). */
struct WireResponse {
    uint64_t id = 0;
    uint8_t status = 0; ///< ResponseStatus.
    uint32_t shard = 0;
    uint32_t attempts = 1;
    uint8_t programCacheHit = 0;
    std::string error;
    std::string resultString;
    std::string printed;

    // ---- Stats digest (differential contract over the wire) -----------
    uint64_t instructions = 0;
    uint64_t checks = 0;
    /** totalCycles() as raw IEEE-754 bits: compares bit-exactly. */
    uint64_t cyclesBits = 0;
    uint64_t txCommits = 0;
    uint64_t txAborts = 0;
    uint64_t deopts = 0;

    bool operator==(const WireResponse &) const = default;
};

// ---- Payload codecs ----------------------------------------------------

std::string encodeRequestPayload(const WireRequest &request);
std::string encodeResponsePayload(const WireResponse &response);

/**
 * Decode a payload. Returns false (setting @p error) on version
 * mismatch, truncation, string overrun, bad enum value, or trailing
 * bytes.
 */
bool decodeRequestPayload(const std::string &payload,
                          WireRequest *request, std::string *error);
bool decodeResponsePayload(const std::string &payload,
                           WireResponse *response,
                           std::string *error);

/** Prepend the u32-LE length header to @p payload. */
std::string frameMessage(const std::string &payload);

// ---- Incremental frame decoder -----------------------------------------

/**
 * Feed bytes as they arrive, pull complete payloads out. After Error
 * the decoder is poisoned (the stream cannot be resynchronized) and
 * keeps returning Error.
 */
class FrameDecoder
{
  public:
    enum class Result {
        Frame,    ///< *payload filled with one complete frame.
        NeedMore, ///< No complete frame buffered yet.
        Error,    ///< Protocol error (oversized length); see *error.
    };

    void feed(const char *data, size_t size);

    /** Extract the next complete frame, if any. */
    Result next(std::string *payload, std::string *error);

    size_t bufferedBytes() const { return buffer.size() - consumed; }

  private:
    std::string buffer;
    size_t consumed = 0;
    bool poisoned = false;
    std::string poisonReason;
};

// ---- Request/Response conversions --------------------------------------

/**
 * Build the service Request a decoded wire request denotes. Returns
 * false (setting @p error) on an out-of-range architecture or trace
 * capacity.
 */
bool wireToRequest(const WireRequest &wire, Request *request,
                   std::string *error);

/** Digest a completed Response for the wire. */
WireResponse responseToWire(const Response &response);

} // namespace nomap

#endif // NOMAP_NET_WIRE_H
