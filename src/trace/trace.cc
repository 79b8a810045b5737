#include "trace/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <tuple>

namespace nomap {

namespace {

/**
 * Name tables for payload codes. The trace library sits *below* htm
 * and engine in the link graph, so it cannot include their headers;
 * instead the numeric layouts are mirrored here and pinned by
 * static_asserts next to the producing code (htm/transaction.cc,
 * engine/engine.cc) so the enums cannot drift silently.
 */
constexpr const char *kAbortCodeNames[] = {
    "None", "ExplicitCheck", "Capacity", "StickyOverflow", "Irrevocable",
};

constexpr const char *kCheckKindNames[] = {
    "Bounds", "Overflow", "Type", "Property", "Other",
};

constexpr const char *kTierNames[] = {
    "Interpreter", "Baseline", "Dfg", "Ftl",
};

const char *
nameOrUnknown(const char *const *table, size_t size, uint8_t code)
{
    return code < size ? table[code] : "?";
}

std::string
funcLabel(uint32_t func_id, const TraceNameResolver &resolver)
{
    if (resolver) {
        std::string name = resolver(func_id);
        if (!name.empty())
            return name;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "fn#%" PRIu32, func_id);
    return buf;
}

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

/** Per-type code name (what `code` means depends on `type`). */
const char *
codeName(const TraceEvent &e)
{
    switch (e.type) {
      case TraceEventType::TxAbort:
        return nameOrUnknown(kAbortCodeNames, std::size(kAbortCodeNames),
                             e.code);
      case TraceEventType::Deopt:
        return nameOrUnknown(kCheckKindNames, std::size(kCheckKindNames),
                             e.code);
      case TraceEventType::TierUp:
        return nameOrUnknown(kTierNames, std::size(kTierNames), e.code);
      case TraceEventType::SpanBegin:
      case TraceEventType::SpanEnd:
        return spanKindName(static_cast<SpanKind>(e.code));
      default:
        return "";
    }
}

} // namespace

const char *
traceEventTypeName(TraceEventType type)
{
    switch (type) {
      case TraceEventType::TxBegin: return "TxBegin";
      case TraceEventType::TxCommit: return "TxCommit";
      case TraceEventType::TxAbort: return "TxAbort";
      case TraceEventType::Deopt: return "Deopt";
      case TraceEventType::TierUp: return "TierUp";
      case TraceEventType::PassReport: return "PassReport";
      case TraceEventType::SpanBegin: return "SpanBegin";
      case TraceEventType::SpanEnd: return "SpanEnd";
    }
    return "?";
}

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Request: return "request";
      case SpanKind::Queue: return "queue";
      case SpanKind::Execute: return "execute";
      case SpanKind::Retry: return "retry";
    }
    return "?";
}

const char *
tracePassName(TracePassId pass)
{
    switch (pass) {
      case TracePassId::Planner: return "planner";
      case TracePassId::KindInference: return "kind-inference";
      case TracePassId::CheckElim: return "check-elim";
      case TracePassId::LocalCse: return "local-cse";
      case TracePassId::Licm: return "licm";
      case TracePassId::StoreSink: return "store-sink";
      case TracePassId::Dce: return "dce";
      case TracePassId::LoopAccumulatorDce: return "loop-accumulator-dce";
      case TracePassId::EmptyLoopElim: return "empty-loop-elim";
      case TracePassId::BoundsCombine: return "bounds-combine";
      case TracePassId::SofElim: return "sof-elim";
      case TracePassId::RemoveConvertedChecks:
        return "remove-converted-checks";
      case TracePassId::Adaptive: return "adaptive-revision";
    }
    return "?";
}

TraceBuffer::TraceBuffer(size_t capacity) : cap(capacity)
{
    store.reserve(capacity);
}

void
TraceBuffer::clear()
{
    store.clear();
    emittedCount = 0;
    droppedCount = 0;
}

std::vector<TraceEvent>
TraceBuffer::drain()
{
    std::vector<TraceEvent> out = std::move(store);
    store.clear();
    store.reserve(cap);
    return out;
}

std::string
chromeTraceJson(const std::vector<TraceEvent> &events,
                const TraceNameResolver &resolver)
{
    // Object form ({"traceEvents": [...]}) — both Perfetto and
    // chrome://tracing load it, and it leaves room for metadata keys.
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &e : events) {
        std::string name;
        const char *ph = "i";
        std::string args;
        switch (e.type) {
          case TraceEventType::TxBegin:
            ph = "B";
            name = "tx " + funcLabel(e.funcId, resolver);
            appendf(args, "\"smp_pc\":%" PRIu32, e.pc);
            break;
          case TraceEventType::TxCommit:
            ph = "E";
            name = "tx " + funcLabel(e.funcId, resolver);
            appendf(args,
                    "\"outcome\":\"commit\",\"write_footprint_bytes\":%" PRIu64
                    ",\"max_ways_used\":%" PRIu32,
                    e.bytes, e.ways);
            break;
          case TraceEventType::TxAbort:
            ph = "E";
            name = "tx " + funcLabel(e.funcId, resolver);
            appendf(args,
                    "\"outcome\":\"abort\",\"abort_code\":\"%s\""
                    ",\"write_footprint_bytes\":%" PRIu64
                    ",\"max_ways_used\":%" PRIu32,
                    codeName(e), e.bytes, e.ways);
            break;
          case TraceEventType::Deopt:
            name = "deopt " + funcLabel(e.funcId, resolver);
            appendf(args, "\"check_kind\":\"%s\",\"smp_pc\":%" PRIu32,
                    codeName(e), e.pc);
            break;
          case TraceEventType::TierUp:
            name = "tier-up " + funcLabel(e.funcId, resolver);
            appendf(args, "\"tier\":\"%s\"", codeName(e));
            break;
          case TraceEventType::PassReport:
            name = std::string("pass ") +
                   tracePassName(static_cast<TracePassId>(e.aux));
            appendf(args,
                    "\"checks_removed\":%" PRIu64 ",\"ops_removed\":%" PRIu32
                    ",\"loop_pc\":%" PRIu32,
                    e.bytes, e.ways, e.pc);
            name += " " + funcLabel(e.funcId, resolver);
            break;
          case TraceEventType::SpanBegin:
          case TraceEventType::SpanEnd:
            ph = e.type == TraceEventType::SpanBegin ? "B" : "E";
            name = codeName(e);
            appendf(args, "\"attempt\":%u,\"wall_micros\":%" PRIu64,
                    unsigned(e.aux), e.bytes);
            break;
        }
        if (!first)
            out += ',';
        first = false;
        appendf(out,
                "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%" PRIu64
                ",\"pid\":1,\"tid\":%" PRIu32 ",\"args\":{%s}}",
                escapeJson(name).c_str(), ph, e.vcycles, e.tid, args.c_str());
    }
    out += "],\"displayTimeUnit\":\"ns\"}";
    return out;
}

std::string
abortAttributionReport(const std::vector<TraceEvent> &events,
                       size_t top_n,
                       const TraceNameResolver &resolver)
{
    struct Site {
        uint64_t count = 0;
        uint64_t maxBytes = 0;
        uint32_t maxWays = 0;
    };
    // Ordered map keys give the deterministic tie-break for free.
    std::map<std::tuple<uint32_t, uint32_t, uint8_t>, Site> sites;
    uint64_t total = 0;
    for (const TraceEvent &e : events) {
        if (e.type != TraceEventType::TxAbort)
            continue;
        Site &s = sites[{e.funcId, e.pc, e.code}];
        ++s.count;
        s.maxBytes = std::max(s.maxBytes, e.bytes);
        s.maxWays = std::max(s.maxWays, e.ways);
        ++total;
    }

    std::vector<std::pair<std::tuple<uint32_t, uint32_t, uint8_t>, Site>>
        ranked(sites.begin(), sites.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.count > b.second.count;
                     });
    if (ranked.size() > top_n)
        ranked.resize(top_n);

    std::string out;
    appendf(out,
            "Abort attribution: %zu of %zu site(s), %" PRIu64
            " abort(s) total\n",
            ranked.size(), sites.size(), total);
    appendf(out, "%4s  %8s  %-15s  %-20s  %8s  %10s  %4s\n", "#", "aborts",
            "code", "function", "entry-pc", "max-bytes", "ways");
    size_t rank = 1;
    for (const auto &[key, site] : ranked) {
        const auto &[func_id, pc, code] = key;
        appendf(out,
                "%4zu  %8" PRIu64 "  %-15s  %-20s  %8" PRIu32 "  %10" PRIu64
                "  %4" PRIu32 "\n",
                rank++, site.count,
                nameOrUnknown(kAbortCodeNames, std::size(kAbortCodeNames),
                              code),
                funcLabel(func_id, resolver).c_str(), pc, site.maxBytes,
                site.maxWays);
    }
    return out;
}

std::string
traceText(const std::vector<TraceEvent> &events)
{
    std::string out;
    for (const TraceEvent &e : events) {
        appendf(out, "[%10" PRIu64 "] %-10s", e.vcycles,
                traceEventTypeName(e.type));
        if (e.type == TraceEventType::PassReport)
            appendf(out, " pass=%s",
                    tracePassName(static_cast<TracePassId>(e.aux)));
        else if (const char *cn = codeName(e); *cn)
            appendf(out, " code=%s", cn);
        appendf(out,
                " fn=%" PRIu32 " pc=%" PRIu32 " bytes=%" PRIu64
                " ways=%" PRIu32 " aux=%u tid=%" PRIu32 "\n",
                e.funcId, e.pc, e.bytes, e.ways, unsigned(e.aux), e.tid);
    }
    return out;
}

} // namespace nomap
