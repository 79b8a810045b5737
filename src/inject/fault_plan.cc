#include "inject/fault_plan.h"

#include <cstdlib>

#include "support/logging.h"

namespace nomap {

namespace {

struct SiteNameEntry {
    FaultSite site;
    const char *name;
};

// Order matters for parsing: longer names that share a prefix with a
// shorter one ("htm.abort.capacity" vs "htm.abort") are disambiguated
// by the exact match below, not by prefix scanning.
constexpr SiteNameEntry kSiteNames[] = {
    {FaultSite::HtmAbortExplicit, "htm.abort"},
    {FaultSite::HtmAbortCapacity, "htm.abort.capacity"},
    {FaultSite::HtmAbortIrrevocable, "htm.abort.irrevocable"},
    {FaultSite::HtmStore, "htm.store"},
    {FaultSite::HtmSofLatch, "htm.sof"},
    {FaultSite::HtmWaysSqueeze, "htm.ways"},
    {FaultSite::CheckBounds, "check.bounds"},
    {FaultSite::CheckOverflow, "check.overflow"},
    {FaultSite::CheckType, "check.type"},
    {FaultSite::CheckProperty, "check.property"},
    {FaultSite::CheckOther, "check.other"},
    {FaultSite::CheckAny, "check.any"},
    {FaultSite::FtlOsr, "ftl.osr"},
    {FaultSite::EngineCompileFail, "engine.compile"},
    {FaultSite::EngineTxWatchdog, "engine.watchdog"},
    {FaultSite::ServiceQueueFull, "service.queuefull"},
    {FaultSite::ServiceCancel, "service.cancel"},
    {FaultSite::ServiceRetry, "service.retry"},
    {FaultSite::ServiceShardFull, "service.shardfull"},
    {FaultSite::NetAccept, "net.accept"},
    {FaultSite::NetRead, "net.read"},
    {FaultSite::NetWrite, "net.write"},
    {FaultSite::NetFrameDefer, "net.frame"},
    {FaultSite::AdaptiveDecision, "adaptive.decision"},
    {FaultSite::AdaptiveBlacklist, "adaptive.blacklist"},
};

/** Does a site consume the ':arg' filter? Only ftl.osr passes a key
 *  to FaultInjector::fire; an arg anywhere else can never match. */
bool
siteTakesArg(FaultSite site)
{
    return site == FaultSite::FtlOsr;
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/** Parse a full decimal uint64; rejects empty/partial/overflow. */
bool
parseUint(const std::string &s, uint64_t *out)
{
    if (s.empty())
        return false;
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    *out = v;
    return true;
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    for (const SiteNameEntry &entry : kSiteNames) {
        if (entry.site == site)
            return entry.name;
    }
    return "?";
}

FaultPlan
FaultPlan::parse(const std::string &text)
{
    FaultPlan plan;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t comma = text.find(',', pos);
        std::string spec = trim(
            text.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos));
        pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
        if (spec.empty()) {
            if (comma == std::string::npos && plan.list.empty() &&
                pos > text.size())
                break; // Wholly empty input: empty plan.
            fatal("fault plan: empty spec in \"%s\"", text.c_str());
        }

        size_t at = spec.find('@');
        if (at == std::string::npos) {
            fatal("fault plan: spec \"%s\" lacks '@count'",
                  spec.c_str());
        }
        std::string name = spec.substr(0, at);
        std::string rest = spec.substr(at + 1);

        FaultAction action;
        bool known = false;
        for (const SiteNameEntry &entry : kSiteNames) {
            if (name == entry.name) {
                action.site = entry.site;
                known = true;
                break;
            }
        }
        if (!known) {
            fatal("fault plan: unknown site \"%s\" (see "
                  "src/inject/fault_plan.h for the site table)",
                  name.c_str());
        }

        size_t colon = rest.find(':');
        std::string count_str =
            colon == std::string::npos ? rest : rest.substr(0, colon);
        if (!parseUint(count_str, &action.count) || action.count == 0) {
            fatal("fault plan: spec \"%s\" needs a positive decimal "
                  "count after '@'",
                  spec.c_str());
        }
        if (colon != std::string::npos) {
            if (!siteTakesArg(action.site)) {
                fatal("fault plan: site \"%s\" takes no ':arg' filter "
                      "(the spec \"%s\" would arm but never fire)",
                      name.c_str(), spec.c_str());
            }
            if (!parseUint(rest.substr(colon + 1), &action.arg)) {
                fatal("fault plan: spec \"%s\" has a malformed ':arg'",
                      spec.c_str());
            }
            action.hasArg = true;
        }
        plan.list.push_back(action);
        if (comma == std::string::npos)
            break;
    }
    return plan;
}

std::string
FaultPlan::toString() const
{
    std::string out;
    for (const FaultAction &action : list) {
        if (!out.empty())
            out += ',';
        out += faultSiteName(action.site);
        out += '@';
        out += std::to_string(action.count);
        if (action.hasArg) {
            out += ':';
            out += std::to_string(action.arg);
        }
    }
    return out;
}

std::optional<FaultPlan>
FaultPlan::fromEnv()
{
    const char *text = std::getenv("NOMAP_FAULT_PLAN");
    if (!text || !*text)
        return std::nullopt;
    return parse(text);
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : planData(plan)
{
    for (const FaultAction &action : planData.actions()) {
        auto slot = std::make_unique<ArmedAction>();
        slot->action = action;
        armed.push_back(std::move(slot));
    }
}

bool
FaultInjector::fire(FaultSite site, uint64_t key)
{
    siteCounts[static_cast<size_t>(site)].fetch_add(
        1, std::memory_order_relaxed);
    bool fired = false;
    for (const auto &slot : armed) {
        const FaultAction &action = slot->action;
        if (action.site != site)
            continue;
        if (action.site == FaultSite::HtmWaysSqueeze)
            continue; // Value-site: queried, never fired.
        if (action.hasArg && action.arg != key)
            continue;
        uint64_t ordinal =
            slot->matched.fetch_add(1, std::memory_order_relaxed) + 1;
        if (ordinal == action.count)
            fired = true;
    }
    return fired;
}

uint64_t
FaultInjector::occurrences(FaultSite site) const
{
    return siteCounts[static_cast<size_t>(site)].load(
        std::memory_order_relaxed);
}

uint64_t
FaultInjector::valueOf(FaultSite site, uint64_t fallback) const
{
    for (const auto &slot : armed) {
        if (slot->action.site == site)
            return slot->action.count;
    }
    return fallback;
}

} // namespace nomap
