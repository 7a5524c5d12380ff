/**
 * @file
 * FaultInjector implementation.
 */
#include "common/fault_injector.hpp"

#include <cstdlib>

#include "common/env.hpp"
#include "common/log.hpp"

namespace evrsim {

namespace {

/** EVRSIM_FAULT site names, indexed by FaultSite. */
constexpr const char *kSiteNames[kNumFaultSites] = {
    "cache-read",   "cache-write",   "job-execute",  "scene-mutate",
    "worker-crash", "worker-hang",   "worker-kill9", "worker-stall",
    "wire-corrupt", "wire-drop",     "wire-dup",
};

Result<FaultSite>
siteFromName(const std::string &name)
{
    std::string expected;
    for (int i = 0; i < kNumFaultSites; ++i) {
        if (name == kSiteNames[i])
            return static_cast<FaultSite>(i);
        expected += i == 0 ? "" : i + 1 == kNumFaultSites ? " or " : ", ";
        expected += kSiteNames[i];
    }
    return Status::invalidArgument("unknown fault site '" + name +
                                   "' (expected " + expected + ")");
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    const int i = static_cast<int>(site);
    return i >= 0 && i < kNumFaultSites ? kSiteNames[i] : "unknown";
}

Result<FaultPlan>
FaultInjector::parsePlan(const std::string &text)
{
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        std::string entry = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        std::size_t c1 = entry.find(':');
        std::size_t c2 =
            c1 == std::string::npos ? std::string::npos
                                    : entry.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos)
            return Status::invalidArgument(
                "malformed fault spec '" + entry +
                "' (expected <site>:<rate>:<seed>)");

        Result<FaultSite> site = siteFromName(entry.substr(0, c1));
        if (!site.ok())
            return site.status();

        Result<double> rate =
            parseDoubleStrict(entry.substr(c1 + 1, c2 - c1 - 1));
        if (!rate.ok() || rate.value() < 0.0 || rate.value() > 1.0)
            return Status::invalidArgument(
                "fault rate in '" + entry +
                "' must be a number in [0, 1]");

        Result<long long> seed = parseIntStrict(entry.substr(c2 + 1));
        if (!seed.ok() || seed.value() < 0)
            return Status::invalidArgument(
                "fault seed in '" + entry +
                "' must be a non-negative integer");

        FaultSpec &spec = plan[static_cast<int>(site.value())];
        spec.enabled = true;
        spec.rate = rate.value();
        spec.seed = static_cast<std::uint64_t>(seed.value());

        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return plan;
}

FaultPlan
FaultInjector::planFromEnv()
{
    // A stale script that still arms the retired knob would otherwise
    // run a soak that is quietly fault-free and still "passes".
    if (std::getenv("EVRSIM_CHAOS"))
        fatal("EVRSIM_CHAOS is retired: arm its sites through "
              "EVRSIM_FAULT (same <site>:<rate>:<seed> grammar)");
    const char *raw = std::getenv("EVRSIM_FAULT");
    if (!raw)
        return {};
    Result<FaultPlan> plan = parsePlan(raw);
    if (!plan.ok())
        fatal("EVRSIM_FAULT: %s", plan.status().message().c_str());
    return plan.value();
}

bool
FaultInjector::decide(int i, std::uint64_t n)
{
    const FaultSpec &spec = plan_[i];
    // [0, 1) draw compared with < rate, so rate 0 never fires and
    // rate 1 always does.
    if (unitDraw(mix64(spec.seed ^ mix64(n))) >= spec.rate)
        return false;
    injected_[i].fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
FaultInjector::shouldFail(FaultSite site)
{
    const int i = static_cast<int>(site);
    if (!plan_[i].enabled)
        return false;
    return decide(i, draws_[i].fetch_add(1, std::memory_order_relaxed));
}

bool
FaultInjector::shouldFailAt(FaultSite site, std::uint64_t key)
{
    const int i = static_cast<int>(site);
    if (!plan_[i].enabled)
        return false;
    draws_[i].fetch_add(1, std::memory_order_relaxed);
    return decide(i, key);
}

std::uint64_t
FaultInjector::injected(FaultSite site) const
{
    return injected_[static_cast<int>(site)].load(
        std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::draws(FaultSite site) const
{
    return draws_[static_cast<int>(site)].load(std::memory_order_relaxed);
}

std::string
applyWireChaos(FaultInjector &faults, std::string line)
{
    if (faults.shouldFail(FaultSite::WireCorrupt) && line.size() > 1) {
        // Flip one byte that is not the terminating newline. The
        // position rides the corrupt stream's injected counter so
        // repeated corruption walks the line deterministically.
        const FaultSpec &spec = faults.spec(FaultSite::WireCorrupt);
        std::uint64_t n = faults.injected(FaultSite::WireCorrupt);
        std::size_t idx = static_cast<std::size_t>(
            mix64(spec.seed ^ (n * 0x632be59bd9b4e019ull)) %
            (line.size() - 1));
        line[idx] = static_cast<char>(line[idx] ^ 0x20);
    }
    if (faults.shouldFail(FaultSite::WireDrop))
        return {};
    if (faults.shouldFail(FaultSite::WireDup))
        return line + line;
    return line;
}

} // namespace evrsim
