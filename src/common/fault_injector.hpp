/**
 * @file
 * Deterministic fault injection: one plane for every failure the
 * recovery paths must absorb, from a corrupt cache entry up to a shard
 * SIGKILLed mid-run or a response line damaged on the wire,
 * reproducible enough to assert on from ctest without hand-corrupting
 * files or racing kill signals.
 *
 * Faults are enabled through EVRSIM_FAULT, a comma-separated list of
 * `<site>:<rate>:<seed>` triples:
 *
 *   EVRSIM_FAULT=cache-read:1:42            every cache load fails
 *   EVRSIM_FAULT=job-execute:0.25:7         a quarter of job attempts
 *   EVRSIM_FAULT=worker-kill9:0.05:11,wire-corrupt:1:3,wire-dup:0.2:4
 *
 * Logical sites (evaluated by the runner):
 *   cache-read    loading an on-disk result entry reports DataLoss
 *                 (the entry is quarantined and re-simulated)
 *   cache-write   publishing a result entry fails (warn, no cache file)
 *   job-execute   a simulation attempt reports Unavailable (transient,
 *                 so the scheduler's bounded retry engages)
 *   scene-mutate  (keyed) the frame's scene is corrupted by the
 *                 deterministic fuzz mutator before ingestion
 *                 (exercises the EVRSIM_VALIDATE sanitize/degrade paths)
 *
 * Shard sites (evaluated inside a fleet shard process, which inherits
 * its caller's environment — under EVRSIM_SHARDS, a bench binary's or
 * the daemon's):
 *   worker-crash  (keyed on fnv1a64(job key)) the shard raises SIGSEGV
 *                 before simulating, so every attempt of an injected
 *                 job kills every shard it reaches and no other job
 *                 ever dies: the failover-exhaustion -> crash
 *                 quarantine path
 *   worker-hang   (keyed on fnv1a64(job key)) the shard sleeps forever
 *                 instead of simulating, so the fleet's run deadline
 *                 (EVRSIM_JOB_TIMEOUT_MS + grace) must condemn it
 *   worker-kill9  the shard raises SIGKILL at the start of a run — the
 *                 caller sees EOF with the run in flight (breaker
 *                 failure, failover, restart)
 *   worker-stall  the shard sleeps kWorkerStallMs before handling a
 *                 message, so the parent's ping deadline fires
 *   wire-corrupt  one byte of an outgoing framed line is flipped (the
 *                 envelope CRC or parse catches it: DataLoss)
 *   wire-drop     an outgoing framed line is silently discarded (the
 *                 caller's run deadline catches it)
 *   wire-dup      an outgoing framed line is written twice (the daemon
 *                 must tolerate stray responses; the client must
 *                 reject non-monotone progress)
 *
 * Decisions are a pure function of (site seed, per-site draw counter)
 * via mix64 (common/rng.hpp), so a single-threaded sweep injects the
 * *same* faults on every run. Sites whose decisions must not depend on
 * scheduling order or restarts — the (keyed) ones above — use
 * shouldFailAt() with a caller-derived key instead of the counter. The
 * shard sites stay on the counter on purpose: a restarted shard starts
 * a fresh stream, so a kill does not chase one job forever and the
 * injected failure stays transient. When EVRSIM_FAULT is unset every
 * site is a single predictable branch (enabled flag false).
 *
 * EVRSIM_CHAOS, which once armed the shard sites, is
 * retired: setting it is a fatal error naming EVRSIM_FAULT, so a stale
 * script cannot run a silently fault-free soak.
 */
#ifndef EVRSIM_COMMON_FAULT_INJECTOR_HPP
#define EVRSIM_COMMON_FAULT_INJECTOR_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/rng.hpp" // mix64, fnv1a64
#include "common/status.hpp"

namespace evrsim {

/** Instrumented operations a fault can be injected into. */
enum class FaultSite {
    CacheRead = 0,
    CacheWrite = 1,
    JobExecute = 2,
    SceneMutate = 3,
    WorkerCrash = 4,
    WorkerHang = 5,
    WorkerKill9 = 6,
    WorkerStall = 7,
    WireCorrupt = 8,
    WireDrop = 9,
    WireDup = 10,
};
constexpr int kNumFaultSites = 11;

/**
 * How long a worker-stall sleeps: comfortably past any test ping
 * deadline, short enough that a soak with a few stalls stays fast
 * (the parent SIGKILLs the stalled shard at breaker-open anyway).
 */
constexpr int kWorkerStallMs = 2500;

/** Human name used in EVRSIM_FAULT specs ("cache-read"). */
const char *faultSiteName(FaultSite site);

/** Per-site injection configuration. */
struct FaultSpec {
    bool enabled = false;
    double rate = 0.0;      ///< probability of failure per draw, [0, 1]
    std::uint64_t seed = 0; ///< stream seed for deterministic draws
};

using FaultPlan = std::array<FaultSpec, kNumFaultSites>;

/** Seeded per-site fault source. Thread-safe. */
class FaultInjector
{
  public:
    /** All sites disabled. */
    FaultInjector() = default;

    explicit FaultInjector(const FaultPlan &plan) : plan_(plan) {}

    /** Parse an EVRSIM_FAULT spec string ("site:rate:seed[,...]"). */
    static Result<FaultPlan> parsePlan(const std::string &text);

    /**
     * Plan from the EVRSIM_FAULT environment variable; all-disabled
     * when unset, fatal (user error) when malformed or when the
     * retired EVRSIM_CHAOS is set.
     */
    static FaultPlan planFromEnv();

    /** Whether any site can inject. */
    bool
    enabled() const
    {
        for (const FaultSpec &s : plan_)
            if (s.enabled)
                return true;
        return false;
    }

    /**
     * Draw the next decision for @p site: true = inject a failure.
     * Deterministic in the number of prior draws for the site.
     */
    bool shouldFail(FaultSite site);

    /**
     * Keyed decision for @p site: a pure function of (site seed, @p key)
     * — independent of how many draws other threads or configurations
     * made before this one. Counted in draws()/injected() like
     * shouldFail().
     */
    bool shouldFailAt(FaultSite site, std::uint64_t key);

    /** Per-site configuration (tests and fuzzer seeding). */
    const FaultSpec &
    spec(FaultSite site) const
    {
        return plan_[static_cast<int>(site)];
    }

    /** Failures injected at @p site so far. */
    std::uint64_t injected(FaultSite site) const;

    /** Decisions drawn at @p site so far. */
    std::uint64_t draws(FaultSite site) const;

  private:
    /** Decision for draw @p n (a counter value or a key) at site @p i. */
    bool decide(int i, std::uint64_t n);

    FaultPlan plan_;
    std::array<std::atomic<std::uint64_t>, kNumFaultSites> draws_{};
    std::array<std::atomic<std::uint64_t>, kNumFaultSites> injected_{};
};

/**
 * Apply the wire sites to one outgoing newline-terminated framed line,
 * drawing (in order) wire-corrupt, wire-drop, wire-dup from @p faults.
 * Returns the bytes to actually write:
 *  - unchanged when nothing fires,
 *  - with one non-newline byte XOR-flipped (wire-corrupt; the flip
 *    position is a deterministic function of the corrupt stream),
 *  - empty (wire-drop),
 *  - the line twice (wire-dup).
 * Corrupt composes with dup (both copies damaged); drop wins over dup.
 */
std::string applyWireChaos(FaultInjector &faults, std::string line);

} // namespace evrsim

#endif // EVRSIM_COMMON_FAULT_INJECTOR_HPP
