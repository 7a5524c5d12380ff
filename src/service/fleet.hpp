/**
 * @file
 * Self-healing sharded worker fleet: the one way a simulation runs
 * outside the calling process.
 *
 * Every out-of-process run goes through a ShardFleet of N persistent
 * shard processes (EVRSIM_SHARDS): the daemon's control plane uses one,
 * and so does a bench binary run with EVRSIM_SHARDS > 0. The caller
 * keeps the cache, journals, memo and retry policy; shards do the
 * simulating. Each run is routed by content-key hash to its primary
 * shard over the checksummed-envelope line protocol the cache and
 * journals already use (driver/envelope.hpp): requests go down the
 * shard's stdin, framed responses come back on fd 3.
 *
 * A shard simulates one run at a time, and the fleet hands it exactly
 * one: a run waits in the caller for its shard to go idle. So a shard
 * death, or a run deadline missed, is always the doing of the one run
 * in flight, which is what lets crash quarantine be failover
 * exhaustion — a run that killed every shard it reached reports
 * worker_died, and the runner quarantines a job after kJobMaxAttempts
 * such deaths.
 *
 * Health model, per shard:
 *  - periodic ping with a hard pong deadline;
 *  - a consecutive-failure circuit breaker (closed -> open on the Nth
 *    consecutive failure -> half-open probe after restart -> closed on
 *    the first success), so a flapping shard stops receiving work
 *    instead of timing out every run routed to it;
 *  - automatic restart with capped + deterministically jittered
 *    backoff whose exponent counts the deaths since the shard last
 *    returned a result (a fleet of shards killed together does not
 *    restart in lockstep; a shard that dies once per crashing job
 *    comes straight back);
 *  - a run deadline (EVRSIM_JOB_TIMEOUT_MS plus a grace period when a
 *    timeout is set): a shard that misses it is wedged and condemned;
 *  - failover: a dead or open shard's runs re-route to the next shard
 *    in ring order. When no shard admits work, the daemon degrades to
 *    in-process execution (counted, never dropped); a fleet without a
 *    fallback waits up to the run deadline for a shard to come up.
 *
 * Shards are one bare attempt per run: no cache, no journal, no retry,
 * so a shard death is always recoverable state-free. Results are
 * byte-identical wherever they execute (the simulation is
 * deterministic), which is what the chaos soak asserts end to end.
 *
 * Everything here is observable: evrsim_fleet_* counters (dispatched,
 * completed, failovers, restarts, breaker opens, degraded runs, wire
 * errors, ping timeouts, stray responses) plus an evrsim_fleet_shards
 * gauge.
 *
 * The fleet owns its shard processes directly: it fork/execs each
 * shard on stdin/fd-3 pipes, reads its frames on a per-shard thread,
 * reaps it when it dies and respawns it on the backoff schedule. It is
 * the only code that fork/execs a simulation process.
 */
#ifndef EVRSIM_SERVICE_FLEET_HPP
#define EVRSIM_SERVICE_FLEET_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "common/status.hpp"
#include "driver/experiment.hpp"
#include "driver/json.hpp"
#include "driver/workload.hpp"
#include "service/fleet_obs.hpp"

namespace evrsim {

/** Envelope schema of the parent<->shard line protocol. */
constexpr int kShardProtocolVersion = 1;

/** Fleet knobs. Tests set these directly; binaries start from
 *  fleetConfigFromParams() and fill shard_argv with their own
 *  executable. */
struct FleetConfig {
    /** Worker-shard process count; 0 disables the fleet. */
    int shards = 0;
    /** Base argv of a shard process (argv[0] = program path); the
     *  fleet appends --evrsim-shard=<i> and --evrsim-shard-params=. */
    std::vector<std::string> shard_argv;
    /** Simulation-relevant BenchParams subset forwarded to each shard
     *  (shardParamsJson()); filled from the service params when empty. */
    std::string shard_params_json;
    int ping_interval_ms = 500;  ///< cadence of liveness pings
    int ping_deadline_ms = 2000; ///< pong deadline = one health failure
    /** Consecutive failures that open a shard's circuit breaker. */
    int breaker_threshold = 3;
    int restart_backoff_base_ms = 100;
    int restart_backoff_cap_ms = 5000;
    /** Per-dispatch deadline: a run whose response never arrives (a
     *  hung simulation, a dropped wire line) condemns its shard and
     *  fails over after this long instead of waiting forever. Also
     *  bounds how long a fleet without a fallback waits for a shard to
     *  come up. */
    int run_deadline_ms = 120000;
    int poll_ms = 50; ///< monitor/reader wakeup cadence
    /** JSONL mirror of the fleet lifecycle event ring (restart,
     *  breaker transitions, failover, registration); empty disables
     *  persistence (the in-memory ring stays on). The daemon puts it
     *  at <BenchParams::obsDir()>/events.jsonl. */
    std::string events_path;
};

/** A fleet is on when it has a width and a program to exec. */
inline bool
fleetEnabled(const FleetConfig &c)
{
    return c.shards > 0 && !c.shard_argv.empty();
}

/** Slack over EVRSIM_JOB_TIMEOUT_MS before a run's hard deadline, so
 *  the shard's cooperative watchdog normally reports the precise
 *  overrun first: timeout/2 clamped to [500, 5000] ms; 0 stays 0. */
int defaultGraceMs(int timeout_ms);

/**
 * The fleet @p params ask for: EVRSIM_SHARDS wide, forwarding the
 * simulation subset of @p params to every shard, with the run deadline
 * at job_timeout_ms + defaultGraceMs() when a timeout is set. The
 * caller fills shard_argv.
 */
FleetConfig fleetConfigFromParams(const BenchParams &params);

/** Circuit breaker state (DESIGN.md §14). */
enum class BreakerState { Closed, Open, HalfOpen };

/** Stable name for logs/tests ("closed"). */
const char *breakerStateName(BreakerState s);

/**
 * Pure consecutive-failure circuit breaker, factored out of the fleet
 * so the transition table is unit-testable without processes. Not
 * thread-safe; the fleet guards each instance with its own mutex.
 */
struct CircuitBreaker {
    BreakerState state = BreakerState::Closed;
    int threshold = 3;
    int consecutive_failures = 0;

    /** One failure. True when this call *transitioned* to Open (a
     *  half-open probe failure reopens immediately; closed opens at
     *  the threshold). */
    bool recordFailure();

    /** One success: close and forget the failure streak. */
    void recordSuccess();

    /** The guarded resource was replaced (shard restarted): admit one
     *  probe stream. */
    void onRestart();

    /** Hard-open regardless of the streak (the shard died). True on
     *  transition. */
    bool forceOpen();

    /** Whether new work may be routed here (Closed or HalfOpen). */
    bool
    admits() const
    {
        return state != BreakerState::Open;
    }
};

/**
 * Deterministic capped + jittered restart delay for shard
 * @p shard_index after @p deaths consecutive deaths without a result
 * in between: exponential from the base, capped, with the upper half
 * jittered by a mix64 stream of (shard, deaths) so simultaneous deaths
 * de-synchronize reproducibly.
 */
int restartBackoffMs(const FleetConfig &c, int shard_index, int deaths);

/** Primary shard for a content key: fnv1a64(key) % shards. */
int shardIndexForKey(const std::string &key, int shards);

/** The control-plane side: supervises the shard processes. */
class ShardFleet
{
  public:
    /** Monotonic fleet accounting (also evrsim_fleet_* counters). */
    struct Stats {
        std::uint64_t dispatched = 0; ///< execute() calls
        std::uint64_t completed = 0;  ///< runs that returned a verdict
        /** Completions routed around a failure: after a shard died
         *  under the run, or off a dead or open primary. */
        std::uint64_t failovers = 0;
        std::uint64_t restarts = 0;   ///< shard processes respawned
        std::uint64_t breaker_opens = 0;
        std::uint64_t degraded = 0; ///< in-daemon fallback executions
        std::uint64_t wire_errors = 0;   ///< damaged response lines
        std::uint64_t ping_timeouts = 0; ///< pongs past the deadline
        std::uint64_t stray_responses = 0; ///< no waiter (wire-dup)
    };

    /** In-daemon fallback when no shard is healthy. */
    using DegradedRunFn = std::function<Result<RunResult>(
        const std::string &alias, const SimConfig &config)>;

    ShardFleet(const FleetConfig &config, DegradedRunFn degraded);

    /** stop()s if running. */
    ~ShardFleet();

    ShardFleet(const ShardFleet &) = delete;
    ShardFleet &operator=(const ShardFleet &) = delete;

    /** Spawn the shards and the health monitor. InvalidArgument when
     *  the config is not fleetEnabled(). */
    Status start();

    /** Close every shard's stdin (clean EOF exit), SIGKILL stragglers,
     *  join every thread, then flush the merged trace and delete the
     *  shards' local trace spill files. Idempotent. */
    void stop();

    /**
     * Execute one run on the fleet: dispatch to the key's primary shard
     * or, while it is busy, dead or open, the next idle shard in ring
     * order (waiting while all are busy), failing over on death or a
     * missed run deadline. When no shard admits work the run degrades
     * to the fallback, or, without one, waits up to the run deadline
     * for a shard to come up. The returned attempt is the shard's
     * verdict verbatim (result, or Status with its code intact);
     * worker_died is set only when the run killed every shard it
     * reached.
     */
    WorkerAttempt execute(const std::string &alias,
                          const SimConfig &config,
                          const std::string &key);

    Stats stats() const;

    /**
     * Fleet topology as JSON for the daemon's `status` endpoint:
     * per-shard state (slot, alive, breaker, age of the last frame,
     * inflight, restarts, last error) and the full stats counter
     * block.
     */
    Json statusJson() const;

    /** The lifecycle event ring as a JSON array (oldest first). */
    Json eventsJson() const;

    /** Breaker state of shard @p index (tests/telemetry). */
    BreakerState breakerState(int index) const;

    const FleetConfig &config() const { return config_; }

  private:
    /** One pending dispatch, keyed by wire seq. */
    struct Waiter {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        WorkerAttempt attempt;
        int shard = -1; ///< dispatch target (failover bookkeeping)
        /** Dispatch-span start (traceNowNs()); shipped shard events
         *  rebase onto this so they nest inside the dispatch span. */
        std::uint64_t dispatch_start_ns = 0;
    };

    /**
     * One shard process and its health state. in_fd is guarded by
     * write_mu; out_fd, exec_fd and the reader thread belong to the
     * thread that spawns or reaps the shard (start(), the monitor,
     * stop()); everything else is guarded by the fleet mu_.
     */
    struct Shard {
        int index = 0;
        pid_t pid = -1;   ///< -1 once reaped
        int in_fd = -1;   ///< parent writes requests (shard stdin)
        int out_fd = -1;  ///< parent reads responses (shard fd 3)
        int exec_fd = -1; ///< exec-status pipe, spawn() to awaitExec()
        std::thread reader;
        /** Serializes writes to in_fd AND its close, so a dispatch
         *  can never write through a recycled descriptor. */
        std::mutex write_mu;
        bool alive = false;
        bool needs_reap = false; ///< the reader saw EOF; waitpid due
        /** Deaths and failed spawns since the shard last returned a
         *  result: the restart backoff exponent. */
        int deaths = 0;
        std::chrono::steady_clock::time_point restart_at{};
        bool busy = false; ///< a run is in flight (one at a time)
        CircuitBreaker breaker;
        bool ping_outstanding = false;
        std::chrono::steady_clock::time_point ping_sent{};
        std::chrono::steady_clock::time_point last_ping{};
        // Introspection state for statusJson().
        bool seen_up = false; ///< distinguishes first up from restarts
        std::uint64_t restarts = 0; ///< ups beyond the first
        std::chrono::steady_clock::time_point last_frame{};
        std::string last_error;
    };

    void monitorLoop();

    /** Reap shards whose reader saw EOF; respawn the ones whose
     *  restart backoff expired. Monitor thread. */
    void maintain();

    /** Fork + exec shard @p s; awaitExec() then learns whether the
     *  exec succeeded. Never holds mu_ across fork. */
    Status spawn(Shard &s);

    /** Wait for a spawn()ed shard's exec; on failure reap it and
     *  report why. */
    Status awaitExec(Shard &s);

    /** An exec'd shard is live: mark it up (a half-open probe after a
     *  restart) and start its reader. */
    void shardUp(Shard &s);

    /** Close @p s's pipe ends (its process is gone or being reaped). */
    void closePipes(Shard &s);

    /** Put a dead (or unspawnable) shard on the restart schedule.
     *  Caller holds mu_. */
    void scheduleRestartLocked(Shard &s);

    /** Per-shard reader thread: frames in, EOF -> handleShardDown. */
    void readerLoop(Shard &s, int fd);

    /** Frame @p payload to @p s's stdin. False when the pipe is gone
     *  or the write failed (the caller fails over). */
    bool writeFrame(Shard &s, Json payload);

    /** SIGKILL @p s's process; its reader observes the loss and runs
     *  the normal down path. */
    void condemn(Shard &s);

    void handleFrame(Shard &s, const Json &msg);

    /** Shard-loss path: mark dead, open the breaker, fail the shard's
     *  in-flight waiters with Unavailable. */
    void handleShardDown(Shard &s, const std::string &why);

    /** Health failure (ping timeout, wire damage, run deadline);
     *  condemns the shard when the breaker opens. */
    void recordShardFailure(Shard &s, const std::string &why);

    /** The first shard in ring order from @p primary that is live,
     *  admitting, idle and not @p killed by this run; -1 if none.
     *  @p live reports whether any such shard exists, busy or not.
     *  Caller holds mu_. */
    int idleShardLocked(int primary, const std::vector<char> &killed,
                        bool &live) const;

    /** Hand @p s back after a dispatch and wake waiting callers. */
    void releaseShard(Shard &s);

    /** Pong/result received: close the breaker. */
    void markShardHealthy(Shard &s);

    FleetConfig config_;
    DegradedRunFn degraded_;
    std::vector<std::unique_ptr<Shard>> shards_;

    FleetEventRing events_; ///< lifecycle event ring (+ JSONL)

    mutable std::mutex mu_; ///< shard health + stats
    /** Signalled (under mu_) when a shard comes up, goes down or goes
     *  idle, and on stop. */
    std::condition_variable shard_cv_;
    Stats stats_;

    mutable std::mutex waiters_mu_;
    std::map<std::uint64_t, std::shared_ptr<Waiter>> waiters_;

    std::atomic<std::uint64_t> seq_{1};
    /** Folded into every minted trace id so sequential fleet
     *  instances in one process never collide (set in the ctor). */
    std::uint64_t trace_nonce_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread monitor_;
    bool started_ = false;
};

/** Every Stats counter as a JSON object, key-per-field. The status
 *  endpoint embeds this; tests compare it number-for-number against
 *  the evrsim_fleet_* metrics. */
Json fleetStatsToJson(const ShardFleet::Stats &stats);

// --- shard-process side ---------------------------------------------

/** Serialize the simulation-relevant subset of @p params (dimensions,
 *  frames, warmup, tile jobs, timeout, memory budget, validation, log
 *  level, observability dir) for the --evrsim-shard-params argv
 *  flag. */
std::string shardParamsJson(const BenchParams &params);

/** Overlay a shardParamsJson() document onto @p params. */
Status applyShardParams(const std::string &text, BenchParams &params);

/**
 * Detect shard mode in an embedding binary's argv: the shard index
 * from --evrsim-shard=<i> (else -1), with any --evrsim-shard-params=
 * payload copied to @p params_json. Call before normal flag parsing.
 */
int shardFlagFromArgv(int argc, char **argv, std::string &params_json);

/**
 * Serve as shard @p shard_index until stdin EOF, then exit: overlay
 * @p params_json onto @p params and force the bare-attempt policy (no
 * cache, journal, fleet or telemetry artifacts; one job; RLIMIT_AS at
 * job_mem_mb), answer pings, execute runs on a dedicated thread (the
 * reader stays responsive to pings mid-run), and frame every response
 * through the fault injector's wire sites.
 */
[[noreturn]] void runShardAndExit(int shard_index,
                                  WorkloadFactory factory,
                                  BenchParams params,
                                  const std::string &params_json);

} // namespace evrsim

#endif // EVRSIM_SERVICE_FLEET_HPP
