/**
 * @file
 * The resident sweep service (`evrsim-daemon`).
 *
 * Everything a multi-tenant sweep service needs already existed
 * piecemeal — content-addressed result cache, in-flight memo dedup,
 * write-ahead sweep journal + resume, process isolation, metrics,
 * heartbeat — and this class composes them behind one UNIX domain
 * socket. Clients submit sweep requests (service_protocol.hpp); the
 * daemon executes them on a shared JobPool + ExperimentRunner and
 * streams per-request progress back.
 *
 * Robustness properties (DESIGN.md §13):
 *
 *  - Single-flight dedup: all requests share one ExperimentRunner, so
 *    concurrent requests for the same (workload, config) attach to the
 *    one in-flight simulation via the memo; each unique config
 *    simulates exactly once per daemon lifetime, then serves from
 *    memory, then from the on-disk cache across restarts.
 *  - Admission control: at most EVRSIM_QUEUE_MAX runs may be admitted
 *    and unfinished across all clients; excess requests are shed
 *    immediately with a structured ResourceExhausted Status instead of
 *    queueing unboundedly.
 *  - Per-client quotas: at most EVRSIM_CLIENT_QUOTA unfinished runs per
 *    client id, so one greedy client cannot starve the rest; the
 *    per-shard budgets (EVRSIM_JOB_MEM_MB/EVRSIM_JOB_TIMEOUT_MS)
 *    apply to service jobs exactly as to bench jobs.
 *  - Graceful drain: SIGTERM/SIGINT (common/shutdown.hpp) stops
 *    admission, lets in-flight requests finish, flushes journals and
 *    metrics, and exits 143/130.
 *  - Crash safety: requests are journaled write-ahead
 *    (request_journal.hpp) and job outcomes ride the PR 4 sweep
 *    journal, so a SIGKILLed daemon restarts with EVRSIM_RESUME
 *    semantics and a client reconnecting by idempotent request id gets
 *    a byte-identical reply without re-simulating completed work.
 */
#ifndef EVRSIM_SERVICE_DAEMON_HPP
#define EVRSIM_SERVICE_DAEMON_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/job_pool.hpp"
#include "driver/experiment.hpp"
#include "service/fleet.hpp"
#include "service/request_journal.hpp"
#include "service/service_protocol.hpp"

namespace evrsim {

/** Service-level knobs, resolved from the environment. */
struct ServiceConfig {
    /** UNIX socket path (EVRSIM_SOCKET; default
     *  <cache_dir>/evrsim.sock). */
    std::string socket_path;
    /** Max admitted-and-unfinished runs across all clients
     *  (EVRSIM_QUEUE_MAX). A request whose run count would exceed the
     *  bound is shed with ResourceExhausted. */
    int queue_max = 256;
    /** Max unfinished runs per client id (EVRSIM_CLIENT_QUOTA). */
    int client_quota = 64;
    /** Internal poll cadence in ms: accept loop wakeups, idle
     *  connection-read timeouts, drain checks. */
    int poll_ms = 100;
    /** Worker-shard fleet (fleetConfigFromParams(): EVRSIM_SHARDS
     *  wide; the daemon binary fills fleet.shard_argv with its own
     *  executable). fleet.shards == 0 simulates in the daemon. */
    FleetConfig fleet;
};

/**
 * Resolve service knobs from the environment through the strict knob
 * parsers, so a typo'd EVRSIM_QUEUE_MAX fails naming the variable:
 *   EVRSIM_SOCKET=path        socket path (default <cache_dir>/evrsim.sock)
 *   EVRSIM_QUEUE_MAX=n        admission bound, runs (default 256)
 *   EVRSIM_CLIENT_QUOTA=n     per-client bound, runs (default 64)
 * and the fleet from the bench params (fleetConfigFromParams():
 * BenchParams::shards is EVRSIM_SHARDS; the daemon binary defaults it
 * to cores/4, min 1), with the fleet lifecycle event JSONL at
 * <params.obsDir()>/events.jsonl (none under EVRSIM_OBS=0 or without
 * a telemetry dir; the in-memory ring stays on).
 * The retired EVRSIM_FLEET_LISTEN and EVRSIM_LEASE_MS (remote shards)
 * are InvalidArgument naming EVRSIM_SHARDS.
 */
Result<ServiceConfig>
serviceConfigFromEnvChecked(const BenchParams &params);

/** The resident sweep service. */
class SweepService
{
  public:
    /** Monotonic service accounting (also exported as
     *  evrsim_service_* metrics counters). */
    struct Stats {
        std::uint64_t connections = 0;
        std::uint64_t requests_admitted = 0;
        std::uint64_t requests_completed = 0;
        std::uint64_t requests_attached = 0; ///< served via `attach`
        std::uint64_t shed_queue_full = 0;
        std::uint64_t shed_quota = 0;
        std::uint64_t shed_draining = 0;
        std::uint64_t invalid_requests = 0;
        std::uint64_t runs_completed = 0; ///< includes failed runs
        std::uint64_t runs_failed = 0;
        /** Pending (not-done) request specs recovered from the request
         *  journal at startup — the crash-resume inventory. */
        std::uint64_t resumed_requests = 0;
    };

    /**
     * @param factory workload factory (workloads::factory() in the
     *                daemon binary; tests inject small registries)
     * @param params  shared bench parameters. The daemon binary sets
     *                params.resume so a restart replays the sweep
     *                journal; the service honors whatever it is given.
     * @param config  service knobs
     */
    SweepService(WorkloadFactory factory, const BenchParams &params,
                 const ServiceConfig &config);

    /** Drains (if serving) and joins every thread. */
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /**
     * Bind the socket and start serving. Unavailable when another live
     * daemon already owns the socket (a stale socket file left by a
     * crash is silently replaced).
     */
    Status start();

    /**
     * Stop admitting (new requests are shed with Unavailable
     * "draining"), wait for in-flight requests to finish and their
     * final replies to be sent, then close every connection and the
     * socket. Idempotent.
     */
    void drain();

    /** Block until a cooperative shutdown signal arrives, then
     *  drain(). For the daemon binary's main loop. */
    void serveUntilShutdown();

    Stats stats() const;

    /** The shared runner (tests assert on sweepStats/single-flight). */
    ExperimentRunner &runner() { return runner_; }

    /** The worker-shard fleet; null when EVRSIM_SHARDS=0. */
    ShardFleet *fleet() { return fleet_.get(); }

    const ServiceConfig &config() const { return config_; }

    /** Where the request journal lives; empty = not journaling. */
    std::string requestJournalPath() const;

  private:
    struct Conn {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
        std::atomic<bool> dead{false}; ///< peer vanished; skip writes
        std::mutex write_mu;
    };

    /** One parsed run of a request. */
    struct RunSlot {
        std::string workload;
        std::string config_name;
        SimConfig config;
        Status status; ///< Ok => result valid
        RunResult result;
        bool ok = false;
    };

    void acceptLoop();
    void serveConnection(Conn &conn);
    void dispatch(Conn &conn, const Json &msg);

    /** Parse + admit + execute + reply for one sweep/attach request. */
    void executeRequest(Conn &conn, const std::string &id,
                        const Json &spec, bool attached);

    /** Admission control; Ok reserves @p nruns for @p client. */
    Status admit(const std::string &client, std::size_t nruns);
    void finishRun(const std::string &client);
    void finishRequest();

    /** Write one message to @p conn, marking it dead on failure. */
    void send(Conn &conn, Json payload);

    void sendError(Conn &conn, const std::string &id, const Status &why);

    WorkloadFactory factory_;
    BenchParams params_;
    ServiceConfig config_;
    ExperimentRunner runner_;
    JobPool pool_;
    RequestJournal journal_;
    std::unique_ptr<ShardFleet> fleet_;

    int listen_fd_ = -1;
    /** flock'd sidecar (<socket>.lock) serializing socket ownership:
     *  two daemons racing the probe->unlink->bind sequence resolve to
     *  exactly one owner. Held for the daemon's lifetime; the file is
     *  never unlinked (unlinking would let a third daemon lock a
     *  fresh inode while we hold the old one). */
    int lock_fd_ = -1;
    bool bound_ = false;
    std::atomic<bool> stop_accept_{false};
    std::thread accept_thread_;

    std::mutex conns_mu_;
    std::list<std::unique_ptr<Conn>> conns_;

    /** Admission state: one mutex covers the queue bound, the
     *  per-client ledger, drain, and the stats. */
    mutable std::mutex admit_mu_;
    std::condition_variable drained_cv_;
    bool draining_ = false;
    std::size_t outstanding_runs_ = 0;
    std::size_t active_requests_ = 0;
    std::map<std::string, std::size_t> per_client_;
    Stats stats_;

    /** Request specs by id: journal replay + live admissions. What
     *  `attach` resolves against. */
    std::mutex specs_mu_;
    std::map<std::string, Json> specs_;
};

} // namespace evrsim

#endif // EVRSIM_SERVICE_DAEMON_HPP
