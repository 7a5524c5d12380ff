/**
 * @file
 * Experiment runner: simulate (workload, config, frames) triples with an
 * on-disk JSON result cache, plus the environment knobs the bench
 * binaries share.
 *
 * The per-figure benches overlap heavily in the simulations they need
 * (Figure 6 and Figure 7 both need baseline+EVR runs of all 20
 * workloads; Figures 9-11 share the RE runs). Two layers of sharing keep
 * the full sweep at "each triple simulates exactly once":
 *
 *  - an on-disk JSON cache shared *across* bench processes, written
 *    atomically (tmp file + rename) so an interrupted or concurrent run
 *    can never leave a truncated entry behind;
 *  - an in-memory memo with in-flight deduplication shared *within* a
 *    process, so a triple requested by several figures (or by several
 *    scheduler workers at once) simulates exactly once per process.
 *
 * runAll() executes a declared batch of runs on a JobPool
 * (EVRSIM_JOBS workers, default hardware_concurrency); every simulation
 * owns its GpuSimulator/MemorySystem/Scene, so parallel results are
 * bit-identical to the EVRSIM_JOBS=1 serial path.
 */
#ifndef EVRSIM_DRIVER_EXPERIMENT_HPP
#define EVRSIM_DRIVER_EXPERIMENT_HPP

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault_injector.hpp"
#include "common/log.hpp"
#include "common/status.hpp"
#include "common/validate.hpp"
#include "driver/run_result.hpp"
#include "driver/sim_config.hpp"
#include "driver/sweep_journal.hpp"
#include "driver/workload.hpp"

namespace evrsim {

class JobPool;

/** Shared bench parameters, resolved from the environment. */
struct BenchParams {
    int width = 608;   ///< EVRSIM_FULL=1 -> 1196 (Table II)
    int height = 384;  ///< EVRSIM_FULL=1 -> 768
    int frames = 30;   ///< EVRSIM_FULL=1 -> 60 (paper methodology)
    /** Unmeasured warm-up frames rendered first. The paper's techniques
     *  need one completed frame of FVP/signature state before they are
     *  effective; measuring from a cold start would bias every
     *  comparison by the first frame's mandatory full render. */
    int warmup = 2;
    bool use_cache = true; ///< EVRSIM_CACHE_DIR=off disables
    std::string cache_dir; ///< EVRSIM_CACHE_DIR overrides
    /** Scheduler width for runAll(); 0 = hardware_concurrency,
     *  1 = serial (EVRSIM_JOBS). */
    int jobs = 0;
    /** Tile-level parallelism inside each simulation: tiles of a frame
     *  render concurrently with their memory logs replayed in tile
     *  order, byte-identical to the serial path (EVRSIM_TILE_JOBS;
     *  1 = serial tiles). Tile jobs share the sweep scheduler's pool
     *  when it has workers, otherwise each simulator owns a pool. */
    int tile_jobs = 1;
    /** Per-job wall-clock budget in milliseconds, enforced between
     *  frames (cooperative watchdog); 0 disables
     *  (EVRSIM_JOB_TIMEOUT_MS). With shards the same budget, plus a
     *  grace period, is also the hard run deadline at which a wedged
     *  shard is killed. */
    int job_timeout_ms = 0;
    /** Out-of-process execution (EVRSIM_SHARDS): n > 0 runs every
     *  attempt on a fleet of n persistent shard processes
     *  (service/fleet.hpp), so a segfault, hard hang or OOM costs one
     *  run instead of the sweep; 0 simulates in-process. */
    int shards = 0;
    /** Per-shard RLIMIT_AS budget in MiB (EVRSIM_JOB_MEM_MB); 0 =
     *  unlimited. */
    int job_mem_mb = 0;
    /** EVRSIM_RESUME=1: replay <cache_dir>/sweep.journal on startup so
     *  an interrupted sweep re-executes only unfinished jobs. */
    bool resume = false;
    /** Ingestion validation + invariant auditing applied to every run
     *  whose SimConfig does not carry its own (EVRSIM_VALIDATE). */
    ValidationConfig validation;
    /** Console verbosity (EVRSIM_LOG: quiet | normal | verbose). */
    LogLevel log_level = LogLevel::Normal;
    /** Telemetry directory (EVRSIM_OBS=dir). Set: every telemetry
     *  file goes in it and per-run metrics are recorded and exported
     *  as metrics.json/metrics.prom. Empty: the files go next to the
     *  cache and metrics are off. See obsDir(). */
    std::string obs_dir;
    /** Live sweep telemetry cadence in milliseconds (0 disables the
     *  heartbeat thread entirely; EVRSIM_OBS=0 sets 0). Each tick
     *  prints a status line and appends a record to heartbeat.jsonl
     *  in obsDir(). */
    int heartbeat_ms = 2000;
    /** Write the sweep's telemetry files: a bench's summary.json and
     *  the daemon's events.jsonl, both in obsDir() (EVRSIM_OBS=0
     *  clears it). */
    bool write_summary = true;

    /** The one place that decides where telemetry files land: obs_dir
     *  when set, otherwise the cache dir while the cache is on; empty
     *  means no directory (files that need one are not written, and a
     *  trace file falls back to the working directory). */
    std::string obsDir() const;

    /** GpuConfig for these parameters (Table II otherwise). */
    GpuConfig gpuConfig() const;

    /** Worker count runAll() will actually use (>= 1). */
    int resolvedJobs() const;
};

/**
 * Resolve bench parameters from the environment:
 *   EVRSIM_FULL=0|1         1 = paper-scale run (1196x768, 60 frames)
 *   EVRSIM_FRAMES=n         override the frame count
 *   EVRSIM_CACHE_DIR=dir    cache location (default: .bench_cache);
 *                           `off` ignores and does not write the cache
 *   EVRSIM_JOBS=n           scheduler workers (default:
 *                           hardware_concurrency; 1 = serial path)
 *   EVRSIM_TILE_JOBS=n      tile-parallel rasterization inside each
 *                           simulation (default 1 = serial tiles;
 *                           results are byte-identical either way)
 *   EVRSIM_JOB_TIMEOUT_MS=n per-job wall-clock watchdog (0 = off);
 *                           plus a grace period, the hard shard run
 *                           deadline
 *   EVRSIM_SHARDS=n         run every attempt on n shard processes
 *                           (default 0 = in-process)
 *   EVRSIM_JOB_MEM_MB=n     per-shard RLIMIT_AS in MiB (0 = unlimited)
 *   EVRSIM_RESUME=0|1       1 = resume an interrupted sweep from the
 *                           journal
 *   EVRSIM_VALIDATE=mode[:rate] off | permissive | strict, with the
 *                           image-identity tile sample rate
 *                           (see validate.hpp)
 *   EVRSIM_LOG=level        quiet | normal | verbose console verbosity
 *   EVRSIM_OBS=where        telemetry: unset = summary, heartbeat and
 *                           events next to the cache, metrics off;
 *                           0 = no telemetry file and no heartbeat;
 *                           a directory = every telemetry file there,
 *                           plus metrics.json/metrics.prom
 *
 * Numeric knobs are validated strictly: a value that is not entirely a
 * number in the accepted range is InvalidArgument naming the variable,
 * never silently parsed as 0; the 0|1 switches accept exactly 0 or 1,
 * and an empty EVRSIM_CACHE_DIR or EVRSIM_OBS is rejected. Retired
 * knobs (EVRSIM_ISOLATE, EVRSIM_CORRUPT_KEEP, EVRSIM_NO_CACHE,
 * EVRSIM_METRICS, EVRSIM_SUMMARY, EVRSIM_HEARTBEAT_MS,
 * EVRSIM_FLEET_EVENTS, EVRSIM_VALIDATE_SAMPLE) are InvalidArgument
 * naming their replacement.
 */
Result<BenchParams> benchParamsFromEnvChecked();

/** benchParamsFromEnvChecked() that exits(1) on invalid knobs. */
BenchParams benchParamsFromEnv();

/** One declared simulation of a batch: (workload alias, configuration). */
struct RunRequest {
    std::string alias;
    SimConfig config;
};

/** One permanently failed run of a batch (after bounded retries). */
struct RunFailure {
    std::size_t index = 0; ///< position in the request vector
    std::string alias;
    std::string config;
    Status status;    ///< why the last attempt failed
    int attempts = 1; ///< simulation attempts made (1 + retries)
    /** Every attempt was a hard worker death (crash, deadline kill,
     *  OOM): the job is crash-quarantined and skipped, not retried. */
    bool quarantined = false;
};

/**
 * Outcome of runAllChecked(): per-request results plus the runs that
 * failed permanently. Failed slots in results are default-constructed;
 * consumers must treat a request listed in failures as absent.
 */
struct BatchOutcome {
    std::vector<RunResult> results;   ///< request order
    std::vector<RunFailure> failures; ///< ascending by index
    bool ok() const { return failures.empty(); }
};

/**
 * Per-runner accounting of how a sweep's runs were satisfied, for the
 * bench throughput summaries.
 */
struct SweepStats {
    std::uint64_t requested = 0;  ///< runs asked of run()/runAll()
    std::uint64_t simulated = 0;  ///< cold runs actually simulated
    std::uint64_t disk_hits = 0;  ///< served from the on-disk cache
    std::uint64_t memo_hits = 0;  ///< served from the in-process memo
    std::uint64_t frames_simulated = 0; ///< measured frames, cold runs only
    double sim_wall_ms = 0.0;   ///< summed per-simulation wall-clock
    double batch_wall_ms = 0.0; ///< summed runAll() wall-clock
    // Fault accounting:
    std::uint64_t quarantined = 0; ///< corrupt cache entries set aside
    std::uint64_t retries = 0;     ///< extra attempts after transient failures
    std::uint64_t failed = 0;      ///< runs that failed permanently
    std::uint64_t crash_quarantined = 0; ///< jobs whose workers died every attempt
    std::uint64_t corrupt_evicted = 0;   ///< old .corrupt files evicted by the cap
    std::uint64_t resumed = 0; ///< outcomes replayed from the sweep journal
    /** Journal records superseded by a later terminal record for the
     *  same key during replay (resume-of-a-resume; last wins). */
    std::uint64_t resume_duplicates = 0;
    /** Jobs shed un-run because a cooperative shutdown (SIGINT/SIGTERM)
     *  arrived before they started. */
    std::uint64_t cancelled = 0;
    // Validation / degradation accounting (freshly simulated runs only):
    std::uint64_t degraded_tiles = 0;     ///< tiles repaired or disabled
    std::uint64_t validate_violations = 0; ///< invariant audit failures
};

/** One out-of-process attempt, as seen by the runner. */
struct WorkerAttempt {
    Status status; ///< Ok => result is valid
    RunResult result;
    bool worker_died = false; ///< hard death (counts toward quarantine)
};

/**
 * Runs one attempt of (alias, config) whose cache-entry key is @p key
 * outside the process, blocking until it has a verdict. Bench binaries
 * and the daemon install ShardFleet::execute (service/fleet.hpp);
 * tests install fakes to script worker behaviour deterministically.
 */
using WorkerLauncher = std::function<WorkerAttempt(
    const std::string & /*alias*/, const SimConfig & /*config*/,
    const std::string & /*key*/)>;

/** Simulates and caches runs. */
class ExperimentRunner
{
  public:
    /**
     * @param factory creates workloads by alias
     * @param params  bench parameters (cache policy, dimensions, jobs)
     *
     * Fault injection (EVRSIM_FAULT) is resolved from the environment;
     * the three-argument overload takes an explicit plan for tests.
     */
    ExperimentRunner(WorkloadFactory factory, const BenchParams &params);
    ExperimentRunner(WorkloadFactory factory, const BenchParams &params,
                     const FaultPlan &faults);

    /**
     * Return the result of simulating @p alias under @p config for the
     * bench frame count, using the memo and the on-disk cache when
     * permitted. Thread-safe; concurrent calls for the same triple
     * deduplicate onto a single simulation. Exits(1) on permanent
     * failure — use tryRun() where a failure must be survivable.
     */
    RunResult run(const std::string &alias, const SimConfig &config);

    /** run() that propagates permanent failures instead of exiting. */
    Result<RunResult> tryRun(const std::string &alias,
                             const SimConfig &config);

    /**
     * Execute a batch of runs on a JobPool of resolvedJobs() workers
     * (inline when 1) and return the results in request order.
     * Duplicate requests are simulated once. Results are bit-identical
     * to issuing the same run() calls serially.
     *
     * Fault tolerance: a corrupt cache entry is quarantined to
     * `<entry>.corrupt` and re-simulated; a transiently failing run
     * (ErrorCode::Unavailable) is retried up to kJobMaxAttempts with
     * exponential backoff; a permanently failing run costs only its own
     * slot. Exits(1) if any run failed — use runAllChecked() to get
     * partial results plus the failure list instead.
     */
    std::vector<RunResult> runAll(const std::vector<RunRequest> &requests);

    /** runAll() that reports failures instead of exiting. */
    BatchOutcome runAllChecked(const std::vector<RunRequest> &requests);

    /**
     * Force a fresh simulation (never touches the cache or memo, never
     * retries). Exits(1) on failure.
     */
    RunResult simulate(const std::string &alias, const SimConfig &config);

    /** One simulation attempt, failures propagated (no retry). */
    Result<RunResult> trySimulate(const std::string &alias,
                                  const SimConfig &config);

    const BenchParams &params() const { return params_; }

    /**
     * Run every attempt through @p launcher instead of in-process. The
     * runner itself never forks; the embedding binary owns the fleet.
     */
    void setWorkerLauncher(WorkerLauncher launcher);

    /**
     * Stable job key of (alias, config): the cache-entry filename,
     * which already encodes workload, config, dimensions, frames,
     * validation and schema version. Keys address jobs across the
     * sweep journal and the shard protocol.
     */
    std::string jobKey(const std::string &alias,
                       const SimConfig &config) const;

    /** Snapshot of the sweep accounting so far. */
    SweepStats sweepStats() const;

    /**
     * Export the metrics registry (per-run counters recorded while
     * simulating, plus sweep-level `evrsim_sweep_*` gauges refreshed
     * from sweepStats() at call time) as metrics.json and metrics.prom
     * in params().obs_dir. No-op (Ok) when metrics are disabled.
     */
    Status writeMetricsArtifacts();

    /** heartbeat.jsonl in params().obsDir(); empty = no file (stderr
     *  only). */
    std::string heartbeatPath() const;

    /** Injection state (tests assert on draw/failure counts). */
    const FaultInjector &faultInjector() const { return fault_; }

  private:
    /** Terminal state of one requested run. */
    struct RunOutcome {
        RunResult result;
        Status status;    ///< Ok, or why the run permanently failed
        int attempts = 0; ///< simulation attempts (0 = served from cache)
        bool quarantined = false; ///< all attempts were hard worker deaths
    };

    /** A memoized run: filled once, then shared by every requester. */
    struct MemoEntry {
        bool done = false;
        RunOutcome outcome;
    };

    std::string cachePath(const std::string &alias,
                          const SimConfig &config) const;

    /** Validation actually applied to a run: the SimConfig's own when it
     *  carries one, else the bench-wide EVRSIM_VALIDATE setting. */
    ValidationConfig effectiveValidation(const SimConfig &config) const;

    /** run() body: memo lookup / in-flight wait / compute-and-publish. */
    RunOutcome runMemoized(const std::string &alias,
                           const SimConfig &config);

    /** Disk-cache lookup, else simulate with bounded retry. */
    RunOutcome computeUncached(const std::string &alias,
                               const SimConfig &config,
                               const std::string &path, bool &from_disk);

    /** One simulation attempt: via the worker launcher when one is
     *  installed, else in-process. */
    Result<RunResult> attemptOnce(const std::string &alias,
                                  const SimConfig &config,
                                  const std::string &path,
                                  bool &worker_died);

    /**
     * Load + validate one cache entry: NotFound on a plain miss,
     * DataLoss on parse/schema/CRC/shape damage (caller quarantines).
     */
    Result<RunResult> loadCacheEntry(const std::string &path);

    /** Move a damaged entry aside (`<stem>.<seq>.corrupt`) so it is
     *  never reused, evicting all but the newest kCorruptKeep copies. */
    void quarantine(const std::string &path, const Status &why);

    /** Atomically publish @p r at @p path (failure is only a warn). */
    void storeCacheEntry(const std::string &path, const RunResult &r);

    WorkloadFactory factory_;
    BenchParams params_;
    FaultInjector fault_;
    WorkerLauncher launcher_;
    SweepJournal journal_;

    /** Sweep scheduler pool while runAllChecked is active (else null).
     *  Tile jobs (EVRSIM_TILE_JOBS) share it so one set of workers
     *  serves both levels; JobPool::runBatch makes the nesting safe. */
    JobPool *active_pool_ = nullptr;

    mutable std::mutex mu_;
    std::condition_variable memo_done_;
    std::map<std::string, std::shared_ptr<MemoEntry>> memo_;
    SweepStats stats_;
};

/**
 * Version tag mixed into cache filenames and embedded in each entry's
 * envelope; bump when simulation semantics or the persisted RunResult
 * schema change so stale results are never reused. v2: added per-run
 * sim_wall_ms. v3: entries wrapped in a {schema, payload_crc32,
 * payload} envelope so damage is detected by checksum, not by luck.
 * v4: validation/degradation counters joined the persisted stats.
 * v5: preloaded-depth configs (oracle-z, z-prepass) resolve depth
 * ties first-wins, as baseline does.
 */
constexpr int kResultCacheVersion = 5;

/** Max simulation attempts per run when failures are transient. */
constexpr int kJobMaxAttempts = 3;

/** Backoff before the first retry, doubling per retry (milliseconds). */
constexpr int kRetryBaseMs = 2;

/** Newest quarantined `.corrupt` files kept per cache entry; older
 *  ones are evicted. */
constexpr int kCorruptKeep = 3;

} // namespace evrsim

#endif // EVRSIM_DRIVER_EXPERIMENT_HPP
