/**
 * @file
 * Shared plumbing for the per-figure bench binaries.
 *
 * Every binary resolves the same environment-driven parameters
 * (EVRSIM_FULL / EVRSIM_FRAMES / EVRSIM_CACHE_DIR / EVRSIM_JOBS /
 * EVRSIM_OBS), builds an ExperimentRunner over the Table III workload
 * registry, and shares simulation results through the on-disk cache, so
 * running all benches simulates each (workload, config) pair exactly
 * once.
 *
 * Binaries declare every run they will need up front (need()), then
 * prefetch() executes the whole batch on the parallel scheduler before
 * any table is printed; the subsequent run() calls inside the table
 * loops are all memo hits. prefetch() also prints the binary's sweep
 * throughput summary (sims/s, frames/s, parallel speedup).
 *
 * Process isolation (EVRSIM_SHARDS=n): every attempt runs on a fleet
 * of n shard processes (service/fleet.hpp), and the same binary
 * doubles as its own shard. The fleet re-execs it with
 * `--evrsim-shard=<i>`; the re-execed copy serves runs from its stdin
 * until EOF and never touches the cache, the journal or the scheduler
 * (the parent owns those). There is no in-process fallback: an
 * isolated run never executes in the parent.
 */
#ifndef EVRSIM_BENCH_BENCH_COMMON_HPP
#define EVRSIM_BENCH_BENCH_COMMON_HPP

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crash_handler.hpp"
#include "common/log.hpp"
#include "common/shutdown.hpp"
#include "common/trace.hpp"
#include "driver/experiment.hpp"
#include "driver/report.hpp"
#include "driver/supervisor.hpp"
#include "service/fleet.hpp"
#include "workloads/registry.hpp"

namespace evrsim {
namespace bench {

/** Runner + params bundle every bench binary starts from. */
struct BenchContext {
    BenchParams params;
    ExperimentRunner runner;
    std::vector<RunRequest> plan;
    BatchOutcome outcome; ///< filled by prefetch()
    /** The shards every attempt runs on (EVRSIM_SHARDS > 0); null
     *  in-process. Declared after the runner, so it stops first. */
    std::unique_ptr<ShardFleet> fleet;

    BenchContext() : BenchContext(0, nullptr) {}

    BenchContext(int argc, char **argv)
        : params(paramsOrServeShard(argc, argv)),
          runner(workloads::factory(), params)
    {
        setLogLevel(params.log_level);
        installTracing();
        // A sweep that crashes hours in should at least say which
        // (workload, config, frame, tile) it was simulating.
        installCrashHandler();
        // Ctrl-C / SIGTERM drains the sweep instead of killing it:
        // running jobs finish, queued ones are shed (Cancelled), the
        // journal and telemetry artifacts flush, and exitCode() maps to
        // 130/143.
        installShutdownHandler();
        if (params.shards > 0)
            startFleet();
    }

    GpuConfig gpu() const { return params.gpuConfig(); }

    /** Declare one run of this binary's sweep. */
    void
    need(const std::string &alias, const SimConfig &config)
    {
        plan.push_back({alias, config});
    }

    /** Declare @p configs for every Table III workload. */
    void
    needForAllWorkloads(const std::vector<SimConfig> &configs)
    {
        for (const std::string &alias : workloads::allAliases())
            for (const SimConfig &config : configs)
                need(alias, config);
    }

    /**
     * Execute every declared run on the EVRSIM_JOBS-wide scheduler and
     * print the sweep throughput summary. Later run() calls for the
     * declared triples return instantly from the in-memory memo.
     *
     * Runs that fail permanently (after quarantine/retry) are reported
     * and excluded from aliases(); the binary still prints its tables
     * from the surviving runs and returns exitCode() != 0.
     */
    void
    prefetch()
    {
        outcome = runner.runAllChecked(plan);
        printSweepSummary(runner);
        printFailureReport(outcome);

        // Observability artifacts: summary.json and metrics.json/
        // metrics.prom in the telemetry dir, and the trace file (also
        // flushed at exit; flushing here too makes the sweep's spans
        // durable before the tables print).
        std::string summary = summaryPath();
        if (!summary.empty())
            if (Status s = writeSweepSummaryJson(runner, outcome, summary);
                !s.ok())
                warn("could not write %s: %s", summary.c_str(),
                     s.message().c_str());
        if (Status s = runner.writeMetricsArtifacts(); !s.ok())
            warn("could not write metrics artifacts: %s",
                 s.message().c_str());
        if (traceActive())
            if (Status s = traceWrite(); !s.ok())
                warn("could not write trace: %s", s.message().c_str());
    }

    /** summary.json in the telemetry dir; empty = disabled. */
    std::string
    summaryPath() const
    {
        std::string dir = params.obsDir();
        if (!params.write_summary || dir.empty())
            return {};
        return (std::filesystem::path(dir) / "summary.json").string();
    }

    /** True when every declared run for @p alias succeeded. */
    bool
    ok(const std::string &alias) const
    {
        for (const RunFailure &f : outcome.failures)
            if (f.alias == alias)
                return false;
        return true;
    }

    /**
     * The planned workload aliases, in first-declared order without
     * duplicates, minus any with a failed run — the alias list the
     * binary's table loops should iterate.
     */
    std::vector<std::string>
    aliases() const
    {
        std::vector<std::string> out;
        for (const RunRequest &r : plan) {
            if (std::find(out.begin(), out.end(), r.alias) != out.end())
                continue;
            if (ok(r.alias))
                out.push_back(r.alias);
        }
        return out;
    }

    /** Process exit status: 0 on a clean sweep, 1 if any run failed;
     *  128+signal (130/143) after a cooperative shutdown, like a
     *  conventionally signal-terminated process — except the journal
     *  and telemetry artifacts made it out first. */
    int
    exitCode() const
    {
        return shutdownExitCode(outcome.ok() ? 0 : 1);
    }

  private:
    /**
     * Bench parameters from the environment — unless this process was
     * re-execed as a shard (--evrsim-shard=<i>): then it serves runs
     * until its stdin closes and exits, never returning here.
     */
    static BenchParams
    paramsOrServeShard(int argc, char **argv)
    {
        BenchParams p = benchParamsFromEnv();
        std::string shard_params;
        int shard = shardFlagFromArgv(argc, argv, shard_params);
        if (shard >= 0) {
            installCrashHandler();
            runShardAndExit(shard, workloads::factory(), p, shard_params);
        }
        return p;
    }

    /** Arm the tracer from EVRSIM_TRACE (a bad spec is fatal, like any
     *  other knob). Shards spill their own file and ship their spans
     *  into this one. */
    static void
    installTracing()
    {
        Result<TraceConfig> cfg = traceConfigFromEnv();
        if (!cfg.ok())
            fatal("%s", cfg.status().message().c_str());
        if (cfg.value().enabled())
            traceConfigure(cfg.value());
    }

    /** Route every attempt through EVRSIM_SHARDS shard processes. */
    void
    startFleet()
    {
        FleetConfig cfg = fleetConfigFromParams(params);
        cfg.shard_argv = {selfExecutablePath()};
        if (cfg.shard_argv[0].empty())
            fatal("EVRSIM_SHARDS=%d: cannot resolve /proc/self/exe to "
                  "re-exec as a shard",
                  params.shards);
        // A bench shard dies once per attempt of a crashing job, so it
        // must come straight back: reap promptly and restart after a
        // few milliseconds. The backoff still doubles per death without
        // a result, which caps a shard that cannot start at all.
        cfg.poll_ms = 5;
        cfg.restart_backoff_base_ms = 2;
        cfg.restart_backoff_cap_ms = 50;
        fleet = std::make_unique<ShardFleet>(cfg, nullptr);
        if (Status s = fleet->start(); !s.ok())
            fatal("EVRSIM_SHARDS=%d: %s", params.shards,
                  s.message().c_str());
        runner.setWorkerLauncher([f = fleet.get()](
                                     const std::string &alias,
                                     const SimConfig &config,
                                     const std::string &key) {
            return f->execute(alias, config, key);
        });
    }
};

} // namespace bench
} // namespace evrsim

#endif // EVRSIM_BENCH_BENCH_COMMON_HPP
