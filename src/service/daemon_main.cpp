/**
 * @file
 * `evrsim-daemon`: the resident sweep service binary.
 *
 * Resolves the shared EVRSIM_* bench knobs plus the service knobs
 * (EVRSIM_SOCKET / EVRSIM_QUEUE_MAX / EVRSIM_CLIENT_QUOTA) through the
 * strict parsers, serves until SIGINT/SIGTERM, drains, flushes metrics,
 * and exits 130/143 like a conventionally signal-terminated process.
 *
 * Crash recovery is the default: the daemon always starts with
 * EVRSIM_RESUME semantics, replaying the sweep journal and the request
 * journal from the cache directory, so a SIGKILLed daemon restarted on
 * the same cache dir serves reconnecting clients byte-identically.
 *
 * The binary doubles as a fleet shard (service/fleet.hpp): with
 * EVRSIM_SHARDS > 0 (default cores/4, min 1) the daemon execs itself
 * with `--evrsim-shard=<i>` and the re-execed copy serves runs from
 * stdin until EOF. Shards are persistent, so the fork/exec cost is
 * paid per shard lifetime instead of per run.
 */
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/crash_handler.hpp"
#include "common/log.hpp"
#include "common/shutdown.hpp"
#include "common/trace.hpp"
#include "driver/supervisor.hpp"
#include "service/daemon.hpp"
#include "service/fleet.hpp"
#include "workloads/registry.hpp"

using namespace evrsim;

int
main(int argc, char **argv)
{
    std::string shard_params;
    int shard_index = shardFlagFromArgv(argc, argv, shard_params);
    // Remote shards were removed: a stale launcher must not start a
    // second daemon instead.
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--evrsim-remote-shard", 0) == 0)
            fatal("--evrsim-remote-shard is retired: remote shards were "
                  "removed; set EVRSIM_SHARDS=n on the daemon to run n "
                  "local shard processes");

    Result<BenchParams> pr = benchParamsFromEnvChecked();
    if (!pr.ok())
        fatal("%s", pr.status().message().c_str());
    BenchParams params = pr.value();
    setLogLevel(params.log_level);
    installCrashHandler();

    if (shard_index >= 0)
        runShardAndExit(shard_index, workloads::factory(), params,
                        shard_params);

    // Always resume: a daemon restarted after a crash (or a plain
    // restart) replays the journals and serves completed work from the
    // cache instead of re-simulating it.
    params.resume = true;

    // Arm the tracer for the daemon itself (shards arm their own on
    // their exec paths above). A default output path is
    // rooted in the telemetry dir; an explicit EVRSIM_TRACE=...:path
    // is honored as given.
    if (Result<TraceConfig> tc = traceConfigFromEnv(); !tc.ok()) {
        fatal("%s", tc.status().message().c_str());
    } else if (tc.value().enabled()) {
        TraceConfig tcfg = tc.value();
        std::string obs_dir = params.obsDir();
        if (tcfg.path == TraceConfig().path && !obs_dir.empty())
            tcfg.path =
                (std::filesystem::path(obs_dir) / tcfg.path).string();
        traceConfigure(tcfg);
    }

    // Fleet width defaults to cores/4 (min 1) when EVRSIM_SHARDS is
    // absent; EVRSIM_SHARDS=0 explicitly keeps in-daemon execution.
    if (std::getenv("EVRSIM_SHARDS") == nullptr)
        params.shards = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency() / 4u));

    Result<ServiceConfig> sc = serviceConfigFromEnvChecked(params);
    if (!sc.ok())
        fatal("%s", sc.status().message().c_str());
    ServiceConfig scfg = sc.value();
    if (scfg.fleet.shards > 0) {
        if (std::string self = selfExecutablePath(); self.empty()) {
            warn("fleet: cannot resolve /proc/self/exe; running without "
                 "worker shards");
            scfg.fleet.shards = 0;
        } else {
            scfg.fleet.shard_argv = {self};
        }
    }

    installShutdownHandler();

    SweepService service(workloads::factory(), params, scfg);

    if (Status s = service.start(); !s.ok())
        fatal("%s", s.message().c_str());

    service.serveUntilShutdown();

    SweepService::Stats st = service.stats();
    inform("service: drained (connections=%llu admitted=%llu "
           "completed=%llu shed=%llu)",
           static_cast<unsigned long long>(st.connections),
           static_cast<unsigned long long>(st.requests_admitted),
           static_cast<unsigned long long>(st.requests_completed),
           static_cast<unsigned long long>(
               st.shed_queue_full + st.shed_quota + st.shed_draining));
    if (Status s = service.runner().writeMetricsArtifacts(); !s.ok())
        warn("could not write metrics artifacts: %s",
             s.message().c_str());
    return shutdownExitCode(0);
}
