/**
 * @file
 * Chaos soak: the whole shard fleet under sustained, deterministic
 * process- and wire-level chaos.
 *
 * Three legs over the same 20-workload sweep:
 *
 *  A. Quiet fleet — two shards, no chaos. Produces the golden
 *     RunResult bytes and must touch none of the failure machinery
 *     (every evrsim_fleet_* failure counter stays zero).
 *  B. Chaos fleet — EVRSIM_FAULT arms worker-kill9, worker-stall and
 *     all three wire sites at low rates. The sweep must still
 *     complete, every surviving RunResult must be byte-identical to
 *     the golden run (simulations are deterministic; the fleet may
 *     only change *where* they execute, never what they compute), and
 *     the failure counters must be nonzero: chaos that nothing
 *     noticed is chaos that wasn't injected.
 *  C. Dead fleet — shards exec /bin/false, so the fleet is permanently
 *     unhealthy. Every run must gracefully degrade to the in-process
 *     fallback, still byte-identical.
 *
 * The binary doubles as the shard executable (--evrsim-shard=<i>),
 * exactly like the daemon binary does, so the fleet under test runs
 * real worker processes over real pipes.
 */
#include <gtest/gtest.h>

#include <stdlib.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "driver/experiment.hpp"
#include "driver/supervisor.hpp"
#include "service/fleet.hpp"
#include "service/service_protocol.hpp"
#include "workloads/registry.hpp"

namespace evrsim {
namespace {

/** Small, fast, deterministic simulation parameters. */
BenchParams
soakParams()
{
    BenchParams p;
    p.width = 160;
    p.height = 96;
    p.frames = 1;
    p.warmup = 0;
    p.use_cache = false;
    p.jobs = 1;
    p.heartbeat_ms = 0;
    p.write_summary = false;
    p.log_level = LogLevel::Quiet;
    return p;
}

FleetConfig
soakFleetConfig()
{
    FleetConfig cfg;
    cfg.shards = 2;
    cfg.shard_argv = {selfExecutablePath()};
    cfg.shard_params_json = shardParamsJson(soakParams());
    // Generous ping deadline: this soak also runs on contended
    // single-core CI boxes where a cold shard's first simulation can
    // starve its reader thread for a while; liveness pings must only
    // catch real stalls (the chaos stall is 2.5s), not scheduling lag.
    cfg.ping_interval_ms = 150;
    cfg.ping_deadline_ms = 1500;
    cfg.breaker_threshold = 2;
    cfg.restart_backoff_base_ms = 50;
    cfg.restart_backoff_cap_ms = 500;
    // Covers a dropped result line (the failover trigger) without
    // making each one glacial; a cold 160x96 single-frame simulation
    // is tens of milliseconds.
    cfg.run_deadline_ms = 3000;
    cfg.poll_ms = 25;
    return cfg;
}

/** The soak sweep: every Table III workload, alternating configs. */
std::vector<std::pair<std::string, std::string>>
soakPairs()
{
    std::vector<std::pair<std::string, std::string>> pairs;
    const std::vector<std::string> &aliases = workloads::allAliases();
    for (std::size_t i = 0; i < aliases.size(); ++i)
        pairs.emplace_back(aliases[i], i % 2 == 0 ? "baseline" : "evr");
    return pairs;
}

/** In-process fallback sharing the shard's simulation parameters. */
ShardFleet::DegradedRunFn
degradedRunner(ExperimentRunner &runner)
{
    return [&runner](const std::string &alias, const SimConfig &config) {
        return runner.trySimulate(alias, config);
    };
}

/** Run the sweep; returns pair-key -> deterministic result bytes.
 *  Fails the test (and returns what it has) on any failed run. */
std::map<std::string, std::string>
runSweep(ShardFleet &fleet, const BenchParams &params)
{
    // Runs are addressed by the runner's job key, which the shard
    // re-derives and checks.
    ExperimentRunner keys(workloads::factory(), params, FaultPlan{});
    std::map<std::string, std::string> out;
    for (const auto &[alias, config_name] : soakPairs()) {
        Result<SimConfig> config =
            configByName(config_name, params.gpuConfig());
        EXPECT_TRUE(config.ok());
        if (!config.ok())
            continue;
        std::string key = alias + "/" + config_name;
        WorkerAttempt a = fleet.execute(
            alias, config.value(), keys.jobKey(alias, config.value()));
        EXPECT_TRUE(a.status.ok())
            << key << ": " << a.status.toString()
            << (a.worker_died ? " (worker died)" : "");
        if (a.status.ok())
            out[key] = a.result.toJson(false).dump(0);
    }
    return out;
}

double
counterOrZero(const std::string &name)
{
    Result<double> v = metricsValue(name);
    return v.ok() ? v.value() : 0.0;
}

TEST(ChaosSoak, SweepSurvivesChaosByteIdentically)
{
#ifdef EVRSIM_SANITIZED
    GTEST_SKIP() << "fork + threads under sanitizers is not supported";
#endif
    ASSERT_FALSE(selfExecutablePath().empty());
    ::unsetenv("EVRSIM_FAULT");
    BenchParams params = soakParams();
    ExperimentRunner fallback(workloads::factory(), params);

    // --- Leg A: quiet fleet -> golden bytes, zero failure counters.
    metricsReset();
    std::map<std::string, std::string> golden;
    {
        ShardFleet fleet(soakFleetConfig(), degradedRunner(fallback));
        ASSERT_TRUE(fleet.start().ok());
        golden = runSweep(fleet, params);
        fleet.stop();

        ShardFleet::Stats st = fleet.stats();
        EXPECT_EQ(st.dispatched, soakPairs().size());
        EXPECT_EQ(st.completed, soakPairs().size());
        EXPECT_EQ(st.restarts, 0u);
        EXPECT_EQ(st.breaker_opens, 0u);
        EXPECT_EQ(st.failovers, 0u);
        EXPECT_EQ(st.degraded, 0u);
        EXPECT_EQ(st.wire_errors, 0u);
        EXPECT_EQ(counterOrZero("evrsim_fleet_restarts_total"), 0.0);
        EXPECT_EQ(counterOrZero("evrsim_fleet_breaker_opens_total"),
                  0.0);
        EXPECT_EQ(counterOrZero("evrsim_fleet_failovers_total"), 0.0);
        EXPECT_EQ(counterOrZero("evrsim_fleet_degraded_total"), 0.0);
    }
    ASSERT_EQ(golden.size(), soakPairs().size());

    // --- Leg B: the same sweep under sustained chaos.
    metricsReset();
    ::setenv("EVRSIM_FAULT",
             "worker-kill9:0.08:11,worker-stall:0.03:12,"
             "wire-corrupt:0.05:13,wire-drop:0.04:14,wire-dup:0.05:15",
             1);
    {
        ShardFleet fleet(soakFleetConfig(), degradedRunner(fallback));
        ASSERT_TRUE(fleet.start().ok());

        // Soak: keep sweeping (each pass byte-checked against the
        // golden run) until the fleet has demonstrably restarted a
        // shard, opened a breaker and failed a run over — or the time
        // budget runs out. A single 20-run sweep can finish before a
        // killed shard has even served its restart backoff, so one
        // pass observing all three modes is a coin flip; the soak loop
        // makes the assertion about the *machinery*, not the dice.
        const auto soak_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        int passes = 0;
        for (;;) {
            std::map<std::string, std::string> chaotic =
                runSweep(fleet, params);
            ++passes;

            // Every run completed, and completed *identically*: chaos
            // may move a run between shards or into the fallback, but
            // the simulation bytes must not notice.
            ASSERT_EQ(chaotic.size(), golden.size());
            for (const auto &[key, bytes] : golden)
                EXPECT_EQ(chaotic.at(key), bytes)
                    << key << " (pass " << passes << ")";

            ShardFleet::Stats st = fleet.stats();
            if (st.restarts > 0 && st.breaker_opens > 0 &&
                st.failovers > 0)
                break;
            if (std::chrono::steady_clock::now() >= soak_deadline)
                break;
        }
        fleet.stop();
        ::unsetenv("EVRSIM_FAULT");

        // Chaos nothing noticed is chaos that wasn't injected: the
        // fleet must have absorbed real failures.
        ShardFleet::Stats st = fleet.stats();
        EXPECT_GT(st.restarts, 0u) << passes << " passes";
        EXPECT_GT(st.breaker_opens, 0u) << passes << " passes";
        EXPECT_GT(st.failovers, 0u) << passes << " passes";
        EXPECT_GT(counterOrZero("evrsim_fleet_restarts_total"), 0.0);
        EXPECT_GT(counterOrZero("evrsim_fleet_breaker_opens_total"),
                  0.0);
        EXPECT_GT(counterOrZero("evrsim_fleet_failovers_total"), 0.0);
    }

    // --- Leg C: whole fleet dead -> graceful degradation.
    metricsReset();
    {
        FleetConfig cfg = soakFleetConfig();
        cfg.shard_argv = {"/bin/false"};
        cfg.run_deadline_ms = 300;
        // Long enough that the dead shards stay dead for the sweep.
        cfg.restart_backoff_base_ms = 4000;
        cfg.restart_backoff_cap_ms = 8000;

        ShardFleet fleet(cfg, degradedRunner(fallback));
        ASSERT_TRUE(fleet.start().ok());
        // Let both shards die and be marked down before sweeping, so
        // the ring skips them instantly instead of timing out.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        std::map<std::string, std::string> degraded =
            runSweep(fleet, params);
        fleet.stop();

        ASSERT_EQ(degraded.size(), golden.size());
        for (const auto &[key, bytes] : golden)
            EXPECT_EQ(degraded.at(key), bytes) << key;

        ShardFleet::Stats st = fleet.stats();
        EXPECT_EQ(st.degraded, soakPairs().size());
        EXPECT_EQ(st.completed, soakPairs().size());
        EXPECT_GT(counterOrZero("evrsim_fleet_degraded_total"), 0.0);
    }
}

} // namespace
} // namespace evrsim

/** The binary doubles as the shard program (like evrsim-daemon):
 *  --evrsim-shard=<i> serves a shard. */
int
main(int argc, char **argv)
{
    std::string shard_params;
    int shard_index =
        evrsim::shardFlagFromArgv(argc, argv, shard_params);
    if (shard_index >= 0)
        evrsim::runShardAndExit(shard_index,
                                evrsim::workloads::factory(),
                                evrsim::BenchParams{}, shard_params);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
