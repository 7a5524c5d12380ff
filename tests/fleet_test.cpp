/**
 * @file
 * Fleet unit suite: the wire-damage transform, content-key routing,
 * the circuit-breaker transition table, restart backoff, the shard
 * params round-trip, the argv probe, and the whole-fleet-dead
 * degradation path (no shard ever execs; every run must take the
 * in-daemon fallback and be counted).
 *
 * Process-level fleet behaviour under live chaos (kills, stalls,
 * corruption) is the chaos_soak_test's job.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault_injector.hpp"
#include "common/metrics.hpp"
#include "service/fleet.hpp"
#include "service/service_protocol.hpp"

namespace evrsim {
namespace {

// --- wire damage transform ------------------------------------------

TEST(WireChaos, CorruptFlipsOneNonNewlineByte)
{
    FaultInjector faults(
        FaultInjector::parsePlan("wire-corrupt:1:5").value());
    std::string line = "{\"schema\":1,\"payload\":{}}\n";
    std::string out = applyWireChaos(faults, line);
    ASSERT_EQ(out.size(), line.size());
    EXPECT_EQ(out.back(), '\n'); // framing newline never touched
    int diffs = 0;
    for (std::size_t i = 0; i < line.size(); ++i)
        if (out[i] != line[i])
            ++diffs;
    EXPECT_EQ(diffs, 1);
}

TEST(WireChaos, DropReturnsNothingAndBeatsDup)
{
    FaultInjector faults(
        FaultInjector::parsePlan("wire-drop:1:5,wire-dup:1:6").value());
    EXPECT_TRUE(applyWireChaos(faults, "payload\n").empty());
}

TEST(WireChaos, DupDoublesTheLine)
{
    FaultInjector faults(
        FaultInjector::parsePlan("wire-dup:1:5").value());
    EXPECT_EQ(applyWireChaos(faults, "payload\n"), "payload\npayload\n");
}

// --- routing --------------------------------------------------------

TEST(ShardRouting, StableAndInRange)
{
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 64; ++i) {
        std::string key = "workload-" + std::to_string(i) + "/base";
        int shard = shardIndexForKey(key, 4);
        ASSERT_GE(shard, 0);
        ASSERT_LT(shard, 4);
        EXPECT_EQ(shard, shardIndexForKey(key, 4)); // stable
        ++counts[shard];
    }
    // FNV over distinct keys spreads; no shard monopolizes the sweep.
    for (int c : counts)
        EXPECT_LT(c, 64);
    EXPECT_EQ(shardIndexForKey("anything", 1), 0);
}

// --- circuit breaker ------------------------------------------------

TEST(CircuitBreakerTable, OpensOnNthConsecutiveFailure)
{
    CircuitBreaker b;
    b.threshold = 3;
    EXPECT_EQ(b.state, BreakerState::Closed);
    EXPECT_TRUE(b.admits());

    EXPECT_FALSE(b.recordFailure());
    EXPECT_FALSE(b.recordFailure());
    EXPECT_TRUE(b.admits());
    EXPECT_TRUE(b.recordFailure()); // third consecutive: transition
    EXPECT_EQ(b.state, BreakerState::Open);
    EXPECT_FALSE(b.admits());
    EXPECT_FALSE(b.recordFailure()); // already open: no new transition
}

TEST(CircuitBreakerTable, SuccessResetsTheStreak)
{
    CircuitBreaker b;
    b.threshold = 3;
    b.recordFailure();
    b.recordFailure();
    b.recordSuccess();
    EXPECT_EQ(b.consecutive_failures, 0);
    EXPECT_FALSE(b.recordFailure());
    EXPECT_FALSE(b.recordFailure());
    EXPECT_EQ(b.state, BreakerState::Closed);
}

TEST(CircuitBreakerTable, HalfOpenProbeClosesOrReopens)
{
    CircuitBreaker b;
    b.threshold = 2;
    b.recordFailure();
    b.recordFailure();
    ASSERT_EQ(b.state, BreakerState::Open);

    b.onRestart();
    EXPECT_EQ(b.state, BreakerState::HalfOpen);
    EXPECT_TRUE(b.admits());

    // Probe failure reopens immediately, regardless of the threshold.
    EXPECT_TRUE(b.recordFailure());
    EXPECT_EQ(b.state, BreakerState::Open);

    b.onRestart();
    b.recordSuccess();
    EXPECT_EQ(b.state, BreakerState::Closed);
}

TEST(CircuitBreakerTable, ForceOpenReportsTransitionOnce)
{
    CircuitBreaker b;
    EXPECT_TRUE(b.forceOpen());
    EXPECT_FALSE(b.forceOpen());
    EXPECT_FALSE(b.admits());
}

// --- restart backoff ------------------------------------------------

TEST(RestartBackoff, DeterministicCappedAndGrowing)
{
    FleetConfig c;
    c.restart_backoff_base_ms = 100;
    c.restart_backoff_cap_ms = 5000;

    for (int restarts = 0; restarts < 20; ++restarts) {
        int ms = restartBackoffMs(c, 1, restarts);
        EXPECT_EQ(ms, restartBackoffMs(c, 1, restarts)); // deterministic
        // Jitter spans the upper half of the capped window.
        long long window =
            std::min<long long>(100ll << std::min(restarts, 16), 5000);
        EXPECT_GE(ms, static_cast<int>(window / 2));
        EXPECT_LE(ms, static_cast<int>(window));
    }
    // The schedule grows past the base well before the cap.
    EXPECT_GT(restartBackoffMs(c, 0, 6), restartBackoffMs(c, 0, 0));
    // Shards jitter differently: not every index picks the same delay.
    bool differs = false;
    for (int i = 1; i < 8 && !differs; ++i)
        differs = restartBackoffMs(c, i, 3) != restartBackoffMs(c, 0, 3);
    EXPECT_TRUE(differs);
}

// --- shard params round-trip ----------------------------------------

TEST(ShardParams, RoundTripsTheSimulationSubset)
{
    BenchParams p;
    p.width = 320;
    p.height = 180;
    p.frames = 2;
    p.warmup = 1;
    p.tile_jobs = 3;
    p.job_timeout_ms = 1234;
    p.log_level = LogLevel::Verbose;
    p.validation.mode = ValidateMode::Permissive;
    p.validation.tile_sample_rate = 0.5;
    p.validation.seed = 99;

    BenchParams q; // defaults
    ASSERT_TRUE(applyShardParams(shardParamsJson(p), q).ok());
    EXPECT_EQ(q.width, 320);
    EXPECT_EQ(q.height, 180);
    EXPECT_EQ(q.frames, 2);
    EXPECT_EQ(q.warmup, 1);
    EXPECT_EQ(q.tile_jobs, 3);
    EXPECT_EQ(q.job_timeout_ms, 1234);
    EXPECT_EQ(q.log_level, LogLevel::Verbose);
    EXPECT_EQ(q.validation.mode, ValidateMode::Permissive);
    EXPECT_DOUBLE_EQ(q.validation.tile_sample_rate, 0.5);
    EXPECT_EQ(q.validation.seed, 99u);

    Status bad = applyShardParams("{truncated", q);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), ErrorCode::InvalidArgument);
}

TEST(ShardParams, ArgvProbeFindsIndexAndParams)
{
    std::string params_json;
    const char *argv_shard[] = {"evrsim-daemon", "--evrsim-shard=5",
                                "--evrsim-shard-params={\"width\":64}"};
    EXPECT_EQ(shardFlagFromArgv(3, const_cast<char **>(argv_shard),
                                params_json),
              5);
    EXPECT_EQ(params_json, "{\"width\":64}");

    const char *argv_plain[] = {"evrsim-daemon"};
    EXPECT_EQ(shardFlagFromArgv(1, const_cast<char **>(argv_plain),
                                params_json),
              -1);
    EXPECT_TRUE(params_json.empty());
}

// --- whole-fleet-dead degradation -----------------------------------

TEST(FleetDegradation, AllShardsUnspawnableFallsBackInProcess)
{
#ifdef EVRSIM_SANITIZED
    GTEST_SKIP() << "fork + threads under sanitizers is not supported";
#endif
    metricsReset();
    FleetConfig cfg;
    cfg.shards = 2;
    // An exec target that cannot exist: every spawn "succeeds" at
    // fork, then the child dies on exec; the breaker opens and runs
    // degrade while the monitor keeps rescheduling restarts.
    cfg.shard_argv = {"/nonexistent/evrsim-shard"};
    cfg.ping_interval_ms = 50;
    cfg.ping_deadline_ms = 200;
    cfg.run_deadline_ms = 300;
    cfg.restart_backoff_base_ms = 2000; // stay dead for the test
    cfg.restart_backoff_cap_ms = 4000;
    cfg.poll_ms = 20;

    int degraded_calls = 0;
    ShardFleet fleet(cfg, [&](const std::string &alias,
                              const SimConfig &) -> Result<RunResult> {
        ++degraded_calls;
        return Status::internal("fallback reached for " + alias);
    });
    ASSERT_TRUE(fleet.start().ok());

    GpuConfig gpu;
    SimConfig config = configByName("baseline", gpu).value();
    WorkerAttempt a = fleet.execute("wl", config, "wl/baseline.json");

    // The degraded fallback's verdict came back verbatim.
    EXPECT_EQ(degraded_calls, 1);
    EXPECT_FALSE(a.worker_died);
    ASSERT_FALSE(a.status.ok());
    EXPECT_NE(a.status.message().find("fallback reached"),
              std::string::npos);

    ShardFleet::Stats st = fleet.stats();
    EXPECT_EQ(st.dispatched, 1u);
    EXPECT_EQ(st.degraded, 1u);
    EXPECT_EQ(st.completed, 1u);

    fleet.stop();
}

TEST(FleetConfigGate, DisabledWithoutWidthOrArgv)
{
    FleetConfig off;
    EXPECT_FALSE(fleetEnabled(off));
    off.shards = 2;
    EXPECT_FALSE(fleetEnabled(off)); // no argv
    off.shard_argv = {"/bin/true"};
    EXPECT_TRUE(fleetEnabled(off));

    ShardFleet fleet(FleetConfig{}, nullptr);
    EXPECT_EQ(fleet.start().code(), ErrorCode::InvalidArgument);
}

} // namespace
} // namespace evrsim
