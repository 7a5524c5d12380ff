/**
 * @file
 * Tests for the hard failure domain around simulation jobs: durable
 * atomic file writes, the shared CRC32 envelope, out-of-process
 * execution on a real pipe-shard fleet (every way a run can end —
 * result, reported status, version skew, crash, hang, OOM, exec
 * failure — and how the fleet classifies it), the runner's
 * crash-quarantine policy, the corrupt-file cap, and the write-ahead
 * sweep journal with EVRSIM_RESUME replay.
 *
 * The test binary doubles as its own shard: `--evrsim-shard=<i>`
 * (dispatched before gtest initializes) serves runs of the tiny
 * workloads plus scripted ones that crash, hang or exhaust their
 * RLIMIT_AS budget — exactly the shape the bench binaries use.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/fault_injector.hpp"
#include "common/trace.hpp"
#include "driver/envelope.hpp"
#include "driver/experiment.hpp"
#include "driver/supervisor.hpp"
#include "driver/sweep_journal.hpp"
#include "scene/mesh.hpp"
#include "service/fleet.hpp"
#include "support.hpp"

using namespace evrsim;
using namespace evrsim::test;

namespace {

/** A tiny deterministic workload; `alias` selects its look. */
class TinyWorkload : public Workload
{
  public:
    TinyWorkload(std::string alias, int width, int height)
        : alias_(std::move(alias)), width_(width), height_(height)
    {
        quad_ = meshes::quad({1, 1, 1, 1});
    }

    Info
    info() const override
    {
        return {alias_, "Tiny " + alias_, "Test", false};
    }

    void setup(GpuSimulator &sim) override { sim.uploadMesh(quad_); }

    Scene
    frame(int index) override
    {
        float offset = alias_ == "tiny-a" ? 2.0f : 10.0f;
        Scene s;
        setCamera2D(s, width_, height_);
        DrawCommand &c = submitRect(s, &quad_, offset, offset, 20, 16,
                                    0.5f, RenderState{});
        c.tint = {0.4f + 0.1f * (index % 4), 0.3f, 0.2f, 1.0f};
        return s;
    }

  private:
    std::string alias_;
    int width_, height_;
    Mesh quad_;
};

/**
 * A workload that misbehaves the moment it renders: "crash" raises
 * SIGSEGV, "hang" sleeps forever, "oom" allocates until its RLIMIT_AS
 * budget bites (and, with no budget, stops at 1 GiB and renders an
 * empty frame, so a missing budget fails the test, not the host).
 */
class ScriptedWorkload : public Workload
{
  public:
    explicit ScriptedWorkload(std::string mode) : mode_(std::move(mode))
    {
    }

    Info
    info() const override
    {
        return {mode_, "Scripted " + mode_, "Test", false};
    }

    void setup(GpuSimulator &) override {}

    Scene
    frame(int) override
    {
        if (mode_ == "crash")
            std::raise(SIGSEGV);
        if (mode_ == "hang")
            for (;;)
                std::this_thread::sleep_for(std::chrono::hours(1));
        std::vector<std::unique_ptr<std::vector<char>>> hog;
        for (int i = 0; i < 128; ++i)
            hog.push_back(std::make_unique<std::vector<char>>(8u << 20, 1));
        return Scene{};
    }

  private:
    std::string mode_;
};

WorkloadFactory
tinyFactory(std::atomic<int> *builds = nullptr)
{
    return [builds](const std::string &alias, int w,
                    int h) -> std::unique_ptr<Workload> {
        if (alias == "crash" || alias == "hang" || alias == "oom")
            return std::make_unique<ScriptedWorkload>(alias);
        if (alias != "tiny-a" && alias != "tiny-b")
            return nullptr;
        if (builds)
            builds->fetch_add(1);
        return std::make_unique<TinyWorkload>(alias, w, h);
    };
}

BenchParams
tinyParams(const std::string &cache_dir = "")
{
    BenchParams p;
    p.width = 64;
    p.height = 48;
    p.frames = 3;
    p.warmup = 1;
    p.use_cache = !cache_dir.empty();
    p.cache_dir = cache_dir;
    p.jobs = 1;
    return p;
}

std::vector<RunRequest>
tinyBatch(const GpuConfig &gpu)
{
    std::vector<RunRequest> reqs;
    for (const char *alias : {"tiny-a", "tiny-b"}) {
        reqs.push_back({alias, SimConfig::baseline(gpu)});
        reqs.push_back({alias, SimConfig::renderingElimination(gpu)});
        reqs.push_back({alias, SimConfig::evr(gpu)});
    }
    return reqs;
}

std::filesystem::path
freshDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A fleet of this binary's own shards over @p params, restarting
 *  dead shards within milliseconds. */
FleetConfig
selfFleet(int shards, const BenchParams &params)
{
    FleetConfig cfg = fleetConfigFromParams(params);
    cfg.shards = shards;
    cfg.shard_argv = {selfExecutablePath()};
    cfg.poll_ms = 5;
    cfg.restart_backoff_base_ms = 2;
    cfg.restart_backoff_cap_ms = 50;
    return cfg;
}

/** Route every attempt of @p runner through @p fleet. */
void
launchOn(ExperimentRunner &runner, ShardFleet &fleet)
{
    runner.setWorkerLauncher([&fleet](const std::string &alias,
                                      const SimConfig &config,
                                      const std::string &key) {
        return fleet.execute(alias, config, key);
    });
}

} // namespace

// ------------------------------------------------------ atomic file ----

TEST(AtomicFile, WriteReadRoundtripAndOverwrite)
{
    std::filesystem::path dir = freshDir("evrsim_atomic_file");
    std::string path = (dir / "a.txt").string();

    ASSERT_TRUE(atomicWriteFile(path, "first").ok());
    ASSERT_TRUE(atomicWriteFile(path, "second contents").ok());

    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "second contents");

    // No pid-tagged temp file may survive a successful publish.
    for (const auto &e : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(e.path().filename().string(), "a.txt");
    std::filesystem::remove_all(dir);
}

TEST(AtomicFile, UnwritableDirectoryReportsUnavailable)
{
    Status s = atomicWriteFile("/nonexistent-dir-evrsim/x.txt", "data");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::Unavailable);
}

// --------------------------------------------------------- envelope ----

TEST(Envelope, RoundtripPreservesPayload)
{
    Json payload = Json::object();
    payload.set("answer", 42);
    payload.set("name", std::string("tiny"));

    std::string text = wrapEnvelope(payload, 7).dump(0);
    Result<Json> back = parseEnvelope(text, 7);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().dump(1), payload.dump(1));
}

TEST(Envelope, SchemaMismatchAndDamageAreDataLoss)
{
    Json payload = Json::object();
    payload.set("v", 1);
    std::string text = wrapEnvelope(payload, 3).dump(0);

    Result<Json> wrong = parseEnvelope(text, 4);
    ASSERT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.status().code(), ErrorCode::DataLoss);

    // Tamper with the payload value: the CRC no longer matches.
    std::string damaged = text;
    std::size_t at = damaged.rfind("1");
    ASSERT_NE(at, std::string::npos);
    damaged[at] = '2';
    Result<Json> bad = parseEnvelope(damaged, 3);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::DataLoss);
}

TEST(Envelope, StatusTransportPreservesErrorCode)
{
    Status original =
        Status::invariantViolation("tile (3,4) diverged from reference");
    Status back;
    ASSERT_TRUE(statusFromJson(statusToJson(original), back).ok());
    EXPECT_EQ(back.code(), ErrorCode::InvariantViolation);
    EXPECT_EQ(back.message(), original.message());
    EXPECT_FALSE(back.isTransient()); // must NOT arrive retryable

    Json garbage = Json::object();
    garbage.set("code", std::string("NO_SUCH_CODE"));
    garbage.set("message", std::string("x"));
    Status out;
    EXPECT_FALSE(statusFromJson(garbage, out).ok());
}

// -------------------------------------------------- shard isolation ---

TEST(RunDeadline, GraceClampsAndExtendsTheJobTimeout)
{
    EXPECT_EQ(defaultGraceMs(0), 0);
    EXPECT_EQ(defaultGraceMs(100), 500);    // floor
    EXPECT_EQ(defaultGraceMs(2000), 1000);  // timeout/2
    EXPECT_EQ(defaultGraceMs(60000), 5000); // ceiling

    BenchParams p = tinyParams();
    EXPECT_EQ(fleetConfigFromParams(p).run_deadline_ms,
              FleetConfig().run_deadline_ms); // no timeout: the default
    p.job_timeout_ms = 2000;
    p.shards = 3;
    FleetConfig cfg = fleetConfigFromParams(p);
    EXPECT_EQ(cfg.run_deadline_ms, 3000);
    EXPECT_EQ(cfg.shards, 3);
}

/**
 * Every way one run can end on a one-shard fleet, and how the fleet
 * reports it. Only a run that killed the shard it reached is a death
 * (worker_died, counted toward crash quarantine); a status the shard
 * reports keeps its code; a fleet that cannot start a shard is
 * Unavailable but charges the run nothing.
 */
TEST(ShardIsolation, ClassifiesEveryWayARunEnds)
{
#ifdef EVRSIM_SANITIZED
    GTEST_SKIP() << "fork + threads under sanitizers is not supported";
#endif
    struct Case {
        const char *name;
        const char *alias;
        const char *key; ///< nullptr = the runner's job key
        int mem_mb;
        int deadline_ms;
        const char *program; ///< nullptr = this binary
        ErrorCode code;
        bool died;
        const char *message;
    };
    const Case cases[] = {
        {"clean", "tiny-a", nullptr, 0, 5000, nullptr, ErrorCode::Ok,
         false, ""},
        {"status", "no-such-workload", nullptr, 0, 5000, nullptr,
         ErrorCode::NotFound, false, "unknown workload"},
        {"skew", "tiny-a", "tiny-a-from-another-build.json", 0, 5000,
         nullptr, ErrorCode::InvalidArgument, false, "version skew"},
        {"crash", "crash", nullptr, 0, 5000, nullptr,
         ErrorCode::Unavailable, true, "died"},
        {"hang", "hang", nullptr, 0, 300, nullptr, ErrorCode::Unavailable,
         true, "run deadline"},
        {"oom", "oom", nullptr, 256, 5000, nullptr, ErrorCode::Unavailable,
         false, "out of memory"},
        {"exec", "tiny-a", nullptr, 0, 300, "/nonexistent/evrsim-shard",
         ErrorCode::Unavailable, false, "no shard came up"},
    };

    BenchParams p = tinyParams();
    ExperimentRunner local(tinyFactory(), p);
    SimConfig cfg = SimConfig::baseline(p.gpuConfig());
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        BenchParams cp = p;
        cp.job_mem_mb = c.mem_mb;
        FleetConfig fc = selfFleet(1, cp);
        fc.run_deadline_ms = c.deadline_ms;
        if (c.program)
            fc.shard_argv = {c.program};
        ShardFleet fleet(fc, nullptr);
        ASSERT_TRUE(fleet.start().ok());

        auto start = std::chrono::steady_clock::now();
        WorkerAttempt a = fleet.execute(
            c.alias, cfg, c.key ? c.key : local.jobKey(c.alias, cfg));
        auto elapsed_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        fleet.stop();

        EXPECT_EQ(a.status.code(), c.code) << a.status.toString();
        EXPECT_EQ(a.worker_died, c.died) << a.status.toString();
        EXPECT_NE(a.status.message().find(c.message), std::string::npos)
            << a.status.toString();
        // A hang is reaped at its deadline, not after the hour it meant
        // to sleep.
        EXPECT_LT(elapsed_ms, 10000);
        if (c.code == ErrorCode::Ok) {
            Result<RunResult> want = local.trySimulate(c.alias, cfg);
            ASSERT_TRUE(want.ok());
            EXPECT_EQ(a.result.toJson(false).dump(2),
                      want.value().toJson(false).dump(2));
        }
    }
}

// ------------------------------------------- runner crash quarantine ---

TEST(RunnerIsolation, CrashQuarantineAfterMaxAttempts)
{
    BenchParams p = tinyParams();
    ExperimentRunner runner(tinyFactory(), p);
    std::atomic<int> launches{0};
    runner.setWorkerLauncher([&](const std::string &, const SimConfig &,
                                 const std::string &) {
        launches.fetch_add(1);
        return WorkerAttempt{Status::unavailable("scripted worker death"),
                             RunResult{}, true};
    });

    SimConfig cfg = SimConfig::baseline(p.gpuConfig());
    BatchOutcome outcome = runner.runAllChecked({{"tiny-a", cfg}});
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_TRUE(outcome.failures[0].quarantined);
    EXPECT_EQ(outcome.failures[0].attempts, kJobMaxAttempts);
    EXPECT_EQ(launches.load(), kJobMaxAttempts);
    EXPECT_EQ(runner.sweepStats().crash_quarantined, 1u);
    EXPECT_EQ(runner.sweepStats().failed, 1u);

    // The memo shields the quarantined job from ever relaunching.
    EXPECT_FALSE(runner.tryRun("tiny-a", cfg).ok());
    EXPECT_EQ(launches.load(), kJobMaxAttempts);
}

TEST(RunnerIsolation, NonDeathFailuresAreNotCrashQuarantined)
{
    BenchParams p = tinyParams();
    ExperimentRunner runner(tinyFactory(), p);
    runner.setWorkerLauncher([](const std::string &, const SimConfig &,
                                const std::string &) {
        // The worker survives and reports a permanent job failure.
        return WorkerAttempt{
            Status::invariantViolation("worker-reported failure"),
            RunResult{}, false};
    });

    BatchOutcome outcome = runner.runAllChecked(
        {{"tiny-a", SimConfig::baseline(p.gpuConfig())}});
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_FALSE(outcome.failures[0].quarantined);
    EXPECT_EQ(outcome.failures[0].attempts, 1); // not transient: no retry
    EXPECT_EQ(outcome.failures[0].status.code(),
              ErrorCode::InvariantViolation);
    EXPECT_EQ(runner.sweepStats().crash_quarantined, 0u);
}

namespace {

/** A crashy sweep must quarantine exactly the @p doomed requests and
 *  leave every other result byte-identical to @p want. */
void
expectQuarantinedExactly(const std::vector<RunRequest> &reqs,
                         const std::vector<bool> &doomed,
                         const BatchOutcome &want, ExperimentRunner &runner,
                         const BatchOutcome &got)
{
    std::size_t expected = 0;
    for (bool d : doomed)
        expected += d ? 1 : 0;
    EXPECT_EQ(got.failures.size(), expected);
    std::vector<bool> failed(reqs.size(), false);
    for (const RunFailure &f : got.failures) {
        failed[f.index] = true;
        EXPECT_TRUE(doomed[f.index]) << f.alias << "/" << f.config;
        EXPECT_TRUE(f.quarantined) << f.status.toString();
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (doomed[i]) {
            EXPECT_TRUE(failed[i]) << "doomed job " << i << " survived";
            continue;
        }
        EXPECT_EQ(got.results[i].toJson(false).dump(2),
                  want.results[i].toJson(false).dump(2))
            << "survivor " << i << " diverged under isolation";
    }
    EXPECT_EQ(runner.sweepStats().crash_quarantined, expected);
}

} // namespace

TEST(RunnerIsolation, SurvivorsOfACrashySweepMatchAFaultFreeRun)
{
    BenchParams p = tinyParams();
    std::vector<RunRequest> reqs = tinyBatch(p.gpuConfig());

    ExperimentRunner clean(tinyFactory(), p, FaultPlan{});
    BatchOutcome want = clean.runAllChecked(reqs);
    ASSERT_TRUE(want.ok());

    // Leg 1, scripted launcher: jobs of tiny-b die on every attempt;
    // every other job runs a real (in-process) simulation.
    {
        ExperimentRunner faulty(tinyFactory(), p, FaultPlan{});
        faulty.setWorkerLauncher([&faulty](const std::string &alias,
                                           const SimConfig &config,
                                           const std::string &) {
            if (alias == "tiny-b")
                return WorkerAttempt{
                    Status::unavailable("scripted worker death"),
                    RunResult{}, true};
            Result<RunResult> r = faulty.trySimulate(alias, config);
            if (!r.ok())
                return WorkerAttempt{r.status(), RunResult{}, false};
            return WorkerAttempt{Status(), r.value(), false};
        });
        std::vector<bool> doomed;
        for (const RunRequest &r : reqs)
            doomed.push_back(r.alias == "tiny-b");
        BatchOutcome got = faulty.runAllChecked(reqs);
        expectQuarantinedExactly(reqs, doomed, want, faulty, got);
    }

#ifndef EVRSIM_SANITIZED
    // Leg 2, a real two-shard pipe fleet under keyed worker-crash: the
    // crash-quarantined set is exactly the jobs whose keyed draw fires
    // — however the two scheduler workers interleave on the shards.
    const char *spec = "worker-crash:0.3:7";
    Result<FaultPlan> plan = FaultInjector::parsePlan(spec);
    ASSERT_TRUE(plan.ok());
    FaultInjector draws(plan.value());
    BenchParams pi = p;
    pi.jobs = 2;
    ExperimentRunner faulty(tinyFactory(), pi, FaultPlan{});
    std::vector<bool> doomed;
    for (const RunRequest &r : reqs)
        doomed.push_back(draws.shouldFailAt(
            FaultSite::WorkerCrash,
            fnv1a64(faulty.jobKey(r.alias, r.config))));
    // The seed must doom some jobs and spare others, or the leg proves
    // nothing.
    ASSERT_NE(std::count(doomed.begin(), doomed.end(), true), 0);
    ASSERT_NE(std::count(doomed.begin(), doomed.end(), false), 0);

    ::setenv("EVRSIM_FAULT", spec, 1); // the shards' environment
    {
        ShardFleet fleet(selfFleet(2, pi), nullptr);
        ASSERT_TRUE(fleet.start().ok());
        launchOn(faulty, fleet);
        BatchOutcome got = faulty.runAllChecked(reqs);
        fleet.stop();
        expectQuarantinedExactly(reqs, doomed, want, faulty, got);
    }
    ::unsetenv("EVRSIM_FAULT");
#endif
}

TEST(IsolationTrace, ShardSpansNestInTheCallersOneTraceFile)
{
#ifdef EVRSIM_SANITIZED
    GTEST_SKIP() << "fork + threads under sanitizers is not supported";
#endif
    std::filesystem::path dir = freshDir("evrsim_isolation_trace");
    std::string trace_path = (dir / "trace.json").string();
    ::setenv("EVRSIM_TRACE", "driver,worker", 1); // the shards' view
    Result<TraceConfig> tc = traceConfigFromEnv();
    ASSERT_TRUE(tc.ok());
    TraceConfig cfg = tc.value();
    cfg.path = trace_path;
    traceConfigure(cfg);

    // The shards' observability dir is the (unused) cache dir.
    BenchParams p = tinyParams(dir.string());
    p.use_cache = false;
    p.jobs = 2;
    std::vector<RunRequest> reqs = tinyBatch(p.gpuConfig());
    {
        ExperimentRunner runner(tinyFactory(), p, FaultPlan{});
        ShardFleet fleet(selfFleet(2, p), nullptr);
        ASSERT_TRUE(fleet.start().ok());
        launchOn(runner, fleet);
        ASSERT_TRUE(runner.runAllChecked(reqs).ok());
        fleet.stop(); // flushes the merged trace
    }
    traceConfigure(TraceConfig{});
    ::unsetenv("EVRSIM_TRACE");

    // One trace file: no per-process files, and the shards' own spill
    // files were deleted once their spans were merged.
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{"trace.json"});

    std::ifstream in(trace_path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Result<Json> doc = Json::tryParse(text);
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const Json &events = doc.value().at("traceEvents");

    // Every shard-run span (on an adopted shard lane) nests inside the
    // fleet-dispatch span that shares its trace id.
    struct Span {
        double ts = 0, dur = 0;
    };
    std::map<std::string, Span> dispatches;
    std::vector<std::pair<std::string, Span>> shard_runs;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        const Json *args = e.find("args");
        std::string id =
            args ? args->get("trace_id", Json("")).asString() : "";
        std::string name = e.get("name", Json("")).asString();
        Span s{e.get("ts", Json(0.0)).asDouble(),
               e.get("dur", Json(0.0)).asDouble()};
        if (name == "fleet-dispatch")
            dispatches[id] = s;
        else if (name == "shard-run" &&
                 e.get("pid", Json(0.0)).asDouble() >= 1000000)
            shard_runs.emplace_back(id, s);
    }
    EXPECT_EQ(dispatches.size(), reqs.size());
    EXPECT_EQ(shard_runs.size(), reqs.size());
    for (const auto &[id, s] : shard_runs) {
        auto it = dispatches.find(id);
        ASSERT_NE(it, dispatches.end()) << id;
        // 1 ms slack: microsecond rounding and the collect/reply skew.
        EXPECT_GE(s.ts + 1000.0, it->second.ts) << id;
        EXPECT_LE(s.ts + s.dur, it->second.ts + it->second.dur + 1000.0)
            << id;
    }
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------- corrupt-file cap ----

TEST(CorruptCap, KeepsNewestCopiesAndCountsEvictions)
{
    std::filesystem::path dir = freshDir("evrsim_corrupt_cap");
    BenchParams p = tinyParams(dir.string());
    SimConfig cfg = SimConfig::baseline(p.gpuConfig());

    std::string key;
    std::uint64_t last_evicted = 0;
    for (int round = 0; round < kCorruptKeep + 2; ++round) {
        ExperimentRunner runner(tinyFactory(), p);
        key = runner.jobKey("tiny-a", cfg);
        // Damage the published entry, then re-run: the load detects
        // DataLoss, quarantines, and re-simulates.
        std::ofstream((dir / key).string()) << "{damaged";
        ASSERT_TRUE(runner.tryRun("tiny-a", cfg).ok());
        EXPECT_EQ(runner.sweepStats().quarantined, 1u);
        last_evicted = runner.sweepStats().corrupt_evicted;
    }

    // Five quarantines, cap 3: only the newest three sequence numbers
    // live.
    std::vector<std::string> corrupt;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".corrupt")
            corrupt.push_back(e.path().filename().string());
    std::sort(corrupt.begin(), corrupt.end());
    EXPECT_EQ(corrupt, (std::vector<std::string>{key + ".2.corrupt",
                                                 key + ".3.corrupt",
                                                 key + ".4.corrupt"}));
    EXPECT_EQ(last_evicted, 1u); // each round past the cap evicts one
    std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- sweep journal ---

TEST(Journal, RecordReplayRoundtrip)
{
    std::filesystem::path dir = freshDir("evrsim_journal_roundtrip");
    std::string path = (dir / "sweep.journal").string();

    RunResult r;
    r.workload = "tiny-a";
    r.config = "baseline";
    r.frames = 3;
    r.image_crc = 0xdeadbeef;

    {
        SweepJournal j;
        ASSERT_TRUE(j.open(path).ok());
        j.recordStart("a.json");
        j.recordStart("b.json");
        j.recordStart("c.json");
        j.recordFinish("a.json", r, 1);
        j.recordFail("b.json",
                     Status::invariantViolation("strict failure"), 1,
                     false);
        j.recordFail("c.json", Status::unavailable("crashed thrice"), 3,
                     true);
        j.recordStart("d.json"); // interrupted: no terminal record
    }

    Result<SweepJournal::Replay> replayed = SweepJournal::replay(path);
    ASSERT_TRUE(replayed.ok());
    const SweepJournal::Replay &rep = replayed.value();
    EXPECT_EQ(rep.damaged, 0u);
    EXPECT_EQ(rep.in_flight, 1u);
    ASSERT_EQ(rep.outcomes.size(), 3u);

    const auto &a = rep.outcomes.at("a.json");
    EXPECT_EQ(a.kind, SweepJournal::ReplayedOutcome::Kind::Finished);
    EXPECT_EQ(a.result.toJson(false).dump(2), r.toJson(false).dump(2));
    EXPECT_EQ(a.attempts, 1);

    const auto &b = rep.outcomes.at("b.json");
    EXPECT_EQ(b.kind, SweepJournal::ReplayedOutcome::Kind::Failed);
    EXPECT_EQ(b.status.code(), ErrorCode::InvariantViolation);

    const auto &c = rep.outcomes.at("c.json");
    EXPECT_EQ(c.kind, SweepJournal::ReplayedOutcome::Kind::Quarantined);
    EXPECT_EQ(c.attempts, 3);
    std::filesystem::remove_all(dir);
}

TEST(Journal, ResumeReexecutesOnlyUnfinishedJobsByteIdentically)
{
    // The reference: one uninterrupted sweep.
    std::filesystem::path ref_dir = freshDir("evrsim_resume_ref");
    BenchParams ref_params = tinyParams(ref_dir.string());
    std::vector<RunRequest> reqs = tinyBatch(ref_params.gpuConfig());
    ExperimentRunner ref(tinyFactory(), ref_params);
    std::vector<RunResult> want = ref.runAll(reqs);

    // The "interrupted" sweep: only the first two jobs reached the
    // journal before the (simulated) SIGKILL.
    std::filesystem::path dir = freshDir("evrsim_resume");
    BenchParams p = tinyParams(dir.string());
    {
        ExperimentRunner first(tinyFactory(), p);
        first.runAll({reqs[0], reqs[1]});
    }
    // Delete every cache entry: resume must work from the journal's
    // embedded results alone (EVRSIM_NO_CACHE sweeps have no entries).
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".json")
            std::filesystem::remove(e.path());

    std::atomic<int> builds{0};
    BenchParams pr = p;
    pr.resume = true;
    ExperimentRunner resumed(tinyFactory(&builds), pr);
    EXPECT_EQ(resumed.sweepStats().resumed, 2u);
    std::vector<RunResult> got = resumed.runAll(reqs);

    // Only the four unfinished jobs simulate; all six results match
    // the uninterrupted sweep byte for byte.
    EXPECT_EQ(builds.load(), static_cast<int>(reqs.size()) - 2);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i].toJson(false).dump(2),
                  want[i].toJson(false).dump(2))
            << "resumed run " << i << " diverged";

    std::filesystem::remove_all(ref_dir);
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------ keyed worker faults --

TEST(WorkerFaults, PlanParsesAndKeyedDecisionsAreDeterministic)
{
    Result<FaultPlan> plan =
        FaultInjector::parsePlan("worker-crash:0.5:7,worker-hang:1:9");
    ASSERT_TRUE(plan.ok()) << plan.status().toString();
    EXPECT_TRUE(plan.value()[static_cast<int>(FaultSite::WorkerCrash)]
                    .enabled);
    EXPECT_TRUE(plan.value()[static_cast<int>(FaultSite::WorkerHang)]
                    .enabled);

    // Keyed decisions are pure in (seed, key): every attempt of a job
    // draws the same verdict, across processes and draw ordering.
    FaultInjector a(plan.value());
    FaultInjector b(plan.value());
    int crashes = 0;
    for (int i = 0; i < 64; ++i) {
        std::uint64_t key = fnv1a64("job-" + std::to_string(i) + ".json");
        bool first = a.shouldFailAt(FaultSite::WorkerCrash, key);
        EXPECT_EQ(first, b.shouldFailAt(FaultSite::WorkerCrash, key));
        EXPECT_EQ(first, a.shouldFailAt(FaultSite::WorkerCrash, key));
        crashes += first ? 1 : 0;
    }
    // rate 0.5 over 64 keys: some crash, some survive.
    EXPECT_GT(crashes, 0);
    EXPECT_LT(crashes, 64);
}

// -------------------------------------------------------- bench knobs --

TEST(BenchParamsEnv, IsolationKnobsParse)
{
    unsetenv("EVRSIM_SHARDS");
    unsetenv("EVRSIM_JOB_MEM_MB");
    unsetenv("EVRSIM_RESUME");
    BenchParams def = benchParamsFromEnv();
    EXPECT_EQ(def.shards, 0);
    EXPECT_EQ(def.job_mem_mb, 0);
    EXPECT_FALSE(def.resume);

    setenv("EVRSIM_SHARDS", "2", 1);
    setenv("EVRSIM_JOB_MEM_MB", "512", 1);
    setenv("EVRSIM_RESUME", "1", 1);
    BenchParams p = benchParamsFromEnv();
    EXPECT_EQ(p.shards, 2);
    EXPECT_EQ(p.job_mem_mb, 512);
    EXPECT_TRUE(p.resume);

    setenv("EVRSIM_SHARDS", "-1", 1);
    EXPECT_EXIT(benchParamsFromEnv(), ::testing::ExitedWithCode(1),
                "EVRSIM_SHARDS");
    unsetenv("EVRSIM_SHARDS");
    unsetenv("EVRSIM_JOB_MEM_MB");
    unsetenv("EVRSIM_RESUME");
}

TEST(BenchParamsEnv, RetiredIsolateKnobIsFatalAndNamesItsReplacement)
{
    for (const char *value : {"process", "off"}) {
        setenv("EVRSIM_ISOLATE", value, 1);
        Result<BenchParams> p = benchParamsFromEnvChecked();
        ASSERT_FALSE(p.ok());
        EXPECT_EQ(p.status().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(p.status().message().find("EVRSIM_SHARDS"),
                  std::string::npos);
        EXPECT_EXIT(benchParamsFromEnv(), ::testing::ExitedWithCode(1),
                    "EVRSIM_ISOLATE is retired.*EVRSIM_SHARDS");
    }
    unsetenv("EVRSIM_ISOLATE");
}

TEST(BenchParamsEnv, RetiredCorruptKeepKnobIsFatal)
{
    setenv("EVRSIM_CORRUPT_KEEP", "5", 1);
    Result<BenchParams> p = benchParamsFromEnvChecked();
    unsetenv("EVRSIM_CORRUPT_KEEP");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(p.status().message().find("EVRSIM_CORRUPT_KEEP is retired"),
              std::string::npos)
        << p.status().message();
}

TEST(BenchParamsEnv, EmptyDirectoryKnobsAreRejectedNamingTheKnob)
{
    // An empty EVRSIM_CACHE_DIR used to root summary.json at
    // "" + "/summary.json", the filesystem root.
    for (const char *knob : {"EVRSIM_CACHE_DIR", "EVRSIM_OBS"}) {
        setenv(knob, "", 1);
        Result<BenchParams> p = benchParamsFromEnvChecked();
        unsetenv(knob);
        ASSERT_FALSE(p.ok()) << knob;
        EXPECT_EQ(p.status().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(p.status().message().find(knob), std::string::npos)
            << p.status().message();
    }
}

TEST(BenchParamsEnv, CacheDirOffAndObsPlaceEveryTelemetryFile)
{
    unsetenv("EVRSIM_CACHE_DIR");
    unsetenv("EVRSIM_OBS");
    BenchParams def = benchParamsFromEnv();
    EXPECT_TRUE(def.use_cache);
    EXPECT_EQ(def.cache_dir, ".bench_cache");
    EXPECT_TRUE(def.obs_dir.empty()); // metrics off
    EXPECT_EQ(def.obsDir(), ".bench_cache");
    EXPECT_TRUE(def.write_summary);
    EXPECT_EQ(def.heartbeat_ms, 2000);

    setenv("EVRSIM_CACHE_DIR", "off", 1);
    BenchParams off = benchParamsFromEnv();
    EXPECT_FALSE(off.use_cache);
    EXPECT_EQ(off.obsDir(), ""); // no cache, no telemetry dir

    setenv("EVRSIM_OBS", "/tmp/obs", 1);
    BenchParams obs = benchParamsFromEnv();
    EXPECT_FALSE(obs.use_cache);
    EXPECT_EQ(obs.obs_dir, "/tmp/obs"); // metrics on
    EXPECT_EQ(obs.obsDir(), "/tmp/obs");
    EXPECT_TRUE(obs.write_summary);
    EXPECT_EQ(obs.heartbeat_ms, 2000);
    unsetenv("EVRSIM_CACHE_DIR");

    setenv("EVRSIM_OBS", "0", 1);
    BenchParams none = benchParamsFromEnv();
    EXPECT_TRUE(none.obs_dir.empty());
    EXPECT_FALSE(none.write_summary);
    EXPECT_EQ(none.heartbeat_ms, 0);
    unsetenv("EVRSIM_OBS");
}

TEST(BenchParamsEnv, SwitchesAcceptExactlyZeroOrOne)
{
    for (const char *knob : {"EVRSIM_RESUME", "EVRSIM_FULL"}) {
        // EVRSIM_RESUME=true used to not resume, EVRSIM_FULL=10 used
        // to switch paper scale on.
        for (const char *bad : {"true", "10", "yes", ""}) {
            setenv(knob, bad, 1);
            Result<BenchParams> p = benchParamsFromEnvChecked();
            ASSERT_FALSE(p.ok()) << knob << "=" << bad;
            EXPECT_NE(p.status().message().find(knob), std::string::npos)
                << p.status().message();
        }
        unsetenv(knob);
    }
    setenv("EVRSIM_RESUME", "1", 1);
    setenv("EVRSIM_FULL", "1", 1);
    BenchParams on = benchParamsFromEnv();
    EXPECT_TRUE(on.resume);
    EXPECT_EQ(on.width, 1196);
    EXPECT_EQ(on.frames, 60);
    setenv("EVRSIM_RESUME", "0", 1);
    setenv("EVRSIM_FULL", "0", 1);
    BenchParams off = benchParamsFromEnv();
    EXPECT_FALSE(off.resume);
    EXPECT_EQ(off.width, BenchParams{}.width);
    EXPECT_EQ(off.frames, BenchParams{}.frames);
    unsetenv("EVRSIM_RESUME");
    unsetenv("EVRSIM_FULL");
}

TEST(BenchParamsEnv, RetiredTelemetryAndCacheKnobsNameTheirReplacement)
{
    const std::pair<const char *, const char *> retired[] = {
        {"EVRSIM_METRICS", "EVRSIM_OBS=dir"},
        {"EVRSIM_SUMMARY", "EVRSIM_OBS=dir"},
        {"EVRSIM_HEARTBEAT_MS", "EVRSIM_OBS=dir"},
        {"EVRSIM_FLEET_EVENTS", "EVRSIM_OBS=dir"},
        {"EVRSIM_NO_CACHE", "EVRSIM_CACHE_DIR=off"},
        {"EVRSIM_VALIDATE_SAMPLE", "EVRSIM_VALIDATE=mode:rate"},
    };
    for (const auto &[knob, replacement] : retired) {
        setenv(knob, "1", 1);
        Result<BenchParams> p = benchParamsFromEnvChecked();
        unsetenv(knob);
        ASSERT_FALSE(p.ok()) << knob;
        EXPECT_EQ(p.status().code(), ErrorCode::InvalidArgument);
        const std::string &msg = p.status().message();
        EXPECT_NE(msg.find(std::string(knob) + " is retired"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(replacement), std::string::npos) << msg;
    }
}

// --------------------------------------------------------------- main --

int
main(int argc, char **argv)
{
    // Shard dispatch must run before gtest sees the argument list.
    std::string shard_params;
    int shard = shardFlagFromArgv(argc, argv, shard_params);
    if (shard >= 0)
        runShardAndExit(shard, tinyFactory(), BenchParams{}, shard_params);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
