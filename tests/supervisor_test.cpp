/**
 * @file
 * Tests for the hard failure domain added around simulation jobs:
 * durable atomic file writes, the shared CRC32 envelope, the process
 * supervisor (crash / hang / OOM / exec-failure classification, status
 * transport), the runner's crash-quarantine policy, the corrupt-file
 * cap, and the write-ahead sweep journal with EVRSIM_RESUME replay.
 *
 * The test binary doubles as its own worker: `--supervisor-test-worker
 * <mode>` (dispatched before gtest initializes) makes the re-execed
 * copy crash, hang, exhaust its RLIMIT_AS budget, report a scripted
 * status, or actually simulate the tiny workload and frame the result
 * back — exactly the shape the bench binaries use in production.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/fault_injector.hpp"
#include "driver/envelope.hpp"
#include "driver/experiment.hpp"
#include "driver/supervisor.hpp"
#include "driver/sweep_journal.hpp"
#include "scene/mesh.hpp"
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

WorkloadFactory
tinyFactory(std::atomic<int> *builds = nullptr)
{
    return [builds](const std::string &alias, int w,
                    int h) -> std::unique_ptr<Workload> {
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

/** argv for re-execing this binary as a scripted worker. */
std::vector<std::string>
workerArgv(const std::string &mode)
{
    return {selfExecutablePath(), "--supervisor-test-worker", mode};
}

} // namespace

// ----------------------------------------------------- worker side -----

namespace {

[[noreturn]] int
runScriptedWorker(const std::string &mode)
{
    if (mode == "crash")
        std::raise(SIGSEGV);
    if (mode == "hang")
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(3600));
    if (mode == "oom") {
        // Allocate until the RLIMIT_AS budget bites: bad_alloc escapes
        // uncaught, terminate() raises SIGABRT, and the parent must
        // classify the death — no cooperation from the worker.
        std::vector<std::unique_ptr<std::vector<char>>> hog;
        for (;;)
            hog.push_back(
                std::make_unique<std::vector<char>>(8u << 20, 1));
    }
    if (mode == "status") {
        writeWorkerResponse(
            kWorkerResponseFd,
            Result<RunResult>(Status::invariantViolation(
                "seeded strict-validation failure")));
        std::exit(0);
    }
    if (mode == "run") {
        BenchParams p = tinyParams();
        ExperimentRunner runner(tinyFactory(), p);
        Result<RunResult> attempt =
            runner.trySimulate("tiny-a", SimConfig::baseline(p.gpuConfig()));
        std::exit(writeWorkerResponse(kWorkerResponseFd, attempt) ? 0 : 1);
    }
    std::fprintf(stderr, "unknown worker mode '%s'\n", mode.c_str());
    std::exit(2);
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

// -------------------------------------------------------- supervisor ---

TEST(Supervisor, DefaultGraceClamps)
{
    EXPECT_EQ(defaultGraceMs(0), 0);
    EXPECT_EQ(defaultGraceMs(100), 500);   // floor
    EXPECT_EQ(defaultGraceMs(2000), 1000); // timeout/2
    EXPECT_EQ(defaultGraceMs(60000), 5000); // ceiling
}

TEST(Supervisor, CleanWorkerResultMatchesInProcessByteForByte)
{
    WorkerOutcome o = superviseWorker(workerArgv("run"), WorkerLimits{});
    ASSERT_TRUE(o.status.ok()) << o.status.toString();
    EXPECT_FALSE(o.worker_died);

    BenchParams p = tinyParams();
    ExperimentRunner runner(tinyFactory(), p);
    Result<RunResult> local =
        runner.trySimulate("tiny-a", SimConfig::baseline(p.gpuConfig()));
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(o.result.toJson(false).dump(2),
              local.value().toJson(false).dump(2));
}

TEST(Supervisor, WorkerStatusCodeSurvivesThePipe)
{
    WorkerOutcome o = superviseWorker(workerArgv("status"), WorkerLimits{});
    EXPECT_FALSE(o.worker_died); // clean exit: the job failed, not the worker
    EXPECT_EQ(o.status.code(), ErrorCode::InvariantViolation);
    EXPECT_NE(o.status.message().find("seeded strict-validation"),
              std::string::npos);
}

TEST(Supervisor, CrashIsAHardTransientDeath)
{
    WorkerOutcome o = superviseWorker(workerArgv("crash"), WorkerLimits{});
    EXPECT_TRUE(o.worker_died);
    EXPECT_EQ(o.status.code(), ErrorCode::Unavailable);
    EXPECT_NE(o.status.message().find("signal"), std::string::npos);
}

TEST(Supervisor, HangIsKilledAtTheHardDeadline)
{
    WorkerLimits limits;
    limits.timeout_ms = 200;
    limits.grace_ms = 100;
    auto start = std::chrono::steady_clock::now();
    WorkerOutcome o = superviseWorker(workerArgv("hang"), limits);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    EXPECT_TRUE(o.worker_died);
    EXPECT_EQ(o.status.code(), ErrorCode::Unavailable);
    EXPECT_NE(o.status.message().find("hard deadline"), std::string::npos);
    // SIGKILL + reap must land promptly after timeout+grace, not after
    // the hour the worker intended to sleep.
    EXPECT_LT(elapsed, 10000);
}

TEST(Supervisor, OomBudgetKillsTheWorker)
{
#ifdef EVRSIM_SANITIZED
    GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer runtimes";
#else
    WorkerLimits limits;
    limits.mem_mb = 128;
    limits.timeout_ms = 30000;
    limits.grace_ms = 1000;
    WorkerOutcome o = superviseWorker(workerArgv("oom"), limits);
    EXPECT_TRUE(o.worker_died);
    EXPECT_EQ(o.status.code(), ErrorCode::Unavailable);
#endif
}

TEST(Supervisor, ExecFailureIsADeath)
{
    WorkerOutcome o = superviseWorker(
        {"/nonexistent-evrsim-worker-binary", "--x"}, WorkerLimits{});
    EXPECT_TRUE(o.worker_died);
    EXPECT_NE(o.status.message().find("exec"), std::string::npos);
}

// ------------------------------------------- runner crash quarantine ---

TEST(RunnerIsolation, CrashQuarantineAfterMaxAttempts)
{
    BenchParams p = tinyParams();
    p.isolate = IsolateMode::Process;
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
    p.isolate = IsolateMode::Process;
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

TEST(RunnerIsolation, SurvivorsOfACrashySweepMatchAFaultFreeRun)
{
    BenchParams p = tinyParams();
    std::vector<RunRequest> reqs = tinyBatch(p.gpuConfig());

    ExperimentRunner clean(tinyFactory(), p);
    BatchOutcome want = clean.runAllChecked(reqs);
    ASSERT_TRUE(want.ok());

    BenchParams pi = p;
    pi.isolate = IsolateMode::Process;
    ExperimentRunner faulty(tinyFactory(), pi);
    // Jobs of tiny-b die on every attempt; every other job runs a real
    // (in-process) simulation — the deterministic-per-job shape the
    // keyed worker-crash fault site produces in production.
    faulty.setWorkerLauncher([&faulty](const std::string &alias,
                                       const SimConfig &config,
                                       const std::string &) {
        if (alias == "tiny-b")
            return WorkerAttempt{
                Status::unavailable("scripted worker death"), RunResult{},
                true};
        Result<RunResult> r = faulty.trySimulate(alias, config);
        if (!r.ok())
            return WorkerAttempt{r.status(), RunResult{}, false};
        return WorkerAttempt{Status(), r.value(), false};
    });

    BatchOutcome got = faulty.runAllChecked(reqs);
    ASSERT_EQ(got.failures.size(), 3u); // the three tiny-b configs
    for (const RunFailure &f : got.failures) {
        EXPECT_EQ(f.alias, "tiny-b");
        EXPECT_TRUE(f.quarantined);
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (reqs[i].alias != "tiny-a")
            continue;
        EXPECT_EQ(got.results[i].toJson(false).dump(2),
                  want.results[i].toJson(false).dump(2))
            << "survivor " << i << " diverged under isolation";
    }
    EXPECT_EQ(faulty.sweepStats().crash_quarantined, 3u);
}

// ------------------------------------------------- corrupt-file cap ----

TEST(CorruptCap, KeepsNewestCopiesAndCountsEvictions)
{
    std::filesystem::path dir = freshDir("evrsim_corrupt_cap");
    BenchParams p = tinyParams(dir.string());
    p.corrupt_keep = 1;
    SimConfig cfg = SimConfig::baseline(p.gpuConfig());

    std::string key;
    std::uint64_t last_evicted = 0;
    for (int round = 0; round < 3; ++round) {
        ExperimentRunner runner(tinyFactory(), p);
        key = runner.jobKey("tiny-a", cfg);
        // Damage the published entry, then re-run: the load detects
        // DataLoss, quarantines, and re-simulates.
        std::ofstream((dir / key).string()) << "{damaged";
        ASSERT_TRUE(runner.tryRun("tiny-a", cfg).ok());
        EXPECT_EQ(runner.sweepStats().quarantined, 1u);
        last_evicted = runner.sweepStats().corrupt_evicted;
    }

    // Three quarantines, cap 1: only the newest sequence number lives.
    std::vector<std::string> corrupt;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".corrupt")
            corrupt.push_back(e.path().filename().string());
    ASSERT_EQ(corrupt.size(), 1u);
    EXPECT_EQ(corrupt[0], key + ".2.corrupt");
    EXPECT_EQ(last_evicted, 1u); // each later round evicts its predecessor
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
    unsetenv("EVRSIM_ISOLATE");
    unsetenv("EVRSIM_JOB_MEM_MB");
    unsetenv("EVRSIM_RESUME");
    unsetenv("EVRSIM_CORRUPT_KEEP");
    BenchParams def = benchParamsFromEnv();
    EXPECT_EQ(def.isolate, IsolateMode::Off);
    EXPECT_EQ(def.job_mem_mb, 0);
    EXPECT_FALSE(def.resume);
    EXPECT_EQ(def.corrupt_keep, 3);

    setenv("EVRSIM_ISOLATE", "process", 1);
    setenv("EVRSIM_JOB_MEM_MB", "512", 1);
    setenv("EVRSIM_RESUME", "1", 1);
    setenv("EVRSIM_CORRUPT_KEEP", "5", 1);
    BenchParams p = benchParamsFromEnv();
    EXPECT_EQ(p.isolate, IsolateMode::Process);
    EXPECT_EQ(p.job_mem_mb, 512);
    EXPECT_TRUE(p.resume);
    EXPECT_EQ(p.corrupt_keep, 5);

    setenv("EVRSIM_ISOLATE", "sandbox", 1);
    EXPECT_EXIT(benchParamsFromEnv(), ::testing::ExitedWithCode(1),
                "EVRSIM_ISOLATE");
    unsetenv("EVRSIM_ISOLATE");
    unsetenv("EVRSIM_JOB_MEM_MB");
    unsetenv("EVRSIM_RESUME");
    unsetenv("EVRSIM_CORRUPT_KEEP");
}

// --------------------------------------------------------------- main --

int
main(int argc, char **argv)
{
    // Worker dispatch must run before gtest sees the argument list.
    if (argc >= 2 &&
        std::string(argv[1]) == "--supervisor-test-worker")
        return runScriptedWorker(argc >= 3 ? argv[2] : "");
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
