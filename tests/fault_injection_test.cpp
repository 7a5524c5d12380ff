/**
 * @file
 * Tests for the fault-tolerance layer: Status/Result propagation, strict
 * env-knob validation, the deterministic FaultInjector, JobPool
 * exception capture, corrupt-cache quarantine + re-simulation, bounded
 * retry with backoff, the cooperative job watchdog, and — the
 * load-bearing guarantee — that every run surviving an injected-fault
 * sweep is byte-identical to a clean run.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/fault_injector.hpp"
#include "common/status.hpp"
#include "driver/experiment.hpp"
#include "common/job_pool.hpp"
#include "driver/json.hpp"
#include "scene/mesh.hpp"
#include "support.hpp"

using namespace evrsim;
using namespace evrsim::test;

// --------------------------------------------------------------- Status --

TEST(Status, DefaultIsOkAndFactoriesCarryCodes)
{
    Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_FALSE(ok.isTransient());

    Status s = Status::dataLoss("entry damaged");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::DataLoss);
    EXPECT_EQ(s.message(), "entry damaged");
    EXPECT_EQ(s.toString(), "DATA_LOSS: entry damaged");

    EXPECT_EQ(Status::invalidArgument("x").code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(Status::notFound("x").code(), ErrorCode::NotFound);
    EXPECT_EQ(Status::deadlineExceeded("x").code(),
              ErrorCode::DeadlineExceeded);
    EXPECT_EQ(Status::internal("x").code(), ErrorCode::Internal);
}

TEST(Status, OnlyUnavailableIsTransient)
{
    EXPECT_TRUE(Status::unavailable("io hiccup").isTransient());
    EXPECT_FALSE(Status::dataLoss("x").isTransient());
    EXPECT_FALSE(Status::deadlineExceeded("x").isTransient());
    EXPECT_FALSE(Status::internal("x").isTransient());
}

TEST(Status, WithContextPrefixesMessage)
{
    Status s = Status::dataLoss("not a number").withContext("schema");
    EXPECT_EQ(s.code(), ErrorCode::DataLoss);
    EXPECT_EQ(s.message(), "schema: not a number");
}

TEST(Status, ResultHoldsValueOrError)
{
    Result<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);

    Result<int> bad(Status::notFound("missing"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::NotFound);
}

// ------------------------------------------------------------ env knobs --

TEST(EnvKnobs, StrictIntParsing)
{
    EXPECT_TRUE(parseIntStrict("42").ok());
    EXPECT_EQ(parseIntStrict("42").value(), 42);
    EXPECT_TRUE(parseIntStrict("-3").ok());
    EXPECT_FALSE(parseIntStrict("").ok());
    EXPECT_FALSE(parseIntStrict("3O").ok()); // the atoi() trap: "3O" -> 3
    EXPECT_FALSE(parseIntStrict(" 42").ok());
    EXPECT_FALSE(parseIntStrict("42 ").ok());
    EXPECT_FALSE(parseIntStrict("99999999999999999999999").ok());
    EXPECT_TRUE(parseDoubleStrict("0.25").ok());
    EXPECT_FALSE(parseDoubleStrict("0.25x").ok());
}

TEST(EnvKnobs, GarbageFramesIsFatalAndNamesTheVariable)
{
    setenv("EVRSIM_FRAMES", "3O", 1);
    EXPECT_EXIT(benchParamsFromEnv(), ::testing::ExitedWithCode(1),
                "EVRSIM_FRAMES");
    unsetenv("EVRSIM_FRAMES");
}

TEST(EnvKnobs, NegativeTimeoutIsFatalAndNamesTheVariable)
{
    setenv("EVRSIM_JOB_TIMEOUT_MS", "-5", 1);
    EXPECT_EXIT(benchParamsFromEnv(), ::testing::ExitedWithCode(1),
                "EVRSIM_JOB_TIMEOUT_MS");
    unsetenv("EVRSIM_JOB_TIMEOUT_MS");
}

TEST(EnvKnobs, TimeoutKnobIsParsed)
{
    unsetenv("EVRSIM_JOB_TIMEOUT_MS");
    EXPECT_EQ(benchParamsFromEnv().job_timeout_ms, 0);
    setenv("EVRSIM_JOB_TIMEOUT_MS", "1234", 1);
    EXPECT_EQ(benchParamsFromEnv().job_timeout_ms, 1234);
    unsetenv("EVRSIM_JOB_TIMEOUT_MS");
}

TEST(EnvKnobs, CheckedVariantPropagatesInsteadOfExiting)
{
    setenv("EVRSIM_JOBS", "abc", 1);
    Result<BenchParams> p = benchParamsFromEnvChecked();
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(p.status().message().find("EVRSIM_JOBS"), std::string::npos);
    unsetenv("EVRSIM_JOBS");
}

// -------------------------------------------------------- FaultInjector --

namespace {

FaultInjector
injectorFor(const char *spec)
{
    Result<FaultPlan> plan = FaultInjector::parsePlan(spec);
    EXPECT_TRUE(plan.ok()) << spec << ": " << plan.status().toString();
    return FaultInjector(plan.ok() ? plan.value() : FaultPlan{});
}

} // namespace

TEST(FaultInjector, ParsesSpecTriples)
{
    struct Row {
        const char *spec;
        FaultSite site;
        bool enabled;
        double rate;
        std::uint64_t seed;
    };
    const Row rows[] = {
        {"cache-read:1:42,job-execute:0.25:7", FaultSite::CacheRead, true,
         1.0, 42},
        {"cache-read:1:42,job-execute:0.25:7", FaultSite::CacheWrite, false,
         0.0, 0},
        {"cache-read:1:42,job-execute:0.25:7", FaultSite::JobExecute, true,
         0.25, 7},
        {"worker-kill9:0.25:7,wire-corrupt:1:3,wire-drop:0:9",
         FaultSite::WorkerKill9, true, 0.25, 7},
        {"worker-kill9:0.25:7,wire-corrupt:1:3,wire-drop:0:9",
         FaultSite::WireCorrupt, true, 1.0, 3},
        {"worker-kill9:0.25:7,wire-corrupt:1:3,wire-drop:0:9",
         FaultSite::WorkerStall, false, 0.0, 0},
        {"worker-kill9:0.25:7,wire-corrupt:1:3,wire-drop:0:9",
         FaultSite::WireDup, false, 0.0, 0},
    };
    for (const Row &row : rows) {
        Result<FaultPlan> plan = FaultInjector::parsePlan(row.spec);
        ASSERT_TRUE(plan.ok()) << row.spec;
        const FaultSpec &got = plan.value()[static_cast<int>(row.site)];
        SCOPED_TRACE(std::string(row.spec) + " @ " +
                     faultSiteName(row.site));
        EXPECT_EQ(got.enabled, row.enabled);
        EXPECT_DOUBLE_EQ(got.rate, row.rate);
        EXPECT_EQ(got.seed, row.seed);
    }
}

TEST(FaultInjector, RejectsMalformedSpecsNamingTheProblem)
{
    const std::pair<const char *, const char *> rows[] = {
        {"bogus-site:1:1", "unknown fault site"},
        {"worker-kill:0.5:1", "unknown fault site"},
        // The network sites left with the TCP shard transport.
        {"net-partition:1:1", "unknown fault site"},
        {"net-reconnect-storm:1:1", "unknown fault site"},
        {"cache-read:1", "<site>:<rate>:<seed>"},
        {"worker-kill9:0.5", "<site>:<rate>:<seed>"},
        {"cache-read:2:1", "[0, 1]"},
        {"cache-read:x:1", "[0, 1]"},
        {"wire-drop:1.5:1", "[0, 1]"},
        {"cache-read:1:-1", "non-negative"},
        {"wire-drop:0.5:-2", "non-negative"},
    };
    for (const auto &[spec, fragment] : rows) {
        Result<FaultPlan> bad = FaultInjector::parsePlan(spec);
        ASSERT_FALSE(bad.ok()) << spec;
        EXPECT_NE(bad.status().message().find(fragment), std::string::npos)
            << spec << ": " << bad.status().message();
    }
    // The unknown-site message is driven by the same name table as the
    // parser, so it lists every site.
    std::string message =
        FaultInjector::parsePlan("bogus-site:1:1").status().message();
    for (int i = 0; i < kNumFaultSites; ++i)
        EXPECT_NE(message.find(faultSiteName(static_cast<FaultSite>(i))),
                  std::string::npos)
            << message;
}

TEST(FaultInjector, DrawsAreDeterministicInSeedAndCounter)
{
    const std::pair<const char *, FaultSite> rows[] = {
        {"job-execute:0.5:9", FaultSite::JobExecute},
        {"worker-kill9:0.3:42", FaultSite::WorkerKill9},
    };
    for (const auto &[spec, site] : rows) {
        FaultInjector a = injectorFor(spec);
        FaultInjector b = injectorFor(spec);
        for (int i = 0; i < 200; ++i)
            EXPECT_EQ(a.shouldFail(site), b.shouldFail(site))
                << spec << ": draw " << i
                << " diverged for identical plans";
        EXPECT_EQ(a.draws(site), 200u) << spec;
        EXPECT_EQ(a.injected(site), b.injected(site)) << spec;
        // A mid rate over 200 draws fires sometimes, not always.
        EXPECT_GT(a.injected(site), 0u) << spec;
        EXPECT_LT(a.injected(site), 200u) << spec;
    }
}

TEST(FaultInjector, RateZeroNeverFiresRateOneAlwaysFires)
{
    const std::pair<FaultSite, FaultSite> rows[] = {
        {FaultSite::CacheRead, FaultSite::CacheWrite},
        {FaultSite::WireDup, FaultSite::WireDrop},
    };
    for (const auto &[never, always] : rows) {
        FaultPlan plan;
        plan[static_cast<int>(never)] = {true, 0.0, 1};
        plan[static_cast<int>(always)] = {true, 1.0, 1};
        FaultInjector inj(plan);
        for (int i = 0; i < 100; ++i) {
            EXPECT_FALSE(inj.shouldFail(never));
            EXPECT_TRUE(inj.shouldFail(always));
            EXPECT_FALSE(inj.shouldFail(FaultSite::JobExecute)); // disabled
        }
        EXPECT_EQ(inj.injected(never), 0u);
        EXPECT_EQ(inj.injected(always), 100u);
        // A disabled site is a single branch: no draw is even recorded.
        EXPECT_EQ(inj.draws(FaultSite::JobExecute), 0u);
        EXPECT_EQ(inj.injected(FaultSite::JobExecute), 0u);
    }
}

/*
 * Decision sequences pinned from the two injectors this one replaced:
 * every site at rate 0.3 with seed 1000 + site index. The counter draw
 * n and the keyed draw at key n share one formula, so both sequences
 * must equal the pinned string ('1' = inject).
 */
TEST(FaultInjector, DecisionSequencesArePinned)
{
    const std::pair<const char *, const char *> rows[kNumFaultSites] = {
        {"cache-read:0.3:1000",
         "1010100010001101100010001010101011000000010000010000000010100011"},
        {"cache-write:0.3:1001",
         "0000000100010111110000101000000000001000010000000010010000110001"},
        {"job-execute:0.3:1002",
         "1100000111000000010000101000101000000010000010100000000001100111"},
        {"scene-mutate:0.3:1003",
         "0010000000010010000000000000000000110001000000000011000110000000"},
        {"worker-crash:0.3:1004",
         "1010000110110000000001100000110011010000000000000000101000011110"},
        {"worker-hang:0.3:1005",
         "1000100001110000100010000000110010100000100000000000000100001110"},
        {"worker-kill9:0.3:1006",
         "1000000001100001000110011000010010001100000010110011101110000000"},
        {"worker-stall:0.3:1007",
         "0100000110010001001000011011000000010001000101000100010000000000"},
        {"wire-corrupt:0.3:1008",
         "0011010100000100000001001100001111000000100000000101011100000011"},
        {"wire-drop:0.3:1009",
         "1101000000000000000101001100100000100000110000000010101000100001"},
        {"wire-dup:0.3:1010",
         "0010100010000000000100100110011000000000001011000001100001000000"},
    };
    for (int i = 0; i < kNumFaultSites; ++i) {
        const FaultSite site = static_cast<FaultSite>(i);
        const auto &[spec, pinned] = rows[i];
        ASSERT_EQ(std::string(spec).rfind(faultSiteName(site), 0), 0u)
            << spec;
        FaultInjector counter = injectorFor(spec);
        FaultInjector keyed = injectorFor(spec);
        std::string by_counter, by_key;
        for (std::uint64_t n = 0; n < 64; ++n) {
            by_counter += counter.shouldFail(site) ? '1' : '0';
            by_key += keyed.shouldFailAt(site, n) ? '1' : '0';
        }
        EXPECT_EQ(by_counter, pinned) << spec;
        EXPECT_EQ(by_key, pinned) << spec;
    }
}

TEST(FaultInjector, WireCorruptFlipIndicesArePinned)
{
    FaultInjector faults = injectorFor("wire-corrupt:1:77");
    const std::string line =
        "{\"schema\":1,\"payload_crc32\":123,\"payload\":{}}\n";
    const std::size_t pinned[16] = {14, 43, 37, 20, 21, 24, 6,  0,
                                    11, 11, 16, 17, 44, 34, 4,  5};
    for (std::size_t expect : pinned) {
        std::string out = applyWireChaos(faults, line);
        ASSERT_EQ(out.size(), line.size());
        std::vector<std::size_t> flipped;
        for (std::size_t j = 0; j < line.size(); ++j)
            if (out[j] != line[j])
                flipped.push_back(j);
        EXPECT_EQ(flipped, std::vector<std::size_t>{expect});
    }
}

TEST(FaultInjector, EnvUnsetDisablesEverySite)
{
    unsetenv("EVRSIM_FAULT");
    FaultInjector inj(FaultInjector::planFromEnv());
    EXPECT_FALSE(inj.enabled());
    for (int i = 0; i < kNumFaultSites; ++i) {
        const FaultSite site = static_cast<FaultSite>(i);
        EXPECT_FALSE(inj.shouldFail(site)) << faultSiteName(site);
        EXPECT_EQ(inj.draws(site), 0u) << faultSiteName(site);
    }
}

TEST(FaultInjector, MalformedEnvIsFatal)
{
    setenv("EVRSIM_FAULT", "cache-read", 1);
    EXPECT_EXIT(FaultInjector::planFromEnv(),
                ::testing::ExitedWithCode(1), "EVRSIM_FAULT");
    unsetenv("EVRSIM_FAULT");
}

TEST(FaultInjector, RetiredChaosKnobIsFatalAndNamesItsReplacement)
{
    // A stale script arming the retired knob must not run a soak that
    // is silently fault-free.
    setenv("EVRSIM_CHAOS", "worker-kill9:0.05:11", 1);
    EXPECT_EXIT(FaultInjector::planFromEnv(),
                ::testing::ExitedWithCode(1),
                "EVRSIM_CHAOS is retired.*EVRSIM_FAULT");
    unsetenv("EVRSIM_CHAOS");
}

// -------------------------------------------- JobPool fault isolation --

TEST(JobPool, ThrowingJobCostsOnlyItself)
{
    JobPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&, i] {
            if (i == 3)
                throw std::runtime_error("boom 3");
            if (i == 7)
                throw 42; // non-std exception
            ran.fetch_add(1);
        });
    pool.wait();
    EXPECT_EQ(ran.load(), 8);
    EXPECT_EQ(pool.failureCount(), 2u);

    std::vector<std::string> failures = pool.drainFailures();
    ASSERT_EQ(failures.size(), 2u);
    bool saw_boom = false, saw_nonstd = false;
    for (const std::string &f : failures) {
        saw_boom |= f == "boom 3";
        saw_nonstd |= f == "non-std exception escaped a job";
    }
    EXPECT_TRUE(saw_boom);
    EXPECT_TRUE(saw_nonstd);
    EXPECT_TRUE(pool.drainFailures().empty()); // drain resets

    // The pool is still usable after failures.
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 9);
}

TEST(JobPool, InlinePoolCapturesThrowsToo)
{
    JobPool pool(1);
    pool.submit([] { throw std::runtime_error("inline boom"); });
    pool.wait();
    std::vector<std::string> failures = pool.drainFailures();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0], "inline boom");
}

// ---------------------------------------------------- Json try-accessors --

TEST(JsonTry, AccessorsPropagateInsteadOfPanicking)
{
    Result<Json> doc =
        Json::tryParse("{\"n\": 3, \"s\": \"hi\", \"b\": true}");
    ASSERT_TRUE(doc.ok());
    const Json &j = doc.value();

    ASSERT_NE(j.find("n"), nullptr);
    EXPECT_EQ(j.find("n")->tryAsU64().value(), 3u);
    EXPECT_EQ(j.find("s")->tryAsString().value(), "hi");
    EXPECT_TRUE(j.find("b")->tryAsBool().value());

    Result<std::uint64_t> wrong = j.find("s")->tryAsU64();
    ASSERT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.status().code(), ErrorCode::DataLoss);
    EXPECT_EQ(j.find("missing"), nullptr);

    Result<Json> bad = Json::tryParse("{\"n\": ");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::DataLoss);
}

TEST(JsonTry, RunResultTryFromJsonRejectsDamagedShapes)
{
    EXPECT_FALSE(RunResult::tryFromJson(Json::parseOrDie("{}")).ok());
    EXPECT_FALSE(RunResult::tryFromJson(Json(3)).ok());
}

// ------------------------------------------------------- test workloads --

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
        float offset = alias_ == "fz-a" ? 2.0f : 10.0f;
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

/** TinyWorkload whose setup() throws TransientError while budget > 0. */
class FlakyWorkload : public TinyWorkload
{
  public:
    FlakyWorkload(std::string alias, int w, int h,
                  std::atomic<int> *failures_left)
        : TinyWorkload(std::move(alias), w, h),
          failures_left_(failures_left)
    {
    }

    void
    setup(GpuSimulator &sim) override
    {
        if (failures_left_->fetch_sub(1) > 0)
            throw TransientError("simulated I/O hiccup");
        TinyWorkload::setup(sim);
    }

  private:
    std::atomic<int> *failures_left_;
};

/** TinyWorkload whose frames take >= @p ms wall-clock each. */
class SlowWorkload : public TinyWorkload
{
  public:
    SlowWorkload(std::string alias, int w, int h, int ms)
        : TinyWorkload(std::move(alias), w, h), ms_(ms)
    {
    }

    Scene
    frame(int index) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
        return TinyWorkload::frame(index);
    }

  private:
    int ms_;
};

WorkloadFactory
tinyFactory()
{
    return [](const std::string &alias, int w,
              int h) -> std::unique_ptr<Workload> {
        if (alias != "fz-a" && alias != "fz-b")
            return nullptr;
        return std::make_unique<TinyWorkload>(alias, w, h);
    };
}

BenchParams
tinyParams(int jobs, const std::string &cache_dir = "")
{
    BenchParams p;
    p.width = 64;
    p.height = 48;
    p.frames = 3;
    p.warmup = 1;
    p.use_cache = !cache_dir.empty();
    p.cache_dir = cache_dir;
    p.jobs = jobs;
    return p;
}

std::vector<RunRequest>
tinyBatch(const GpuConfig &gpu)
{
    std::vector<RunRequest> reqs;
    for (const char *alias : {"fz-a", "fz-b"}) {
        reqs.push_back({alias, SimConfig::baseline(gpu)});
        reqs.push_back({alias, SimConfig::renderingElimination(gpu)});
        reqs.push_back({alias, SimConfig::evr(gpu)});
    }
    return reqs;
}

/** Canonical byte-level form of each result (host timing excluded). */
std::vector<std::string>
dumps(const std::vector<RunResult> &results)
{
    std::vector<std::string> out;
    for (const RunResult &r : results)
        out.push_back(r.toJson(false).dump(2));
    return out;
}

FaultPlan
planFor(FaultSite site, double rate, std::uint64_t seed)
{
    FaultPlan plan;
    plan[static_cast<int>(site)] = {true, rate, seed};
    return plan;
}

/** Fresh temp cache dir for one test. */
std::filesystem::path
freshCacheDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::vector<std::filesystem::path>
cacheEntries(const std::filesystem::path &dir, const std::string &ext)
{
    std::vector<std::filesystem::path> out;
    if (!std::filesystem::exists(dir))
        return out;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ext)
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
spit(const std::filesystem::path &p, const std::string &text)
{
    std::ofstream out(p, std::ios::trunc);
    out << text;
}

} // namespace

// ------------------------------------- corrupt-cache fuzz + quarantine --

TEST(CorruptCache, DamagedEntriesAreQuarantinedAndResimulated)
{
    std::filesystem::path dir = freshCacheDir("evrsim_fault_cache_fuzz");
    std::vector<RunRequest> reqs = tinyBatch(tinyParams(1).gpuConfig());

    // Reference sweep: warm the cache and record the canonical bytes.
    std::vector<std::string> want;
    {
        ExperimentRunner warm(tinyFactory(), tinyParams(1, dir.string()),
                              FaultPlan{});
        want = dumps(warm.runAll(reqs));
    }
    std::vector<std::filesystem::path> entries = cacheEntries(dir, ".json");
    ASSERT_EQ(entries.size(), reqs.size());

    // Fuzz modes, one per entry: truncation, value-level bit damage,
    // stale schema version, and a tampered checksum field.
    auto truncate = [](const std::filesystem::path &p) {
        std::string text = slurp(p);
        spit(p, text.substr(0, text.size() / 2));
    };
    auto bitflip = [](const std::filesystem::path &p) {
        std::string text = slurp(p);
        std::size_t i = text.find_last_of("0123456789");
        ASSERT_NE(i, std::string::npos);
        text[i] ^= 1; // 0x30..0x39 stays a digit under low-bit flips
        spit(p, text);
    };
    auto schema_bump = [](const std::filesystem::path &p) {
        Json doc = Json::parseOrDie(slurp(p));
        doc.set("schema", kResultCacheVersion + 1);
        spit(p, doc.dump(1));
    };
    auto crc_tamper = [](const std::filesystem::path &p) {
        Json doc = Json::parseOrDie(slurp(p));
        doc.set("payload_crc32",
                doc.find("payload_crc32")->asU64() ^ 0xdeadbeefu);
        spit(p, doc.dump(1));
    };
    std::vector<std::function<void(const std::filesystem::path &)>> modes =
        {truncate, bitflip, schema_bump, crc_tamper};

    for (std::size_t m = 0; m < modes.size(); ++m) {
        SCOPED_TRACE("fuzz mode " + std::to_string(m));
        modes[m](entries[m]);

        ExperimentRunner runner(tinyFactory(),
                                tinyParams(1, dir.string()), FaultPlan{});
        std::vector<std::string> got = dumps(runner.runAll(reqs));
        EXPECT_EQ(got, want)
            << "re-simulated results diverged from the clean sweep";

        SweepStats stats = runner.sweepStats();
        EXPECT_EQ(stats.quarantined, 1u);
        EXPECT_EQ(stats.simulated, 1u); // only the damaged entry
        EXPECT_EQ(stats.disk_hits, reqs.size() - 1);

        // The damaged bytes were set aside, and the slot re-published.
        std::vector<std::filesystem::path> corrupt =
            cacheEntries(dir, ".corrupt");
        ASSERT_EQ(corrupt.size(), 1u);
        EXPECT_EQ(cacheEntries(dir, ".json").size(), reqs.size());
        std::filesystem::remove(corrupt[0]);
    }
    std::filesystem::remove_all(dir);
}

TEST(CorruptCache, CacheReadInjectionQuarantinesEverythingAndRecovers)
{
    std::filesystem::path dir = freshCacheDir("evrsim_fault_cache_read");
    std::vector<RunRequest> reqs = tinyBatch(tinyParams(1).gpuConfig());

    std::vector<std::string> want;
    {
        ExperimentRunner warm(tinyFactory(), tinyParams(1, dir.string()),
                              FaultPlan{});
        want = dumps(warm.runAll(reqs));
    }

    ExperimentRunner faulty(tinyFactory(), tinyParams(1, dir.string()),
                            planFor(FaultSite::CacheRead, 1.0, 42));
    EXPECT_EQ(dumps(faulty.runAll(reqs)), want);
    SweepStats stats = faulty.sweepStats();
    EXPECT_EQ(stats.quarantined, reqs.size());
    EXPECT_EQ(stats.simulated, reqs.size());
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_EQ(faulty.faultInjector().injected(FaultSite::CacheRead),
              reqs.size());

    // Recovery re-published every entry: a clean runner is warm again.
    ExperimentRunner again(tinyFactory(), tinyParams(1, dir.string()),
                           FaultPlan{});
    EXPECT_EQ(dumps(again.runAll(reqs)), want);
    EXPECT_EQ(again.sweepStats().disk_hits, reqs.size());
    std::filesystem::remove_all(dir);
}

TEST(CorruptCache, CacheWriteInjectionPublishesNothingButStillAnswers)
{
    std::filesystem::path dir = freshCacheDir("evrsim_fault_cache_write");
    std::vector<RunRequest> reqs = tinyBatch(tinyParams(1).gpuConfig());

    std::vector<std::string> want;
    {
        ExperimentRunner clean(tinyFactory(), tinyParams(1), FaultPlan{});
        want = dumps(clean.runAll(reqs));
    }

    ExperimentRunner faulty(tinyFactory(), tinyParams(1, dir.string()),
                            planFor(FaultSite::CacheWrite, 1.0, 42));
    EXPECT_EQ(dumps(faulty.runAll(reqs)), want);
    EXPECT_TRUE(cacheEntries(dir, ".json").empty());
    EXPECT_TRUE(cacheEntries(dir, ".tmp").empty());
    std::filesystem::remove_all(dir);
}

// ----------------------------------------- retry, watchdog, reporting --

TEST(FaultRecovery, PermanentFailureIsBoundedAndReported)
{
    std::vector<RunRequest> reqs = tinyBatch(tinyParams(1).gpuConfig());
    ExperimentRunner runner(tinyFactory(), tinyParams(1),
                            planFor(FaultSite::JobExecute, 1.0, 7));

    BatchOutcome outcome = runner.runAllChecked(reqs);
    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.failures.size(), reqs.size());
    ASSERT_EQ(outcome.results.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const RunFailure &f = outcome.failures[i];
        EXPECT_EQ(f.index, i); // sorted, and here every run failed
        EXPECT_EQ(f.alias, reqs[i].alias);
        EXPECT_EQ(f.config, reqs[i].config.name);
        EXPECT_EQ(f.attempts, kJobMaxAttempts); // bounded, not infinite
        EXPECT_EQ(f.status.code(), ErrorCode::Unavailable);
        EXPECT_EQ(outcome.results[i].frames, 0); // default slot
    }

    SweepStats stats = runner.sweepStats();
    EXPECT_EQ(stats.failed, reqs.size());
    EXPECT_EQ(stats.retries,
              reqs.size() * static_cast<std::size_t>(kJobMaxAttempts - 1));
    EXPECT_EQ(stats.simulated, 0u);
    EXPECT_EQ(runner.faultInjector().draws(FaultSite::JobExecute),
              reqs.size() * static_cast<std::size_t>(kJobMaxAttempts));
}

TEST(FaultRecovery, RunExitsOnPermanentFailure)
{
    ExperimentRunner runner(tinyFactory(), tinyParams(1),
                            planFor(FaultSite::JobExecute, 1.0, 7));
    SimConfig cfg = SimConfig::baseline(tinyParams(1).gpuConfig());

    Result<RunResult> r = runner.tryRun("fz-a", cfg);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::Unavailable);

    ExperimentRunner fatal_runner(tinyFactory(), tinyParams(1),
                                  planFor(FaultSite::JobExecute, 1.0, 7));
    EXPECT_EXIT(fatal_runner.run("fz-a", cfg),
                ::testing::ExitedWithCode(1), "failed after");
}

TEST(FaultRecovery, TransientWorkloadFaultRetriesThenSucceeds)
{
    std::atomic<int> failures_left{1};
    WorkloadFactory factory =
        [&failures_left](const std::string &alias, int w,
                         int h) -> std::unique_ptr<Workload> {
        if (alias != "fz-a")
            return nullptr;
        return std::make_unique<FlakyWorkload>(alias, w, h,
                                               &failures_left);
    };
    ExperimentRunner runner(factory, tinyParams(1), FaultPlan{});
    SimConfig cfg = SimConfig::baseline(tinyParams(1).gpuConfig());

    Result<RunResult> r = runner.tryRun("fz-a", cfg);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_GT(r.value().image_crc, 0u);

    SweepStats stats = runner.sweepStats();
    EXPECT_EQ(stats.retries, 1u); // attempt 1 threw, attempt 2 landed
    EXPECT_EQ(stats.simulated, 1u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(FaultRecovery, WatchdogCutsOffSlowJobsWithoutRetry)
{
    WorkloadFactory factory = [](const std::string &alias, int w,
                                 int h) -> std::unique_ptr<Workload> {
        if (alias != "fz-a")
            return nullptr;
        return std::make_unique<SlowWorkload>(alias, w, h, 25);
    };
    BenchParams params = tinyParams(1);
    params.job_timeout_ms = 1;
    ExperimentRunner runner(factory, params, FaultPlan{});

    Result<RunResult> r =
        runner.tryRun("fz-a", SimConfig::baseline(params.gpuConfig()));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::DeadlineExceeded);
    EXPECT_NE(r.status().message().find("EVRSIM_JOB_TIMEOUT_MS"),
              std::string::npos);

    SweepStats stats = runner.sweepStats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.retries, 0u); // deadline overruns are not transient
}

TEST(FaultRecovery, UnknownAliasIsNotFoundNotRetried)
{
    ExperimentRunner runner(tinyFactory(), tinyParams(1), FaultPlan{});
    Result<RunResult> r = runner.tryRun(
        "no-such-alias", SimConfig::baseline(tinyParams(1).gpuConfig()));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::NotFound);
    EXPECT_EQ(runner.sweepStats().retries, 0u);
}

TEST(FaultRecovery, FailuresAreMemoizedNotRetriedPerRequester)
{
    std::atomic<int> builds{0};
    WorkloadFactory factory =
        [&builds](const std::string &alias, int w,
                  int h) -> std::unique_ptr<Workload> {
        builds.fetch_add(1);
        (void)alias;
        (void)w;
        (void)h;
        return nullptr; // every build "fails": NotFound, permanent
    };
    ExperimentRunner runner(factory, tinyParams(1), FaultPlan{});
    SimConfig cfg = SimConfig::baseline(tinyParams(1).gpuConfig());

    EXPECT_FALSE(runner.tryRun("fz-a", cfg).ok());
    EXPECT_FALSE(runner.tryRun("fz-a", cfg).ok());
    EXPECT_EQ(builds.load(), 1); // second request hit the failure memo
    SweepStats stats = runner.sweepStats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.memo_hits, 1u);
}

// ----------------------------- partial results match a clean serial run --

TEST(FaultRecovery, SurvivorsOfAFaultySweepMatchTheCleanRun)
{
    std::vector<RunRequest> reqs = tinyBatch(tinyParams(1).gpuConfig());

    ExperimentRunner clean(tinyFactory(), tinyParams(1), FaultPlan{});
    std::vector<std::string> want = dumps(clean.runAll(reqs));

    // Moderate injected fault pressure, serial for a deterministic draw
    // order; some runs may exhaust their retries, the rest must be
    // byte-identical to the clean sweep.
    ExperimentRunner faulty(tinyFactory(), tinyParams(1),
                            planFor(FaultSite::JobExecute, 0.6, 11));
    BatchOutcome outcome = faulty.runAllChecked(reqs);
    ASSERT_EQ(outcome.results.size(), reqs.size());

    auto failed = [&](std::size_t i) {
        for (const RunFailure &f : outcome.failures)
            if (f.index == i)
                return true;
        return false;
    };
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (failed(i))
            continue;
        ++survivors;
        EXPECT_EQ(outcome.results[i].toJson(false).dump(2), want[i])
            << "survivor " << i << " diverged from the clean run";
    }
    EXPECT_EQ(survivors + outcome.failures.size(), reqs.size());
    EXPECT_EQ(faulty.sweepStats().failed, outcome.failures.size());

    // Deterministic injection: the same plan fails the same runs.
    ExperimentRunner replay(tinyFactory(), tinyParams(1),
                            planFor(FaultSite::JobExecute, 0.6, 11));
    BatchOutcome outcome2 = replay.runAllChecked(reqs);
    ASSERT_EQ(outcome2.failures.size(), outcome.failures.size());
    for (std::size_t i = 0; i < outcome.failures.size(); ++i)
        EXPECT_EQ(outcome2.failures[i].index, outcome.failures[i].index);
}
