/**
 * @file
 * Tracer tests: EVRSIM_TRACE parsing, span balance and crash-context
 * bookkeeping, sampling, Chrome trace-event output validity (round-trip
 * through the driver JSON parser), result byte-identity with tracing on
 * vs off, and an end-to-end smoke sweep producing every observability
 * artifact (trace, metrics.json, heartbeat.jsonl, summary.json).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/crash_handler.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "driver/experiment.hpp"
#include "driver/json.hpp"
#include "driver/report.hpp"
#include "workloads/registry.hpp"

using namespace evrsim;

namespace {

BenchParams
smokeParams(int jobs)
{
    BenchParams p;
    p.width = 64;
    p.height = 48;
    p.frames = 2;
    p.warmup = 1;
    p.use_cache = false;
    p.jobs = jobs;
    p.heartbeat_ms = 0; // tests that want telemetry opt in explicitly
    return p;
}

std::vector<RunRequest>
smokeBatch(const GpuConfig &gpu)
{
    std::vector<RunRequest> reqs;
    for (const char *alias : {"ccs", "300"}) {
        reqs.push_back({alias, SimConfig::baseline(gpu)});
        reqs.push_back({alias, SimConfig::evr(gpu)});
    }
    return reqs;
}

std::filesystem::path
freshDir(const char *name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TraceConfig
allCategories(std::string path)
{
    TraceConfig cfg;
    cfg.mask = (1u << kTraceCatCount) - 1;
    cfg.path = std::move(path);
    return cfg;
}

/** Every test leaves the tracer disabled so suites stay independent. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        traceConfigure(TraceConfig{});
        ::unsetenv("EVRSIM_TRACE");
    }
};

/** Parse the trace file and return the traceEvents array. */
Json
loadTraceEvents(const std::filesystem::path &path)
{
    Result<Json> doc = Json::tryParse(slurp(path));
    EXPECT_TRUE(doc.ok()) << doc.status().toString();
    if (!doc.ok())
        return Json::array();
    EXPECT_EQ(doc.value().at("displayTimeUnit").asString(), "ms");
    EXPECT_TRUE(doc.value().has("droppedEvents"));
    const Json &events = doc.value().at("traceEvents");
    EXPECT_EQ(events.type(), Json::Type::Array);
    return events;
}

std::size_t
countEventsNamed(const Json &events, const std::string &name)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < events.size(); ++i)
        if (events.at(i).at("name").asString() == name)
            ++n;
    return n;
}

} // namespace

TEST_F(TraceTest, UnsetEnvYieldsDisabledConfig)
{
    ::unsetenv("EVRSIM_TRACE");
    Result<TraceConfig> cfg = traceConfigFromEnv();
    ASSERT_TRUE(cfg.ok()) << cfg.status().toString();
    EXPECT_FALSE(cfg.value().enabled());
}

TEST_F(TraceTest, EnvParsesCategoriesSamplingAndPath)
{
    ::setenv("EVRSIM_TRACE", "driver,tile/8:/tmp/spans.json", 1);
    Result<TraceConfig> cfg = traceConfigFromEnv();
    ASSERT_TRUE(cfg.ok()) << cfg.status().toString();
    EXPECT_TRUE(cfg.value().has(TraceCat::Driver));
    EXPECT_TRUE(cfg.value().has(TraceCat::Tile));
    EXPECT_FALSE(cfg.value().has(TraceCat::Frame));
    EXPECT_EQ(cfg.value().sample[static_cast<unsigned>(TraceCat::Tile)],
              8u);
    EXPECT_EQ(cfg.value().sample[static_cast<unsigned>(TraceCat::Driver)],
              1u);
    EXPECT_EQ(cfg.value().path, "/tmp/spans.json");

    ::setenv("EVRSIM_TRACE", "all", 1);
    cfg = traceConfigFromEnv();
    ASSERT_TRUE(cfg.ok()) << cfg.status().toString();
    for (std::size_t c = 0; c < kTraceCatCount; ++c)
        EXPECT_TRUE(cfg.value().has(static_cast<TraceCat>(c)));
    EXPECT_EQ(cfg.value().path, "evrsim_trace.json");
}

TEST_F(TraceTest, EnvRejectsMalformedSpecs)
{
    for (const char *bad : {"bogus", "driver,", "tile/0", "tile/x",
                            "driver//2", "all:"}) {
        ::setenv("EVRSIM_TRACE", bad, 1);
        Result<TraceConfig> cfg = traceConfigFromEnv();
        EXPECT_FALSE(cfg.ok()) << "accepted EVRSIM_TRACE=" << bad;
        if (!cfg.ok()) {
            EXPECT_NE(cfg.status().message().find("EVRSIM_TRACE"),
                      std::string::npos)
                << cfg.status().message();
        }
    }
}

TEST_F(TraceTest, DisabledSpansAreInactiveAndDepthFree)
{
    traceConfigure(TraceConfig{});
    EXPECT_FALSE(traceActive());
    EXPECT_FALSE(traceEnabled(TraceCat::Driver));
    TraceSpan span(TraceCat::Driver, "noop");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(traceActiveDepth(), 0);
    EXPECT_TRUE(traceWrite().ok()); // no-op, no file
}

TEST_F(TraceTest, NestedSpansBalanceAndFeedCrashContext)
{
    auto dir = freshDir("evrsim_trace_nest");
    traceConfigure(allCategories((dir / "t.json").string()));

    EXPECT_EQ(traceActiveDepth(), 0);
    {
        TraceSpan outer(TraceCat::Driver, "outer");
        ASSERT_TRUE(outer.active());
        EXPECT_EQ(traceActiveDepth(), 1);
        EXPECT_STREQ(crashContextInnermostSpanName(), "outer");
        EXPECT_STREQ(crashContextInnermostSpanCategory(), "driver");
        {
            TraceSpan inner(TraceCat::Stage, "inner");
            EXPECT_EQ(traceActiveDepth(), 2);
            EXPECT_STREQ(crashContextInnermostSpanName(), "inner");
            EXPECT_STREQ(crashContextInnermostSpanCategory(), "stage");
        }
        EXPECT_EQ(traceActiveDepth(), 1);
        EXPECT_STREQ(crashContextInnermostSpanName(), "outer");
    }
    EXPECT_EQ(traceActiveDepth(), 0);
    EXPECT_STREQ(crashContextInnermostSpanName(), "");
}

TEST_F(TraceTest, CategoryFilterAndSamplingSelectSpans)
{
    auto dir = freshDir("evrsim_trace_sample");
    TraceConfig cfg;
    cfg.mask = 1u << static_cast<unsigned>(TraceCat::Tile);
    cfg.sample[static_cast<unsigned>(TraceCat::Tile)] = 4;
    cfg.path = (dir / "t.json").string();
    traceConfigure(cfg);

    { // disabled category: inactive span, nothing recorded
        TraceSpan off(TraceCat::Frame, "frame");
        EXPECT_FALSE(off.active());
    }
    for (int i = 0; i < 8; ++i) {
        TraceSpan span(TraceCat::Tile, "tile");
    }

    ASSERT_TRUE(traceWrite().ok());
    Json events = loadTraceEvents(cfg.path);
    EXPECT_EQ(countEventsNamed(events, "tile"), 2u); // 1-in-4 of 8
    EXPECT_EQ(countEventsNamed(events, "frame"), 0u);
}

TEST_F(TraceTest, WriteProducesValidNestedChromeTrace)
{
    auto dir = freshDir("evrsim_trace_json");
    traceConfigure(allCategories((dir / "t.json").string()));

    {
        TraceSpan outer(TraceCat::Driver, "outer");
        outer.setDetail("quote\" slash\\ newline\n");
        outer.setValue(42);
        traceInstant(TraceCat::Cache, "cache-hit", "ccs/baseline");
        {
            TraceSpan inner(TraceCat::Stage, "inner");
        }
    }
    traceComplete(TraceCat::Driver, "queue-wait", traceNowNs(), 1000);

    ASSERT_TRUE(traceWrite().ok());
    Json events = loadTraceEvents(dir / "t.json");
    ASSERT_GT(events.size(), 0u);

    // Every event is well-formed; 'X' events carry a duration.
    bool saw_metadata = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        ASSERT_TRUE(e.has("name"));
        ASSERT_TRUE(e.has("ph"));
        ASSERT_TRUE(e.has("pid"));
        ASSERT_TRUE(e.has("tid"));
        const std::string ph = e.at("ph").asString();
        if (ph == "M")
            saw_metadata = true;
        if (ph == "X") {
            EXPECT_TRUE(e.has("dur"));
            EXPECT_TRUE(e.has("ts"));
        }
    }
    EXPECT_TRUE(saw_metadata);
    EXPECT_EQ(countEventsNamed(events, "outer"), 1u);
    EXPECT_EQ(countEventsNamed(events, "inner"), 1u);
    EXPECT_EQ(countEventsNamed(events, "cache-hit"), 1u);
    EXPECT_EQ(countEventsNamed(events, "queue-wait"), 1u);

    // The args land in the JSON.
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        if (e.at("name").asString() != "outer")
            continue;
        EXPECT_EQ(e.at("cat").asString(), "driver");
        EXPECT_EQ(e.at("args").at("value").asI64(), 42);
        EXPECT_EQ(e.at("args").at("detail").asString(),
                  "quote\" slash\\ newline\n");
    }

    // Structural nesting: per thread, 'X' intervals never partially
    // overlap (a stack of end-times must discharge cleanly).
    std::map<std::int64_t, std::vector<std::pair<double, double>>> per_tid;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        if (e.at("ph").asString() != "X")
            continue;
        per_tid[e.at("tid").asI64()].push_back(
            {e.at("ts").asDouble(), e.at("dur").asDouble()});
    }
    for (auto &kv : per_tid) {
        auto &spans = kv.second;
        std::sort(spans.begin(), spans.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second > b.second; // outer first on ties
                  });
        const double eps = 2e-3; // µs; events carry ns precision
        std::vector<double> ends;
        for (const auto &s : spans) {
            while (!ends.empty() && ends.back() <= s.first + eps)
                ends.pop_back();
            if (!ends.empty()) {
                EXPECT_LE(s.first + s.second, ends.back() + eps)
                    << "partially overlapping spans on tid " << kv.first;
            }
            ends.push_back(s.first + s.second);
        }
    }
}

TEST_F(TraceTest, ResultsByteIdenticalWithTracingOnVsOff)
{
    std::vector<RunRequest> reqs = smokeBatch(smokeParams(1).gpuConfig());

    traceConfigure(TraceConfig{});
    ExperimentRunner off(workloads::factory(), smokeParams(2));
    BatchOutcome a = off.runAllChecked(reqs);
    ASSERT_TRUE(a.ok());

    auto dir = freshDir("evrsim_trace_identity");
    traceConfigure(allCategories((dir / "t.json").string()));
    ExperimentRunner on(workloads::factory(), smokeParams(2));
    BatchOutcome b = on.runAllChecked(reqs);
    ASSERT_TRUE(b.ok());
    traceConfigure(TraceConfig{});

    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(a.results[i].toJson(false).dump(),
                  b.results[i].toJson(false).dump())
            << reqs[i].alias << "/" << reqs[i].config.name;
}

/**
 * The trace_smoke CI entry: a real 2-workload sweep with every
 * observability surface on, validating all four artifacts.
 */
TEST_F(TraceTest, SmokeSweepProducesAllObservabilityArtifacts)
{
    auto dir = freshDir("evrsim_trace_smoke");
    metricsReset();

    TraceConfig cfg = allCategories((dir / "trace.json").string());
    cfg.sample[static_cast<unsigned>(TraceCat::Tile)] = 16;
    traceConfigure(cfg);

    BenchParams params = smokeParams(2);
    params.obs_dir = dir.string();
    params.heartbeat_ms = 25;
    ExperimentRunner runner(workloads::factory(), params);

    std::vector<RunRequest> reqs = smokeBatch(params.gpuConfig());
    BatchOutcome outcome = runner.runAllChecked(reqs);
    ASSERT_TRUE(outcome.ok());

    ASSERT_TRUE(runner.writeMetricsArtifacts().ok());
    std::string summary_path = (dir / "summary.json").string();
    ASSERT_TRUE(
        writeSweepSummaryJson(runner, outcome, summary_path).ok());
    ASSERT_TRUE(traceWrite().ok());
    traceConfigure(TraceConfig{});

    // Trace: driver spans and simulation spans both present.
    Json events = loadTraceEvents(dir / "trace.json");
    for (const char *name : {"job", "simulate", "frame", "geometry",
                             "raster", "queue-wait"})
        EXPECT_GT(countEventsNamed(events, name), 0u) << name;
    // 4 runs x (2 measured + 1 warmup) frames.
    EXPECT_EQ(countEventsNamed(events, "frame"), 12u);

    // Metrics: sweep gauges agree with the runner's own accounting.
    SweepStats stats = runner.sweepStats();
    Result<Json> metrics = Json::tryParse(slurp(dir / "metrics.json"));
    ASSERT_TRUE(metrics.ok()) << metrics.status().toString();
    std::map<std::string, double> gauges;
    const Json &entries = metrics.value().at("metrics");
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (entries.at(i).at("labels").size() == 0)
            gauges[entries.at(i).at("name").asString()] =
                entries.at(i).at("value").asDouble();
    EXPECT_EQ(gauges.at("evrsim_sweep_requested"),
              static_cast<double>(stats.requested));
    EXPECT_EQ(gauges.at("evrsim_sweep_simulated"),
              static_cast<double>(stats.simulated));
    EXPECT_EQ(gauges.at("evrsim_sweep_frames_simulated"),
              static_cast<double>(stats.frames_simulated));
    EXPECT_TRUE(std::filesystem::exists(dir / "metrics.prom"));

    // Heartbeat: valid JSONL whose terminal record covers the batch.
    std::ifstream hb(runner.heartbeatPath());
    ASSERT_TRUE(hb.good()) << runner.heartbeatPath();
    std::string line;
    Json last;
    std::size_t records = 0;
    while (std::getline(hb, line)) {
        if (line.empty())
            continue;
        Result<Json> rec = Json::tryParse(line);
        ASSERT_TRUE(rec.ok()) << line;
        last = rec.value();
        ++records;
    }
    ASSERT_GT(records, 0u);
    EXPECT_TRUE(last.at("final").asBool());
    EXPECT_EQ(last.at("completed").asU64(), reqs.size());
    EXPECT_EQ(last.at("total").asU64(), reqs.size());

    // Summary: the printed throughput table, machine-readable.
    Result<Json> summary = Json::tryParse(slurp(summary_path));
    ASSERT_TRUE(summary.ok()) << summary.status().toString();
    EXPECT_EQ(summary.value().at("requested").asU64(), stats.requested);
    EXPECT_EQ(summary.value().at("simulated").asU64(), stats.simulated);
    EXPECT_EQ(summary.value().at("failed").asU64(), 0u);
    EXPECT_EQ(summary.value().at("failures").size(), 0u);
}
