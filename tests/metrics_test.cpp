/**
 * @file
 * Metrics registry tests: counter/gauge/histogram semantics, label
 * identity, sticky types, JSON output round-tripped through the driver
 * parser, the Prometheus exposition shape, and — end to end — that the
 * metrics.json a sweep exports agrees exactly with the runner's own
 * printed accounting (SweepStats) and the per-run simulation totals.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/metrics.hpp"
#include "driver/experiment.hpp"
#include "driver/json.hpp"
#include "workloads/registry.hpp"

using namespace evrsim;

namespace {

class MetricsTest : public ::testing::Test
{
  protected:
    void SetUp() override { metricsReset(); }
    void TearDown() override { metricsReset(); }
};

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Parse metricsToJson() output and index entries by (name, labels). */
std::map<std::string, Json>
indexMetrics(const Json &doc)
{
    std::map<std::string, Json> out;
    const Json &entries = doc.at("metrics");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Json &e = entries.at(i);
        std::string key = e.at("name").asString();
        for (const auto &kv : e.at("labels").members())
            key += "|" + kv.first + "=" + kv.second.asString();
        out[key] = e;
    }
    return out;
}

} // namespace

TEST_F(MetricsTest, CountersAccumulateAndStayMonotone)
{
    metricsCounterAdd("runs", 2);
    metricsCounterAdd("runs", 3);
    metricsCounterAdd("runs", -7); // ignored: counters are monotone
    Result<double> v = metricsValue("runs");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), 5);
}

TEST_F(MetricsTest, LabelsSeparateInstances)
{
    metricsCounterAdd("frames", 10, {{"workload", "ccs"}});
    metricsCounterAdd("frames", 20, {{"workload", "300"}});
    metricsCounterAdd("frames", 5, {{"workload", "ccs"}});
    EXPECT_EQ(metricsInstanceCount(), 2u);
    EXPECT_EQ(metricsValue("frames", {{"workload", "ccs"}}).value(), 15);
    EXPECT_EQ(metricsValue("frames", {{"workload", "300"}}).value(), 20);
    EXPECT_FALSE(metricsValue("frames").ok()); // no unlabeled instance
    EXPECT_FALSE(metricsValue("absent").ok());
}

TEST_F(MetricsTest, GaugesOverwrite)
{
    metricsGaugeSet("queue", 3);
    metricsGaugeSet("queue", 1);
    EXPECT_EQ(metricsValue("queue").value(), 1);
}

TEST_F(MetricsTest, HistogramBucketsCumulativeInPromPerBucketInJson)
{
    metricsHistogramDefine("wall", {1, 10});
    metricsHistogramObserve("wall", 0.5);
    metricsHistogramObserve("wall", 5);
    metricsHistogramObserve("wall", 50);
    metricsHistogramObserve("wall", 7);

    // metricsValue on a histogram reports the sum.
    EXPECT_EQ(metricsValue("wall").value(), 62.5);

    Result<Json> doc = Json::tryParse(metricsToJson());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    auto idx = indexMetrics(doc.value());
    const Json &e = idx.at("wall");
    EXPECT_EQ(e.at("type").asString(), "histogram");
    const Json &buckets = e.at("buckets");
    ASSERT_EQ(buckets.size(), 3u); // 2 bounds + overflow
    EXPECT_EQ(buckets.at(0).at("le").asDouble(), 1);
    EXPECT_EQ(buckets.at(0).at("count").asU64(), 1u); // 0.5
    EXPECT_EQ(buckets.at(1).at("le").asDouble(), 10);
    EXPECT_EQ(buckets.at(1).at("count").asU64(), 2u); // 5, 7
    EXPECT_EQ(buckets.at(2).at("le").asString(), "+Inf");
    EXPECT_EQ(buckets.at(2).at("count").asU64(), 1u); // 50
    EXPECT_EQ(e.at("sum").asDouble(), 62.5);
    EXPECT_EQ(e.at("count").asU64(), 4u);

    // Prometheus buckets are cumulative and end at +Inf == _count.
    std::string prom = metricsToProm();
    EXPECT_NE(prom.find("# TYPE wall histogram"), std::string::npos);
    EXPECT_NE(prom.find("wall_bucket{le=\"1\"} 1\n"), std::string::npos);
    EXPECT_NE(prom.find("wall_bucket{le=\"10\"} 3\n"), std::string::npos);
    EXPECT_NE(prom.find("wall_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(prom.find("wall_sum 62.5\n"), std::string::npos);
    EXPECT_NE(prom.find("wall_count 4\n"), std::string::npos);
}

TEST_F(MetricsTest, TypeConflictsAreCountedNotCorrupting)
{
    metricsCounterAdd("x", 1);
    metricsGaugeSet("x", 99);          // wrong kind: rejected
    metricsHistogramObserve("x", 3.0); // also rejected
    EXPECT_EQ(metricsValue("x").value(), 1);

    Result<Json> doc = Json::tryParse(metricsToJson());
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().at("type_conflicts").asU64(), 2u);
}

TEST_F(MetricsTest, JsonRoundTripsSortedAndIntegral)
{
    metricsGaugeSet("b_gauge", 2.5);
    metricsCounterAdd("a_counter", 3, {{"cfg", "evr"}});
    metricsCounterAdd("a_counter", 1, {{"cfg", "baseline"}});

    std::string text = metricsToJson();
    Result<Json> doc = Json::tryParse(text);
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    EXPECT_EQ(doc.value().at("schema").asU64(), 1u);

    const Json &entries = doc.value().at("metrics");
    ASSERT_EQ(entries.size(), 3u);
    // Sorted by name, then by label key.
    EXPECT_EQ(entries.at(0).at("name").asString(), "a_counter");
    EXPECT_EQ(entries.at(0).at("labels").at("cfg").asString(),
              "baseline");
    EXPECT_EQ(entries.at(1).at("labels").at("cfg").asString(), "evr");
    EXPECT_EQ(entries.at(2).at("name").asString(), "b_gauge");
    EXPECT_EQ(entries.at(2).at("value").asDouble(), 2.5);
    // Integral values serialize without a decimal point, so totals
    // compare textually against the printed tables.
    EXPECT_NE(text.find("\"value\":3"), std::string::npos);
    EXPECT_EQ(text.find("\"value\":3.0"), std::string::npos);

    // Prometheus shape for plain counters/gauges.
    std::string prom = metricsToProm();
    EXPECT_NE(prom.find("# TYPE a_counter counter"), std::string::npos);
    EXPECT_NE(prom.find("a_counter{cfg=\"evr\"} 3\n"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE b_gauge gauge"), std::string::npos);
}

TEST_F(MetricsTest, EscapesHostileLabelValues)
{
    metricsCounterAdd("esc", 1, {{"path", "a\"b\\c\nd"}});
    Result<Json> doc = Json::tryParse(metricsToJson());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    auto idx = indexMetrics(doc.value());
    ASSERT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx.begin()->second.at("labels").at("path").asString(),
              "a\"b\\c\nd");
}

/**
 * End to end: a sweep with EVRSIM_OBS=dir-style recording exports a
 * metrics.json whose totals equal the runner's printed accounting.
 */
TEST_F(MetricsTest, SweepArtifactTotalsMatchSweepStats)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "evrsim_metrics_sweep";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    BenchParams params;
    params.width = 64;
    params.height = 48;
    params.frames = 2;
    params.warmup = 1;
    params.use_cache = false;
    params.jobs = 2;
    params.heartbeat_ms = 0;
    params.obs_dir = dir.string();
    ExperimentRunner runner(workloads::factory(), params);

    std::vector<RunRequest> reqs;
    for (const char *alias : {"ccs", "300"}) {
        reqs.push_back({alias, SimConfig::baseline(params.gpuConfig())});
        reqs.push_back({alias, SimConfig::evr(params.gpuConfig())});
    }
    reqs.push_back({"ccs", SimConfig::evr(params.gpuConfig())}); // memo
    BatchOutcome outcome = runner.runAllChecked(reqs);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(runner.writeMetricsArtifacts().ok());

    SweepStats stats = runner.sweepStats();
    EXPECT_EQ(stats.requested, reqs.size());
    EXPECT_EQ(stats.simulated, reqs.size() - 1);
    EXPECT_EQ(stats.memo_hits, 1u);

    Result<Json> doc = Json::tryParse(slurp(dir / "metrics.json"));
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    auto idx = indexMetrics(doc.value());

    // Sweep-level gauges mirror SweepStats exactly.
    EXPECT_EQ(idx.at("evrsim_sweep_requested").at("value").asU64(),
              stats.requested);
    EXPECT_EQ(idx.at("evrsim_sweep_simulated").at("value").asU64(),
              stats.simulated);
    EXPECT_EQ(idx.at("evrsim_sweep_memo_hits").at("value").asU64(),
              stats.memo_hits);
    EXPECT_EQ(
        idx.at("evrsim_sweep_frames_simulated").at("value").asU64(),
        stats.frames_simulated);
    EXPECT_EQ(idx.at("evrsim_sweep_failed").at("value").asU64(), 0u);

    // Per-run counters: summed over labels they reproduce the sweep
    // totals, and each instance matches its run's own totals.
    double frames = 0;
    for (const auto &kv : idx)
        if (kv.first.rfind("evrsim_frames_simulated_total|", 0) == 0)
            frames += kv.second.at("value").asDouble();
    EXPECT_EQ(frames, static_cast<double>(stats.frames_simulated));

    for (std::size_t i = 0; i < 4; ++i) { // the four distinct triples
        Result<double> energy = metricsValue(
            "evrsim_energy_total_nj",
            {{"workload", reqs[i].alias},
             {"config", reqs[i].config.name}});
        ASSERT_TRUE(energy.ok())
            << reqs[i].alias << "/" << reqs[i].config.name;
        EXPECT_NEAR(energy.value(), outcome.results[i].energy.total(),
                    1e-6 * outcome.results[i].energy.total());
    }

    // The Prometheus twin exists and mentions the same series.
    std::string prom = slurp(dir / "metrics.prom");
    EXPECT_NE(prom.find("# TYPE evrsim_sweep_requested gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE evrsim_sim_wall_ms histogram"),
              std::string::npos);
}
