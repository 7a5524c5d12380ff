/**
 * @file
 * Fleet-wide observability tests (DESIGN.md §16): cross-process trace
 * stitching, fleet metrics, the lifecycle event ring, and the live
 * introspection surface.
 *
 * Unit layers first (wire round-trip, Prometheus escaping, the bounded
 * event ring), then two process-level legs:
 *
 *  A. A real two-shard pipe fleet swept quiet, then under chaos. A
 *     metrics-on sweep through the fleet must export the same per-run
 *     series as the same sweep in-process, with no shard-labeled
 *     copies. The traced sweep must be byte-identical to the untraced
 *     golden run, the merged Chrome trace must contain shard spans
 *     nested inside the control plane's dispatch spans under shared
 *     trace ids, and statusJson()'s stats block must equal the
 *     exported evrsim_fleet_* counters number-for-number — including
 *     after the fleet has demonstrably restarted shards and opened
 *     breakers.
 *  B. A full SweepService drain: the daemon's `status` endpoint
 *     answers over the socket, and a drained daemon leaves one
 *     parseable merged trace with the per-shard spill files cleaned
 *     up after their events were adopted.
 */
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "driver/experiment.hpp"
#include "driver/json.hpp"
#include "driver/supervisor.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/fleet.hpp"
#include "service/fleet_obs.hpp"
#include "workloads/registry.hpp"

namespace evrsim {
namespace {

/** Fresh per-test scratch directory under the system temp root. */
std::string
freshDir(const std::string &tag)
{
    std::string dir = (std::filesystem::temp_directory_path() /
                       ("evrsim_obs_" + tag + "_" +
                        std::to_string(::getpid())))
                          .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Small, fast, deterministic simulation parameters. */
BenchParams
obsParams(const std::string &cache_dir)
{
    BenchParams p;
    p.width = 160;
    p.height = 96;
    p.frames = 1;
    p.warmup = 0;
    p.use_cache = false;
    p.cache_dir = cache_dir;
    p.jobs = 1;
    p.heartbeat_ms = 0;
    p.write_summary = false;
    p.log_level = LogLevel::Quiet;
    return p;
}

FleetConfig
obsFleetConfig(const BenchParams &params)
{
    FleetConfig cfg;
    cfg.shards = 2;
    cfg.shard_argv = {selfExecutablePath()};
    cfg.shard_params_json = shardParamsJson(params);
    cfg.ping_interval_ms = 150;
    cfg.ping_deadline_ms = 1500;
    cfg.breaker_threshold = 2;
    cfg.restart_backoff_base_ms = 50;
    cfg.restart_backoff_cap_ms = 500;
    cfg.run_deadline_ms = 3000;
    cfg.poll_ms = 25;
    return cfg;
}

/** A short sweep (4 pairs): enough to land work on both shards. */
std::vector<std::pair<std::string, std::string>>
obsPairs()
{
    std::vector<std::pair<std::string, std::string>> pairs;
    const std::vector<std::string> &aliases = workloads::allAliases();
    for (std::size_t i = 0; i < aliases.size() && pairs.size() < 4; ++i)
        pairs.emplace_back(aliases[i],
                           i % 2 == 0 ? "baseline" : "evr");
    return pairs;
}

ShardFleet::DegradedRunFn
degradedRunner(ExperimentRunner &runner)
{
    return [&runner](const std::string &alias, const SimConfig &config) {
        return runner.trySimulate(alias, config);
    };
}

/** Run the sweep; returns pair-key -> deterministic result bytes. */
std::map<std::string, std::string>
runSweep(ShardFleet &fleet, const BenchParams &params)
{
    // Runs are addressed by the runner's job key, which the shard
    // re-derives and checks.
    ExperimentRunner keys(workloads::factory(), params, FaultPlan{});
    std::map<std::string, std::string> out;
    for (const auto &[alias, config_name] : obsPairs()) {
        Result<SimConfig> config =
            configByName(config_name, params.gpuConfig());
        EXPECT_TRUE(config.ok());
        if (!config.ok())
            continue;
        std::string key = alias + "/" + config_name;
        WorkerAttempt a = fleet.execute(
            alias, config.value(), keys.jobKey(alias, config.value()));
        EXPECT_TRUE(a.status.ok())
            << key << ": " << a.status.toString();
        if (a.status.ok())
            out[key] = a.result.toJson(false).dump(0);
    }
    return out;
}

double
counterOrZero(const std::string &name,
              const MetricLabels &labels = {})
{
    Result<double> v = metricsValue(name, labels);
    return v.ok() ? v.value() : 0.0;
}

/** The 9 Stats fields, as (stats-json key, metric name) pairs. */
std::vector<std::pair<std::string, std::string>>
statKeys()
{
    std::vector<std::pair<std::string, std::string>> keys;
    for (const char *k :
         {"dispatched", "completed", "failovers", "restarts",
          "breaker_opens", "degraded", "wire_errors", "ping_timeouts",
          "stray_responses"})
        keys.emplace_back(k, "evrsim_fleet_" + std::string(k) +
                                 "_total");
    return keys;
}

/** The per-run series of a metricsToJson() document (evrsim_stat_*,
 *  evrsim_frames_simulated_total, evrsim_runs_total), keyed by name
 *  and labels; @p shard_labeled counts series with a shard label. */
std::map<std::string, double>
perRunSeries(const std::string &doc_text, int &shard_labeled)
{
    std::map<std::string, double> out;
    shard_labeled = 0;
    Result<Json> doc = Json::tryParse(doc_text);
    EXPECT_TRUE(doc.ok()) << doc.status().toString();
    if (!doc.ok())
        return out;
    const Json &metrics = doc.value().at("metrics");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Json &m = metrics.at(i);
        const Json &labels = m.at("labels");
        if (labels.find("shard"))
            ++shard_labeled;
        std::string name = m.get("name", Json("")).asString();
        if (name.rfind("evrsim_stat_", 0) != 0 &&
            name != "evrsim_frames_simulated_total" &&
            name != "evrsim_runs_total")
            continue;
        out[name + labels.dump(0)] = m.get("value", Json(-1.0)).asDouble();
    }
    return out;
}

/** True when every stats-json field equals its exported counter. */
bool
statsMatchMetrics(const Json &stats, std::string *why)
{
    for (const auto &[key, metric] : statKeys()) {
        double s = stats.get(key, Json(-1.0)).asDouble();
        double m = counterOrZero(metric);
        if (s != m) {
            if (why)
                *why = key + ": status=" + std::to_string(s) +
                       " metric=" + std::to_string(m);
            return false;
        }
    }
    return true;
}

// --- Prometheus escaping (the hostile-label regression) -------------

TEST(PromEscaping, HostileLabelsStayParseable)
{
    metricsReset();
    metricsCounterAdd("evrsim_hostile_total", 3.0,
                      {{"path", "C:\\tmp\\x"},
                       {"msg", "say \"hi\"\nbye"},
                       {"bad-name! 1", "v"}});
    std::string prom = metricsToProm();

    // Escapes per the exposition format: backslash, quote, newline.
    EXPECT_NE(prom.find("path=\"C:\\\\tmp\\\\x\""), std::string::npos)
        << prom;
    EXPECT_NE(prom.find("msg=\"say \\\"hi\\\"\\nbye\""),
              std::string::npos)
        << prom;
    // Hostile label *names* are sanitized, not emitted raw.
    EXPECT_NE(prom.find("bad_name__1=\"v\""), std::string::npos) << prom;
    EXPECT_EQ(prom.find("bad-name"), std::string::npos) << prom;

    // Structural invariant: every line is a comment or name{...} value
    // with no raw newline or quote imbalance inside the braces.
    std::size_t start = 0;
    while (start < prom.size()) {
        std::size_t nl = prom.find('\n', start);
        if (nl == std::string::npos)
            nl = prom.size();
        std::string line = prom.substr(start, nl - start);
        start = nl + 1;
        if (line.empty() || line[0] == '#')
            continue;
        int quotes = 0;
        for (std::size_t i = 0; i < line.size(); ++i) {
            if (line[i] == '"' && (i == 0 || line[i - 1] != '\\'))
                ++quotes;
        }
        EXPECT_EQ(quotes % 2, 0) << "torn line: " << line;
        std::size_t close = line.rfind('}');
        ASSERT_NE(close, std::string::npos) << line;
        EXPECT_LT(close + 1, line.size()) << line; // trailing value
    }
}

// --- trace-event wire form ------------------------------------------

TEST(TraceWire, RoundTripPreservesEveryField)
{
    std::vector<TraceShippedEvent> events;
    TraceShippedEvent full;
    full.name = "shard-run";
    full.cat = "worker";
    full.phase = 'X';
    full.ts_ns = 12345678;
    full.dur_ns = 420;
    full.value = -7;
    full.detail = "teapot/evr parent=00000000000000aa";
    full.tid = 3;
    full.trace_id = 0xdeadbeefcafef00dull;
    events.push_back(full);
    TraceShippedEvent bare;
    bare.name = "tick";
    bare.cat = "driver";
    bare.phase = 'i';
    bare.ts_ns = 99;
    events.push_back(bare);

    std::vector<TraceShippedEvent> back =
        traceEventsFromWire(traceEventsToWire(events));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name, full.name);
    EXPECT_EQ(back[0].cat, full.cat);
    EXPECT_EQ(back[0].phase, 'X');
    EXPECT_EQ(back[0].ts_ns, full.ts_ns);
    EXPECT_EQ(back[0].dur_ns, full.dur_ns);
    EXPECT_EQ(back[0].value, full.value);
    EXPECT_EQ(back[0].detail, full.detail);
    EXPECT_EQ(back[0].tid, full.tid);
    EXPECT_EQ(back[0].trace_id, full.trace_id);
    EXPECT_EQ(back[1].phase, 'i');
    EXPECT_EQ(back[1].dur_ns, 0u);
    EXPECT_EQ(back[1].value, INT64_MIN);
    EXPECT_EQ(back[1].tid, 1);
    EXPECT_EQ(back[1].trace_id, 0u);

    // Damaged entries are skipped, not adopted half-parsed.
    Json wire = traceEventsToWire(events);
    wire.push(Json("not an object"));
    Json noname = Json::object();
    noname.set("c", "driver");
    noname.set("t", 1.0);
    wire.push(std::move(noname));
    EXPECT_EQ(traceEventsFromWire(wire).size(), 2u);
}

TEST(TraceWire, IdHexRoundTripIsStrict)
{
    EXPECT_EQ(traceIdParse(traceIdHex(0xdeadbeefcafef00dull)),
              0xdeadbeefcafef00dull);
    EXPECT_EQ(traceIdHex(0xaaull), "00000000000000aa");
    EXPECT_EQ(traceIdParse("deadbeef"), 0u);          // too short
    EXPECT_EQ(traceIdParse("00000000000000zz"), 0u);  // not hex
    EXPECT_EQ(traceIdParse(""), 0u);
}

// --- the lifecycle event ring ---------------------------------------

TEST(FleetEventRing, BoundedRingPersistsJsonl)
{
    std::string dir = freshDir("events");
    std::string path = dir + "/events.jsonl";
    FleetEventRing ring(4);
    ring.setPersistPath(path);
    const char *types[] = {"registration", "restart", "breaker-open",
                           "breaker-close", "fence", "failover"};
    for (int i = 0; i < 6; ++i)
        ring.record(types[i], i % 2, "detail-" + std::to_string(i));

    // The in-memory ring keeps only the newest `capacity` events with
    // monotone sequence numbers.
    std::vector<FleetEvent> snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().seq, 3u);
    EXPECT_EQ(snap.front().type, "breaker-open");
    EXPECT_EQ(snap.back().seq, 6u);
    EXPECT_EQ(snap.back().type, "failover");
    for (std::size_t i = 1; i < snap.size(); ++i)
        EXPECT_EQ(snap[i].seq, snap[i - 1].seq + 1);

    // The JSONL mirror keeps everything, one parseable object a line.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        Result<Json> j = Json::tryParse(line);
        ASSERT_TRUE(j.ok()) << line;
        EXPECT_EQ(j.value().get("seq", Json(0.0)).asDouble(),
                  static_cast<double>(lines + 1));
        EXPECT_EQ(j.value().get("type", Json("")).asString(),
                  types[lines]);
        EXPECT_TRUE(j.value().find("ts_ms") != nullptr);
        EXPECT_TRUE(j.value().find("shard") != nullptr);
        ++lines;
    }
    EXPECT_EQ(lines, 6);

    // Round-trips through the JSON event form used by `status`.
    Json arr = ring.toJson();
    ASSERT_EQ(arr.size(), 4u);
    EXPECT_EQ(arr.at(0).get("detail", Json("")).asString(), "detail-2");
    std::filesystem::remove_all(dir);
}

// --- process-level: stitched traces + status vs metrics -------------

/** Events from a parsed Chrome trace document. */
const Json *
traceEventsArray(const Json &doc)
{
    const Json *events = doc.find("traceEvents");
    return events && events->type() == Json::Type::Array ? events
                                                         : nullptr;
}

TEST(FleetObsSoak, StitchedTraceAndStatusMatchMetrics)
{
#ifdef EVRSIM_SANITIZED
    GTEST_SKIP() << "fork + threads under sanitizers is not supported";
#endif
    ASSERT_FALSE(selfExecutablePath().empty());
    ::unsetenv("EVRSIM_FAULT");
    ::unsetenv("EVRSIM_TRACE");
    std::string dir = freshDir("soak");
    BenchParams params = obsParams(dir);
    ExperimentRunner fallback(workloads::factory(), params);

    // --- Leg A: untraced golden bytes.
    metricsReset();
    std::map<std::string, std::string> golden;
    {
        ShardFleet fleet(obsFleetConfig(params),
                         degradedRunner(fallback));
        ASSERT_TRUE(fleet.start().ok());
        golden = runSweep(fleet, params);
        fleet.stop();
    }
    ASSERT_EQ(golden.size(), obsPairs().size());

    // --- Leg A2: metrics on, the same sweep through a runner on the
    // fleet and in-process. Shards record no metrics; the runner
    // records every RunResult a shard returns, so no series carries a
    // shard label and the per-run series equal the in-process sweep's
    // number for number.
    {
        BenchParams mparams = params;
        mparams.obs_dir = dir;
        std::vector<RunRequest> reqs;
        for (const auto &[alias, config_name] : obsPairs())
            reqs.push_back(
                {alias, configByName(config_name, mparams.gpuConfig())
                            .value()});
        metricsReset();
        {
            ShardFleet fleet(obsFleetConfig(mparams),
                             degradedRunner(fallback));
            ASSERT_TRUE(fleet.start().ok());
            ExperimentRunner runner(workloads::factory(), mparams,
                                    FaultPlan{});
            runner.setWorkerLauncher(
                [&fleet](const std::string &alias,
                         const SimConfig &config,
                         const std::string &key) {
                    return fleet.execute(alias, config, key);
                });
            ASSERT_TRUE(runner.runAllChecked(reqs).ok());
            EXPECT_EQ(fleet.stats().completed, reqs.size());
            fleet.stop();
        }
        int fleet_shard_labeled = 0;
        std::map<std::string, double> on_fleet =
            perRunSeries(metricsToJson(), fleet_shard_labeled);
        metricsReset();
        {
            ExperimentRunner runner(workloads::factory(), mparams,
                                    FaultPlan{});
            ASSERT_TRUE(runner.runAllChecked(reqs).ok());
        }
        int local_shard_labeled = 0;
        std::map<std::string, double> in_process =
            perRunSeries(metricsToJson(), local_shard_labeled);
        EXPECT_EQ(fleet_shard_labeled, 0);
        EXPECT_EQ(local_shard_labeled, 0);
        EXPECT_FALSE(in_process.empty());
        EXPECT_EQ(on_fleet, in_process);
    }

    // --- Leg B: the same sweep fully traced. Observability must not
    // change a single result byte (the paper's figures depend on it).
    std::string trace_path = dir + "/merged_trace.json";
    ::setenv("EVRSIM_TRACE", "driver,worker", 1); // shard children
    TraceConfig tcfg;
    tcfg.mask = (1u << static_cast<unsigned>(TraceCat::Driver)) |
                (1u << static_cast<unsigned>(TraceCat::Worker));
    tcfg.path = trace_path;
    traceConfigure(tcfg);
    metricsReset();
    {
        ShardFleet fleet(obsFleetConfig(params),
                         degradedRunner(fallback));
        ASSERT_TRUE(fleet.start().ok());
        std::map<std::string, std::string> traced =
            runSweep(fleet, params);
        ASSERT_EQ(traced.size(), golden.size());
        for (const auto &[key, bytes] : golden)
            EXPECT_EQ(traced.at(key), bytes) << key;

        // Live topology while the fleet is up. The remote-shard
        // fields and counters are gone for good.
        Json status = fleet.statusJson();
        for (const char *gone : {"transport", "listen"})
            EXPECT_EQ(status.find(gone), nullptr) << gone;
        for (const char *gone :
             {"fences", "reconnects", "partitions", "stale_epochs",
              "registrations", "shed_registrations"})
            EXPECT_EQ(status.find("stats")->find(gone), nullptr) << gone;
        const Json *shards = status.find("shards");
        ASSERT_TRUE(shards && shards->type() == Json::Type::Array);
        ASSERT_EQ(shards->size(), 2u);
        for (std::size_t i = 0; i < shards->size(); ++i) {
            const Json &s = shards->at(i);
            EXPECT_EQ(s.get("slot", Json(-1.0)).asDouble(),
                      static_cast<double>(i));
            EXPECT_TRUE(s.get("alive", Json(false)).asBool());
            EXPECT_EQ(s.get("breaker", Json("")).asString(), "closed");
            EXPECT_EQ(s.get("inflight", Json(-1.0)).asDouble(), 0.0);
            EXPECT_EQ(s.get("restarts", Json(-1.0)).asDouble(), 0.0);
            // Both shards have answered frames by now.
            EXPECT_GE(s.get("last_frame_age_ms", Json(-1.0)).asDouble(),
                      0.0);
            EXPECT_EQ(s.find("epoch"), nullptr);
        }

        // The status counter block and the exported metrics are two
        // views of the same ledger: equal number-for-number. Retry a
        // few times to step over an in-flight ping tick.
        std::string why;
        bool match = false;
        for (int attempt = 0; attempt < 5 && !match; ++attempt) {
            match = statsMatchMetrics(
                *fleet.statusJson().find("stats"), &why);
            if (!match)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
        }
        EXPECT_TRUE(match) << why;

        // Both shards registered in the event ring.
        Json events = fleet.eventsJson();
        int registrations = 0;
        for (std::size_t i = 0; i < events.size(); ++i)
            if (events.at(i).get("type", Json("")).asString() ==
                "registration")
                ++registrations;
        EXPECT_GE(registrations, 2);
        fleet.stop();
    }

    // --- Leg C: chaos. Counters and status must stay in lockstep
    // through restarts, breaker trips and failovers.
    ::setenv("EVRSIM_FAULT",
             "worker-kill9:0.08:11,worker-stall:0.03:12,"
             "wire-corrupt:0.05:13,wire-drop:0.04:14,wire-dup:0.05:15",
             1);
    metricsReset();
    {
        ShardFleet fleet(obsFleetConfig(params),
                         degradedRunner(fallback));
        ASSERT_TRUE(fleet.start().ok());
        auto soak_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(45);
        for (;;) {
            std::map<std::string, std::string> chaotic =
                runSweep(fleet, params);
            EXPECT_EQ(chaotic.size(), golden.size());
            for (const auto &[key, bytes] : golden) {
                auto it = chaotic.find(key);
                if (it != chaotic.end()) {
                    EXPECT_EQ(it->second, bytes) << key;
                }
            }
            ShardFleet::Stats st = fleet.stats();
            if (st.restarts > 0 && st.breaker_opens > 0)
                break;
            if (std::chrono::steady_clock::now() >= soak_deadline)
                break;
        }
        fleet.stop();
        ::unsetenv("EVRSIM_FAULT");

        // Quiescent after stop(): the equality must be exact.
        std::string why;
        EXPECT_TRUE(statsMatchMetrics(*fleet.statusJson().find("stats"),
                                      &why))
            << why;

        // The churn is in the event ring too.
        Json events = fleet.eventsJson();
        bool saw_restart = false;
        for (std::size_t i = 0; i < events.size(); ++i) {
            std::string type =
                events.at(i).get("type", Json("")).asString();
            if (type == "restart")
                saw_restart = true;
        }
        ShardFleet::Stats st = fleet.stats();
        if (st.restarts > 0) {
            EXPECT_TRUE(saw_restart);
        }
    }

    // --- The merged trace: one file, dispatch spans from the control
    // plane and shard spans adopted into per-slot lanes, stitched by
    // shared 16-hex trace ids, with shard time nested inside the
    // dispatch window.
    ASSERT_TRUE(traceWrite().ok());
    std::ifstream in(trace_path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Result<Json> doc = Json::tryParse(text);
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const Json *events = traceEventsArray(doc.value());
    ASSERT_TRUE(events != nullptr);

    // Index dispatch spans by trace id; collect shard-lane spans.
    struct Span {
        double ts = 0, dur = 0;
        double pid = 0;
    };
    std::map<std::string, Span> dispatches;
    std::vector<std::pair<std::string, Span>> shard_spans;
    bool saw_shard_lane_name = false;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &e = events->at(i);
        std::string name = e.get("name", Json("")).asString();
        double pid = e.get("pid", Json(0.0)).asDouble();
        if (name == "process_name" && pid >= 1000000) {
            const Json *args = e.find("args");
            if (args &&
                args->get("name", Json("")).asString().rfind(
                    "evrsim-shard-", 0) == 0)
                saw_shard_lane_name = true;
            continue;
        }
        const Json *args = e.find("args");
        std::string tid_hex =
            args ? args->get("trace_id", Json("")).asString() : "";
        if (tid_hex.empty())
            continue;
        Span s;
        s.ts = e.get("ts", Json(0.0)).asDouble();
        s.dur = e.get("dur", Json(0.0)).asDouble();
        s.pid = pid;
        if (name == "fleet-dispatch")
            dispatches[tid_hex] = s;
        else if (pid >= 1000000 && name == "shard-run")
            shard_spans.emplace_back(tid_hex, s);
    }
    EXPECT_TRUE(saw_shard_lane_name);
    EXPECT_FALSE(dispatches.empty());
    ASSERT_FALSE(shard_spans.empty())
        << "no shard spans were adopted into the merged trace";

    // Every shard span's trace id resolves to a dispatch span that
    // contains it (rebased onto the dispatch start; 1ms slack for
    // microsecond rounding and clock skew between collect and reply).
    int stitched = 0;
    for (const auto &[tid_hex, s] : shard_spans) {
        auto it = dispatches.find(tid_hex);
        if (it == dispatches.end())
            continue;
        ++stitched;
        EXPECT_GE(s.ts + 1000.0, it->second.ts) << tid_hex;
        EXPECT_LE(s.ts + s.dur,
                  it->second.ts + it->second.dur + 1000.0)
            << tid_hex;
    }
    EXPECT_GT(stitched, 0)
        << "shard spans never shared a trace id with a dispatch span";

    ::unsetenv("EVRSIM_TRACE");
    std::filesystem::remove_all(dir);
}

// --- process-level: the daemon status endpoint + drain flush --------

TEST(FleetObsService, StatusEndpointAndDrainedTraceFlush)
{
#ifdef EVRSIM_SANITIZED
    GTEST_SKIP() << "fork + threads under sanitizers is not supported";
#endif
    ASSERT_FALSE(selfExecutablePath().empty());
    ::unsetenv("EVRSIM_FAULT");
    std::string dir = freshDir("svc");
    BenchParams params = obsParams(dir);
    // The shards spill their traces into the telemetry dir, where the
    // drain must clean them up.
    params.obs_dir = dir;

    std::string trace_path = dir + "/svc_trace.json";
    ::setenv("EVRSIM_TRACE", "driver,worker", 1); // shard children
    TraceConfig tcfg;
    tcfg.mask = (1u << static_cast<unsigned>(TraceCat::Driver)) |
                (1u << static_cast<unsigned>(TraceCat::Worker));
    tcfg.path = trace_path;
    traceConfigure(tcfg);
    metricsReset();

    ServiceConfig scfg;
    scfg.socket_path = dir + "/evrsim.sock";
    scfg.fleet = obsFleetConfig(params);
    scfg.fleet.events_path = dir + "/events.jsonl";

    SweepService service(workloads::factory(), params, scfg);
    ASSERT_TRUE(service.start().ok());
    ASSERT_TRUE(service.fleet() != nullptr);

    ClientOptions copts;
    copts.socket_path = scfg.socket_path;
    ServiceClient client(copts);

    // Introspection before any sweep: topology + events over the wire.
    Result<Json> st = client.status(true);
    ASSERT_TRUE(st.ok()) << st.status().toString();
    EXPECT_EQ(st.value().get("type", Json("")).asString(), "status");
    EXPECT_FALSE(st.value().get("draining", Json(true)).asBool());
    const Json *svc = st.value().find("service");
    ASSERT_TRUE(svc && svc->type() == Json::Type::Object);
    EXPECT_EQ(svc->get("requests_admitted", Json(-1.0)).asDouble(),
              0.0);
    const Json *fleet_j = st.value().find("fleet");
    ASSERT_TRUE(fleet_j && fleet_j->type() == Json::Type::Object);
    const Json *shards = fleet_j->find("shards");
    ASSERT_TRUE(shards && shards->type() == Json::Type::Array);
    EXPECT_EQ(shards->size(), 2u);
    const Json *events = st.value().find("events");
    ASSERT_TRUE(events && events->type() == Json::Type::Array);

    // A small sweep through the fleet, then status again.
    std::vector<ClientRunSpec> runs;
    for (const auto &[alias, config_name] : obsPairs())
        runs.push_back({alias, config_name});
    Result<SweepReply> reply = client.runSweep("obs-test", runs);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    for (const ClientRunOutcome &r : reply.value().runs)
        EXPECT_TRUE(r.status.ok()) << r.workload << "/" << r.config;

    st = client.status(false);
    ASSERT_TRUE(st.ok());
    svc = st.value().find("service");
    ASSERT_TRUE(svc != nullptr);
    EXPECT_GE(svc->get("runs_completed", Json(0.0)).asDouble(),
              static_cast<double>(obsPairs().size()));
    EXPECT_EQ(st.value().find("events"), nullptr); // not requested
    fleet_j = st.value().find("fleet");
    ASSERT_TRUE(fleet_j != nullptr);
    const Json *fstats = fleet_j->find("stats");
    ASSERT_TRUE(fstats != nullptr);
    EXPECT_GE(fstats->get("dispatched", Json(0.0)).asDouble(),
              static_cast<double>(obsPairs().size()));

    // Drain: flushes the merged trace and removes the adopted shard
    // spill files.
    service.drain();
    {
        std::ifstream in(trace_path);
        ASSERT_TRUE(in.good()) << trace_path;
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        Result<Json> doc = Json::tryParse(text);
        ASSERT_TRUE(doc.ok()) << doc.status().toString();
        const Json *tev = traceEventsArray(doc.value());
        ASSERT_TRUE(tev != nullptr);
        bool saw_dispatch = false;
        for (std::size_t i = 0; i < tev->size(); ++i)
            if (tev->at(i).get("name", Json("")).asString() ==
                "fleet-dispatch")
                saw_dispatch = true;
        EXPECT_TRUE(saw_dispatch);
    }
    EXPECT_FALSE(std::filesystem::exists(dir + "/shard-0.trace.json"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/shard-1.trace.json"));

    // The lifecycle mirror survives the daemon: registrations at
    // least, one JSON object a line.
    {
        std::ifstream in(scfg.fleet.events_path);
        ASSERT_TRUE(in.good());
        std::string line;
        int registrations = 0;
        while (std::getline(in, line)) {
            Result<Json> j = Json::tryParse(line);
            ASSERT_TRUE(j.ok()) << line;
            if (j.value().get("type", Json("")).asString() ==
                "registration")
                ++registrations;
        }
        EXPECT_GE(registrations, 2);
    }

    ::unsetenv("EVRSIM_TRACE");
    std::filesystem::remove_all(dir);
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
