/**
 * @file
 * Load-test bench for the resident sweep service.
 *
 * Hammers an in-process daemon with concurrent clients and verifies the
 * service's robustness properties under load, printing throughput as it
 * goes:
 *
 *  1. cold cache — many concurrent small requests over few unique
 *     (workload, config) pairs: single-flight means each unique pair
 *     simulates exactly once no matter how many clients race for it;
 *  2. warm cache — N concurrent clients (default 64) each requesting
 *     every pair: zero new simulations, verified via the
 *     evrsim_runs_total{outcome} metrics counters, and every reply
 *     byte-identical;
 *  3. daemon kill — a forked daemon is SIGKILLed mid-sweep, restarted
 *     on the same cache directory, and a client attaches by request
 *     id: the recovered reply is byte-identical to the uninterrupted
 *     one;
 *  4. sharded fleet — the daemon runs with a two-shard worker fleet
 *     (this binary doubles as the shard program via --evrsim-shard),
 *     the full sweep is served through the shards with tracing on,
 *     every reply is byte-identical to the single-process golden run,
 *     a quiet fleet touches none of the failure machinery, and the
 *     observability plane holds up: the drained daemon leaves one
 *     merged Chrome trace whose shard spans stitch under the dispatch
 *     spans by shared trace ids, and the exported
 *     metrics.json/metrics.prom artifacts self-parse with the fleet
 *     counters present and no shard-labeled series (shards record no
 *     metrics; the daemon records every run it gets back).
 *
 * Flags: --clients=N (default 64), --requests=M per client in the cold
 * phase (default 2). The ctest entry runs a scaled-down configuration;
 * the defaults are the standalone load test.
 */
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "driver/json.hpp"
#include "driver/supervisor.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/fleet.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace evrsim;

int g_failures = 0;

void
check(bool ok, const char *what)
{
    if (ok) {
        std::printf("  PASS  %s\n", what);
    } else {
        std::printf("  FAIL  %s\n", what);
        ++g_failures;
    }
}

BenchParams
loadParams(const std::string &cache_dir)
{
    BenchParams p;
    p.width = 160;
    p.height = 96;
    p.frames = 1;
    p.warmup = 0;
    p.use_cache = true;
    p.cache_dir = cache_dir;
    p.jobs = 1;
    p.heartbeat_ms = 0;
    p.write_summary = false;
    p.log_level = LogLevel::Quiet;
    // Enables the per-run evrsim_runs_total{outcome} counters the
    // single-flight verification below reads.
    p.obs_dir = cache_dir;
    return p;
}

ServiceConfig
loadServiceConfig(const std::string &socket_path)
{
    ServiceConfig sc;
    sc.socket_path = socket_path;
    sc.queue_max = 100000; // the bench measures dedup, not shedding
    sc.client_quota = 100000;
    sc.poll_ms = 50;
    return sc;
}

ClientOptions
loadClient(const std::string &socket_path, const std::string &who)
{
    ClientOptions o;
    o.socket_path = socket_path;
    o.client_id = who;
    o.retries = 5;
    o.backoff_base_ms = 20;
    o.backoff_cap_ms = 500;
    o.poll_ms = 50;
    return o;
}

double
runsTotal(const char *outcome)
{
    Result<double> v =
        metricsValue("evrsim_runs_total", {{"outcome", outcome}});
    return v.ok() ? v.value() : 0.0;
}

/** Parse @p path as JSON; a null-typed Json on any failure. */
Json
parseJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good())
        return Json();
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Result<Json> doc = Json::tryParse(text);
    return doc.ok() ? doc.value() : Json();
}

} // namespace

int
main(int argc, char **argv)
{
    // When the fleet phase re-execs this binary as a worker shard, run
    // the shard loop instead of the bench (mirrors evrsim-daemon).
    std::string shard_params;
    int shard_index = shardFlagFromArgv(argc, argv, shard_params);
    if (shard_index >= 0)
        runShardAndExit(shard_index, workloads::factory(), BenchParams{},
                        shard_params);

    int clients = 64;
    int requests = 2;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i] ? argv[i] : "";
        if (arg.rfind("--clients=", 0) == 0)
            clients = std::atoi(arg.c_str() + 10);
        else if (arg.rfind("--requests=", 0) == 0)
            requests = std::atoi(arg.c_str() + 11);
        else {
            std::fprintf(stderr,
                         "usage: bench_service_load [--clients=N] "
                         "[--requests=M]\n");
            return 2;
        }
    }
    if (clients < 1 || requests < 1)
        fatal("--clients and --requests must be >= 1");

    char tmpl[] = "/tmp/evrloadXXXXXX";
    char *dir = ::mkdtemp(tmpl);
    if (!dir)
        fatal("mkdtemp: %s", std::strerror(errno));
    std::string cache = dir;
    std::string sock = cache + "/s.sock";

    // Few unique pairs, many requests: the whole point is contention.
    std::vector<ClientRunSpec> pairs;
    const std::vector<std::string> &aliases = workloads::allAliases();
    for (std::size_t i = 0; i < 2 && i < aliases.size(); ++i)
        for (const char *config : {"baseline", "evr"})
            pairs.push_back({aliases[i], config});

    metricsReset();
    std::printf("service load: %d client(s), %d request(s) each, "
                "%zu unique (workload, config) pair(s)\n",
                clients, requests, pairs.size());

    std::map<std::string, std::string> golden; // pair -> result bytes
    {
        SweepService service(workloads::factory(), loadParams(cache),
                             loadServiceConfig(sock));
        if (Status s = service.start(); !s.ok())
            fatal("%s", s.message().c_str());

        // --- Phase 1: cold cache, many small concurrent requests ---
        auto t0 = std::chrono::steady_clock::now();
        std::atomic<int> request_failures{0};
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                ServiceClient cl(
                    loadClient(sock, "load-" + std::to_string(c)));
                for (int r = 0; r < requests; ++r) {
                    const ClientRunSpec &pair =
                        pairs[static_cast<std::size_t>(c * requests + r) %
                              pairs.size()];
                    Result<SweepReply> reply = cl.runSweep(
                        "cold-" + std::to_string(c) + "-" +
                            std::to_string(r),
                        {pair});
                    if (!reply.ok() || reply.value().runs.size() != 1 ||
                        !reply.value().runs[0].status.ok())
                        request_failures.fetch_add(1);
                }
            });
        for (std::thread &t : threads)
            t.join();
        double cold_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        int total_requests = clients * requests;
        std::printf("cold:  %d request(s) in %.2fs (%.0f req/s), "
                    "simulated=%.0f disk=%.0f memo=%.0f\n",
                    total_requests, cold_s, total_requests / cold_s,
                    runsTotal("simulated"), runsTotal("disk"),
                    runsTotal("memo"));
        check(request_failures.load() == 0, "cold: every request served");
        check(service.runner().sweepStats().simulated == pairs.size(),
              "cold: each unique pair simulated exactly once "
              "(single-flight)");

        // Golden copies for the byte-identity checks below.
        ServiceClient gold(loadClient(sock, "golden"));
        Result<SweepReply> gr = gold.runSweep("golden-all", pairs);
        if (!gr.ok())
            fatal("golden request failed: %s",
                  gr.status().message().c_str());
        for (const ClientRunOutcome &run : gr.value().runs)
            golden[run.workload + "/" + run.config] = run.result_json;

        // --- Phase 2: warm cache, N concurrent full requests ---
        double simulated_before = runsTotal("simulated");
        t0 = std::chrono::steady_clock::now();
        std::atomic<int> warm_failures{0};
        std::atomic<int> byte_mismatches{0};
        threads.clear();
        for (int c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                ServiceClient cl(
                    loadClient(sock, "warm-" + std::to_string(c)));
                Result<SweepReply> reply = cl.runSweep(
                    "warm-" + std::to_string(c), pairs);
                if (!reply.ok() ||
                    reply.value().runs.size() != pairs.size()) {
                    warm_failures.fetch_add(1);
                    return;
                }
                for (const ClientRunOutcome &run : reply.value().runs)
                    if (!run.status.ok() ||
                        run.result_json !=
                            golden[run.workload + "/" + run.config])
                        byte_mismatches.fetch_add(1);
            });
        for (std::thread &t : threads)
            t.join();
        double warm_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        std::printf("warm:  %d request(s) x %zu run(s) in %.2fs "
                    "(%.0f run/s), memo=%.0f\n",
                    clients, pairs.size(), warm_s,
                    clients * pairs.size() / warm_s, runsTotal("memo"));
        check(warm_failures.load() == 0, "warm: every request served");
        check(byte_mismatches.load() == 0,
              "warm: every reply byte-identical to the golden run");
        check(runsTotal("simulated") == simulated_before,
              "warm: zero new simulations across concurrent clients "
              "(metrics counters)");
        service.drain();
    }

    // --- Phase 3: daemon killed mid-sweep, restart, attach ---
#ifdef EVRSIM_SANITIZED
    std::printf("kill:  skipped under sanitizers (fork + threads)\n");
#else
    {
        char tmpl2[] = "/tmp/evrloadXXXXXX";
        char *dir2 = ::mkdtemp(tmpl2);
        if (!dir2)
            fatal("mkdtemp: %s", std::strerror(errno));
        std::string cache2 = dir2;
        std::string sock2 = cache2 + "/s.sock";

        std::fflush(stdout); // the child inherits the stdio buffer
        pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid == 0) {
            ::alarm(120);
            BenchParams p = loadParams(cache2);
            p.resume = true;
            SweepService daemon(workloads::factory(), p,
                                loadServiceConfig(sock2));
            if (!daemon.start().ok())
                ::_exit(3);
            for (;;)
                ::pause();
        }
        for (int waited = 0;
             waited < 10000 && ::access(sock2.c_str(), F_OK) != 0;
             waited += 20)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));

        ClientOptions o = loadClient(sock2, "victim");
        o.retries = 0;
        std::atomic<bool> fired{false};
        ServiceClient victim(o);
        (void)victim.runSweep("load-kill", pairs, [&](const Json &) {
            if (!fired.exchange(true))
                ::kill(pid, SIGKILL);
        });
        int wstatus = 0;
        ::waitpid(pid, &wstatus, 0);
        check(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL,
              "kill: daemon died by SIGKILL mid-sweep");

        BenchParams p = loadParams(cache2);
        p.resume = true;
        SweepService restarted(workloads::factory(), p,
                               loadServiceConfig(sock2));
        if (Status s = restarted.start(); !s.ok())
            fatal("restart: %s", s.message().c_str());
        ServiceClient again(loadClient(sock2, "victim"));
        Result<SweepReply> recovered = again.attach("load-kill");
        check(recovered.ok(), "kill: reconnect by request id served");
        if (recovered.ok()) {
            bool identical =
                recovered.value().runs.size() == pairs.size();
            for (const ClientRunOutcome &run : recovered.value().runs)
                identical =
                    identical && run.status.ok() &&
                    run.result_json ==
                        golden[run.workload + "/" + run.config];
            check(identical, "kill: recovered reply byte-identical to "
                             "the uninterrupted run");
        }
        restarted.drain();
        std::error_code ec;
        std::filesystem::remove_all(cache2, ec);
    }
#endif

    // --- Phase 4: sharded worker fleet, quiet traced run ---
#ifdef EVRSIM_SANITIZED
    std::printf("fleet: skipped under sanitizers (fork + threads)\n");
#else
    {
        char tmpl3[] = "/tmp/evrloadXXXXXX";
        char *dir3 = ::mkdtemp(tmpl3);
        if (!dir3)
            fatal("mkdtemp: %s", std::strerror(errno));
        std::string cache3 = dir3;
        std::string sock3 = cache3 + "/s.sock";

        ServiceConfig sc = loadServiceConfig(sock3);
        sc.fleet.shards = 2;
        sc.fleet.shard_argv = {selfExecutablePath()};
        if (sc.fleet.shard_argv[0].empty())
            fatal("fleet: cannot resolve own executable path");

        // Trace the whole leg: the shards inherit EVRSIM_TRACE and ship
        // their spans back on result frames; the daemon stitches them
        // into one merged file at drain.
        ::setenv("EVRSIM_TRACE", "driver,worker", 1);
        std::string trace_path = cache3 + "/fleet_trace.json";
        TraceConfig tcfg;
        tcfg.mask = (1u << static_cast<unsigned>(TraceCat::Driver)) |
                    (1u << static_cast<unsigned>(TraceCat::Worker));
        tcfg.path = trace_path;
        traceConfigure(tcfg);

        SweepService fleet_svc(workloads::factory(), loadParams(cache3),
                               sc);
        if (Status s = fleet_svc.start(); !s.ok())
            fatal("fleet: %s", s.message().c_str());

        auto t0 = std::chrono::steady_clock::now();
        ServiceClient cl(loadClient(sock3, "fleet"));
        Result<SweepReply> reply = cl.runSweep("fleet-all", pairs);
        double fleet_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        check(reply.ok() && reply.value().runs.size() == pairs.size(),
              "fleet: sharded sweep served");
        if (reply.ok() && reply.value().runs.size() == pairs.size()) {
            bool identical = true;
            for (const ClientRunOutcome &run : reply.value().runs)
                identical =
                    identical && run.status.ok() &&
                    run.result_json ==
                        golden[run.workload + "/" + run.config];
            check(identical, "fleet: every reply byte-identical to the "
                             "single-process golden run");
        }
        const ShardFleet *fl = fleet_svc.fleet();
        check(fl != nullptr, "fleet: daemon actually ran sharded");
        if (fl) {
            ShardFleet::Stats st = fl->stats();
            std::printf("fleet: %zu run(s) over %d shard(s) in %.2fs "
                        "(%.0f run/s), dispatched=%llu completed=%llu\n",
                        pairs.size(), sc.fleet.shards, fleet_s,
                        pairs.size() / fleet_s,
                        static_cast<unsigned long long>(st.dispatched),
                        static_cast<unsigned long long>(st.completed));
            check(st.completed >= pairs.size(),
                  "fleet: every run completed through the fleet");
            check(st.restarts == 0 && st.breaker_opens == 0 &&
                      st.failovers == 0 && st.degraded == 0 &&
                      st.wire_errors == 0,
                  "fleet: quiet run touched no failure machinery");
        }

        // Metrics artifacts before teardown: the daemon's registry must
        // export as self-parsing metrics.json/metrics.prom.
        if (Status s = fleet_svc.runner().writeMetricsArtifacts(); !s.ok())
            fatal("fleet: %s", s.message().c_str());
        fleet_svc.drain(); // also flushes the merged trace
        ::unsetenv("EVRSIM_TRACE");

        // One merged Chrome trace: shard spans adopted into synthetic
        // pid lanes, stitched to the dispatch spans by shared ids.
        Json trace_doc = parseJsonFile(trace_path);
        const Json *tev = trace_doc.find("traceEvents");
        check(tev && tev->type() == Json::Type::Array && tev->size() > 0,
              "fleet: merged trace file exists and parses");
        if (tev && tev->type() == Json::Type::Array) {
            std::map<std::string, bool> dispatch_ids;
            int shard_spans = 0, stitched = 0;
            for (std::size_t i = 0; i < tev->size(); ++i) {
                const Json &e = tev->at(i);
                const Json *args = e.find("args");
                std::string tid_hex =
                    args ? args->get("trace_id", Json("")).asString()
                         : "";
                if (tid_hex.empty())
                    continue;
                std::string name = e.get("name", Json("")).asString();
                if (name == "fleet-dispatch")
                    dispatch_ids[tid_hex] = true;
                else if (e.get("pid", Json(0.0)).asDouble() >= 1000000 &&
                         name == "shard-run")
                    ++shard_spans;
            }
            for (std::size_t i = 0; i < tev->size(); ++i) {
                const Json &e = tev->at(i);
                if (e.get("pid", Json(0.0)).asDouble() < 1000000 ||
                    e.get("name", Json("")).asString() != "shard-run")
                    continue;
                const Json *args = e.find("args");
                if (args && dispatch_ids.count(args->get(
                                "trace_id", Json("")).asString()))
                    ++stitched;
            }
            std::printf("fleet: trace events=%zu dispatch ids=%zu "
                        "shard spans=%d stitched=%d\n",
                        tev->size(), dispatch_ids.size(), shard_spans,
                        stitched);
            check(!dispatch_ids.empty() && shard_spans > 0,
                  "fleet: trace has dispatch spans and adopted shard "
                  "spans");
            check(stitched == shard_spans && stitched > 0,
                  "fleet: every shard span stitches to a dispatch "
                  "span by trace id");
        }

        // The metrics artifacts self-parse, carry the control plane's
        // counters, and hold no shard-labeled copies.
        Json mjson = parseJsonFile(cache3 + "/metrics.json");
        const Json *metrics = mjson.find("metrics");
        bool saw_fleet = false, saw_shard_label = false;
        if (metrics && metrics->type() == Json::Type::Array) {
            for (std::size_t i = 0; i < metrics->size(); ++i) {
                const Json &m = metrics->at(i);
                if (m.get("name", Json("")).asString() ==
                    "evrsim_fleet_dispatched_total")
                    saw_fleet = true;
                const Json *labels = m.find("labels");
                if (labels && labels->find("shard"))
                    saw_shard_label = true;
            }
        }
        check(metrics && metrics->type() == Json::Type::Array,
              "fleet: metrics.json exists and parses");
        check(saw_fleet,
              "fleet: metrics carry the fleet counters");
        check(!saw_shard_label,
              "fleet: metrics carry no shard-labeled series");
        std::ifstream prom(cache3 + "/metrics.prom");
        std::string prom_text((std::istreambuf_iterator<char>(prom)),
                              std::istreambuf_iterator<char>());
        check(prom_text.find("# TYPE evrsim_fleet_dispatched_total "
                             "counter") != std::string::npos,
              "fleet: metrics.prom exists with typed fleet counters");

        std::error_code ec3;
        std::filesystem::remove_all(cache3, ec3);
    }
#endif

    std::error_code ec;
    std::filesystem::remove_all(cache, ec);
    std::printf("service load: %s\n",
                g_failures == 0 ? "all checks passed" : "FAILURES");
    return g_failures == 0 ? 0 : 1;
}
