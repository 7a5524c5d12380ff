/**
 * @file
 * `evrsim-client`: thin CLI client of the resident sweep service.
 *
 * Submits one sweep request (workloads x configs) to a running
 * `evrsim-daemon` and prints per-run progress plus a result table.
 * Reliability knobs are flags, not env vars, because they are
 * per-invocation policy:
 *
 *   --socket=PATH        daemon socket (default: EVRSIM_SOCKET, else
 *                        <cache_dir>/evrsim.sock)
 *   --id=ID              idempotent request id (default: derived from
 *                        the run list, so the same invocation is the
 *                        same request)
 *   --client=NAME        client id for quota accounting
 *   --workloads=a,b,c    workload aliases (default: all Table III)
 *   --configs=x,y        config names (default: baseline,evr — the
 *                        Figure 7 sweep)
 *   --attach             reconnect to a journaled request by bare id
 *   --deadline-ms=N      overall deadline (0 = none)
 *   --retries=N          retry budget (connects, sheds, lost streams)
 *   --ping               liveness probe and exit
 *   status | --status    fleet introspection: per-shard topology +
 *                        service/fleet counters, printed as a table
 *   --events             with status: also print the lifecycle event
 *                        ring (restart, breaker, failover)
 *   --json               with status: raw JSON instead of the table
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "driver/experiment.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/service_protocol.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace evrsim;

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

bool
flagValue(const std::string &arg, const char *name, std::string &out)
{
    std::string prefix = std::string(name) + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    out = arg.substr(prefix.size());
    return true;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: evrsim-client [--socket=PATH] [--id=ID] [--client=NAME]\n"
        "                     [--workloads=a,b,...] [--configs=x,y,...]\n"
        "                     [--attach] [--deadline-ms=N] [--retries=N]\n"
        "                     [--ping]\n"
        "       evrsim-client status [--events] [--json] [--socket=PATH]\n");
    return 2;
}

/** Render the status payload as tables (the --json flag skips this). */
void
printStatus(const Json &st, bool with_events)
{
    std::printf("draining: %s\n",
                st.get("draining", Json(false)).asBool() ? "yes" : "no");
    const Json *fleet = st.find("fleet");
    if (!fleet || fleet->type() != Json::Type::Object) {
        std::printf("fleet: off (EVRSIM_SHARDS=0)\n");
    } else {
        std::printf("%-5s %-6s %-9s %17s %9s %9s  %s\n", "slot",
                    "alive", "breaker", "last_frame_age_ms", "inflight",
                    "restarts", "last_error");
        const Json *shards = fleet->find("shards");
        if (shards && shards->type() == Json::Type::Array) {
            for (std::size_t i = 0; i < shards->size(); ++i) {
                const Json &s = shards->at(i);
                std::printf(
                    "%-5.0f %-6s %-9s %17.0f %9.0f %9.0f  %s\n",
                    s.get("slot", Json(0)).asDouble(),
                    s.get("alive", Json(false)).asBool() ? "yes" : "no",
                    s.get("breaker", Json("?")).asString().c_str(),
                    s.get("last_frame_age_ms", Json(-1)).asDouble(),
                    s.get("inflight", Json(0)).asDouble(),
                    s.get("restarts", Json(0)).asDouble(),
                    s.get("last_error", Json("")).asString().c_str());
            }
        }
        const Json *fs = fleet->find("stats");
        if (fs && fs->type() == Json::Type::Object) {
            std::printf("fleet counters:");
            for (const auto &kv : fs->members())
                std::printf(" %s=%.0f", kv.first.c_str(),
                            kv.second.asDouble());
            std::printf("\n");
        }
    }
    if (with_events) {
        const Json *events = st.find("events");
        if (events && events->type() == Json::Type::Array) {
            std::printf("events (%zu):\n", events->size());
            for (std::size_t i = 0; i < events->size(); ++i)
                std::printf("  %s\n", events->at(i).dump(0).c_str());
        } else {
            std::printf("events: none reported\n");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Result<BenchParams> pr = benchParamsFromEnvChecked();
    if (!pr.ok())
        fatal("%s", pr.status().message().c_str());
    Result<ServiceConfig> sc = serviceConfigFromEnvChecked(pr.value());
    if (!sc.ok())
        fatal("%s", sc.status().message().c_str());

    ClientOptions opts;
    opts.socket_path = sc.value().socket_path;
    std::string id;
    std::vector<std::string> aliases = workloads::allAliases();
    std::vector<std::string> configs = {"baseline", "evr"};
    bool do_ping = false;
    bool do_attach = false;
    bool do_status = false;
    bool with_events = false;
    bool raw_json = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i] ? argv[i] : "";
        std::string v;
        if (flagValue(arg, "--socket", v))
            opts.socket_path = v;
        else if (flagValue(arg, "--id", v))
            id = v;
        else if (flagValue(arg, "--client", v))
            opts.client_id = v;
        else if (flagValue(arg, "--workloads", v))
            aliases = splitCsv(v);
        else if (flagValue(arg, "--configs", v))
            configs = splitCsv(v);
        else if (flagValue(arg, "--deadline-ms", v))
            opts.deadline_ms = std::atoi(v.c_str());
        else if (flagValue(arg, "--retries", v))
            opts.retries = std::atoi(v.c_str());
        else if (arg == "--attach")
            do_attach = true;
        else if (arg == "--ping")
            do_ping = true;
        else if (arg == "status" || arg == "--status")
            do_status = true;
        else if (arg == "--events")
            with_events = true;
        else if (arg == "--json")
            raw_json = true;
        else
            return usage();
    }

    ServiceClient client(opts);

    if (do_ping) {
        Result<Json> pong = client.ping();
        if (!pong.ok())
            fatal("ping %s: %s", opts.socket_path.c_str(),
                  pong.status().message().c_str());
        std::printf("%s\n", pong.value().dump(0).c_str());
        return 0;
    }

    if (do_status) {
        Result<Json> st = client.status(with_events);
        if (!st.ok())
            fatal("status %s: %s", opts.socket_path.c_str(),
                  st.status().message().c_str());
        if (raw_json)
            std::printf("%s\n", st.value().dump(2).c_str());
        else
            printStatus(st.value(), with_events);
        return 0;
    }

    std::vector<ClientRunSpec> runs;
    for (const std::string &alias : aliases)
        for (const std::string &config : configs)
            runs.push_back({alias, config});
    if (id.empty()) {
        // Derive a stable id from the run list so re-invoking the same
        // command resumes the same idempotent request.
        std::string spec;
        for (const ClientRunSpec &r : runs)
            spec += r.workload + "/" + r.config + ";";
        id = "cli-" + std::to_string(std::hash<std::string>{}(spec));
    }

    ProgressFn progress = [](const Json &p) {
        std::fprintf(stderr, "  [%llu/%llu] %s/%s %s (%.1fs)\n",
                     static_cast<unsigned long long>(
                         p.get("completed", Json(0)).asDouble()),
                     static_cast<unsigned long long>(
                         p.get("total", Json(0)).asDouble()),
                     p.get("workload", Json("?")).asString().c_str(),
                     p.get("config", Json("?")).asString().c_str(),
                     p.get("ok", Json(false)).asBool() ? "ok" : "FAILED",
                     p.get("elapsed_s", Json(0.0)).asDouble());
    };

    Result<SweepReply> reply =
        do_attach ? client.attach(id, progress)
                  : client.runSweep(id, runs, progress);
    if (!reply.ok())
        fatal("request '%s' failed: %s", id.c_str(),
              reply.status().message().c_str());

    int failed = 0;
    std::printf("%-14s %-12s %14s %14s\n", "workload", "config",
                "cycles", "energy_nJ");
    for (const ClientRunOutcome &r : reply.value().runs) {
        if (!r.status.ok()) {
            ++failed;
            std::printf("%-14s %-12s FAILED: %s\n", r.workload.c_str(),
                        r.config.c_str(), r.status.message().c_str());
            continue;
        }
        std::printf("%-14s %-12s %14llu %14.0f\n", r.workload.c_str(),
                    r.config.c_str(),
                    static_cast<unsigned long long>(
                        r.result.totalCycles()),
                    r.result.totalEnergyNj());
    }
    std::printf("request '%s': %zu run(s), %d failed, %.1fs "
                "(%d connect attempt(s), %d resubmit(s))\n",
                id.c_str(), reply.value().runs.size(), failed,
                reply.value().elapsed_s, reply.value().connect_attempts,
                reply.value().resubmits);
    return failed == 0 ? 0 : 1;
}
