/**
 * @file
 * Sweep-service suite: wire framing, admission control, per-client
 * quotas, cross-client single-flight dedup, client retry/backoff,
 * cooperative shutdown, replay of the sweep and request journals over
 * torn, corrupt and foreign inputs, and the crash-recovery property —
 * kill -9 the daemon mid-sweep, restart it on the same cache directory,
 * reconnect by request id, and the completed sweep's RunResult
 * documents are byte-identical to an uninterrupted run.
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "driver/envelope.hpp"
#include "driver/experiment.hpp"
#include "driver/sweep_journal.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/request_journal.hpp"
#include "service/service_protocol.hpp"
#include "workloads/registry.hpp"

namespace evrsim {
namespace {

/** Self-deleting scratch directory (kept short: sun_path is 108). */
struct TempDir {
    std::string path;
    TempDir()
    {
        char tmpl[] = "/tmp/evrsvcXXXXXX";
        char *p = ::mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path = p ? p : "";
    }
    ~TempDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }
};

/** Small, fast, deterministic parameters for service tests. */
BenchParams
tinyParams(const std::string &cache_dir)
{
    BenchParams p;
    p.width = 160;
    p.height = 96;
    p.frames = 1;
    p.warmup = 0;
    p.use_cache = !cache_dir.empty();
    p.cache_dir = cache_dir;
    p.jobs = 1;
    p.heartbeat_ms = 0;
    p.write_summary = false;
    p.log_level = LogLevel::Quiet;
    return p;
}

ServiceConfig
serviceConfig(const std::string &socket_path)
{
    ServiceConfig sc;
    sc.socket_path = socket_path;
    sc.poll_ms = 50;
    return sc;
}

ClientOptions
clientOptions(const std::string &socket_path, const std::string &who)
{
    ClientOptions o;
    o.socket_path = socket_path;
    o.client_id = who;
    o.retries = 3;
    o.backoff_base_ms = 20;
    o.backoff_cap_ms = 200;
    o.poll_ms = 50;
    return o;
}

bool
waitForSocket(const std::string &path, int timeout_ms)
{
    for (int waited = 0; waited < timeout_ms; waited += 20) {
        if (::access(path.c_str(), F_OK) == 0)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

TEST(ServiceProtocol, ConfigByNameResolvesEveryKnownName)
{
    GpuConfig gpu;
    for (const std::string &name : knownConfigNames()) {
        Result<SimConfig> c = configByName(name, gpu);
        ASSERT_TRUE(c.ok()) << name;
        EXPECT_EQ(c.value().name, name);
    }
    Result<SimConfig> bad = configByName("evrr", gpu);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(bad.status().message().find("accepted"), std::string::npos);
}

TEST(ServiceProtocol, WireFramingRoundTripDetectsDamage)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    Json msg = Json::object();
    msg.set("type", "ping");
    msg.set("n", 42);
    ASSERT_TRUE(writeServiceMessage(fds[0], msg).ok());

    MessageReader reader(fds[1]);
    Result<Json> got = reader.next(1000);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().at("type").asString(), "ping");
    EXPECT_EQ(got.value().at("n").asU64(), 42u);

    // A damaged line is DataLoss, and the stream keeps working after.
    std::string garbage = "{\"schema\":999,\"oops\":true}\n";
    ASSERT_EQ(::send(fds[0], garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));
    Result<Json> bad = reader.next(1000);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::DataLoss);

    ASSERT_TRUE(writeServiceMessage(fds[0], msg).ok());
    Result<Json> again = reader.next(1000);
    ASSERT_TRUE(again.ok());

    // Idle timeout is DeadlineExceeded; peer close is Unavailable.
    Result<Json> idle = reader.next(30);
    ASSERT_FALSE(idle.ok());
    EXPECT_EQ(idle.status().code(), ErrorCode::DeadlineExceeded);
    ::close(fds[0]);
    Result<Json> eof = reader.next(1000);
    ASSERT_FALSE(eof.ok());
    EXPECT_EQ(eof.status().code(), ErrorCode::Unavailable);
    ::close(fds[1]);
}

/** What a journal replay folded, flattened for table comparison. */
struct Folded {
    std::size_t records = 0;
    std::size_t damaged = 0;
    std::size_t duplicates = 0;
    std::size_t in_flight = 0;
    std::string outcomes; ///< folded outcomes, one "key=..." per entry
};

/** One journal vocabulary on the shared envelope log. */
struct Vocabulary {
    const char *name;
    int schema;
    std::function<void(const std::string &)> write;
    std::function<Folded(const std::string &)> replay;
};

Vocabulary
sweepVocabulary()
{
    auto write = [](const std::string &path) {
        RunResult r;
        r.workload = "w";
        r.config = "baseline";
        r.image_crc = 111;
        {
            SweepJournal j;
            ASSERT_TRUE(j.open(path).ok());
            j.recordStart("a");
            j.recordFinish("a", r, 1);
            j.recordStart("b");
            j.recordFail("b", Status::invariantViolation("strict"), 1,
                         false);
        }
        // Resume-of-a-resume reopens the journal and appends a second
        // terminal record for "a"; "c" is in flight at the crash.
        r.image_crc = 222;
        SweepJournal j;
        ASSERT_TRUE(j.open(path).ok());
        j.recordStart("a");
        j.recordFinish("a", r, 2);
        j.recordStart("c");
    };
    auto replay = [](const std::string &path) {
        Result<SweepJournal::Replay> rep = SweepJournal::replay(path);
        EXPECT_TRUE(rep.ok());
        const SweepJournal::Replay &v = rep.value();
        Folded f{v.records, v.damaged, v.duplicates, v.in_flight, {}};
        for (const auto &[key, o] : v.outcomes) {
            using Kind = SweepJournal::ReplayedOutcome::Kind;
            // Plain appends: GCC 12 at -O3 draws a false -Wrestrict
            // from `"literal" + std::string` here.
            f.outcomes += key;
            f.outcomes += '=';
            if (o.kind == Kind::Finished) {
                f.outcomes += "finished:";
                f.outcomes += std::to_string(o.result.image_crc);
            } else {
                f.outcomes +=
                    o.kind == Kind::Failed ? "failed:" : "quarantined:";
                f.outcomes += errorCodeName(o.status.code());
            }
            f.outcomes += '@';
            f.outcomes += std::to_string(o.attempts);
            f.outcomes += ' ';
        }
        return f;
    };
    return {"sweep", kSweepJournalVersion, write, replay};
}

Vocabulary
requestVocabulary()
{
    auto write = [](const std::string &path) {
        Json a = Json::object();
        a.set("client", "a");
        Json b = Json::object();
        b.set("client", "b");
        {
            RequestJournal j;
            ASSERT_TRUE(j.open(path).ok());
            j.recordRequest("r1", a);
            j.recordDone("r1");
            // A re-admission supersedes the spec and makes r1 live.
            j.recordRequest("r1", b);
            j.recordRequest("r2", a);
        }
        RequestJournal j;
        ASSERT_TRUE(j.open(path).ok());
        j.recordDone("r2");
    };
    auto replay = [](const std::string &path) {
        Result<RequestJournal::Replay> rep = RequestJournal::replay(path);
        EXPECT_TRUE(rep.ok());
        const RequestJournal::Replay &v = rep.value();
        Folded f{v.records, v.damaged, v.duplicates, 0, {}};
        for (const auto &[id, spec] : v.specs)
            f.outcomes += id + "=" + spec.at("client").asString() +
                          (v.done.count(id) ? "+done " : " ");
        return f;
    };
    return {"request", kRequestJournalVersion, write, replay};
}

TEST(JournalReplay, BothVocabulariesFoldDamagedInputsConservatively)
{
    // How an input is derived from the clean journal's lines.
    enum class Input {
        Clean,
        TornFinalLine,
        TornFragment, // a partial envelope appended after the last record
        CrcFlippedMiddle,
        ForeignSchemaMiddle,
        Missing,
    };
    struct Row {
        Input input;
        Folded want[2]; ///< sweep, request
    };
    const Row rows[] = {
        {Input::Clean,
         {{7, 0, 1, 1, "a=finished:222@2 b=failed:INVARIANT_VIOLATION@1 "},
          {5, 0, 1, 0, "r1=b r2=a+done "}}},
        // The last record ("start c" / "done r2") is cut mid-line.
        {Input::TornFinalLine,
         {{6, 1, 1, 0, "a=finished:222@2 b=failed:INVARIANT_VIOLATION@1 "},
          {4, 1, 1, 0, "r1=b r2=a "}}},
        {Input::TornFragment,
         {{7, 1, 1, 1, "a=finished:222@2 b=failed:INVARIANT_VIOLATION@1 "},
          {5, 1, 1, 0, "r1=b r2=a+done "}}},
        // The middle record ("fail b" / the re-admission of r1) fails
        // its CRC: b re-runs, r1 keeps its first spec and stays done.
        {Input::CrcFlippedMiddle,
         {{6, 1, 1, 2, "a=finished:222@2 "},
          {4, 1, 0, 0, "r1=a+done r2=a+done "}}},
        {Input::ForeignSchemaMiddle,
         {{7, 1, 1, 1, "a=finished:222@2 b=failed:INVARIANT_VIOLATION@1 "},
          {5, 1, 1, 0, "r1=b r2=a+done "}}},
        {Input::Missing, {{0, 0, 0, 0, ""}, {0, 0, 0, 0, ""}}},
    };

    TempDir dir;
    const Vocabulary vocabs[2] = {sweepVocabulary(), requestVocabulary()};
    for (int v = 0; v < 2; ++v) {
        const Vocabulary &vocab = vocabs[v];
        const std::string clean = dir.path + "/" + vocab.name + ".clean";
        vocab.write(clean);
        std::vector<std::string> lines;
        {
            std::ifstream in(clean);
            for (std::string line; std::getline(in, line);)
                lines.push_back(line);
        }
        ASSERT_GE(lines.size(), 3u);
        const std::size_t mid = lines.size() / 2;

        for (const Row &row : rows) {
            std::vector<std::string> input = lines;
            std::string tail = "\n";
            switch (row.input) {
              case Input::Clean:
              case Input::Missing:
                break;
              case Input::TornFinalLine:
                input.back().resize(input.back().size() / 2);
                tail.clear();
                break;
              case Input::TornFragment:
                input.push_back(
                    "{\"schema\": 1, \"payload_crc32\": 123, \"payl");
                tail.clear();
                break;
              case Input::CrcFlippedMiddle: {
                Json doc = Json::tryParse(input[mid]).value();
                doc.set("payload_crc32",
                        doc.at("payload_crc32").asU64() ^ 1u);
                input[mid] = doc.dump(0);
                break;
              }
              case Input::ForeignSchemaMiddle: {
                // Intact framing and CRC, but another journal's schema.
                Json doc = Json::tryParse(input[mid]).value();
                doc.set("schema", vocab.schema + 1);
                input.insert(input.begin() + mid, doc.dump(0));
                break;
              }
            }
            const std::string path = dir.path + "/" + vocab.name + "." +
                                     std::to_string(int(row.input));
            if (row.input != Input::Missing) {
                std::ofstream out(path, std::ios::binary);
                for (std::size_t i = 0; i < input.size(); ++i)
                    out << input[i] << (i + 1 < input.size() ? "\n" : tail);
            }

            const Folded &want = row.want[v];
            Folded got = vocab.replay(path);
            SCOPED_TRACE(std::string(vocab.name) + " input " +
                         std::to_string(int(row.input)));
            EXPECT_EQ(got.records, want.records);
            EXPECT_EQ(got.damaged, want.damaged);
            EXPECT_EQ(got.duplicates, want.duplicates);
            EXPECT_EQ(got.in_flight, want.in_flight);
            EXPECT_EQ(got.outcomes, want.outcomes);
        }
    }
}

TEST(SweepJournalReplay, RunnerResumeSurfacesDuplicateCount)
{
    TempDir dir;
    BenchParams params = tinyParams(dir.path);

    // A real result to journal (also gives us the job key).
    ExperimentRunner first(workloads::factory(), params);
    SimConfig baseline = SimConfig::baseline(params.gpuConfig());
    Result<RunResult> real = first.tryRun("ccs", baseline);
    ASSERT_TRUE(real.ok());
    std::string key = first.jobKey("ccs", baseline);

    // Forge a journal with two terminal records for that key, as a
    // resume-of-a-resume leaves behind.
    std::string jpath = dir.path + "/sweep.journal";
    std::filesystem::remove(jpath);
    {
        SweepJournal j;
        ASSERT_TRUE(j.open(jpath).ok());
        j.recordFinish(key, real.value(), 1);
        j.recordFinish(key, real.value(), 1);
    }

    BenchParams resumed = params;
    resumed.resume = true;
    resumed.use_cache = true;
    ExperimentRunner second(workloads::factory(), resumed);
    Result<RunResult> replayed = second.tryRun("ccs", baseline);
    ASSERT_TRUE(replayed.ok());

    SweepStats stats = second.sweepStats();
    EXPECT_EQ(stats.resumed, 1u);
    EXPECT_EQ(stats.resume_duplicates, 1u);
    EXPECT_EQ(stats.simulated, 0u); // served from the journal, not re-run
    EXPECT_EQ(replayed.value().toJson(false).dump(0),
              real.value().toJson(false).dump(0));
}

TEST(ServiceAdmission, QueueFullShedsWithStructuredStatus)
{
    TempDir dir;
    std::string sock = dir.path + "/s.sock";
    ServiceConfig sc = serviceConfig(sock);
    sc.queue_max = 2; // any 3-run request is deterministically shed
    SweepService service(workloads::factory(), tinyParams(dir.path), sc);
    ASSERT_TRUE(service.start().ok());

    ClientOptions o = clientOptions(sock, "greedy");
    o.retries = 1; // shed is retryable; budget of one retry, then fail
    ServiceClient client(o);
    Result<SweepReply> r = client.runSweep(
        "q1", {{"ccs", "baseline"}, {"ccs", "evr"}, {"ccs", "re"}});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::ResourceExhausted);
    EXPECT_NE(r.status().message().find("EVRSIM_QUEUE_MAX"),
              std::string::npos);

    SweepService::Stats st = service.stats();
    EXPECT_EQ(st.shed_queue_full, 2u); // initial attempt + one retry
    EXPECT_EQ(st.requests_admitted, 0u);
    EXPECT_EQ(service.runner().sweepStats().requested, 0u);

    // A request that fits still goes through.
    ServiceClient ok_client(clientOptions(sock, "modest"));
    Result<SweepReply> ok = ok_client.runSweep("q2", {{"ccs", "baseline"}});
    ASSERT_TRUE(ok.ok());
    service.drain();
}

TEST(ServiceAdmission, PerClientQuotaEnforced)
{
    TempDir dir;
    std::string sock = dir.path + "/s.sock";
    ServiceConfig sc = serviceConfig(sock);
    sc.queue_max = 100;
    sc.client_quota = 1;
    SweepService service(workloads::factory(), tinyParams(dir.path), sc);
    ASSERT_TRUE(service.start().ok());

    ClientOptions o = clientOptions(sock, "hog");
    o.retries = 0;
    ServiceClient client(o);
    Result<SweepReply> r =
        client.runSweep("u1", {{"ccs", "baseline"}, {"ccs", "evr"}});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::ResourceExhausted);
    EXPECT_NE(r.status().message().find("EVRSIM_CLIENT_QUOTA"),
              std::string::npos);
    EXPECT_NE(r.status().message().find("hog"), std::string::npos);
    EXPECT_EQ(service.stats().shed_quota, 1u);

    // Within quota passes.
    Result<SweepReply> ok = client.runSweep("u2", {{"ccs", "baseline"}});
    ASSERT_TRUE(ok.ok());
    service.drain();
}

TEST(ServiceSingleFlight, ConcurrentClientsSimulateEachConfigOnce)
{
    metricsReset();
    TempDir dir;
    std::string sock = dir.path + "/s.sock";
    SweepService service(workloads::factory(), tinyParams(dir.path),
                         serviceConfig(sock));
    ASSERT_TRUE(service.start().ok());

    const std::vector<ClientRunSpec> runs = {{"ccs", "baseline"},
                                             {"ccs", "evr"}};
    constexpr int kClients = 4;
    std::vector<Result<SweepReply>> replies(
        kClients, Result<SweepReply>(Status::unavailable("unset")));
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            ServiceClient c(
                clientOptions(sock, "c" + std::to_string(i)));
            replies[i] =
                c.runSweep("sf-" + std::to_string(i), runs);
        });
    for (std::thread &t : threads)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        ASSERT_TRUE(replies[i].ok()) << replies[i].status().message();
        ASSERT_EQ(replies[i].value().runs.size(), runs.size());
        for (std::size_t j = 0; j < runs.size(); ++j) {
            const ClientRunOutcome &out = replies[i].value().runs[j];
            ASSERT_TRUE(out.status.ok());
            ASSERT_FALSE(out.result_json.empty());
            // Byte-identical across every client.
            EXPECT_EQ(out.result_json,
                      replies[0].value().runs[j].result_json);
        }
    }

    // The single-flight property: 8 requested runs, 2 unique configs,
    // exactly 2 simulations — the rest memo hits (in-flight or done).
    SweepStats stats = service.runner().sweepStats();
    EXPECT_EQ(stats.requested, 8u);
    EXPECT_EQ(stats.simulated, 2u);
    EXPECT_EQ(stats.memo_hits + stats.disk_hits, 6u);

    // And the service-level counters agree.
    Result<double> reqs = metricsValue("evrsim_service_requests_total",
                                       {{"kind", "sweep"}});
    ASSERT_TRUE(reqs.ok());
    EXPECT_EQ(reqs.value(), 4.0);
    Result<double> conns =
        metricsValue("evrsim_service_connections_total");
    ASSERT_TRUE(conns.ok());
    EXPECT_GE(conns.value(), 4.0);

    SweepService::Stats st = service.stats();
    EXPECT_EQ(st.requests_admitted, 4u);
    EXPECT_EQ(st.requests_completed, 4u);
    EXPECT_EQ(st.runs_completed, 8u);
    EXPECT_EQ(st.runs_failed, 0u);
    service.drain();
}

// Regression: with a multi-thread daemon pool, runs of one request
// finish concurrently, and their progress records must still reach the
// client numbered 1, 2, ..., N in order (the client fails a request
// whose progress goes backwards with DATA_LOSS).
TEST(ServiceProgress, MultiThreadPoolStreamsMonotoneProgress)
{
    TempDir dir;
    std::string sock = dir.path + "/s.sock";
    BenchParams params = tinyParams("");
    params.jobs = 4;
    SweepService service(workloads::factory(), params,
                         serviceConfig(sock));
    ASSERT_TRUE(service.start().ok());

    const std::vector<ClientRunSpec> runs = {
        {"ccs", "baseline"}, {"ccs", "evr"}, {"hop", "baseline"},
        {"hop", "evr"},      {"red", "baseline"}, {"red", "evr"},
        {"wmw", "baseline"}, {"wmw", "evr"}};
    std::vector<std::uint64_t> seen;
    ServiceClient c(clientOptions(sock, "progress"));
    Result<SweepReply> reply =
        c.runSweep("progress-1", runs, [&](const Json &p) {
            seen.push_back(p.at("completed").asU64());
        });
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    ASSERT_EQ(reply.value().runs.size(), runs.size());
    ASSERT_EQ(seen.size(), runs.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
    service.drain();
}

TEST(ServiceClientRetry, BacksOffUntilSlowStartingDaemonArrives)
{
    TempDir dir;
    std::string sock = dir.path + "/s.sock";

    ClientOptions o = clientOptions(sock, "early");
    o.retries = 30;
    o.backoff_base_ms = 25;
    o.backoff_cap_ms = 100;
    Result<SweepReply> reply = Status::unavailable("unset");
    std::thread client_thread([&] {
        ServiceClient c(o);
        reply = c.runSweep("slow-1", {{"ccs", "baseline"}});
    });

    // The daemon arrives well after the client's first attempts.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    SweepService service(workloads::factory(), tinyParams(dir.path),
                         serviceConfig(sock));
    ASSERT_TRUE(service.start().ok());
    client_thread.join();

    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_GT(reply.value().connect_attempts, 1);
    service.drain();
}

TEST(ServiceDeadline, ExpiresWhenNoDaemonEverArrives)
{
    TempDir dir;
    ClientOptions o = clientOptions(dir.path + "/nobody.sock", "d");
    o.retries = 1000;
    o.deadline_ms = 250;
    o.backoff_base_ms = 20;
    ServiceClient c(o);
    auto t0 = std::chrono::steady_clock::now();
    Result<SweepReply> r = c.runSweep("dl-1", {{"ccs", "baseline"}});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::DeadlineExceeded);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              5000);
}

TEST(ServiceCrashRecovery, KillNineRestartAttachIsByteIdentical)
{
#ifdef EVRSIM_SANITIZED
    GTEST_SKIP() << "fork + threads in the daemon child is not "
                    "supported under sanitizers";
#endif
    TempDir dir_crash, dir_ref;
    std::string sock = dir_crash.path + "/s.sock";
    const std::vector<ClientRunSpec> runs = {{"ccs", "baseline"},
                                             {"ccs", "evr"}};

    // Daemon in a child process, so SIGKILL is a true crash.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::alarm(120); // backstop: never outlive the test
        BenchParams p = tinyParams(dir_crash.path);
        p.resume = true;
        SweepService svc(workloads::factory(), p, serviceConfig(sock));
        if (!svc.start().ok())
            ::_exit(3);
        for (;;)
            ::pause();
    }
    ASSERT_TRUE(waitForSocket(sock, 10000));

    // Submit, then SIGKILL the daemon at the first progress record —
    // mid-sweep, after the request and at least one run are journaled.
    ClientOptions o = clientOptions(sock, "victim");
    o.retries = 0;
    std::atomic<bool> killed{false};
    ServiceClient c1(o);
    Result<SweepReply> first = c1.runSweep("crash-1", runs, [&](const Json &) {
        if (!killed.exchange(true))
            ::kill(pid, SIGKILL);
    });
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);
    // `first` usually failed mid-stream; on a fast box the reply may
    // have fully landed before the signal — both are fine here.

    // Restart "the daemon" on the same cache dir (in-process now) and
    // reconnect by bare request id: the spec comes from the request
    // journal, completed runs from the sweep journal/result cache.
    BenchParams p2 = tinyParams(dir_crash.path);
    p2.resume = true;
    SweepService restarted(workloads::factory(), p2, serviceConfig(sock));
    ASSERT_TRUE(restarted.start().ok());
    EXPECT_GE(restarted.stats().resumed_requests, 1u);
    ServiceClient c2(clientOptions(sock, "victim"));
    Result<SweepReply> recovered = c2.attach("crash-1");
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    ASSERT_EQ(recovered.value().runs.size(), runs.size());
    restarted.drain();

    // Reference: the same request against a never-crashed daemon.
    BenchParams pref = tinyParams(dir_ref.path);
    std::string ref_sock = dir_ref.path + "/s.sock";
    SweepService reference(workloads::factory(), pref,
                           serviceConfig(ref_sock));
    ASSERT_TRUE(reference.start().ok());
    ServiceClient c3(clientOptions(ref_sock, "victim"));
    Result<SweepReply> expected = c3.runSweep("crash-1", runs);
    ASSERT_TRUE(expected.ok());
    reference.drain();

    ASSERT_EQ(expected.value().runs.size(), recovered.value().runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        ASSERT_TRUE(recovered.value().runs[i].status.ok());
        ASSERT_FALSE(recovered.value().runs[i].result_json.empty());
        EXPECT_EQ(recovered.value().runs[i].result_json,
                  expected.value().runs[i].result_json)
            << runs[i].workload << "/" << runs[i].config;
    }
}

TEST(ServiceDrain, RefusesNewRequestsAndUnknownAttachIsNotFound)
{
    TempDir dir;
    std::string sock = dir.path + "/s.sock";
    SweepService service(workloads::factory(), tinyParams(dir.path),
                         serviceConfig(sock));
    ASSERT_TRUE(service.start().ok());

    ClientOptions o = clientOptions(sock, "late");
    o.retries = 0;
    ServiceClient client(o);
    Result<SweepReply> missing = client.attach("never-submitted");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), ErrorCode::NotFound);

    service.drain();
    Result<SweepReply> r = client.runSweep("late-1", {{"ccs", "baseline"}});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::Unavailable);
}

TEST(ServiceSocket, LiveSocketRefusedStaleSocketReplaced)
{
    TempDir dir;
    std::string sock = dir.path + "/s.sock";
    BenchParams params = tinyParams(dir.path);

    SweepService owner(workloads::factory(), params, serviceConfig(sock));
    ASSERT_TRUE(owner.start().ok());

    SweepService rival(workloads::factory(), params, serviceConfig(sock));
    Status second = rival.start();
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.code(), ErrorCode::Unavailable);
    EXPECT_NE(second.message().find("another daemon"), std::string::npos);

    owner.drain(); // unlinks the socket

    // A stale socket file (owner crashed without unlinking) is replaced.
    {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        struct sockaddr_un addr = {};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      sock.c_str());
        ASSERT_EQ(::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd); // not listening: a connect probe now fails
    }
    SweepService successor(workloads::factory(), params,
                           serviceConfig(sock));
    ASSERT_TRUE(successor.start().ok());
    ServiceClient probe(clientOptions(sock, "probe"));
    ASSERT_TRUE(probe.ping().ok());
    successor.drain();
}

TEST(CooperativeShutdown, ShedsPendingJobsWithCancelledAndExitCode)
{
    resetShutdownForTest();
    EXPECT_FALSE(shutdownRequested());
    EXPECT_EQ(shutdownExitCode(0), 0);

    requestShutdown(SIGTERM);
    EXPECT_TRUE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), SIGTERM);
    EXPECT_EQ(shutdownExitCode(0), 143);
    EXPECT_EQ(shutdownExitCode(1), 143);

    // Jobs not yet started are shed with Cancelled; the batch reports
    // them as failures and the stats count them.
    BenchParams p = tinyParams("");
    ExperimentRunner runner(workloads::factory(), p);
    SimConfig baseline = SimConfig::baseline(p.gpuConfig());
    BatchOutcome out = runner.runAllChecked({{"ccs", baseline}});
    ASSERT_EQ(out.failures.size(), 1u);
    EXPECT_EQ(out.failures[0].status.code(), ErrorCode::Cancelled);
    EXPECT_EQ(runner.sweepStats().cancelled, 1u);
    EXPECT_EQ(runner.sweepStats().simulated, 0u);

    resetShutdownForTest();
    EXPECT_EQ(shutdownExitCode(0), 0);

    // SIGINT maps to 130.
    requestShutdown(SIGINT);
    EXPECT_EQ(shutdownExitCode(0), 130);
    resetShutdownForTest();
}

TEST(ServiceKnobs, TypoedKnobFailsNamingTheVariable)
{
    BenchParams params = tinyParams("/tmp/x");

    ::setenv("EVRSIM_QUEUE_MAX", "abc", 1);
    Result<ServiceConfig> bad = serviceConfigFromEnvChecked(params);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("EVRSIM_QUEUE_MAX"),
              std::string::npos);
    ::unsetenv("EVRSIM_QUEUE_MAX");

    ::setenv("EVRSIM_CLIENT_QUOTA", "0", 1); // below the minimum of 1
    bad = serviceConfigFromEnvChecked(params);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("EVRSIM_CLIENT_QUOTA"),
              std::string::npos);
    ::unsetenv("EVRSIM_CLIENT_QUOTA");

    ::setenv("EVRSIM_QUEUE_MAX", "7", 1);
    ::setenv("EVRSIM_CLIENT_QUOTA", "3", 1);
    ::setenv("EVRSIM_SOCKET", "/tmp/custom.sock", 1);
    Result<ServiceConfig> good = serviceConfigFromEnvChecked(params);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value().queue_max, 7);
    EXPECT_EQ(good.value().client_quota, 3);
    EXPECT_EQ(good.value().socket_path, "/tmp/custom.sock");
    ::unsetenv("EVRSIM_QUEUE_MAX");
    ::unsetenv("EVRSIM_CLIENT_QUOTA");
    ::unsetenv("EVRSIM_SOCKET");

    // EVRSIM_SHARDS is a bench knob (one parse for every binary); the
    // service takes the fleet width from the params.
    ::setenv("EVRSIM_SHARDS", "-1", 1); // below the minimum of 0
    Result<BenchParams> bad_params = benchParamsFromEnvChecked();
    ASSERT_FALSE(bad_params.ok());
    EXPECT_NE(bad_params.status().message().find("EVRSIM_SHARDS"),
              std::string::npos);

    ::setenv("EVRSIM_SHARDS", "3", 1);
    Result<BenchParams> sharded_params = benchParamsFromEnvChecked();
    ASSERT_TRUE(sharded_params.ok());
    Result<ServiceConfig> sharded =
        serviceConfigFromEnvChecked(sharded_params.value());
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ(sharded.value().fleet.shards, 3);
    ::unsetenv("EVRSIM_SHARDS");

    // Defaults: socket lands next to the cache.
    Result<ServiceConfig> defaults = serviceConfigFromEnvChecked(params);
    ASSERT_TRUE(defaults.ok());
    EXPECT_EQ(defaults.value().socket_path, "/tmp/x/evrsim.sock");
    EXPECT_EQ(defaults.value().queue_max, 256);
    EXPECT_EQ(defaults.value().client_quota, 64);
    // The library default is fleet-off; the daemon binary supplies
    // the cores/4 default on top.
    EXPECT_EQ(defaults.value().fleet.shards, 0);
}

TEST(ServiceKnobs, EventsFileLandsInTheTelemetryDir)
{
    BenchParams params = tinyParams("/tmp/x");
    params.write_summary = true;
    Result<ServiceConfig> next_to_cache =
        serviceConfigFromEnvChecked(params);
    ASSERT_TRUE(next_to_cache.ok());
    EXPECT_EQ(next_to_cache.value().fleet.events_path,
              "/tmp/x/events.jsonl");

    params.obs_dir = "/tmp/obs";
    Result<ServiceConfig> in_obs = serviceConfigFromEnvChecked(params);
    ASSERT_TRUE(in_obs.ok());
    EXPECT_EQ(in_obs.value().fleet.events_path, "/tmp/obs/events.jsonl");

    // EVRSIM_OBS=0 clears write_summary: no events file.
    params.write_summary = false;
    Result<ServiceConfig> none = serviceConfigFromEnvChecked(params);
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(none.value().fleet.events_path, "");
}

TEST(ServiceKnobs, RetiredRemoteShardKnobsFailNamingShards)
{
    BenchParams params = tinyParams("/tmp/x");
    for (const char *knob : {"EVRSIM_FLEET_LISTEN", "EVRSIM_LEASE_MS"}) {
        ::setenv(knob, "127.0.0.1:0", 1);
        Result<ServiceConfig> bad = serviceConfigFromEnvChecked(params);
        ::unsetenv(knob);
        ASSERT_FALSE(bad.ok()) << knob;
        EXPECT_EQ(bad.status().code(), ErrorCode::InvalidArgument);
        const std::string &msg = bad.status().message();
        EXPECT_NE(msg.find(std::string(knob) + " is retired"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("remote shards were removed"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("EVRSIM_SHARDS=n"), std::string::npos) << msg;
    }
    EXPECT_TRUE(serviceConfigFromEnvChecked(params).ok());
}

TEST(ServiceSocket, RacingDaemonsResolveToExactlyOneOwner)
{
    // Two daemons racing the probe -> unlink -> bind sequence on the
    // same socket path: the flock sidecar must pick exactly one owner
    // every round, never zero and never two.
    TempDir dir;
    std::string sock = dir.path + "/race.sock";
    BenchParams params = tinyParams(dir.path);

    for (int round = 0; round < 3; ++round) {
        SweepService a(workloads::factory(), params,
                       serviceConfig(sock));
        SweepService b(workloads::factory(), params,
                       serviceConfig(sock));
        Status sa, sb;
        std::atomic<int> ready{0};
        std::thread ta([&] {
            ++ready;
            while (ready.load() < 2) {
            }
            sa = a.start();
        });
        std::thread tb([&] {
            ++ready;
            while (ready.load() < 2) {
            }
            sb = b.start();
        });
        ta.join();
        tb.join();

        ASSERT_NE(sa.ok(), sb.ok())
            << "round " << round << ": exactly one owner, got "
            << sa.toString() << " / " << sb.toString();
        const Status &loser = sa.ok() ? sb : sa;
        EXPECT_EQ(loser.code(), ErrorCode::Unavailable);

        SweepService &winner = sa.ok() ? a : b;
        ServiceClient probe(clientOptions(sock, "probe"));
        EXPECT_TRUE(probe.ping().ok()) << "round " << round;
        winner.drain(); // releases the lock for the next round
    }
}

TEST(ServiceSigpipe, ClientVanishingMidStreamDoesNotKillTheDaemon)
{
    // A client that submits a sweep and disappears before the reply:
    // every subsequent daemon write lands on a dead socket. The
    // request must still run to completion (cache + journal serve a
    // later attach) and the daemon must survive to serve the next
    // client — an unhandled SIGPIPE would kill the whole process and
    // fail this test binary outright.
    TempDir dir;
    std::string sock = dir.path + "/s.sock";
    BenchParams params = tinyParams(dir.path);

    SweepService service(workloads::factory(), params,
                         serviceConfig(sock));
    ASSERT_TRUE(service.start().ok());

    {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        struct sockaddr_un addr = {};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      sock.c_str());
        ASSERT_EQ(
            ::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof(addr)),
            0);
        Json req = Json::object();
        req.set("type", "sweep");
        req.set("id", "vanishing-client");
        req.set("client", "ghost");
        Json runs = Json::array();
        Json run = Json::object();
        run.set("workload", workloads::allAliases().front());
        run.set("config", "baseline");
        runs.push(std::move(run));
        req.set("runs", std::move(runs));
        ASSERT_TRUE(writeServiceMessage(fd, std::move(req)).ok());
        // Vanish mid-stream: the accepted/progress/result frames all
        // hit a closed peer.
        ::close(fd);
    }

    // The orphaned request still completes...
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service.stats().requests_completed < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(service.stats().requests_completed, 1u);

    // ...and the daemon is alive and serving afterwards: a reconnect
    // by the same idempotent id gets the full reply.
    ServiceClient client(clientOptions(sock, "ghost"));
    Result<SweepReply> attached = client.attach("vanishing-client");
    ASSERT_TRUE(attached.ok()) << attached.status().toString();
    ASSERT_EQ(attached.value().runs.size(), 1u);
    EXPECT_TRUE(attached.value().runs[0].status.ok());

    service.drain();
}

// --- mid-stream progress damage ------------------------------------
//
// A fake daemon that serves each accepted connection with a scripted
// handler, so tests can damage the progress stream in ways the real
// daemon never would: duplicate a record, corrupt a line's bytes, or
// cut a line in half and vanish. The client contract under every kind
// of damage is the same — surface a structured error and resubmit
// under the idempotent id, never hang and never return a partial
// table.

struct ScriptedServer {
    int listen_fd = -1;
    std::thread thread;

    ScriptedServer(const std::string &path,
                   std::vector<std::function<void(int fd)>> scripts)
    {
        listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        EXPECT_GE(listen_fd, 0);
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::bind(listen_fd,
                         reinterpret_cast<struct sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listen_fd, 8), 0);
        thread = std::thread([this, scripts = std::move(scripts)] {
            for (const auto &script : scripts) {
                int fd = ::accept(listen_fd, nullptr, nullptr);
                if (fd < 0)
                    return;
                script(fd);
                ::close(fd);
            }
        });
    }

    ~ScriptedServer()
    {
        if (listen_fd >= 0) {
            ::shutdown(listen_fd, SHUT_RDWR);
            ::close(listen_fd);
        }
        if (thread.joinable())
            thread.join();
    }
};

std::string
framedLine(Json payload)
{
    return wrapEnvelope(std::move(payload), kServiceProtocolVersion)
               .dump(0) +
           "\n";
}

void
sendRaw(int fd, const std::string &bytes)
{
    ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
}

Json
progressMsg(const std::string &id, std::uint64_t completed,
            std::uint64_t total)
{
    Json p = Json::object();
    p.set("type", "progress");
    p.set("id", id);
    p.set("completed", completed);
    p.set("total", total);
    p.set("workload", "w");
    p.set("config", "base");
    p.set("ok", false);
    p.set("final", false);
    return p;
}

/** Drain the client's request, then send `accepted`. */
void
acceptRequest(int fd, const std::string &id)
{
    MessageReader reader(fd);
    Result<Json> req = reader.next(2000);
    EXPECT_TRUE(req.ok());
    Json acc = Json::object();
    acc.set("type", "accepted");
    acc.set("id", id);
    sendRaw(fd, framedLine(std::move(acc)));
}

/** A complete (failed-run) result message: enough for parseResult. */
void
serveResult(int fd, const std::string &id)
{
    acceptRequest(fd, id);
    Json run = Json::object();
    run.set("workload", "w");
    run.set("config", "base");
    run.set("ok", false);
    run.set("status", statusToJson(Status::internal("scripted run")));
    Json runs = Json::array();
    runs.push(std::move(run));
    Json res = Json::object();
    res.set("type", "result");
    res.set("id", id);
    res.set("runs", std::move(runs));
    res.set("elapsed_s", 0.0);
    sendRaw(fd, framedLine(std::move(res)));
}

ClientOptions
damageClientOptions(const std::string &socket_path)
{
    ClientOptions o = clientOptions(socket_path, "damage-client");
    o.deadline_ms = 10000; // damage must never hang the client
    return o;
}

TEST(ServiceClientStreamDamage, DuplicatedProgressRecordResubmits)
{
    TempDir tmp;
    std::string sock = tmp.path + "/scripted.sock";
    const std::string id = "dup-progress";

    ScriptedServer server(
        sock, {[&](int fd) {
                   acceptRequest(fd, id);
                   std::string p = framedLine(progressMsg(id, 1, 2));
                   sendRaw(fd, p);
                   sendRaw(fd, p); // wire-dup: completed=1 twice
                   // Hold the connection open; the client must give
                   // up on its own, not because we hung up.
                   std::this_thread::sleep_for(
                       std::chrono::milliseconds(500));
               },
               [&](int fd) { serveResult(fd, id); }});

    std::vector<std::uint64_t> seen;
    ServiceClient client(damageClientOptions(sock));
    Result<SweepReply> reply = client.runSweep(
        id, {{"w", "base"}}, [&](const Json &p) {
            if (const Json *c = p.find("completed"))
                seen.push_back(c->asU64());
        });
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().resubmits, 1);
    ASSERT_EQ(reply.value().runs.size(), 1u);
    // The duplicated record was never forwarded to the callback.
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_GT(seen[i], seen[i - 1]);
}

TEST(ServiceClientStreamDamage, CorruptedProgressLineResubmits)
{
    TempDir tmp;
    std::string sock = tmp.path + "/scripted.sock";
    const std::string id = "corrupt-progress";

    ScriptedServer server(
        sock, {[&](int fd) {
                   acceptRequest(fd, id);
                   std::string p = framedLine(progressMsg(id, 1, 2));
                   p[p.size() / 2] ^= 0x20; // CRC now lies
                   sendRaw(fd, p);
                   std::this_thread::sleep_for(
                       std::chrono::milliseconds(500));
               },
               [&](int fd) { serveResult(fd, id); }});

    ServiceClient client(damageClientOptions(sock));
    Result<SweepReply> reply =
        client.runSweep(id, {{"w", "base"}}, nullptr);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().resubmits, 1);
    ASSERT_EQ(reply.value().runs.size(), 1u);
}

TEST(ServiceClientStreamDamage, TruncatedProgressLineResubmits)
{
    TempDir tmp;
    std::string sock = tmp.path + "/scripted.sock";
    const std::string id = "torn-progress";

    ScriptedServer server(
        sock, {[&](int fd) {
                   acceptRequest(fd, id);
                   std::string p = framedLine(progressMsg(id, 1, 2));
                   // Half a line, then vanish: the client sees a torn
                   // fragment at EOF, not a parseable record.
                   sendRaw(fd, p.substr(0, p.size() / 2));
               },
               [&](int fd) { serveResult(fd, id); }});

    ServiceClient client(damageClientOptions(sock));
    Result<SweepReply> reply =
        client.runSweep(id, {{"w", "base"}}, nullptr);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().resubmits, 1);
    ASSERT_EQ(reply.value().runs.size(), 1u);
}

} // namespace
} // namespace evrsim
