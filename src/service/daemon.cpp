/**
 * @file
 * SweepService implementation.
 */
#include "service/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/env.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/net.hpp"
#include "common/shutdown.hpp"
#include "common/trace.hpp"
#include "driver/envelope.hpp"

namespace evrsim {

namespace {

double
elapsedSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Probe an existing socket file: is a live daemon behind it? */
bool
socketIsLive(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    bool live = ::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                          sizeof(addr)) == 0;
    ::close(fd);
    return live;
}

} // namespace

Result<ServiceConfig>
serviceConfigFromEnvChecked(const BenchParams &params)
{
    ServiceConfig cfg;
    cfg.fleet = fleetConfigFromParams(params);
    if (const char *sock = std::getenv("EVRSIM_SOCKET");
        sock && *sock != '\0')
        cfg.socket_path = sock;
    else if (!params.cache_dir.empty())
        cfg.socket_path =
            (std::filesystem::path(params.cache_dir) / "evrsim.sock")
                .string();
    else
        cfg.socket_path = "evrsim.sock";

    long long v = 0;
    bool present = false;
    if (Status s = readIntKnob("EVRSIM_QUEUE_MAX", 1, 1000000, v, present);
        !s.ok())
        return s;
    if (present)
        cfg.queue_max = static_cast<int>(v);
    if (Status s =
            readIntKnob("EVRSIM_CLIENT_QUOTA", 1, 1000000, v, present);
        !s.ok())
        return s;
    if (present)
        cfg.client_quota = static_cast<int>(v);
    for (const char *retired : {"EVRSIM_FLEET_LISTEN", "EVRSIM_LEASE_MS"})
        if (Status s = rejectRetiredKnob(
                retired, "remote shards were removed; set EVRSIM_SHARDS=n "
                         "to run n local shard processes");
            !s.ok())
            return s;
    // Lifecycle-event persistence goes in the telemetry dir (off with
    // EVRSIM_OBS=0); the in-memory ring serves `status` either way.
    if (std::string dir = params.obsDir();
        params.write_summary && !dir.empty())
        cfg.fleet.events_path =
            (std::filesystem::path(dir) / "events.jsonl").string();
    return cfg;
}

SweepService::SweepService(WorkloadFactory factory,
                           const BenchParams &params,
                           const ServiceConfig &config)
    : factory_(std::move(factory)),
      params_(params), config_(config),
      runner_(factory_, params_), pool_(params_.resolvedJobs())
{
    if (fleetEnabled(config_.fleet)) {
        if (config_.fleet.shard_params_json.empty())
            config_.fleet.shard_params_json = shardParamsJson(params_);
        fleet_ = std::make_unique<ShardFleet>(
            config_.fleet,
            [this](const std::string &alias, const SimConfig &config) {
                return runner_.trySimulate(alias, config);
            });
        runner_.setWorkerLauncher(
            [this](const std::string &alias, const SimConfig &config,
                   const std::string &key) {
                return fleet_->execute(alias, config, key);
            });
    }

    std::string jpath = requestJournalPath();
    if (jpath.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(params_.cache_dir, ec);

    // Recover request identity from a previous daemon's journal: every
    // known spec becomes attachable, and the not-yet-done ones are the
    // crash-resume inventory a reconnecting client will re-run (cheaply,
    // via the sweep journal + result cache).
    Result<RequestJournal::Replay> rep = RequestJournal::replay(jpath);
    if (rep.ok()) {
        std::size_t pending = 0;
        for (auto &kv : rep.value().specs) {
            if (!rep.value().done.count(kv.first))
                ++pending;
            specs_[kv.first] = std::move(kv.second);
        }
        stats_.resumed_requests = pending;
        if (!specs_.empty())
            inform("service: replayed %zu request(s) from %s "
                   "(%zu pending, %zu damaged record(s) dropped)",
                   specs_.size(), jpath.c_str(), pending,
                   rep.value().damaged);
    } else {
        warn("service: request journal replay failed: %s",
             rep.status().message().c_str());
    }
    if (Status s = journal_.open(jpath); !s.ok())
        warn("service: request journal disabled: %s",
             s.message().c_str());
}

SweepService::~SweepService() { drain(); }

std::string
SweepService::requestJournalPath() const
{
    if (params_.cache_dir.empty())
        return {};
    return (std::filesystem::path(params_.cache_dir) / "service.journal")
        .string();
}

Status
SweepService::start()
{
    if (listen_fd_ >= 0)
        return {};

    // A client vanishing mid-progress-stream (or a shard pipe/socket
    // breaking) must surface as a write Status, never a
    // process-killing SIGPIPE.
    ignoreSigpipe();

    struct sockaddr_un addr;
    if (config_.socket_path.size() >= sizeof(addr.sun_path))
        return Status::invalidArgument(
            "EVRSIM_SOCKET path too long for a UNIX socket (" +
            std::to_string(config_.socket_path.size()) + " > " +
            std::to_string(sizeof(addr.sun_path) - 1) + " bytes): " +
            config_.socket_path);

    // Socket ownership is decided by an flock'd sidecar, not by the
    // probe: two daemons racing the probe->unlink->bind sequence on
    // one path would otherwise both "win" (one binds, the other
    // unlinks the winner's socket out from under it). The lock is
    // held for the daemon's lifetime and the lock file is never
    // unlinked — see lock_fd_.
    std::string lock_path = config_.socket_path + ".lock";
    int lock_fd = ::open(lock_path.c_str(),
                         O_CREAT | O_RDWR | O_CLOEXEC, 0600);
    if (lock_fd < 0)
        return Status::unavailable("open " + lock_path + ": " +
                                   std::strerror(errno));
    if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
        ::close(lock_fd);
        return Status::unavailable("another daemon owns " +
                                   config_.socket_path +
                                   " (lock held on " + lock_path + ")");
    }
    lock_fd_ = lock_fd;
    auto release_lock = [this] {
        if (lock_fd_ >= 0) {
            ::close(lock_fd_); // releases the flock; never unlink
            lock_fd_ = -1;
        }
    };

    if (::access(config_.socket_path.c_str(), F_OK) == 0) {
        // With the lock held this is belt-and-braces (a live daemon
        // would be holding the lock), but it still catches a daemon
        // from before the sidecar existed.
        if (socketIsLive(config_.socket_path)) {
            release_lock();
            return Status::unavailable("another daemon is serving on " +
                                       config_.socket_path);
        }
        // Stale socket file left behind by a crashed daemon.
        warn("service: replacing stale socket %s",
             config_.socket_path.c_str());
        ::unlink(config_.socket_path.c_str());
    }

    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        release_lock();
        return Status::unavailable(std::string("socket: ") +
                                   std::strerror(errno));
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        Status s = Status::unavailable("bind " + config_.socket_path +
                                       ": " + std::strerror(errno));
        ::close(fd);
        release_lock();
        return s;
    }
    bound_ = true;
    if (::listen(fd, 64) != 0) {
        Status s = Status::unavailable("listen " + config_.socket_path +
                                       ": " + std::strerror(errno));
        ::close(fd);
        ::unlink(config_.socket_path.c_str());
        bound_ = false;
        release_lock();
        return s;
    }
    listen_fd_ = fd;
    if (fleet_) {
        if (Status s = fleet_->start(); !s.ok()) {
            // Degradation, not failure: every run takes the in-daemon
            // fallback until the monitor heals the fleet.
            warn("service: fleet start: %s", s.message().c_str());
        }
    }
    stop_accept_.store(false);
    accept_thread_ = std::thread([this] { acceptLoop(); });
    inform("service: listening on %s (queue_max=%d client_quota=%d "
           "jobs=%d shards=%d)",
           config_.socket_path.c_str(), config_.queue_max,
           config_.client_quota, params_.resolvedJobs(),
           fleet_ ? config_.fleet.shards : 0);
    return {};
}

void
SweepService::acceptLoop()
{
    for (;;) {
        if (stop_accept_.load(std::memory_order_relaxed))
            return;
        struct pollfd pfd;
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        int pr = ::poll(&pfd, 1, config_.poll_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            warn("service: accept poll: %s", std::strerror(errno));
            return;
        }
        if (pr == 0)
            continue;
        int cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (cfd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return; // listen fd closed under us: draining
        }
        {
            std::lock_guard<std::mutex> lock(admit_mu_);
            ++stats_.connections;
        }
        metricsCounterAdd("evrsim_service_connections_total", 1.0);
        std::lock_guard<std::mutex> lock(conns_mu_);
        // Reap connections whose threads already finished.
        for (auto it = conns_.begin(); it != conns_.end();) {
            if ((*it)->done.load()) {
                if ((*it)->thread.joinable())
                    (*it)->thread.join();
                if ((*it)->fd >= 0)
                    ::close((*it)->fd);
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = cfd;
        Conn *raw = conn.get();
        conn->thread = std::thread([this, raw] { serveConnection(*raw); });
        conns_.push_back(std::move(conn));
    }
}

void
SweepService::serveConnection(Conn &conn)
{
    MessageReader reader(conn.fd);
    for (;;) {
        Result<Json> msg = reader.next(config_.poll_ms);
        if (!msg.ok()) {
            ErrorCode code = msg.status().code();
            if (code == ErrorCode::DeadlineExceeded) {
                // Idle between messages; leave once draining.
                bool draining;
                {
                    std::lock_guard<std::mutex> lock(admit_mu_);
                    draining = draining_;
                }
                if (draining)
                    break;
                continue;
            }
            if (code == ErrorCode::DataLoss) {
                // A torn or damaged line; the framing is
                // self-delimiting, so report it and keep serving.
                {
                    std::lock_guard<std::mutex> lock(admit_mu_);
                    ++stats_.invalid_requests;
                }
                sendError(conn, "", msg.status());
                continue;
            }
            break; // peer closed or socket error
        }
        dispatch(conn, msg.value());
    }
    conn.done.store(true);
}

void
SweepService::dispatch(Conn &conn, const Json &msg)
{
    const Json *type = msg.find("type");
    if (!type || type->type() != Json::Type::String) {
        std::lock_guard<std::mutex> lock(admit_mu_);
        ++stats_.invalid_requests;
        sendError(conn, "",
                  Status::invalidArgument(
                      "message has no string 'type' member"));
        return;
    }

    if (type->asString() == "ping") {
        bool draining;
        {
            std::lock_guard<std::mutex> lock(admit_mu_);
            draining = draining_;
        }
        Json pong = Json::object();
        pong.set("type", "pong");
        pong.set("draining", draining);
        send(conn, std::move(pong));
        return;
    }

    if (type->asString() == "status") {
        bool want_events = false;
        if (const Json *ev = msg.find("events");
            ev && ev->type() == Json::Type::Bool)
            want_events = ev->asBool();
        bool draining;
        Stats st;
        {
            std::lock_guard<std::mutex> lock(admit_mu_);
            draining = draining_;
            st = stats_;
        }
        Json svc = Json::object();
        svc.set("connections", static_cast<double>(st.connections));
        svc.set("requests_admitted",
                static_cast<double>(st.requests_admitted));
        svc.set("requests_completed",
                static_cast<double>(st.requests_completed));
        svc.set("requests_attached",
                static_cast<double>(st.requests_attached));
        svc.set("shed_queue_full",
                static_cast<double>(st.shed_queue_full));
        svc.set("shed_quota", static_cast<double>(st.shed_quota));
        svc.set("shed_draining",
                static_cast<double>(st.shed_draining));
        svc.set("invalid_requests",
                static_cast<double>(st.invalid_requests));
        svc.set("runs_completed",
                static_cast<double>(st.runs_completed));
        svc.set("runs_failed", static_cast<double>(st.runs_failed));
        svc.set("resumed_requests",
                static_cast<double>(st.resumed_requests));
        Json reply = Json::object();
        reply.set("type", "status");
        reply.set("draining", draining);
        reply.set("service", std::move(svc));
        if (fleet_) {
            reply.set("fleet", fleet_->statusJson());
            if (want_events)
                reply.set("events", fleet_->eventsJson());
        }
        send(conn, std::move(reply));
        return;
    }

    const Json *id_j = msg.find("id");
    std::string id =
        id_j && id_j->type() == Json::Type::String ? id_j->asString() : "";

    if (type->asString() == "sweep") {
        const Json *runs = msg.find("runs");
        if (id.empty() || !runs || runs->type() != Json::Type::Array ||
            runs->size() == 0) {
            {
                std::lock_guard<std::mutex> lock(admit_mu_);
                ++stats_.invalid_requests;
            }
            sendError(conn, id,
                      Status::invalidArgument(
                          "sweep needs a non-empty string 'id' and a "
                          "non-empty 'runs' array"));
            return;
        }
        const Json *client = msg.find("client");
        Json spec = Json::object();
        spec.set("client",
                 client && client->type() == Json::Type::String
                     ? client->asString()
                     : std::string("anonymous"));
        spec.set("runs", *runs);
        executeRequest(conn, id, spec, /*attached=*/false);
        return;
    }

    if (type->asString() == "attach") {
        if (id.empty()) {
            {
                std::lock_guard<std::mutex> lock(admit_mu_);
                ++stats_.invalid_requests;
            }
            sendError(conn, id,
                      Status::invalidArgument(
                          "attach needs a non-empty string 'id'"));
            return;
        }
        Json spec;
        {
            std::lock_guard<std::mutex> lock(specs_mu_);
            auto it = specs_.find(id);
            if (it == specs_.end()) {
                sendError(conn, id,
                          Status::notFound(
                              "unknown request id '" + id +
                              "' (not in memory or the request "
                              "journal)"));
                return;
            }
            spec = it->second;
        }
        executeRequest(conn, id, spec, /*attached=*/true);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(admit_mu_);
        ++stats_.invalid_requests;
    }
    sendError(conn, id,
              Status::invalidArgument("unknown message type '" +
                                      type->asString() + "'"));
}

void
SweepService::executeRequest(Conn &conn, const std::string &id,
                             const Json &spec, bool attached)
{
    const Json *client_j = spec.find("client");
    std::string client = client_j &&
                                 client_j->type() == Json::Type::String
                             ? client_j->asString()
                             : "anonymous";
    const Json *runs_j = spec.find("runs");
    if (!runs_j || runs_j->type() != Json::Type::Array ||
        runs_j->size() == 0) {
        {
            std::lock_guard<std::mutex> lock(admit_mu_);
            ++stats_.invalid_requests;
        }
        sendError(conn, id,
                  Status::invalidArgument("request spec has no runs"));
        return;
    }

    // Parse every run up front so an invalid request is rejected whole,
    // before it can consume admission slots or journal space.
    GpuConfig gpu = params_.gpuConfig();
    std::vector<RunSlot> slots;
    slots.reserve(runs_j->size());
    for (std::size_t i = 0; i < runs_j->size(); ++i) {
        const Json &r = runs_j->at(i);
        const Json *wl = r.find("workload");
        const Json *cf = r.find("config");
        if (!wl || wl->type() != Json::Type::String || !cf ||
            cf->type() != Json::Type::String) {
            {
                std::lock_guard<std::mutex> lock(admit_mu_);
                ++stats_.invalid_requests;
            }
            sendError(conn, id,
                      Status::invalidArgument(
                          "runs[" + std::to_string(i) +
                          "] needs string 'workload' and 'config'"));
            return;
        }
        Result<SimConfig> config = configByName(cf->asString(), gpu);
        if (!config.ok()) {
            {
                std::lock_guard<std::mutex> lock(admit_mu_);
                ++stats_.invalid_requests;
            }
            sendError(conn, id, config.status());
            return;
        }
        RunSlot slot;
        slot.workload = wl->asString();
        slot.config_name = cf->asString();
        slot.config = config.value();
        slots.push_back(std::move(slot));
    }

    if (Status adm = admit(client, slots.size()); !adm.ok()) {
        sendError(conn, id, adm);
        return;
    }

    // Write-ahead: the request exists durably before any of its work.
    journal_.recordRequest(id, spec);
    {
        std::lock_guard<std::mutex> lock(specs_mu_);
        specs_[id] = spec;
    }
    {
        std::lock_guard<std::mutex> lock(admit_mu_);
        ++stats_.requests_admitted;
        if (attached)
            ++stats_.requests_attached;
    }
    metricsCounterAdd("evrsim_service_requests_total", 1.0,
                      {{"kind", attached ? "attach" : "sweep"}});

    Json accepted = Json::object();
    accepted.set("type", "accepted");
    accepted.set("id", id);
    accepted.set("total", static_cast<std::uint64_t>(slots.size()));
    send(conn, std::move(accepted));

    auto t0 = std::chrono::steady_clock::now();
    // Numbering a run's progress record and sending it happen under one
    // lock: with several pool threads finishing runs of this request
    // together, an atomic count alone lets record k+1 overtake record k
    // on the socket, and the client rejects non-monotone progress.
    std::mutex progress_mu;
    std::size_t completed = 0;
    std::size_t total = slots.size();

    std::vector<std::function<void()>> jobs;
    jobs.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        jobs.push_back([this, &conn, &slots, &progress_mu, &completed, &id,
                        &client, total, t0, i] {
            RunSlot &s = slots[i];
            Result<RunResult> r = [&]() -> Result<RunResult> {
                try {
                    return runner_.tryRun(s.workload, s.config);
                } catch (const std::exception &e) {
                    return Status::internal(
                        std::string("run threw: ") + e.what());
                } catch (...) {
                    return Status::internal("run threw");
                }
            }();
            if (r.ok()) {
                s.ok = true;
                s.result = r.value();
            } else {
                s.status = r.status();
            }
            {
                std::lock_guard<std::mutex> lock(progress_mu);
                Json prog = Json::object();
                prog.set("type", "progress");
                prog.set("id", id);
                prog.set("completed", static_cast<std::uint64_t>(++completed));
                prog.set("total", static_cast<std::uint64_t>(total));
                prog.set("workload", s.workload);
                prog.set("config", s.config_name);
                prog.set("ok", s.ok);
                prog.set("elapsed_s", elapsedSeconds(t0));
                prog.set("final", false);
                send(conn, std::move(prog));
            }

            {
                std::lock_guard<std::mutex> lock(admit_mu_);
                ++stats_.runs_completed;
                if (!s.ok)
                    ++stats_.runs_failed;
            }
            finishRun(client);
        });
    }
    // The connection thread helps run its own jobs; with a 1-thread
    // pool this is exactly the serial bench path per request, and
    // cross-request parallelism comes from the connection threads.
    pool_.runBatch(std::move(jobs));

    Json runs_out = Json::array();
    for (const RunSlot &s : slots) {
        Json r = Json::object();
        r.set("workload", s.workload);
        r.set("config", s.config_name);
        r.set("ok", s.ok);
        if (s.ok)
            r.set("result", s.result.toJson(false));
        else
            r.set("status", statusToJson(s.status));
        runs_out.push(std::move(r));
    }
    SweepStats sw = runner_.sweepStats();
    Json sweep_stats = Json::object();
    sweep_stats.set("requested", sw.requested);
    sweep_stats.set("simulated", sw.simulated);
    sweep_stats.set("disk_hits", sw.disk_hits);
    sweep_stats.set("memo_hits", sw.memo_hits);
    sweep_stats.set("failed", sw.failed);

    Json reply = Json::object();
    reply.set("type", "result");
    reply.set("id", id);
    reply.set("final", true);
    reply.set("elapsed_s", elapsedSeconds(t0));
    reply.set("runs", std::move(runs_out));
    reply.set("stats", std::move(sweep_stats));
    // Bookkeeping lands before the reply so a client that returns from
    // runSweep() observes a consistent stats() snapshot; finishRequest()
    // stays after the send because drain() may shut the socket as soon
    // as the active-request count reaches zero.
    journal_.recordDone(id);
    {
        std::lock_guard<std::mutex> lock(admit_mu_);
        ++stats_.requests_completed;
    }
    send(conn, std::move(reply));
    finishRequest();
}

Status
SweepService::admit(const std::string &client, std::size_t nruns)
{
    std::lock_guard<std::mutex> lock(admit_mu_);
    if (draining_) {
        ++stats_.shed_draining;
        metricsCounterAdd("evrsim_service_shed_total", 1.0,
                          {{"reason", "draining"}});
        return Status::unavailable(
            "service is draining; retry against the next daemon");
    }
    if (outstanding_runs_ + nruns >
        static_cast<std::size_t>(config_.queue_max)) {
        ++stats_.shed_queue_full;
        metricsCounterAdd("evrsim_service_shed_total", 1.0,
                          {{"reason", "queue_full"}});
        return Status::resourceExhausted(
            "admission queue full: " + std::to_string(outstanding_runs_) +
            " run(s) in flight + " + std::to_string(nruns) +
            " requested exceeds EVRSIM_QUEUE_MAX=" +
            std::to_string(config_.queue_max) + "; back off and retry");
    }
    std::size_t &mine = per_client_[client];
    if (mine + nruns > static_cast<std::size_t>(config_.client_quota)) {
        std::size_t in_flight = mine; // erase below frees `mine`
        if (in_flight == 0)
            per_client_.erase(client);
        ++stats_.shed_quota;
        metricsCounterAdd("evrsim_service_shed_total", 1.0,
                          {{"reason", "quota"}});
        return Status::resourceExhausted(
            "client '" + client + "' has " + std::to_string(in_flight) +
            " run(s) in flight + " + std::to_string(nruns) +
            " requested exceeds EVRSIM_CLIENT_QUOTA=" +
            std::to_string(config_.client_quota) + "; back off and retry");
    }
    outstanding_runs_ += nruns;
    mine += nruns;
    ++active_requests_;
    return {};
}

void
SweepService::finishRun(const std::string &client)
{
    std::lock_guard<std::mutex> lock(admit_mu_);
    if (outstanding_runs_ > 0)
        --outstanding_runs_;
    auto it = per_client_.find(client);
    if (it != per_client_.end()) {
        if (it->second > 0)
            --it->second;
        if (it->second == 0)
            per_client_.erase(it);
    }
}

void
SweepService::finishRequest()
{
    std::lock_guard<std::mutex> lock(admit_mu_);
    if (active_requests_ > 0)
        --active_requests_;
    drained_cv_.notify_all();
}

void
SweepService::send(Conn &conn, Json payload)
{
    std::lock_guard<std::mutex> lock(conn.write_mu);
    if (conn.dead.load(std::memory_order_relaxed))
        return;
    if (Status s = writeServiceMessage(conn.fd, std::move(payload));
        !s.ok()) {
        // The peer vanished mid-request. The request keeps running to
        // completion (its results land in cache/journal, so the client
        // can reconnect and attach); only the streaming stops.
        conn.dead.store(true, std::memory_order_relaxed);
        inform("service: client connection lost: %s",
               s.message().c_str());
    }
}

void
SweepService::sendError(Conn &conn, const std::string &id,
                        const Status &why)
{
    Json err = Json::object();
    err.set("type", "error");
    if (!id.empty())
        err.set("id", id);
    err.set("status", statusToJson(why));
    send(conn, std::move(err));
}

void
SweepService::drain()
{
    {
        std::lock_guard<std::mutex> lock(admit_mu_);
        draining_ = true;
    }
    stop_accept_.store(true);
    if (accept_thread_.joinable())
        accept_thread_.join();

    // Let in-flight requests finish and send their final replies.
    {
        std::unique_lock<std::mutex> lk(admit_mu_);
        drained_cv_.wait(lk, [&] { return active_requests_ == 0; });
    }

    // No runs are in flight anymore: retire the shard fleet.
    if (fleet_)
        fleet_->stop();

    // A SIGTERM drain must leave a parseable trace, not rely on
    // atexit (the fleet's stop() flushed it too, with shard spans).
    if (traceActive())
        (void)traceWrite();

    // Wake idle readers (they observe draining_ and exit) and join.
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto &c : conns_)
            if (!c->done.load())
                ::shutdown(c->fd, SHUT_RDWR);
        for (auto &c : conns_) {
            if (c->thread.joinable())
                c->thread.join();
            if (c->fd >= 0) {
                ::close(c->fd);
                c->fd = -1;
            }
        }
        conns_.clear();
    }

    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    if (bound_) {
        ::unlink(config_.socket_path.c_str());
        bound_ = false;
    }
    // Release ownership of the socket path. Close only — never unlink
    // the lock file (see lock_fd_ in daemon.hpp).
    if (lock_fd_ >= 0) {
        ::close(lock_fd_);
        lock_fd_ = -1;
    }
}

void
SweepService::serveUntilShutdown()
{
    while (!shutdownRequested())
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config_.poll_ms));
    inform("service: shutdown signal received; draining");
    drain();
}

SweepService::Stats
SweepService::stats() const
{
    std::lock_guard<std::mutex> lock(admit_mu_);
    return stats_;
}

} // namespace evrsim
