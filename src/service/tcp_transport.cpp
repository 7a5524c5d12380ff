/**
 * @file
 * TCP shard transport implementation: the control-plane listener +
 * registration/lease machinery on one side, the remote shard's
 * dial/register/serve loop on the other (tcp_transport.hpp).
 */
#include "service/tcp_transport.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault_injector.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/net.hpp"
#include "common/shutdown.hpp"
#include "driver/envelope.hpp"
#include "service/service_protocol.hpp"

namespace evrsim {

namespace {

using Clock = std::chrono::steady_clock;

/** I/O budget for one framed write or one handshake read. */
constexpr int kIoDeadlineMs = 5000;

/** Frame @p payload (already epoch-stamped) as one enveloped line. */
std::string
frameLine(Json payload)
{
    std::string line =
        wrapEnvelope(std::move(payload), kShardProtocolVersion).dump(0);
    line += '\n';
    return line;
}

enum class NetSend {
    Sent,             ///< the frame went out whole
    Swallowed,        ///< blackholed (partition active or started)
    PartitionStarted, ///< this draw opened a partition window
    Torn,             ///< connection shut down (net-reset or a failed
                      ///< write) — the frame is gone and so is the fd
};

/**
 * One framed write through the network fault sites. Draw order:
 * partition (blackhole window), delay (held frame), reset (half the
 * frame then a shutdown, modelling an RST mid-frame). A real write
 * failure also tears the connection so the owning reader observes the
 * loss promptly.
 */
NetSend
netChaosSend(int fd, const std::string &line, FaultInjector &faults,
             Clock::time_point &partition_until)
{
    if (faults.enabled()) {
        Clock::time_point now = Clock::now();
        if (now < partition_until)
            return NetSend::Swallowed;
        if (faults.shouldFail(FaultSite::NetPartition)) {
            partition_until =
                now + std::chrono::milliseconds(kNetPartitionMs);
            return NetSend::PartitionStarted;
        }
        if (faults.shouldFail(FaultSite::NetDelay))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kNetDelayMs));
        if (faults.shouldFail(FaultSite::NetReset) && line.size() > 1) {
            sendAllDeadline(fd, line.data(), line.size() / 2,
                            kIoDeadlineMs);
            ::shutdown(fd, SHUT_RDWR);
            return NetSend::Torn;
        }
    }
    if (!sendAllDeadline(fd, line.data(), line.size(), kIoDeadlineMs)
             .ok()) {
        ::shutdown(fd, SHUT_RDWR);
        return NetSend::Torn;
    }
    return NetSend::Sent;
}

// --- control-plane side ---------------------------------------------

class TcpShardTransport final : public ShardTransport
{
  public:
    explicit TcpShardTransport(FleetConfig config)
        : config_(std::move(config))
    {
    }

    ~TcpShardTransport() override { stop(); }

    const char *name() const override { return "tcp"; }

    Status
    start(TransportHooks hooks) override
    {
        hooks_ = std::move(hooks);
        stopping_.store(false);
        draining_.store(false);
        eps_.clear();
        for (int i = 0; i < config_.shards; ++i) {
            auto e = std::make_unique<Endpoint>();
            e->index = i;
            eps_.push_back(std::move(e));
        }
        Result<int> lfd = tcpListen(config_.listen, 16);
        if (!lfd.ok())
            return lfd.status().withContext("fleet listen");
        listen_fd_ = lfd.value();
        listen_addr_ = evrsim::listenAddress(listen_fd_);
        inform("fleet: listening for remote shards on %s",
               listen_addr_.c_str());

        // Materialize the remote-fleet counters at zero so a quiet
        // fleet *asserts* quiet (a missing counter and a zero counter
        // must be distinguishable in metrics.json).
        metricsCounterAdd("evrsim_fleet_fences_total", 0.0);
        metricsCounterAdd("evrsim_fleet_reconnects_total", 0.0);
        metricsCounterAdd("evrsim_fleet_partitions_total", 0.0);
        metricsCounterAdd("evrsim_fleet_stale_epochs_total", 0.0);
        metricsCounterAdd("evrsim_fleet_registrations_total", 0.0);
        metricsCounterAdd("evrsim_fleet_shed_registrations_total", 0.0);

        started_ = true;
        acceptor_ = std::thread([this] { acceptorLoop(); });
        return {};
    }

    void
    stop() override
    {
        if (!started_)
            return;
        stopping_.store(true);
        if (acceptor_.joinable())
            acceptor_.join();
        for (auto &e : eps_) {
            std::lock_guard<std::mutex> lock(e->mu);
            if (e->fd >= 0)
                ::shutdown(e->fd, SHUT_RDWR);
        }
        for (auto &e : eps_) {
            if (e->reader.joinable())
                e->reader.join();
        }
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        started_ = false;
    }

    bool
    writeFrame(int slot, Json payload) override
    {
        Endpoint &e = *eps_[static_cast<std::size_t>(slot)];
        std::lock_guard<std::mutex> lock(e.mu);
        if (e.fd < 0)
            return false;
        payload.set("epoch", e.epoch);
        NetSend sent = netChaosSend(e.fd, frameLine(std::move(payload)),
                                    faults_, e.partition_until);
        if (sent == NetSend::PartitionStarted) {
            bump(&TransportStats::partitions,
                 "evrsim_fleet_partitions_total");
            warn("fleet: injected partition of shard %d for %d ms",
                 e.index, kNetPartitionMs);
        }
        // A swallowed frame still reports success: silence is the
        // run-deadline/lease machinery's job to detect, exactly like
        // wire-drop on the pipes.
        return sent != NetSend::Torn;
    }

    void
    condemn(int slot, const std::string &why) override
    {
        Endpoint &e = *eps_[static_cast<std::size_t>(slot)];
        std::lock_guard<std::mutex> lock(e.mu);
        if (e.fd < 0)
            return;
        // Count first: the shutdown wakes the reader, whose failover
        // can complete a run before this call returns.
        bump(&TransportStats::fences, "evrsim_fleet_fences_total");
        warn("fleet: shard %d connection fenced (%s)", slot, why.c_str());
        // shutdown, not close: the reader owns the close, and a
        // torn-down socket wakes it with EOF instead of racing it on a
        // recycled descriptor.
        ::shutdown(e.fd, SHUT_RDWR);
    }

    void
    maintain() override
    {
        // Nothing periodic: admission is the acceptor thread's job
        // and loss detection is each connection reader's.
    }

    void setDraining(bool draining) override
    {
        draining_.store(draining);
    }

    std::string listenAddress() const override { return listen_addr_; }

    std::uint64_t
    slotEpoch(int slot) const override
    {
        if (slot < 0 || static_cast<std::size_t>(slot) >= eps_.size())
            return 0;
        Endpoint &e = *eps_[static_cast<std::size_t>(slot)];
        std::lock_guard<std::mutex> lock(e.mu);
        return e.epoch;
    }

    TransportStats
    stats() const override
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        return stats_;
    }

  private:
    struct Endpoint {
        int index = 0;
        /** Guards fd, epoch and the partition window: the write path,
         *  condemn and teardown all serialize here. */
        std::mutex mu;
        int fd = -1;
        std::uint64_t epoch = 0;
        Clock::time_point partition_until{};
        std::thread reader;
        std::uint64_t admissions = 0;
    };

    void
    bump(std::uint64_t TransportStats::*field, const char *metric)
    {
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++(stats_.*field);
        }
        metricsCounterAdd(metric, 1.0);
    }

    void
    reject(int fd, const char *reason)
    {
        Json r = Json::object();
        r.set("type", "reject");
        r.set("reason", reason);
        std::string line = frameLine(std::move(r));
        sendAllDeadline(fd, line.data(), line.size(), kIoDeadlineMs);
        ::close(fd);
    }

    void
    acceptorLoop()
    {
        while (!stopping_.load()) {
            Result<int> conn = acceptDeadline(listen_fd_, 200);
            if (!conn.ok()) {
                if (conn.status().code() == ErrorCode::Cancelled)
                    return;
                continue; // timeout or transient accept error
            }
            handshake(conn.value());
        }
    }

    /**
     * Serial registration handshake: read the hello (bounded), admit
     * into the first free slot under a fresh epoch, or reject. Serial
     * on purpose — admission is rare and a half-open registrant must
     * not be able to wedge the fleet for longer than one handshake
     * deadline.
     */
    void
    handshake(int fd)
    {
        MessageReader reader(fd);
        Result<Json> msg = reader.next(kIoDeadlineMs);
        if (!msg.ok()) {
            ::close(fd);
            return;
        }
        const Json *type = msg.value().find("type");
        if (!type || type->type() != Json::Type::String ||
            type->asString() != "hello") {
            ::close(fd);
            return;
        }
        if (draining_.load() || stopping_.load()) {
            bump(&TransportStats::shed_registrations,
                 "evrsim_fleet_shed_registrations_total");
            reject(fd, "draining");
            return;
        }
        std::uint64_t version = 0, prev_epoch = 0;
        if (const Json *f = msg.value().find("version");
            f && f->type() == Json::Type::Number)
            version = f->asU64();
        if (const Json *f = msg.value().find("prev_epoch");
            f && f->type() == Json::Type::Number)
            prev_epoch = f->asU64();
        if (version !=
            static_cast<std::uint64_t>(kShardProtocolVersion)) {
            bump(&TransportStats::shed_registrations,
                 "evrsim_fleet_shed_registrations_total");
            reject(fd, "bad-version");
            return;
        }
        if (prev_epoch != 0) {
            // Leases are never resumed: whatever epoch this shard
            // once held is dead (its runs already failed over). It
            // must re-register with a clean hello for a fresh epoch —
            // the fencing invariant that makes a healed partition
            // safe.
            bump(&TransportStats::stale_epochs,
                 "evrsim_fleet_stale_epochs_total");
            reject(fd, "stale-epoch");
            return;
        }

        Endpoint *slot = nullptr;
        for (auto &e : eps_) {
            bool free;
            {
                std::lock_guard<std::mutex> lock(e->mu);
                free = e->fd < 0;
            }
            if (!free)
                continue;
            // The previous tenant's reader has observed the teardown
            // (fd is -1 only after its close); join it before the
            // slot's thread handle is reused.
            if (e->reader.joinable())
                e->reader.join();
            slot = e.get();
            break;
        }
        if (!slot) {
            bump(&TransportStats::shed_registrations,
                 "evrsim_fleet_shed_registrations_total");
            reject(fd, "fleet-full");
            return;
        }

        const std::uint64_t epoch = epoch_counter_.fetch_add(1) + 1;
        Json welcome = Json::object();
        welcome.set("type", "welcome");
        welcome.set("slot", slot->index);
        welcome.set("epoch", epoch);
        welcome.set("lease_ms", config_.lease_ms);
        welcome.set("params", config_.shard_params_json);
        std::string line = frameLine(std::move(welcome));
        // The handshake itself is fault-free: registration must
        // converge even mid-storm, or a fenced fleet could never
        // refill.
        if (!sendAllDeadline(fd, line.data(), line.size(),
                             kIoDeadlineMs)
                 .ok()) {
            ::close(fd);
            return;
        }

        std::uint64_t admissions;
        {
            std::lock_guard<std::mutex> lock(slot->mu);
            slot->fd = fd;
            slot->epoch = epoch;
            slot->partition_until = {};
            admissions = ++slot->admissions;
        }
        bump(&TransportStats::registrations,
             "evrsim_fleet_registrations_total");
        if (admissions > 1)
            bump(&TransportStats::reconnects,
                 "evrsim_fleet_reconnects_total");
        inform("fleet: remote shard registered into slot %d "
               "(epoch %llu%s)",
               slot->index, static_cast<unsigned long long>(epoch),
               admissions > 1 ? ", reconnect" : "");
        slot->reader = std::thread([this, slot, fd, epoch] {
            readerLoop(*slot, fd, epoch);
        });
        if (hooks_.on_up)
            hooks_.on_up(slot->index);
    }

    void
    readerLoop(Endpoint &e, int fd, std::uint64_t epoch)
    {
        MessageReader reader(fd);
        std::string why = "connection closed";
        for (;;) {
            Result<Json> msg = reader.next(config_.poll_ms);
            if (!msg.ok()) {
                if (msg.status().code() ==
                    ErrorCode::DeadlineExceeded) {
                    if (stopping_.load()) {
                        why = "transport stopped";
                        break;
                    }
                    continue;
                }
                if (msg.status().code() == ErrorCode::DataLoss) {
                    if (hooks_.on_strike)
                        hooks_.on_strike(e.index,
                                         "damaged response frame");
                    continue;
                }
                why = msg.status().message();
                break;
            }
            std::uint64_t frame_epoch = 0;
            if (const Json *f = msg.value().find("epoch");
                f && f->type() == Json::Type::Number)
                frame_epoch = f->asU64();
            if (frame_epoch != epoch) {
                // A frame from a past life (a response crossing a
                // reconnect, a zombie answering after its fence):
                // dropped, counted — never matched to a waiter, so a
                // completion can never be duplicated across epochs.
                bump(&TransportStats::stale_epochs,
                     "evrsim_fleet_stale_epochs_total");
                continue;
            }
            if (hooks_.on_frame)
                hooks_.on_frame(e.index, msg.value());
        }
        {
            std::lock_guard<std::mutex> lock(e.mu);
            if (e.fd == fd) {
                ::close(fd);
                e.fd = -1;
            }
        }
        if (hooks_.on_down)
            hooks_.on_down(e.index, why);
    }

    FleetConfig config_;
    TransportHooks hooks_;
    FaultInjector faults_{FaultInjector::planFromEnv()};
    int listen_fd_ = -1;
    std::string listen_addr_;
    std::thread acceptor_;
    std::vector<std::unique_ptr<Endpoint>> eps_;
    std::atomic<std::uint64_t> epoch_counter_{0};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> draining_{false};
    mutable std::mutex stats_mu_;
    TransportStats stats_;
    bool started_ = false;
};

} // namespace

std::unique_ptr<ShardTransport>
makeTcpShardTransport(const FleetConfig &config)
{
    return std::make_unique<TcpShardTransport>(config);
}

// --- remote shard side ----------------------------------------------

std::string
remoteShardFlagFromArgv(int argc, char **argv)
{
    const std::string prefix = "--evrsim-remote-shard=";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i] ? argv[i] : "";
        if (arg.compare(0, prefix.size(), prefix) == 0)
            return arg.substr(prefix.size());
    }
    return {};
}

namespace {

/** The connection the worker thread responds through; reconnects swap
 *  the fd underneath it. */
struct RemoteConn {
    std::mutex mu;
    int fd = -1;
    Clock::time_point partition_until{};
};

} // namespace

void
runRemoteShardAndExit(const std::string &host_port,
                      WorkloadFactory factory, BenchParams params)
{
    ignoreSigpipe();
    installShutdownHandler();
    FaultInjector faults(FaultInjector::planFromEnv());

    RemoteConn conn;
    std::mutex q_mu;
    std::condition_variable q_cv;
    std::deque<ShardRun> queue;
    bool closed = false;

    // Responses pass the wire sites first (corrupt/drop/dup, exactly
    // like a pipe shard) and then the net sites; a torn write just
    // shuts the socket down — the serve loop notices and re-dials.
    auto respond = [&](Json payload) {
        std::string line = frameLine(std::move(payload));
        if (faults.enabled()) {
            line = applyWireChaos(faults, line);
            if (line.empty())
                return; // wire-drop
        }
        std::lock_guard<std::mutex> lock(conn.mu);
        if (conn.fd < 0)
            return;
        netChaosSend(conn.fd, line, faults, conn.partition_until);
    };

    std::unique_ptr<ExperimentRunner> runner;
    std::thread worker;
    std::uint64_t prev_epoch = 0;
    int backoff_ms = 100;

    while (!shutdownRequested()) {
        Result<int> dial = tcpConnect(host_port, kIoDeadlineMs);
        if (!dial.ok()) {
            if (!interruptibleSleepMs(backoff_ms))
                break;
            backoff_ms = std::min(backoff_ms * 2, 2000);
            continue;
        }
        int fd = dial.value();

        Json hello = Json::object();
        hello.set("type", "hello");
        hello.set("version", kShardProtocolVersion);
        hello.set("schema", kRemoteShardSchema);
        hello.set("capacity", 1);
        hello.set("prev_epoch", prev_epoch);
        std::string hello_line = frameLine(std::move(hello));
        // Registration frames skip fault sites: a fenced shard must always
        // be able to re-register, or the fleet could never heal.
        if (!sendAllDeadline(fd, hello_line.data(), hello_line.size(),
                             kIoDeadlineMs)
                 .ok()) {
            ::close(fd);
            if (!interruptibleSleepMs(backoff_ms))
                break;
            continue;
        }

        // The same MessageReader must carry from handshake into the
        // serve loop: it buffers, and a frame pipelined right behind
        // the welcome would be lost to a fresh reader.
        MessageReader reader(fd);
        Result<Json> first = reader.next(kIoDeadlineMs);
        if (!first.ok()) {
            ::close(fd);
            if (!interruptibleSleepMs(backoff_ms))
                break;
            continue;
        }
        const Json *type = first.value().find("type");
        std::string type_s =
            type && type->type() == Json::Type::String
                ? type->asString()
                : "";
        if (type_s == "reject") {
            std::string reason =
                first.value().get("reason", Json("")).asString();
            ::close(fd);
            if (reason == "stale-epoch") {
                // Expected after any disconnect: the old lease is
                // dead. Drop it and re-dial immediately for a fresh
                // epoch.
                prev_epoch = 0;
                continue;
            }
            inform("remote shard: registration rejected (%s)",
                   reason.c_str());
            if (!interruptibleSleepMs(backoff_ms))
                break;
            backoff_ms = std::min(backoff_ms * 2, 2000);
            continue;
        }
        if (type_s != "welcome") {
            ::close(fd);
            if (!interruptibleSleepMs(backoff_ms))
                break;
            continue;
        }

        std::uint64_t epoch =
            first.value().get("epoch", Json(0)).asU64();
        if (!runner) {
            // The welcome names our slot and carries the params
            // overlay: prepare the process exactly like a pipe shard.
            int slot = static_cast<int>(
                first.value().get("slot", Json(0)).asDouble());
            if (Status s = prepareShardProcess(
                    slot,
                    first.value().get("params", Json("")).asString(),
                    params);
                !s.ok()) {
                std::fprintf(stderr, "evrsim remote shard: %s\n",
                             s.message().c_str());
                std::exit(2);
            }
            runner =
                std::make_unique<ExperimentRunner>(factory, params);
            worker = std::thread([&] {
                for (;;) {
                    ShardRun run;
                    {
                        std::unique_lock<std::mutex> lk(q_mu);
                        q_cv.wait(lk, [&] {
                            return closed || !queue.empty();
                        });
                        if (queue.empty())
                            return;
                        run = std::move(queue.front());
                        queue.pop_front();
                    }
                    Json payload =
                        shardExecuteRun(*runner, params, faults, run);
                    payload.set("epoch", run.epoch);
                    respond(std::move(payload));
                }
            });
        }
        backoff_ms = 100;
        {
            std::lock_guard<std::mutex> lock(conn.mu);
            conn.fd = fd;
            conn.partition_until = {};
        }
        inform("remote shard: registered with %s (epoch %llu)",
               host_port.c_str(),
               static_cast<unsigned long long>(epoch));

        for (;;) {
            if (shutdownRequested())
                break;
            Result<Json> msg = reader.next(250);
            if (!msg.ok()) {
                if (msg.status().code() == ErrorCode::DeadlineExceeded)
                    continue;
                if (msg.status().code() == ErrorCode::DataLoss)
                    continue; // damaged inbound frame: skip
                break;        // EOF / reset: re-register
            }
            if (faults.shouldFail(FaultSite::WorkerStall))
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(kWorkerStallMs));
            if (faults.shouldFail(FaultSite::NetReconnectStorm))
                break; // voluntary drop + immediate re-dial
            if (msg.value().get("epoch", Json(0)).asU64() != epoch)
                continue; // a frame from a lease this shard lost
            const Json *t = msg.value().find("type");
            if (!t || t->type() != Json::Type::String)
                continue;
            if (t->asString() == "ping") {
                Json pong = Json::object();
                pong.set("type", "pong");
                pong.set("seq", msg.value().get("seq", Json(0)));
                pong.set("epoch", epoch);
                attachShardMetricsSnapshot(pong);
                respond(std::move(pong));
                continue;
            }
            if (t->asString() != "run")
                continue;
            {
                std::lock_guard<std::mutex> lock(q_mu);
                queue.push_back(shardRunFromFrame(msg.value()));
            }
            q_cv.notify_one();
        }

        {
            std::lock_guard<std::mutex> lock(conn.mu);
            if (conn.fd == fd)
                conn.fd = -1;
        }
        ::close(fd);
        // Deliberately present the dead epoch in the next hello. The
        // control plane must reject it (stale-epoch) before the fresh
        // re-registration — the fencing contract, exercised on every
        // single reconnect rather than trusted.
        prev_epoch = epoch;
    }

    {
        std::lock_guard<std::mutex> lock(q_mu);
        closed = true;
    }
    q_cv.notify_all();
    if (worker.joinable())
        worker.join();
    std::exit(shutdownExitCode(0));
}

} // namespace evrsim
