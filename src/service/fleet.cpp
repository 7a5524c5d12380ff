/**
 * @file
 * ShardFleet implementation: the control plane (shard processes,
 * routing, breakers, pings, failover) on one side, the shard process's
 * serve loop on the other.
 */
#include "service/fleet.hpp"

#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>

#include "common/atomic_file.hpp" // writeAll
#include "common/fault_injector.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/net.hpp"
#include "driver/envelope.hpp"
#include "service/service_protocol.hpp"

namespace evrsim {

// The shard pipe rides the exact service line framing (MessageReader
// validates against kServiceProtocolVersion), so the two schemas must
// move together.
static_assert(kShardProtocolVersion == kServiceProtocolVersion,
              "shard pipe framing reuses the service envelope schema");

namespace {

using Clock = std::chrono::steady_clock;

/**
 * File descriptor a shard writes its framed responses to. The fleet
 * installs the response pipe there before exec, so the
 * shard's stdout/stderr stay free for logging (stdout goes to
 * /dev/null: a re-execed bench binary would otherwise print its
 * banner into the parent's tables).
 */
constexpr int kShardResponseFd = 3;

/** Synthetic pid base for adopted shard trace lanes: far above any
 *  real pid so merged traces never collide with the daemon's own. */
constexpr int kShardTraceLaneBase = 1000000;

/**
 * Frame @p payload as one enveloped line and write it whole to @p fd.
 * When @p faults is given (shard side) the line passes through the wire
 * fault sites first; a dropped line still reports success — that is
 * the point of the drop site.
 */
bool
writeFramedLine(int fd, Json payload, FaultInjector *faults)
{
    std::string line =
        wrapEnvelope(std::move(payload), kShardProtocolVersion).dump(0);
    line += '\n';
    if (faults && faults->enabled())
        line = applyWireChaos(*faults, line);
    return writeAll(fd, line.data(), line.size());
}

/** The "obs_dir" field of a shardParamsJson() document (the caller's
 *  BenchParams::obsDir()); empty when absent or unparseable. */
std::string
shardObsDir(const std::string &params_json)
{
    Result<Json> doc = Json::tryParse(params_json);
    if (!doc.ok())
        return {};
    if (const Json *f = doc.value().find("obs_dir");
        f && f->type() == Json::Type::String)
        return f->asString();
    return {};
}

/** Where shard @p slot spills its local trace file. */
std::string
shardSpillPath(const std::string &obs_dir, int slot)
{
    return (std::filesystem::path(obs_dir) /
            ("shard-" + std::to_string(slot) + ".trace.json"))
        .string();
}

} // namespace

const char *
breakerStateName(BreakerState s)
{
    switch (s) {
      case BreakerState::Closed:
        return "closed";
      case BreakerState::Open:
        return "open";
      case BreakerState::HalfOpen:
        return "half-open";
    }
    return "unknown";
}

bool
CircuitBreaker::recordFailure()
{
    ++consecutive_failures;
    if (state == BreakerState::Open)
        return false;
    // A half-open probe failure reopens immediately; a closed breaker
    // opens once the consecutive streak reaches the threshold.
    if (state == BreakerState::HalfOpen ||
        consecutive_failures >= std::max(threshold, 1)) {
        state = BreakerState::Open;
        return true;
    }
    return false;
}

void
CircuitBreaker::recordSuccess()
{
    consecutive_failures = 0;
    state = BreakerState::Closed;
}

void
CircuitBreaker::onRestart()
{
    consecutive_failures = 0;
    if (state == BreakerState::Open)
        state = BreakerState::HalfOpen;
}

bool
CircuitBreaker::forceOpen()
{
    if (state == BreakerState::Open)
        return false;
    state = BreakerState::Open;
    return true;
}

int
defaultGraceMs(int timeout_ms)
{
    if (timeout_ms <= 0)
        return 0;
    return std::clamp(timeout_ms / 2, 500, 5000);
}

FleetConfig
fleetConfigFromParams(const BenchParams &params)
{
    FleetConfig c;
    c.shards = params.shards;
    c.shard_params_json = shardParamsJson(params);
    if (params.job_timeout_ms > 0)
        c.run_deadline_ms =
            params.job_timeout_ms + defaultGraceMs(params.job_timeout_ms);
    return c;
}

int
restartBackoffMs(const FleetConfig &c, int shard_index, int deaths)
{
    const long long base = std::max(c.restart_backoff_base_ms, 1);
    const long long cap =
        std::max<long long>(c.restart_backoff_cap_ms, base);
    const long long window =
        std::min(base << std::min(std::max(deaths, 0), 16), cap);
    // Deterministic jitter over the upper half of the window: shards
    // killed together restart spread out, and the same (shard,
    // deaths) pair always picks the same delay.
    std::uint64_t m =
        mix64((static_cast<std::uint64_t>(shard_index) << 32) ^
              static_cast<std::uint64_t>(deaths) ^
              0x7f1e9ab3c44d1057ull);
    long long lo = window / 2;
    return static_cast<int>(
        lo + static_cast<long long>(unitDraw(m) *
                                    static_cast<double>(window - lo)));
}

int
shardIndexForKey(const std::string &key, int shards)
{
    if (shards <= 1)
        return 0;
    return static_cast<int>(fnv1a64(key) %
                            static_cast<std::uint64_t>(shards));
}

// --- fleet ----------------------------------------------------------

ShardFleet::ShardFleet(const FleetConfig &config, DegradedRunFn degraded)
    : config_(config), degraded_(std::move(degraded))
{
    // Per-control-plane nonce folded into every trace id: two fleet
    // instances in one process lifetime (restarts, tests) must never
    // mint colliding ids, or spans from different sweeps would stitch
    // into each other's dispatch windows in the merged trace.
    static std::atomic<std::uint64_t> instances{0};
    trace_nonce_ = mix64(0xa0761d6478bd642full +
                         (instances.fetch_add(1) << 17));
}

ShardFleet::~ShardFleet() { stop(); }

Status
ShardFleet::start()
{
    if (!fleetEnabled(config_))
        return Status::invalidArgument(
            "fleet: need shards > 0 and a shard argv");
    if (started_)
        return {};
    ignoreSigpipe();
    stopping_.store(false);
    shards_.clear();
    for (int i = 0; i < config_.shards; ++i) {
        auto s = std::make_unique<Shard>();
        s->index = i;
        s->breaker.threshold = config_.breaker_threshold;
        shards_.push_back(std::move(s));
    }
    events_.setPersistPath(config_.events_path);

    // Fork every shard before waiting for any exec, so their start-ups
    // overlap.
    std::vector<Status> spawned;
    for (auto &s : shards_)
        spawned.push_back(spawn(*s));
    for (auto &s : shards_) {
        Status st = spawned[static_cast<std::size_t>(s->index)];
        if (st.ok())
            st = awaitExec(*s);
        if (st.ok()) {
            shardUp(*s);
            continue;
        }
        // maintain() keeps retrying on the backoff schedule; a fleet
        // that cannot spawn anything degrades per-run.
        warn("fleet: shard %d spawn failed: %s", s->index,
             st.message().c_str());
        std::lock_guard<std::mutex> lock(mu_);
        scheduleRestartLocked(*s);
    }

    // Materialize every fleet counter at zero so a quiet fleet exports
    // explicit zeros (and the status endpoint's numbers always have a
    // metric to match against).
    for (const char *name :
         {"evrsim_fleet_dispatched_total", "evrsim_fleet_completed_total",
          "evrsim_fleet_failovers_total", "evrsim_fleet_restarts_total",
          "evrsim_fleet_breaker_opens_total", "evrsim_fleet_degraded_total",
          "evrsim_fleet_wire_errors_total",
          "evrsim_fleet_ping_timeouts_total",
          "evrsim_fleet_stray_responses_total"})
        metricsCounterAdd(name, 0.0);
    metricsGaugeSet("evrsim_fleet_shards",
                    static_cast<double>(config_.shards));
    started_ = true;
    monitor_ = std::thread([this] { monitorLoop(); });
    return {};
}

void
ShardFleet::scheduleRestartLocked(Shard &s)
{
    s.restart_at = Clock::now() + std::chrono::milliseconds(restartBackoffMs(
                                      config_, s.index, s.deaths));
    ++s.deaths;
}

Status
ShardFleet::spawn(Shard &s)
{
    int in[2], out[2];
    if (::pipe2(in, O_CLOEXEC) != 0)
        return Status::unavailable(std::string("fleet pipe: ") +
                                   ::strerror(errno));
    if (::pipe2(out, O_CLOEXEC) != 0) {
        Status st = Status::unavailable(std::string("fleet pipe: ") +
                                        ::strerror(errno));
        ::close(in[0]);
        ::close(in[1]);
        return st;
    }

    // Reports an exec failure (the child writes errno); closes on a
    // successful exec (O_CLOEXEC), so EOF means the shard is running.
    int exec_status[2];
    if (::pipe2(exec_status, O_CLOEXEC) != 0) {
        Status st = Status::unavailable(std::string("fleet pipe: ") +
                                        ::strerror(errno));
        for (int fd : {in[0], in[1], out[0], out[1]})
            ::close(fd);
        return st;
    }

    std::vector<std::string> args = config_.shard_argv;
    args.push_back("--evrsim-shard=" + std::to_string(s.index));
    if (!config_.shard_params_json.empty())
        args.push_back("--evrsim-shard-params=" +
                       config_.shard_params_json);
    std::vector<char *> cargv;
    cargv.reserve(args.size() + 1);
    for (std::string &a : args)
        cargv.push_back(a.data());
    cargv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        Status st = Status::unavailable(std::string("fleet fork: ") +
                                        ::strerror(errno));
        for (int fd : {in[0], in[1], out[0], out[1], exec_status[0],
                       exec_status[1]})
            ::close(fd);
        return st;
    }
    if (pid == 0) {
        // Async-signal-safe child setup only: the parent is threaded.
        // dup2 clears FD_CLOEXEC on the target; when source == target
        // the flag must be cleared explicitly.
        auto install = [](int from, int to) -> int {
            if (from == to) {
                int fl = ::fcntl(from, F_GETFD);
                return fl < 0 ? -1
                              : ::fcntl(from, F_SETFD, fl & ~FD_CLOEXEC);
            }
            return ::dup2(from, to);
        };
        if (install(in[0], STDIN_FILENO) < 0)
            ::_exit(127);
        if (install(out[1], kShardResponseFd) < 0)
            ::_exit(127);
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, STDOUT_FILENO);
            if (devnull != STDOUT_FILENO)
                ::close(devnull);
        }
        ::execv(cargv[0], cargv.data());
        int err = errno;
        (void)!::write(exec_status[1], &err, sizeof(err));
        ::_exit(127);
    }
    ::close(in[0]);
    ::close(out[1]);
    ::close(exec_status[1]);
    {
        std::lock_guard<std::mutex> wl(s.write_mu);
        s.in_fd = in[1];
    }
    s.out_fd = out[0];
    s.exec_fd = exec_status[0];
    std::lock_guard<std::mutex> lock(mu_);
    s.pid = pid;
    return {};
}

Status
ShardFleet::awaitExec(Shard &s)
{
    int exec_errno = 0;
    ssize_t got;
    while ((got = ::read(s.exec_fd, &exec_errno, sizeof(exec_errno))) <
               0 &&
           errno == EINTR) {
    }
    ::close(s.exec_fd);
    s.exec_fd = -1;
    if (got <= 0)
        return {};
    closePipes(s);
    while (::waitpid(s.pid, nullptr, 0) < 0 && errno == EINTR) {
    }
    std::lock_guard<std::mutex> lock(mu_);
    s.pid = -1;
    return Status::unavailable("fleet: cannot exec " +
                               config_.shard_argv[0] + ": " +
                               ::strerror(exec_errno));
}

void
ShardFleet::shardUp(Shard &s)
{
    bool first;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.alive = true;
        s.needs_reap = false;
        s.ping_outstanding = false;
        s.last_ping = s.last_frame = Clock::now();
        s.breaker.onRestart(); // open -> half-open probe
        first = !s.seen_up;
        if (first)
            s.seen_up = true;
        else
            ++s.restarts;
    }
    // Live before its reader starts, so an immediate EOF takes the
    // normal down path.
    s.reader = std::thread([this, &s, fd = s.out_fd] { readerLoop(s, fd); });
    shard_cv_.notify_all();
    events_.record(first ? "registration" : "restart", s.index, "");
}

void
ShardFleet::closePipes(Shard &s)
{
    {
        std::lock_guard<std::mutex> wl(s.write_mu);
        if (s.in_fd >= 0) {
            ::close(s.in_fd);
            s.in_fd = -1;
        }
    }
    if (s.out_fd >= 0) {
        ::close(s.out_fd);
        s.out_fd = -1;
    }
}

void
ShardFleet::readerLoop(Shard &s, int fd)
{
    MessageReader reader(fd);
    for (;;) {
        Result<Json> msg = reader.next(config_.poll_ms);
        if (msg.ok()) {
            handleFrame(s, msg.value());
            continue;
        }
        if (msg.status().code() == ErrorCode::DeadlineExceeded) {
            if (stopping_.load())
                return;
            continue;
        }
        if (msg.status().code() == ErrorCode::DataLoss) {
            // A damaged response line: the run it carried (if any) will
            // fail over at its deadline; the damage itself is a health
            // strike against the shard.
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.wire_errors;
            }
            metricsCounterAdd("evrsim_fleet_wire_errors_total", 1.0);
            recordShardFailure(s, "damaged response line");
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            s.needs_reap = true;
        }
        handleShardDown(s, msg.status().message());
        return;
    }
}

bool
ShardFleet::writeFrame(Shard &s, Json payload)
{
    std::lock_guard<std::mutex> lock(s.write_mu);
    if (s.in_fd < 0)
        return false;
    return writeFramedLine(s.in_fd, std::move(payload), nullptr);
}

void
ShardFleet::condemn(Shard &s)
{
    // Under mu_, where a reap clears the pid.
    std::lock_guard<std::mutex> lock(mu_);
    if (s.pid > 0)
        ::kill(s.pid, SIGKILL);
}

void
ShardFleet::maintain()
{
    for (auto &sp : shards_) {
        Shard &s = *sp;

        // Reap a dead shard once its reader has drained, then put it on
        // the restart schedule.
        bool reap;
        pid_t pid;
        {
            std::lock_guard<std::mutex> lock(mu_);
            reap = s.needs_reap;
            pid = s.pid;
        }
        if (reap) {
            int wstatus = 0;
            pid_t r = ::waitpid(pid, &wstatus, WNOHANG);
            if (r == pid || (r < 0 && errno == ECHILD)) {
                if (s.reader.joinable())
                    s.reader.join();
                closePipes(s);
                std::lock_guard<std::mutex> lock(mu_);
                s.needs_reap = false;
                s.pid = -1;
                scheduleRestartLocked(s);
            }
        }

        // Restart when the backoff expires.
        bool want_restart;
        {
            std::lock_guard<std::mutex> lock(mu_);
            want_restart = !s.alive && !s.needs_reap && s.pid < 0 &&
                           Clock::now() >= s.restart_at;
        }
        if (!want_restart || stopping_.load())
            continue;
        Status st = spawn(s);
        if (st.ok())
            st = awaitExec(s);
        if (!st.ok()) {
            std::lock_guard<std::mutex> lock(mu_);
            scheduleRestartLocked(s);
            continue;
        }
        int deaths;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.restarts;
            deaths = s.deaths;
        }
        metricsCounterAdd("evrsim_fleet_restarts_total", 1.0);
        informv("fleet: shard %d restarted (%d death(s) since its last "
                "result)",
                s.index, deaths);
        shardUp(s);
    }
}

void
ShardFleet::markShardHealthy(Shard &s)
{
    bool closed = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (s.breaker.state != BreakerState::Closed) {
            informv("fleet: shard %d healthy again (breaker %s -> "
                    "closed)",
                    s.index, breakerStateName(s.breaker.state));
            closed = true;
        }
        s.breaker.recordSuccess();
    }
    if (closed)
        events_.record("breaker-close", s.index, "");
}

void
ShardFleet::recordShardFailure(Shard &s, const std::string &why)
{
    bool kill = false, opened = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.last_error = why;
        if (s.breaker.recordFailure()) {
            ++stats_.breaker_opens;
            metricsCounterAdd("evrsim_fleet_breaker_opens_total", 1.0);
            warn("fleet: shard %d breaker opened (%s)", s.index,
                 why.c_str());
            kill = s.alive;
            opened = true;
        }
    }
    if (opened)
        events_.record("breaker-open", s.index, why);
    // An open breaker on a live shard means it is misbehaving, not
    // dead (stalled, flaky wire): replace it. Its reader observes the
    // loss and runs the normal down path.
    if (kill)
        condemn(s);
}

void
ShardFleet::handleShardDown(Shard &s, const std::string &why)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!s.alive)
            return; // another path got here first
        s.alive = false;
        s.ping_outstanding = false;
        if (!stopping_.load()) {
            s.last_error = why;
            // During stop() the EOF is the *expected* way shards exit;
            // counting it as a failure would make every clean shutdown
            // look like an incident.
            if (s.breaker.forceOpen()) {
                ++stats_.breaker_opens;
                metricsCounterAdd("evrsim_fleet_breaker_opens_total",
                                  1.0);
            }
            warn("fleet: shard %d down (%s)", s.index, why.c_str());
        } else {
            s.breaker.forceOpen();
        }
    }
    shard_cv_.notify_all();
    // Fail the shard's in-flight dispatches now so their owners fail
    // over immediately instead of riding out the run deadline.
    std::vector<std::shared_ptr<Waiter>> doomed;
    {
        std::lock_guard<std::mutex> lock(waiters_mu_);
        for (auto &kv : waiters_)
            if (kv.second->shard == s.index)
                doomed.push_back(kv.second);
    }
    for (auto &w : doomed) {
        std::lock_guard<std::mutex> lock(w->mu);
        if (!w->done) {
            w->done = true;
            w->attempt.status = Status::unavailable(
                "fleet: shard died with the run in flight (" + why +
                ")");
            w->attempt.worker_died = true;
            w->cv.notify_all();
        }
    }
}

void
ShardFleet::handleFrame(Shard &s, const Json &msg)
{
    const int slot = s.index;
    const Json *type = msg.find("type");
    if (!type || type->type() != Json::Type::String)
        return;
    if (type->asString() == "pong") {
        {
            std::lock_guard<std::mutex> lock(mu_);
            s.ping_outstanding = false;
            s.last_frame = Clock::now();
        }
        markShardHealthy(s);
        return;
    }
    if (type->asString() != "result")
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.last_frame = Clock::now();
        s.deaths = 0;
    }

    const Json *seqj = msg.find("seq");
    const Json *okj = msg.find("ok");
    WorkerAttempt a;
    bool parsed = false;
    if (seqj && seqj->type() == Json::Type::Number && okj &&
        okj->type() == Json::Type::Bool) {
        if (okj->asBool()) {
            if (const Json *res = msg.find("result")) {
                Result<RunResult> rr = RunResult::tryFromJson(*res);
                if (rr.ok()) {
                    a.result = rr.value();
                    parsed = true;
                }
            }
        } else if (const Json *st = msg.find("status")) {
            Status reported;
            if (statusFromJson(*st, reported).ok() && !reported.ok()) {
                a.status = reported; // shard's verdict, code intact
                parsed = true;
            }
        }
    }
    if (!parsed) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.wire_errors;
        }
        metricsCounterAdd("evrsim_fleet_wire_errors_total", 1.0);
        recordShardFailure(s, "unusable result payload");
        return;
    }

    std::shared_ptr<Waiter> w;
    {
        std::lock_guard<std::mutex> lock(waiters_mu_);
        auto it = waiters_.find(seqj->asU64());
        if (it != waiters_.end())
            w = it->second;
    }
    if (!w) {
        // Duplicate or long-abandoned response (wire-dup, a run that
        // already failed over): tolerated, counted.
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.stray_responses;
        }
        metricsCounterAdd("evrsim_fleet_stray_responses_total", 1.0);
    } else {
        // Adopt the run's shipped shard spans, rebased onto the
        // dispatch span's start so they nest inside it in the merged
        // trace. Stray responses have no dispatch window to rebase
        // onto; their events are lost with the failover, by design.
        if (traceActive()) {
            if (const Json *tr = msg.find("trace"))
                traceIngestRemote(kShardTraceLaneBase + slot,
                                  "evrsim-shard-" + std::to_string(slot),
                                  w->dispatch_start_ns,
                                  traceEventsFromWire(*tr));
        }
        std::lock_guard<std::mutex> lock(w->mu);
        if (!w->done) {
            w->done = true;
            w->attempt = a;
            w->cv.notify_all();
        }
    }
    markShardHealthy(s);
}

void
ShardFleet::monitorLoop()
{
    while (!stopping_.load()) {
        maintain();
        for (auto &sp : shards_) {
            Shard &s = *sp;
            bool need_ping = false, deadline_missed = false;
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (s.alive) {
                    Clock::time_point now = Clock::now();
                    if (s.ping_outstanding &&
                        now - s.ping_sent >
                            std::chrono::milliseconds(
                                config_.ping_deadline_ms)) {
                        s.ping_outstanding = false;
                        ++stats_.ping_timeouts;
                        deadline_missed = true;
                    } else if (!s.ping_outstanding &&
                               now - s.last_ping >=
                                   std::chrono::milliseconds(
                                       config_.ping_interval_ms)) {
                        s.ping_outstanding = true;
                        s.ping_sent = s.last_ping = now;
                        need_ping = true;
                    }
                }
            }
            if (deadline_missed) {
                metricsCounterAdd("evrsim_fleet_ping_timeouts_total",
                                  1.0);
                recordShardFailure(s, "ping deadline exceeded");
            }
            if (need_ping) {
                Json ping = Json::object();
                ping.set("type", "ping");
                ping.set("seq", seq_.fetch_add(1));
                if (!writeFrame(s, std::move(ping)))
                    handleShardDown(s, "ping write failed");
            }
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::max(config_.poll_ms, 1)));
    }
}

int
ShardFleet::idleShardLocked(int primary, const std::vector<char> &killed,
                            bool &live) const
{
    const int n = static_cast<int>(shards_.size());
    live = false;
    for (int off = 0; off < n; ++off) {
        int i = (primary + off) % n;
        const Shard &s = *shards_[static_cast<std::size_t>(i)];
        if (killed[static_cast<std::size_t>(i)] || !s.alive ||
            !s.breaker.admits())
            continue;
        live = true;
        if (!s.busy)
            return i;
    }
    return -1;
}

void
ShardFleet::releaseShard(Shard &s)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.busy = false;
    }
    shard_cv_.notify_all();
}

WorkerAttempt
ShardFleet::execute(const std::string &alias, const SimConfig &config,
                    const std::string &key)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.dispatched;
    }
    metricsCounterAdd("evrsim_fleet_dispatched_total", 1.0);

    const int primary =
        shardIndexForKey(key, static_cast<int>(shards_.size()));
    const auto run_deadline =
        std::chrono::milliseconds(std::max(config_.run_deadline_ms, 1));
    const Clock::time_point give_up = Clock::now() + run_deadline;
    Status last = Status::unavailable(
        "fleet: no shard came up within the " +
        std::to_string(config_.run_deadline_ms) + " ms run deadline");
    // Shards this run reached. Each one died under it or missed its
    // run deadline: a shard runs one run at a time, so either was this
    // run's doing, and the run never goes back to it.
    std::vector<char> killed(shards_.size(), 0);
    bool reached = false;

    for (;;) {
        int pick = -1;
        bool routed_around = false;
        {
            std::unique_lock<std::mutex> lock(mu_);
            bool live = false;
            // Prefer the primary, then ring order; while every live,
            // admitting shard is busy, wait for one to go idle.
            shard_cv_.wait(lock, [&] {
                pick = idleShardLocked(primary, killed, live);
                return stopping_.load() || pick >= 0 || !live;
            });
            if (stopping_.load()) {
                pick = -1;
            } else if (pick >= 0) {
                const Shard &p = *shards_[static_cast<std::size_t>(primary)];
                routed_around = reached || (pick != primary &&
                                            !(p.alive && p.breaker.admits()));
                shards_[static_cast<std::size_t>(pick)]->busy = true;
            } else if (!reached && !degraded_) {
                // No shard admits the run (a restart in progress, say):
                // wait up to the run deadline for one to come up rather
                // than charging the run a death.
                if (shard_cv_.wait_until(lock, give_up, [&] {
                        idleShardLocked(primary, killed, live);
                        return stopping_.load() || live;
                    }) &&
                    !stopping_.load())
                    continue;
            }
        }
        if (pick < 0) {
            if (degraded_ && !stopping_.load())
                break;
            // Failover exhausted. A run that killed every shard it
            // reached is a hard death, which the runner counts toward
            // crash quarantine; one that reached none is not.
            WorkerAttempt a;
            a.status = stopping_.load() ? Status::unavailable("fleet: stopped")
                                        : last;
            a.worker_died = reached;
            return a;
        }

        Shard &s = *shards_[static_cast<std::size_t>(pick)];
        std::uint64_t seq = seq_.fetch_add(1);
        auto w = std::make_shared<Waiter>();
        w->shard = s.index;
        Json req = Json::object();
        req.set("type", "run");
        req.set("seq", seq);
        req.set("workload", alias);
        req.set("config", config.name);
        req.set("tile", config.gpu.tile_size);
        req.set("key", key);
        // Trace-context propagation: stamp the run with a fresh trace
        // id and the dispatch span's id; the shard adopts them as its
        // ambient context, so its spans share the id and (after the
        // result-frame ingest rebases them onto dispatch_start_ns)
        // nest inside this dispatch span in the merged trace.
        const bool tracing = traceActive();
        if (tracing) {
            std::uint64_t trace_id = mix64(
                trace_nonce_ ^
                (static_cast<std::uint64_t>(::getpid()) << 32) ^ seq ^
                0x51ed2701a93b45c7ull);
            std::uint64_t span_id =
                mix64(trace_id ^ 0x9e3779b97f4a7c15ull);
            req.set("trace", traceIdHex(trace_id));
            req.set("span", traceIdHex(span_id));
            w->dispatch_start_ns = traceNowNs();
            traceContextSet({trace_id, span_id});
        }
        auto finishSpan = [&](const char *outcome) {
            if (!tracing)
                return;
            traceComplete(TraceCat::Driver, "fleet-dispatch",
                          w->dispatch_start_ns,
                          traceNowNs() - w->dispatch_start_ns,
                          key + " shard=" + std::to_string(s.index) +
                              " outcome=" + outcome,
                          static_cast<std::int64_t>(seq));
            traceContextClear();
        };
        // Published only now, fully initialized: the reader thread
        // reads dispatch_start_ns once it finds the waiter.
        {
            std::lock_guard<std::mutex> lock(waiters_mu_);
            waiters_[seq] = w;
        }
        if (!writeFrame(s, std::move(req))) {
            // The shard was already gone: not this run's doing.
            {
                std::lock_guard<std::mutex> lock(waiters_mu_);
                waiters_.erase(seq);
            }
            finishSpan("write-failed");
            handleShardDown(s, "run dispatch write failed");
            condemn(s);
            releaseShard(s);
            continue;
        }
        bool done = false;
        {
            std::unique_lock<std::mutex> lk(w->mu);
            done = w->cv.wait_for(lk, run_deadline,
                                  [&] { return w->done; });
        }
        {
            std::lock_guard<std::mutex> lock(waiters_mu_);
            waiters_.erase(seq);
        }
        if (!done) {
            // No response: a hung simulation or a dropped wire line.
            // Either way the shard is wedged — condemn it.
            finishSpan("deadline");
            last = Status::unavailable(
                "fleet: run " + key + " exceeded the " +
                std::to_string(config_.run_deadline_ms) +
                " ms run deadline on shard " + std::to_string(s.index));
            handleShardDown(s, "run deadline exceeded");
            condemn(s);
        }
        releaseShard(s);
        if (done && w->attempt.worker_died) {
            finishSpan("shard-died");
            last = w->attempt.status;
        }
        if (!done || w->attempt.worker_died) {
            killed[static_cast<std::size_t>(pick)] = 1;
            reached = true;
            continue; // fail over
        }
        finishSpan("ok");
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.completed;
            if (routed_around)
                ++stats_.failovers;
        }
        metricsCounterAdd("evrsim_fleet_completed_total", 1.0);
        if (routed_around) {
            metricsCounterAdd("evrsim_fleet_failovers_total", 1.0);
            events_.record("failover", s.index, key);
        }
        return w->attempt; // the shard's verdict, verbatim
    }

    // Chain exhausted: degrade to in-daemon execution rather than
    // failing the run while the fleet heals.
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.degraded;
    }
    metricsCounterAdd("evrsim_fleet_degraded_total", 1.0);
    warn("fleet: no healthy shard for %s; running degraded in-daemon",
         key.c_str());
    Result<RunResult> r = degraded_(alias, config);
    WorkerAttempt a;
    if (r.ok())
        a.result = r.value();
    else
        a.status = r.status();
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.completed;
    }
    metricsCounterAdd("evrsim_fleet_completed_total", 1.0);
    return a;
}

void
ShardFleet::stop()
{
    if (!started_)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_.store(true);
    }
    shard_cv_.notify_all();
    if (monitor_.joinable())
        monitor_.join();

    // EOF every shard's stdin: a healthy shard drains and exits 0.
    for (auto &s : shards_) {
        std::lock_guard<std::mutex> wl(s->write_mu);
        if (s->in_fd >= 0) {
            ::close(s->in_fd);
            s->in_fd = -1;
        }
    }
    // Bounded wait for clean exits, then SIGKILL the stragglers.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(2000);
    for (auto &s : shards_) {
        pid_t pid;
        {
            std::lock_guard<std::mutex> lock(mu_);
            pid = s->pid;
        }
        if (pid <= 0)
            continue;
        for (;;) {
            int wstatus = 0;
            pid_t r = ::waitpid(pid, &wstatus, WNOHANG);
            if (r == pid || (r < 0 && errno == ECHILD))
                break;
            if (Clock::now() >= deadline) {
                ::kill(pid, SIGKILL);
                while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
                }
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        std::lock_guard<std::mutex> lock(mu_);
        s->pid = -1;
    }
    for (auto &s : shards_) {
        if (s->reader.joinable())
            s->reader.join();
        closePipes(*s);
    }

    // Anything still parked on a waiter unblocks with Unavailable.
    std::vector<std::shared_ptr<Waiter>> left;
    {
        std::lock_guard<std::mutex> lock(waiters_mu_);
        for (auto &kv : waiters_)
            left.push_back(kv.second);
    }
    for (auto &w : left) {
        std::lock_guard<std::mutex> lock(w->mu);
        if (!w->done) {
            w->done = true;
            w->attempt.status =
                Status::unavailable("fleet: stopped with run in flight");
            w->attempt.worker_died = true;
            w->cv.notify_all();
        }
    }
    metricsGaugeSet("evrsim_fleet_shards", 0.0);
    started_ = false;

    // Every shard has exited: flush the merged trace (a drain must
    // leave a parseable trace, not rely on atexit), then delete the
    // shards' local spill files — their events are already merged,
    // and leaving them would re-orphan what this flush just stitched.
    if (traceActive() && traceWrite().ok()) {
        std::string obs = shardObsDir(config_.shard_params_json);
        std::error_code ec;
        for (int i = 0; i < config_.shards; ++i)
            std::filesystem::remove(shardSpillPath(obs, i), ec);
    }
}

ShardFleet::Stats
ShardFleet::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

BreakerState
ShardFleet::breakerState(int index) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (index < 0 || static_cast<std::size_t>(index) >= shards_.size())
        return BreakerState::Open;
    return shards_[static_cast<std::size_t>(index)]->breaker.state;
}

Json
fleetStatsToJson(const ShardFleet::Stats &stats)
{
    Json j = Json::object();
    j.set("dispatched", static_cast<double>(stats.dispatched));
    j.set("completed", static_cast<double>(stats.completed));
    j.set("failovers", static_cast<double>(stats.failovers));
    j.set("restarts", static_cast<double>(stats.restarts));
    j.set("breaker_opens", static_cast<double>(stats.breaker_opens));
    j.set("degraded", static_cast<double>(stats.degraded));
    j.set("wire_errors", static_cast<double>(stats.wire_errors));
    j.set("ping_timeouts", static_cast<double>(stats.ping_timeouts));
    j.set("stray_responses",
          static_cast<double>(stats.stray_responses));
    return j;
}

Json
ShardFleet::statusJson() const
{
    // Inflight counts first: waiters_mu_ and mu_ are never held
    // together anywhere in the fleet, and statusJson keeps it that way.
    std::map<int, int> inflight;
    {
        std::lock_guard<std::mutex> lock(waiters_mu_);
        for (const auto &kv : waiters_)
            ++inflight[kv.second->shard];
    }
    Json j = Json::object();
    Json arr = Json::array();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto now = Clock::now();
        for (const auto &sp : shards_) {
            const Shard &s = *sp;
            Json e = Json::object();
            e.set("slot", s.index);
            e.set("alive", s.alive);
            e.set("breaker", breakerStateName(s.breaker.state));
            double age_ms = -1.0;
            if (s.last_frame.time_since_epoch().count() != 0)
                age_ms = static_cast<double>(
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(now - s.last_frame)
                        .count());
            e.set("last_frame_age_ms", age_ms);
            // The same value under its old name, which evrbench's
            // shard-readiness wait still reads.
            e.set("lease_age_ms", age_ms);
            auto it = inflight.find(s.index);
            e.set("inflight",
                  it == inflight.end() ? 0 : it->second);
            e.set("restarts", static_cast<double>(s.restarts));
            e.set("last_error", s.last_error);
            arr.push(std::move(e));
        }
    }
    j.set("shards", std::move(arr));
    j.set("stats", fleetStatsToJson(stats()));
    return j;
}

Json
ShardFleet::eventsJson() const
{
    return events_.toJson();
}

// --- shard-process side ---------------------------------------------

std::string
shardParamsJson(const BenchParams &params)
{
    Json j = Json::object();
    j.set("width", params.width);
    j.set("height", params.height);
    j.set("frames", params.frames);
    j.set("warmup", params.warmup);
    j.set("tile_jobs", params.tile_jobs);
    j.set("job_timeout_ms", params.job_timeout_ms);
    j.set("job_mem_mb", params.job_mem_mb);
    j.set("log_level", static_cast<int>(params.log_level));
    Json v = Json::object();
    v.set("mode", static_cast<int>(params.validation.mode));
    v.set("sample", params.validation.tile_sample_rate);
    v.set("seed", params.validation.seed);
    j.set("validation", std::move(v));
    // Observability home for the shard process: its trace spill file
    // is rooted here so it never orphans in some other directory;
    // empty means the shard's cwd.
    j.set("obs_dir", params.obsDir());
    return j.dump(0);
}

Status
applyShardParams(const std::string &text, BenchParams &params)
{
    Result<Json> doc = Json::tryParse(text);
    if (!doc.ok())
        return Status::invalidArgument("shard params unusable: " +
                                       doc.status().message());
    const Json &j = doc.value();
    auto readInt = [&j](const char *key, int &out) {
        if (const Json *f = j.find(key);
            f && f->type() == Json::Type::Number)
            out = static_cast<int>(f->asDouble());
    };
    readInt("width", params.width);
    readInt("height", params.height);
    readInt("frames", params.frames);
    readInt("warmup", params.warmup);
    readInt("tile_jobs", params.tile_jobs);
    readInt("job_timeout_ms", params.job_timeout_ms);
    readInt("job_mem_mb", params.job_mem_mb);
    if (const Json *f = j.find("log_level");
        f && f->type() == Json::Type::Number)
        params.log_level =
            static_cast<LogLevel>(static_cast<int>(f->asDouble()));
    if (const Json *v = j.find("validation");
        v && v->type() == Json::Type::Object) {
        if (const Json *f = v->find("mode");
            f && f->type() == Json::Type::Number)
            params.validation.mode = static_cast<ValidateMode>(
                static_cast<int>(f->asDouble()));
        if (const Json *f = v->find("sample");
            f && f->type() == Json::Type::Number)
            params.validation.tile_sample_rate = f->asDouble();
        if (const Json *f = v->find("seed");
            f && f->type() == Json::Type::Number)
            params.validation.seed = f->asU64();
    }
    return {};
}

int
shardFlagFromArgv(int argc, char **argv, std::string &params_json)
{
    const std::string shard_prefix = "--evrsim-shard=";
    const std::string params_prefix = "--evrsim-shard-params=";
    int index = -1;
    params_json.clear();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i] ? argv[i] : "";
        if (arg.compare(0, shard_prefix.size(), shard_prefix) == 0)
            index = std::atoi(arg.c_str() + shard_prefix.size());
        else if (arg.compare(0, params_prefix.size(), params_prefix) == 0)
            params_json = arg.substr(params_prefix.size());
    }
    return index;
}

namespace {

/**
 * Turn this process into shard @p slot: overlay @p params_json (when
 * non-empty) onto @p params; force the bare-attempt policy (no cache,
 * journal, fleet or telemetry artifacts; one job); cap the address
 * space at job_mem_mb (RLIMIT_AS); and, when EVRSIM_TRACE is set,
 * spill the trace to <obs_dir>/shard-<slot>.trace.json.
 * InvalidArgument when the document does not parse.
 */
Status
prepareShardProcess(int slot, const std::string &params_json,
                    BenchParams &params)
{
    if (!params_json.empty())
        if (Status s = applyShardParams(params_json, params); !s.ok())
            return s;
    // The caller owns the cache, the journals, the retry policy and the
    // metrics: a shard is a stream of bare attempts, so its death never
    // loses durable state, and the caller records every RunResult it
    // gets back. The only file a shard writes is its trace spill.
    params.use_cache = false;
    params.resume = false;
    params.shards = 0;
    params.jobs = 1;
    params.heartbeat_ms = 0;
    params.obs_dir.clear();
    params.write_summary = false;
    setLogLevel(params.log_level);

    // The EVRSIM_JOB_MEM_MB budget: an allocation past it fails inside
    // the attempt (bad_alloc -> Unavailable) or kills the shard.
    if (params.job_mem_mb > 0) {
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max =
            static_cast<rlim_t>(params.job_mem_mb) << 20;
        if (::setrlimit(RLIMIT_AS, &rl) != 0)
            warn("shard %d: cannot apply EVRSIM_JOB_MEM_MB=%d: %s", slot,
                 params.job_mem_mb, ::strerror(errno));
    }

    // Trace: honour EVRSIM_TRACE in the shard too, but spill the local
    // file under the observability dir with a slot-tagged name, so a
    // killed shard leaves an attributable file instead of an orphan in
    // some cwd. The merged view comes from shipped events; this file
    // is the forensic fallback, deleted by the fleet after a merge.
    Result<TraceConfig> tc = traceConfigFromEnv();
    if (!tc.ok())
        return tc.status();
    if (tc.value().enabled()) {
        TraceConfig cfg = tc.value();
        cfg.path = shardSpillPath(shardObsDir(params_json), slot);
        traceConfigure(cfg);
    }
    return {};
}

/** One run request as a shard receives it. */
struct ShardRun {
    std::uint64_t seq = 0;
    std::string workload;
    std::string config;
    std::string key;   ///< the sender's ExperimentRunner::jobKey()
    int tile_size = 0; ///< the SimConfig's gpu tile size
    TraceContext ctx;  ///< propagated trace context (zero = none)
};

/** Parse a "run" frame; missing fields keep their defaults. */
ShardRun
shardRunFromFrame(const Json &msg)
{
    ShardRun run;
    auto text = [&msg](const char *key) {
        const Json *f = msg.find(key);
        return f && f->type() == Json::Type::String ? f->asString()
                                                    : std::string();
    };
    auto number = [&msg](const char *key) -> std::uint64_t {
        const Json *f = msg.find(key);
        return f && f->type() == Json::Type::Number ? f->asU64() : 0;
    };
    run.seq = number("seq");
    run.workload = text("workload");
    run.config = text("config");
    run.key = text("key");
    run.tile_size = static_cast<int>(number("tile"));
    run.ctx.trace_id = traceIdParse(text("trace"));
    run.ctx.parent_span = traceIdParse(text("span"));
    return run;
}

/** One bare attempt of @p run: the SimConfig rebuilt by name and tile
 *  size, its job key checked against the one the caller sent. */
Result<RunResult>
shardAttempt(ExperimentRunner &runner, const BenchParams &params,
             const ShardRun &run)
{
    GpuConfig gpu = params.gpuConfig();
    if (run.tile_size > 0)
        gpu.tile_size = run.tile_size;
    Result<SimConfig> cfg = configByName(run.config, gpu);
    if (!cfg.ok())
        return cfg.status();
    std::string key = runner.jobKey(run.workload, cfg.value());
    if (key != run.key)
        return Status::invalidArgument("shard computes job key '" + key +
                                       "' for a run sent as '" + run.key +
                                       "' (version skew?)");
    return runner.trySimulate(run.workload, cfg.value());
}

/**
 * Execute @p run inside a shard and build its framed "result" payload.
 * The shard fault sites fire first: worker-kill9 (counter draw), then
 * worker-crash and worker-hang keyed on fnv1a64(run.key), so the same
 * jobs die on every attempt and on every shard. The SimConfig is
 * rebuilt from its name and tile size; a key that differs from
 * runner.jobKey() of the rebuilt config (version skew) is answered
 * InvalidArgument. The run executes under run.ctx inside a
 * worker-category "shard-run" span; the events it recorded ship as
 * "trace" (timestamps rebased to the run start).
 */
Json
shardExecuteRun(ExperimentRunner &runner, const BenchParams &params,
                FaultInjector &faults, const ShardRun &run)
{
    // worker-kill9: die exactly where a real crash would hurt most —
    // after accepting the run, before responding. Counter-based, so
    // the respawned shard does not re-kill the same job forever. The
    // keyed sites, by contrast, chase their job onto every shard.
    if (faults.shouldFail(FaultSite::WorkerKill9))
        ::raise(SIGKILL);
    const std::uint64_t job = fnv1a64(run.key);
    if (faults.shouldFailAt(FaultSite::WorkerCrash, job))
        ::raise(SIGSEGV);
    if (faults.shouldFailAt(FaultSite::WorkerHang, job))
        for (;;)
            std::this_thread::sleep_for(std::chrono::hours(1));

    const bool tracing = traceActive();
    std::uint64_t t0 = 0;
    if (tracing) {
        traceContextSet(run.ctx);
        t0 = traceNowNs();
    }
    Result<RunResult> attempt = Status::internal("not run");
    {
        TraceSpan span(TraceCat::Worker, "shard-run");
        if (span.active()) {
            span.setDetail(run.workload + "/" + run.config + " parent=" +
                           traceIdHex(run.ctx.parent_span));
            span.setValue(static_cast<std::int64_t>(run.seq));
        }
        attempt = shardAttempt(runner, params, run);
    }

    Json payload = Json::object();
    payload.set("type", "result");
    payload.set("seq", run.seq);
    payload.set("ok", attempt.ok());
    if (attempt.ok())
        payload.set("result", attempt.value().toJson());
    else
        payload.set("status", statusToJson(attempt.status()));
    if (tracing) {
        // Ship every span this run recorded (the shard-run envelope
        // plus the frame/stage/tile spans beneath it); the control
        // plane rebases them onto its dispatch span.
        payload.set("trace", traceEventsToWire(traceCollect(t0)));
        traceContextClear();
    }
    return payload;
}

} // namespace

void
runShardAndExit(int shard_index, WorkloadFactory factory,
                BenchParams params, const std::string &params_json)
{
    if (Status s = prepareShardProcess(shard_index, params_json, params);
        !s.ok()) {
        std::fprintf(stderr, "evrsim shard %d: %s\n", shard_index,
                     s.message().c_str());
        std::exit(2);
    }
    ignoreSigpipe();

    FaultInjector faults(FaultInjector::planFromEnv());
    ExperimentRunner runner(factory, params);

    // The reader thread stays glued to stdin so pings are answered
    // mid-run; simulations execute on this one worker thread.
    std::mutex q_mu, write_mu;
    std::condition_variable q_cv;
    std::deque<ShardRun> queue;
    bool closed = false;

    auto respond = [&](Json payload) {
        std::lock_guard<std::mutex> lock(write_mu);
        writeFramedLine(kShardResponseFd, std::move(payload), &faults);
    };

    std::thread worker([&] {
        for (;;) {
            ShardRun run;
            {
                std::unique_lock<std::mutex> lk(q_mu);
                q_cv.wait(lk, [&] { return closed || !queue.empty(); });
                if (queue.empty())
                    return;
                run = std::move(queue.front());
                queue.pop_front();
            }
            respond(shardExecuteRun(runner, params, faults, run));
        }
    });

    MessageReader reader(STDIN_FILENO);
    for (;;) {
        Result<Json> msg = reader.next(250);
        if (!msg.ok()) {
            if (msg.status().code() == ErrorCode::DeadlineExceeded)
                continue;
            if (msg.status().code() == ErrorCode::DataLoss)
                continue; // damaged inbound line: skip, keep serving
            break;        // EOF: the control plane is gone — exit
        }
        if (faults.shouldFail(FaultSite::WorkerStall))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kWorkerStallMs));
        std::string type = msg.value().get("type", Json("")).asString();
        if (type == "ping") {
            Json pong = Json::object();
            pong.set("type", "pong");
            pong.set("seq", msg.value().get("seq", Json(0)));
            respond(std::move(pong));
        } else if (type == "run") {
            {
                std::lock_guard<std::mutex> lock(q_mu);
                queue.push_back(shardRunFromFrame(msg.value()));
            }
            q_cv.notify_one();
        }
    }
    {
        std::lock_guard<std::mutex> lock(q_mu);
        closed = true;
    }
    q_cv.notify_all();
    worker.join();
    std::exit(0);
}

} // namespace evrsim
