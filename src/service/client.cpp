/**
 * @file
 * ServiceClient implementation.
 */
#include "service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/net.hpp"
#include "common/rng.hpp"
#include "driver/envelope.hpp"
#include "service/service_protocol.hpp"

namespace evrsim {

namespace {

using Clock = std::chrono::steady_clock;

/** close(2) on scope exit. */
struct ScopedFd {
    int fd;
    explicit ScopedFd(int f) : fd(f) {}
    ~ScopedFd()
    {
        if (fd >= 0)
            ::close(fd);
    }
    ScopedFd(const ScopedFd &) = delete;
    ScopedFd &operator=(const ScopedFd &) = delete;
};

/** Remaining ms before @p deadline; INT_MAX-ish when none. */
int
remainingMs(bool has_deadline, Clock::time_point deadline)
{
    if (!has_deadline)
        return 1 << 30;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    return left > 0 ? static_cast<int>(std::min<long long>(left, 1 << 30))
                    : 0;
}

/** The daemon shed or never saw the request: worth another attempt. */
bool
retryable(const Status &s)
{
    return s.code() == ErrorCode::Unavailable ||
           s.code() == ErrorCode::ResourceExhausted ||
           s.code() == ErrorCode::DataLoss;
}

Result<SweepReply>
parseResult(const Json &msg)
{
    SweepReply reply;
    if (const Json *e = msg.find("elapsed_s");
        e && e->type() == Json::Type::Number)
        reply.elapsed_s = e->asDouble();
    const Json *runs = msg.find("runs");
    if (!runs || runs->type() != Json::Type::Array)
        return Status::dataLoss("result message has no runs array");
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const Json &r = runs->at(i);
        ClientRunOutcome out;
        if (const Json *w = r.find("workload");
            w && w->type() == Json::Type::String)
            out.workload = w->asString();
        if (const Json *c = r.find("config");
            c && c->type() == Json::Type::String)
            out.config = c->asString();
        const Json *ok = r.find("ok");
        if (ok && ok->type() == Json::Type::Bool && ok->asBool()) {
            const Json *doc = r.find("result");
            if (!doc)
                return Status::dataLoss("run marked ok without a result");
            Result<RunResult> rr = RunResult::tryFromJson(*doc);
            if (!rr.ok())
                return rr.status();
            out.result = rr.value();
            out.result_json = doc->dump(0);
        } else {
            const Json *st = r.find("status");
            out.status = Status::internal("run failed, status missing");
            if (st)
                statusFromJson(*st, out.status); // best effort
        }
        reply.runs.push_back(std::move(out));
    }
    return reply;
}

} // namespace

Result<int>
ServiceClient::connectOnce(int deadline_ms)
{
    // A write against a daemon that died mid-reply must surface as
    // EPIPE, not kill the client process.
    ignoreSigpipe();
    return unixConnect(opts_.socket_path, std::max(deadline_ms, 1));
}

Result<SweepReply>
ServiceClient::runSweep(const std::string &id,
                        const std::vector<ClientRunSpec> &runs,
                        const ProgressFn &progress)
{
    if (id.empty())
        return Status::invalidArgument("request id must be non-empty");
    if (runs.empty())
        return Status::invalidArgument("sweep needs at least one run");
    return execute(id, runs, progress);
}

Result<SweepReply>
ServiceClient::attach(const std::string &id, const ProgressFn &progress)
{
    if (id.empty())
        return Status::invalidArgument("request id must be non-empty");
    return execute(id, {}, progress);
}

Result<Json>
ServiceClient::ping()
{
    Result<int> cfd = connectOnce(opts_.connect_timeout_ms);
    if (!cfd.ok())
        return cfd.status();
    ScopedFd fd(cfd.value());
    Json req = Json::object();
    req.set("type", "ping");
    if (Status s = writeServiceMessage(fd.fd, std::move(req)); !s.ok())
        return s;
    MessageReader reader(fd.fd);
    return reader.next(std::max(opts_.poll_ms, 1000));
}

Result<Json>
ServiceClient::status(bool include_events)
{
    Result<int> cfd = connectOnce(opts_.connect_timeout_ms);
    if (!cfd.ok())
        return cfd.status();
    ScopedFd fd(cfd.value());
    Json req = Json::object();
    req.set("type", "status");
    if (include_events)
        req.set("events", true);
    if (Status s = writeServiceMessage(fd.fd, std::move(req)); !s.ok())
        return s;
    MessageReader reader(fd.fd);
    return reader.next(std::max(opts_.poll_ms, 1000));
}

Result<SweepReply>
ServiceClient::execute(const std::string &id,
                       const std::vector<ClientRunSpec> &runs,
                       const ProgressFn &progress)
{
    bool has_deadline = opts_.deadline_ms > 0;
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(opts_.deadline_ms);

    SweepReply reply;
    int attempts_left = std::max(opts_.retries, 0);
    const int base = std::max(opts_.backoff_base_ms, 1);
    const int cap = std::max(opts_.backoff_cap_ms, base);
    int backoff = base;
    // Decorrelated jitter (each nap drawn from [base, 3 * previous)):
    // concurrent clients kicked off the same daemon spread their
    // retries instead of reconnecting in lockstep. The stream is
    // seeded from the request id, so a given request's retry schedule
    // is reproducible.
    std::uint64_t jitter = mix64(fnv1a64(id));
    int sends = 0;
    Status last = Status::unavailable("no attempt made");
    bool first = true;

    for (;;) {
        if (!first) {
            if (attempts_left <= 0)
                return last;
            --attempts_left;
            int nap = std::min(backoff,
                               remainingMs(has_deadline, deadline));
            if (nap > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(nap));
            jitter = mix64(jitter);
            double u = static_cast<double>(jitter >> 11) * 0x1.0p-53;
            int span = std::min(cap, backoff * 3);
            backoff = span <= base
                          ? base
                          : base + static_cast<int>(
                                       u * static_cast<double>(span -
                                                               base));
        }
        first = false;
        if (remainingMs(has_deadline, deadline) <= 0)
            return Status::deadlineExceeded(
                "request '" + id + "': deadline of " +
                std::to_string(opts_.deadline_ms) + " ms exceeded (" +
                last.message() + ")");

        Result<int> cfd = connectOnce(
            std::min(std::max(opts_.connect_timeout_ms, 1),
                     remainingMs(has_deadline, deadline)));
        ++reply.connect_attempts;
        if (!cfd.ok()) {
            last = cfd.status();
            continue;
        }
        ScopedFd fd(cfd.value());

        Json req = Json::object();
        req.set("type", runs.empty() ? "attach" : "sweep");
        req.set("id", id);
        req.set("client", opts_.client_id);
        if (!runs.empty()) {
            Json arr = Json::array();
            for (const ClientRunSpec &r : runs) {
                Json e = Json::object();
                e.set("workload", r.workload);
                e.set("config", r.config);
                arr.push(std::move(e));
            }
            req.set("runs", std::move(arr));
        }
        if (Status s = writeServiceMessage(fd.fd, std::move(req));
            !s.ok()) {
            last = s;
            continue;
        }
        ++sends;
        reply.resubmits = sends - 1;

        MessageReader reader(fd.fd);
        bool resubmit = false;
        std::uint64_t progress_seen = 0;
        for (;;) {
            int left = remainingMs(has_deadline, deadline);
            if (left <= 0)
                return Status::deadlineExceeded(
                    "request '" + id + "': deadline of " +
                    std::to_string(opts_.deadline_ms) +
                    " ms exceeded waiting for the reply");
            Result<Json> msg =
                reader.next(std::min(opts_.poll_ms, left));
            if (!msg.ok()) {
                if (msg.status().code() == ErrorCode::DeadlineExceeded)
                    continue; // poll tick; overall deadline re-checked
                // Connection lost or torn mid-stream: reconnect and
                // resubmit under the same idempotent id.
                last = msg.status();
                resubmit = true;
                break;
            }
            const Json *type = msg.value().find("type");
            if (!type || type->type() != Json::Type::String)
                continue;
            if (type->asString() == "progress") {
                // The daemon's completed counter is strictly
                // monotone, so a duplicated or replayed record is
                // stream damage (e.g. a duplicated wire line):
                // resubmit under the same id rather than forward a
                // lying progress sequence.
                const Json *done = msg.value().find("completed");
                if (done && done->type() == Json::Type::Number) {
                    std::uint64_t completed = done->asU64();
                    if (completed <= progress_seen) {
                        last = Status::dataLoss(
                            "request '" + id +
                            "': non-monotone progress record "
                            "(completed " +
                            std::to_string(completed) + " after " +
                            std::to_string(progress_seen) + ")");
                        resubmit = true;
                        break;
                    }
                    progress_seen = completed;
                }
                if (progress)
                    progress(msg.value());
                continue;
            }
            if (type->asString() == "accepted" ||
                type->asString() == "pong")
                continue;
            if (type->asString() == "error") {
                Status st =
                    Status::internal("daemon error without status");
                if (const Json *sj = msg.value().find("status"))
                    statusFromJson(*sj, st);
                if (retryable(st)) {
                    last = st;
                    resubmit = true;
                    break;
                }
                return st;
            }
            if (type->asString() == "result") {
                Result<SweepReply> parsed = parseResult(msg.value());
                if (!parsed.ok()) {
                    last = parsed.status();
                    resubmit = true;
                    break;
                }
                SweepReply out = parsed.value();
                out.connect_attempts = reply.connect_attempts;
                out.resubmits = reply.resubmits;
                return out;
            }
            // Unknown message type: ignore (forward compatibility).
        }
        if (!resubmit)
            return last;
    }
}

} // namespace evrsim
