/**
 * @file
 * Worker supervision implementation.
 */
#include "driver/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/atomic_file.hpp" // writeAll
#include "common/trace.hpp"
#include "driver/envelope.hpp"

namespace evrsim {

namespace {

/** Upper bound on a worker response; anything larger is damage. */
constexpr std::size_t kMaxResponseBytes = 64u << 20;

std::string
describeArgv(const std::vector<std::string> &argv)
{
    std::string out;
    for (const std::string &a : argv) {
        if (!out.empty())
            out += ' ';
        out += a;
    }
    return out;
}

WorkerOutcome
died(std::string message)
{
    WorkerOutcome out;
    out.status = Status::unavailable(std::move(message));
    out.worker_died = true;
    return out;
}

/**
 * Child-side setup between fork and exec. Only async-signal-safe calls
 * are allowed here: the parent is multi-threaded (scheduler workers),
 * so the child's heap and locks are in an arbitrary state until exec
 * replaces the image.
 */
[[noreturn]] void
execWorker(char *const *argv, int response_fd, const WorkerLimits &limits)
{
    if (response_fd != kWorkerResponseFd) {
        if (::dup2(response_fd, kWorkerResponseFd) < 0)
            ::_exit(127);
        ::close(response_fd);
    }

    int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        if (devnull != STDOUT_FILENO)
            ::close(devnull);
    }

    if (limits.mem_mb > 0) {
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max =
            static_cast<rlim_t>(limits.mem_mb) << 20;
        ::setrlimit(RLIMIT_AS, &rl);
    }
    if (limits.timeout_ms > 0) {
        // Belt-and-braces CPU budget: a spinning worker dies on SIGXCPU
        // even if the supervising parent is itself killed first.
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max = static_cast<rlim_t>(
            (limits.timeout_ms + limits.grace_ms) / 1000 + 2);
        ::setrlimit(RLIMIT_CPU, &rl);
    }

    ::execv(argv[0], argv);
    ::_exit(127);
}

int
reap(pid_t pid)
{
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    return wstatus;
}

} // namespace

int
defaultGraceMs(int timeout_ms)
{
    if (timeout_ms <= 0)
        return 0;
    return std::clamp(timeout_ms / 2, 500, 5000);
}

std::string
selfExecutablePath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return {};
    buf[n] = '\0';
    return buf;
}

bool
writeWorkerResponse(int fd, const Result<RunResult> &attempt)
{
    Json payload = Json::object();
    payload.set("ok", attempt.ok());
    if (attempt.ok())
        payload.set("result", attempt.value().toJson());
    else
        payload.set("status", statusToJson(attempt.status()));

    std::string text =
        wrapEnvelope(std::move(payload), kWorkerProtocolVersion).dump(0);
    return writeAll(fd, text.data(), text.size());
}

WorkerOutcome
superviseWorker(const std::vector<std::string> &argv,
                const WorkerLimits &limits)
{
    if (argv.empty() || argv[0].empty())
        return died("worker launch failed: empty argv");

    // One span per fork→exec→reap lifetime; the child pid lands in
    // args.value once known, so a Perfetto view stitches the parent's
    // supervision span to the worker's own `.worker-<pid>` trace file.
    TraceSpan lifetime(TraceCat::Worker, "worker-lifetime");
    if (lifetime.active())
        lifetime.setDetail(describeArgv(argv));

    int fds[2];
    if (::pipe(fds) != 0)
        return died(std::string("worker pipe failed: ") +
                    std::strerror(errno));

    // execv wants mutable char*; the vector outlives the fork.
    std::vector<std::string> args = argv;
    std::vector<char *> cargv;
    cargv.reserve(args.size() + 1);
    for (std::string &a : args)
        cargv.push_back(a.data());
    cargv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return died(std::string("worker fork failed: ") +
                    std::strerror(errno));
    }
    if (pid == 0) {
        ::close(fds[0]);
        execWorker(cargv.data(), fds[1], limits);
    }
    ::close(fds[1]);
    lifetime.setValue(static_cast<std::int64_t>(pid));

    // Drain the response pipe, enforcing the hard wall-clock deadline.
    using clock = std::chrono::steady_clock;
    const bool bounded = limits.timeout_ms > 0;
    const clock::time_point deadline =
        clock::now() + std::chrono::milliseconds(limits.timeout_ms +
                                                 limits.grace_ms);
    std::string buf;
    bool killed = false;
    char chunk[4096];
    for (;;) {
        int wait_ms = -1;
        if (bounded) {
            auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - clock::now())
                            .count();
            if (left <= 0) {
                killed = true;
                break;
            }
            wait_ms = static_cast<int>(left);
        }
        struct pollfd p = {fds[0], POLLIN, 0};
        int rc = ::poll(&p, 1, wait_ms);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            killed = true; // treat a broken poll as a supervision kill
            break;
        }
        if (rc == 0) {
            killed = true;
            break;
        }
        ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            killed = true;
            break;
        }
        if (n == 0)
            break; // EOF: worker closed its end (exited)
        buf.append(chunk, static_cast<std::size_t>(n));
        if (buf.size() > kMaxResponseBytes) {
            killed = true;
            break;
        }
    }
    if (killed)
        ::kill(pid, SIGKILL);
    ::close(fds[0]);
    int wstatus = reap(pid);

    if (killed)
        return died("worker killed at the hard deadline (" +
                    std::to_string(limits.timeout_ms) + " ms + " +
                    std::to_string(limits.grace_ms) + " ms grace): " +
                    describeArgv(argv));
    if (WIFSIGNALED(wstatus)) {
        int sig = WTERMSIG(wstatus);
        const char *name = ::strsignal(sig);
        return died("worker died on signal " + std::to_string(sig) + " (" +
                    (name ? name : "?") + "): " + describeArgv(argv));
    }
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 127)
        return died("worker failed to exec " + argv[0]);
    if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)
        return died("worker exited with status " +
                    std::to_string(WIFEXITED(wstatus)
                                       ? WEXITSTATUS(wstatus)
                                       : -1) +
                    ": " + describeArgv(argv));

    Result<Json> payload = parseEnvelope(buf, kWorkerProtocolVersion);
    if (!payload.ok())
        return died("worker response unusable (" +
                    payload.status().toString() + "): " +
                    describeArgv(argv));

    const Json *ok = payload.value().find("ok");
    if (!ok || ok->type() != Json::Type::Bool)
        return died("worker response missing ok field: " +
                    describeArgv(argv));

    WorkerOutcome out;
    if (ok->asBool()) {
        const Json *result = payload.value().find("result");
        if (!result)
            return died("worker response missing result: " +
                        describeArgv(argv));
        Result<RunResult> r = RunResult::tryFromJson(*result);
        if (!r.ok())
            return died("worker result unusable (" +
                        r.status().toString() + "): " +
                        describeArgv(argv));
        out.result = r.value();
        return out;
    }

    const Json *status = payload.value().find("status");
    Status reported;
    if (!status || !statusFromJson(*status, reported).ok() ||
        reported.ok())
        return died("worker status unusable: " + describeArgv(argv));
    out.status = reported; // the worker's own verdict, code intact
    return out;
}

} // namespace evrsim
