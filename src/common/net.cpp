/**
 * @file
 * Deadline-aware socket helpers (net.hpp).
 */
#include "common/net.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace evrsim {

namespace {

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Status
errnoStatus(const std::string &what)
{
    return Status::unavailable(what + ": " + std::strerror(errno));
}

Status
setNonblocking(int fd, bool nonblocking)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return errnoStatus("fcntl(F_GETFL)");
    if (nonblocking)
        flags |= O_NONBLOCK;
    else
        flags &= ~O_NONBLOCK;
    if (::fcntl(fd, F_SETFL, flags) < 0)
        return errnoStatus("fcntl(F_SETFL)");
    return {};
}

/**
 * Finish a nonblocking connect: poll for writability until
 * @p deadline, then read SO_ERROR for the real verdict.
 */
Status
awaitConnect(int fd, std::int64_t deadline)
{
    for (;;) {
        std::int64_t left = deadline - nowMs();
        if (left <= 0)
            return Status::deadlineExceeded("connect timed out");
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLOUT;
        pfd.revents = 0;
        int n = ::poll(&pfd, 1, static_cast<int>(left));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("poll(connect)");
        }
        if (n == 0)
            return Status::deadlineExceeded("connect timed out");
        int err = 0;
        socklen_t err_len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0)
            return errnoStatus("getsockopt(SO_ERROR)");
        if (err != 0)
            return Status::unavailable(std::string("connect: ") +
                                       std::strerror(err));
        return {};
    }
}

} // namespace

void
ignoreSigpipe()
{
    static std::once_flag once;
    std::call_once(once, [] {
        struct sigaction cur;
        std::memset(&cur, 0, sizeof(cur));
        if (::sigaction(SIGPIPE, nullptr, &cur) == 0 &&
            cur.sa_handler != SIG_DFL)
            return; // an embedding application installed a handler
        struct sigaction ign;
        std::memset(&ign, 0, sizeof(ign));
        ign.sa_handler = SIG_IGN;
        ::sigemptyset(&ign.sa_mask);
        ::sigaction(SIGPIPE, &ign, nullptr);
    });
}

Result<int>
unixConnect(const std::string &path, int deadline_ms)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return Status::invalidArgument("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return errnoStatus("socket(AF_UNIX)");
    Status st = setNonblocking(fd, true);
    if (st.ok()) {
        if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof(addr)) < 0) {
            if (errno == EINPROGRESS) {
                st = awaitConnect(fd, nowMs() + deadline_ms);
            } else if (errno == EAGAIN) {
                // AF_UNIX quirk: a full accept backlog fails the
                // nonblocking connect *immediately* with EAGAIN and
                // poll will never complete it — surface Unavailable
                // so the caller's retry/backoff loop handles it.
                st = Status::unavailable("connect " + path +
                                         ": backlog full");
            } else {
                st = errnoStatus("connect " + path);
            }
        }
    }
    if (st.ok())
        st = setNonblocking(fd, false);
    if (!st.ok()) {
        ::close(fd);
        return st;
    }
    return fd;
}

} // namespace evrsim
