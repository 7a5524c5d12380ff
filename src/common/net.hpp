/**
 * @file
 * Deadline-aware POSIX socket helpers for the service's client to
 * daemon hop over AF_UNIX, which has two robustness requirements:
 *
 *  1. *No blocking past a deadline.* connect(2) on a wedged peer can
 *     hang (a daemon stuck in accept with a full backlog). The connect
 *     helper takes a deadline and uses a nonblocking socket + poll(2),
 *     returning DeadlineExceeded instead of wedging the caller.
 *  2. *No SIGPIPE, ever.* A peer vanishing mid-stream must surface as
 *     a write Status, not kill the process. Processes call
 *     ignoreSigpipe() once at setup.
 *
 * The socket is created close-on-exec, so shard children never
 * inherit it.
 */
#ifndef EVRSIM_COMMON_NET_HPP
#define EVRSIM_COMMON_NET_HPP

#include <string>

#include "common/status.hpp"

namespace evrsim {

/**
 * Ignore SIGPIPE process-wide, once, idempotently. Only replaces the
 * default disposition — a handler installed by an embedding
 * application is left alone. Safe to call from multiple threads.
 */
void ignoreSigpipe();

/**
 * Connect to the AF_UNIX socket at @p path with a deadline. Note a
 * subtlety: a nonblocking UNIX connect whose backlog is full fails
 * EAGAIN immediately (poll will not complete it), which maps to
 * Unavailable — the retrying caller's backoff is the right response,
 * not spinning out the deadline here.
 */
Result<int> unixConnect(const std::string &path, int deadline_ms);

} // namespace evrsim

#endif // EVRSIM_COMMON_NET_HPP
