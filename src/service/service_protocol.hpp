/**
 * @file
 * Wire protocol of the resident sweep service.
 *
 * Transport: a UNIX domain stream socket carrying newline-delimited
 * JSON, each line wrapped in the same `{schema, payload_crc32,
 * payload}` envelope as the result cache, the sweep journal, and the
 * worker-response pipe (driver/envelope.hpp). The service moves
 * documents across a *process* trust boundary, so it gets the same
 * treatment as documents crossing a *crash* boundary: a torn or
 * damaged line is detected by checksum and surfaced as DataLoss, never
 * half-parsed.
 *
 * Client -> daemon messages:
 *   {type:"sweep",  id, client, runs:[{workload, config}, ...]}
 *   {type:"attach", id, client}   re-run a journaled request by id
 *   {type:"ping"}                 liveness probe
 *   {type:"status", events?}      live introspection: service counters
 *                                 plus fleet topology; events:true also
 *                                 returns the lifecycle event ring
 *
 * Daemon -> client messages:
 *   {type:"accepted", id, total}
 *   {type:"progress", id, completed, total, workload, config, ok,
 *    elapsed_s, final:false}      one per finished run, heartbeat.jsonl
 *                                 semantics (monotone completed/total)
 *   {type:"result",   id, final:true, elapsed_s, runs:[...], stats:{}}
 *   {type:"error",    id?, status:{code, message}}
 *   {type:"pong",     draining}
 *   {type:"status",   draining, service:{...}, fleet?:{shards:[{slot,
 *    alive, breaker, last_frame_age_ms, inflight, restarts,
 *    last_error}], stats:{...}}, events?:[...]}
 *                                 fleet is absent with EVRSIM_SHARDS=0;
 *                                 each shard also repeats
 *                                 last_frame_age_ms as lease_age_ms,
 *                                 its old name
 *
 * Result payloads embed RunResult::toJson(false) — host timing
 * excluded — so a request replayed after a daemon crash is
 * byte-identical to the uninterrupted reply.
 *
 * Configurations travel by *name* (the SimConfig factory names:
 * baseline, re, evr, evr-reorder, evr-filter, oracle-z, z-prepass);
 * dimensions, frame counts and validation policy are daemon-side
 * parameters, exactly as they are for the bench binaries.
 */
#ifndef EVRSIM_SERVICE_SERVICE_PROTOCOL_HPP
#define EVRSIM_SERVICE_SERVICE_PROTOCOL_HPP

#include <string>
#include <vector>

#include "common/status.hpp"
#include "driver/json.hpp"
#include "driver/sim_config.hpp"

namespace evrsim {

/**
 * Service wire schema, embedded in every line's envelope; bump when the
 * message format changes so a stale client fails with DataLoss instead
 * of misreading replies.
 */
constexpr int kServiceProtocolVersion = 1;

/** Config factory names accepted over the wire, in report order. */
const std::vector<std::string> &knownConfigNames();

/**
 * Resolve a wire config name to its SimConfig over @p gpu.
 * InvalidArgument naming the config and the accepted set otherwise.
 */
Result<SimConfig> configByName(const std::string &name,
                               const GpuConfig &gpu);

/**
 * Frame @p payload as one enveloped line and write it to @p fd with a
 * single send(2) (MSG_NOSIGNAL: a vanished peer is an Unavailable
 * Status, never a SIGPIPE). Thread-compatible; callers serialize
 * writes to a shared fd themselves.
 */
Status writeServiceMessage(int fd, Json payload);

/**
 * Buffered line reader for enveloped service messages.
 *
 * next() returns the next message payload, or:
 *  - DeadlineExceeded when @p timeout_ms elapsed with no complete line
 *    (poll-based; the caller decides whether that means "check a drain
 *    flag and keep waiting" or "the request's deadline passed");
 *  - Unavailable when the peer closed the connection;
 *  - DataLoss when a line fails the envelope check (torn write, stale
 *    schema, checksum damage).
 */
class MessageReader
{
  public:
    explicit MessageReader(int fd) : fd_(fd) {}

    Result<Json> next(int timeout_ms);

  private:
    int fd_;
    std::string buf_;
    bool eof_ = false;
};

} // namespace evrsim

#endif // EVRSIM_SERVICE_SERVICE_PROTOCOL_HPP
