/**
 * @file
 * Fleet-wide observability plumbing: the pieces that turn per-process
 * traces and lifecycle events into one fleet-level view.
 *
 *  - Trace shipping: TraceShippedEvent <-> compact JSON wire form, so
 *    a shard can attach one run's spans to its result frame and the
 *    control plane can adopt them into the merged Chrome trace
 *    (common/trace.hpp traceCollect / traceIngestRemote). Shard-side
 *    timing is only visible this way.
 *  - FleetEventRing: a bounded ring of structured fleet lifecycle
 *    events (restart, breaker open/close, failover,
 *    registration), optionally persisted as JSONL, surfaced by the
 *    daemon's `status` endpoint.
 *
 * There is no shard metrics plane: shards record no metrics. The
 * control plane's ExperimentRunner records every RunResult a shard
 * returns, so its registry already covers the whole fleet, and
 * ShardFleet::statusJson() gives the per-shard view.
 *
 * This header lives in service/ (not common/) because it speaks
 * driver/json.hpp, which common/ must not depend on.
 */
#ifndef EVRSIM_SERVICE_FLEET_OBS_HPP
#define EVRSIM_SERVICE_FLEET_OBS_HPP

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "driver/json.hpp"

namespace evrsim {

/**
 * Serialize shipped trace events as a compact JSON array (short keys,
 * defaults omitted) for piggybacking on a result frame.
 */
Json traceEventsToWire(const std::vector<TraceShippedEvent> &events);

/** Parse the wire form back; malformed entries are skipped. */
std::vector<TraceShippedEvent> traceEventsFromWire(const Json &wire);

/** One structured fleet lifecycle event. */
struct FleetEvent {
    std::uint64_t seq = 0;  ///< monotone per control plane
    std::int64_t ts_ms = 0; ///< wall clock, unix milliseconds
    std::string type;       ///< "restart", "breaker-open", ...
    int shard = -1;         ///< slot index; -1 for fleet-wide events
    std::string detail;     ///< free-form context ("pong deadline", ...)
};

/**
 * Bounded ring of fleet lifecycle events, optionally mirrored to a
 * JSONL file (one event object per line, append-only) so the history
 * survives the daemon. Thread-safe.
 */
class FleetEventRing
{
  public:
    explicit FleetEventRing(std::size_t capacity = 256);

    /** Mirror subsequent events to @p path ("" disables persistence). */
    void setPersistPath(const std::string &path);

    void record(const char *type, int shard, const std::string &detail);

    /** Oldest-first snapshot of the retained events. */
    std::vector<FleetEvent> snapshot() const;

    /** The snapshot as a JSON array of event objects. */
    Json toJson() const;

  private:
    mutable std::mutex mu_;
    std::size_t capacity_;
    std::deque<FleetEvent> ring_;
    std::uint64_t next_seq_ = 1;
    std::string persist_path_;
};

/** An event as its JSONL / status-endpoint object form. */
Json fleetEventToJson(const FleetEvent &event);

} // namespace evrsim

#endif // EVRSIM_SERVICE_FLEET_OBS_HPP
