/**
 * @file
 * Fleet observability implementation: trace-event wire form and the
 * fleet lifecycle event ring.
 */
#include "service/fleet_obs.hpp"

#include <chrono>
#include <cstdio>

namespace evrsim {

namespace {

/** Short wire keys: n(ame) c(at) p(hase) t(s) d(ur) v(alue) x(detail)
 *  i(tid) g(trace id, 16-hex). Defaults are omitted. */
Json
shippedEventToWire(const TraceShippedEvent &e)
{
    Json j = Json::object();
    j.set("n", e.name);
    j.set("c", e.cat);
    if (e.phase != 'X')
        j.set("p", std::string(1, e.phase));
    j.set("t", static_cast<std::uint64_t>(e.ts_ns));
    if (e.dur_ns != 0)
        j.set("d", static_cast<std::uint64_t>(e.dur_ns));
    if (e.value != INT64_MIN)
        j.set("v", static_cast<std::int64_t>(e.value));
    if (!e.detail.empty())
        j.set("x", e.detail);
    if (e.tid != 1)
        j.set("i", e.tid);
    if (e.trace_id != 0)
        j.set("g", traceIdHex(e.trace_id));
    return j;
}

} // namespace

Json
traceEventsToWire(const std::vector<TraceShippedEvent> &events)
{
    Json arr = Json::array();
    for (const TraceShippedEvent &e : events)
        arr.push(shippedEventToWire(e));
    return arr;
}

std::vector<TraceShippedEvent>
traceEventsFromWire(const Json &wire)
{
    std::vector<TraceShippedEvent> out;
    if (wire.type() != Json::Type::Array)
        return out;
    for (std::size_t i = 0; i < wire.size(); ++i) {
        const Json &j = wire.at(i);
        if (j.type() != Json::Type::Object)
            continue;
        const Json *name = j.find("n");
        const Json *cat = j.find("c");
        const Json *ts = j.find("t");
        if (!name || name->type() != Json::Type::String || !cat ||
            cat->type() != Json::Type::String || !ts ||
            ts->type() != Json::Type::Number)
            continue;
        TraceShippedEvent e;
        e.name = name->asString();
        e.cat = cat->asString();
        Json phase = j.get("p", Json("X"));
        if (phase.type() == Json::Type::String &&
            phase.asString().size() == 1)
            e.phase = phase.asString()[0];
        e.ts_ns = ts->asU64();
        e.dur_ns = j.get("d", Json(std::uint64_t{0})).asU64();
        const Json *value = j.find("v");
        if (value && value->type() == Json::Type::Number)
            e.value = value->asI64();
        Json detail = j.get("x", Json(""));
        if (detail.type() == Json::Type::String)
            e.detail = detail.asString();
        Json tid = j.get("i", Json(1));
        if (tid.type() == Json::Type::Number)
            e.tid = static_cast<int>(tid.asI64());
        const Json *gid = j.find("g");
        if (gid && gid->type() == Json::Type::String)
            e.trace_id = traceIdParse(gid->asString());
        out.push_back(std::move(e));
    }
    return out;
}

FleetEventRing::FleetEventRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

void
FleetEventRing::setPersistPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    persist_path_ = path;
}

void
FleetEventRing::record(const char *type, int shard,
                       const std::string &detail)
{
    FleetEvent e;
    e.type = type;
    e.shard = shard;
    e.detail = detail;
    e.ts_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count();
    std::string persist_path;
    {
        std::lock_guard<std::mutex> lock(mu_);
        e.seq = next_seq_++;
        ring_.push_back(e);
        while (ring_.size() > capacity_)
            ring_.pop_front();
        persist_path = persist_path_;
    }
    if (persist_path.empty())
        return;
    // Append-only JSONL mirror; events are rare (lifecycle only), so
    // open/append/close per event keeps the file crash-consistent
    // without holding a descriptor.
    if (std::FILE *f = std::fopen(persist_path.c_str(), "a")) {
        std::string line = fleetEventToJson(e).dump(0);
        line += '\n';
        std::fwrite(line.data(), 1, line.size(), f);
        std::fclose(f);
    }
}

std::vector<FleetEvent>
FleetEventRing::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<FleetEvent>(ring_.begin(), ring_.end());
}

Json
FleetEventRing::toJson() const
{
    Json arr = Json::array();
    for (const FleetEvent &e : snapshot())
        arr.push(fleetEventToJson(e));
    return arr;
}

Json
fleetEventToJson(const FleetEvent &event)
{
    Json j = Json::object();
    j.set("seq", event.seq);
    j.set("ts_ms", event.ts_ms);
    j.set("type", event.type);
    j.set("shard", event.shard);
    if (!event.detail.empty())
        j.set("detail", event.detail);
    return j;
}

} // namespace evrsim
