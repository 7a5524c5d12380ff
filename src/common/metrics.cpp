/**
 * @file
 * Metrics registry implementation.
 *
 * Hand-written JSON (common/ cannot depend on driver/json.hpp); the
 * tests round-trip the output through the driver parser to prove it is
 * well-formed. Numbers are emitted as integers when integral so
 * counter totals compare exactly against the printed tables.
 */
#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "common/atomic_file.hpp"

namespace evrsim {

namespace {

enum class Kind { Counter, Gauge, Histogram };

const char *
kindName(Kind k)
{
    switch (k) {
    case Kind::Counter:
        return "counter";
    case Kind::Gauge:
        return "gauge";
    case Kind::Histogram:
        return "histogram";
    }
    return "?";
}

struct Instance {
    Kind kind = Kind::Counter;
    MetricLabels labels;
    double value = 0;                 // counter / gauge
    std::vector<double> bounds;       // histogram upper bounds
    std::vector<std::uint64_t> counts; // per-bucket (+1 overflow slot)
    double sum = 0;
    std::uint64_t count = 0;
};

struct Registry {
    std::mutex mu;
    // name -> (serialized labels -> instance); the outer map also pins
    // the sticky kind and custom histogram bounds per name.
    std::map<std::string, std::map<std::string, Instance>> series;
    std::map<std::string, Kind> kinds;
    std::map<std::string, std::vector<double>> custom_bounds;
    std::uint64_t type_conflicts = 0;
};

Registry &
registry()
{
    static Registry *r = new Registry; // never destroyed (atexit order)
    return *r;
}

/** Wall-time-in-ms friendly default ladder: 0.1ms .. 100s. */
std::vector<double>
defaultBounds()
{
    return {0.1, 0.25, 0.5, 1, 2.5, 5,    10,   25,   50,
            100, 250,  500, 1000, 2500, 5000, 10000, 100000};
}

std::string
labelsKey(const MetricLabels &labels)
{
    std::string key;
    for (const auto &kv : labels) { // std::map: already sorted
        key += kv.first;
        key += '\x1f';
        key += kv.second;
        key += '\x1e';
    }
    return key;
}

/** Locked lookup-or-create; null when the name is bound to another kind. */
Instance *
instance(Registry &r, const std::string &name, Kind kind,
         const MetricLabels &labels)
{
    auto kit = r.kinds.find(name);
    if (kit == r.kinds.end()) {
        r.kinds[name] = kind;
    } else if (kit->second != kind) {
        ++r.type_conflicts;
        return nullptr;
    }
    Instance &inst = r.series[name][labelsKey(labels)];
    if (inst.counts.empty() && kind == Kind::Histogram) {
        auto bit = r.custom_bounds.find(name);
        inst.bounds =
            bit != r.custom_bounds.end() ? bit->second : defaultBounds();
        inst.counts.assign(inst.bounds.size() + 1, 0);
    }
    if (inst.labels.empty() && !labels.empty())
        inst.labels = labels;
    inst.kind = kind;
    return &inst;
}

/** Shortest-exact double formatting; integral values print as integers
 *  so JSON totals compare exactly with printed tables. */
std::string
formatNumber(double v)
{
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

/** Prometheus label-value escaping. The text exposition format defines
 *  exactly three escapes inside quoted label values — backslash,
 *  double-quote and newline; everything else passes through verbatim.
 *  Centralized here so hostile workload/config labels can never
 *  tear a quoted value open or smuggle a line break into the output. */
std::string
promEscapeLabelValue(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

/** Prometheus label names must match [a-zA-Z_][a-zA-Z0-9_]*. Quoting
 *  is not available for names, so out-of-charset bytes map to '_'
 *  (and a leading digit gets a '_' prefix) rather than being emitted
 *  raw, which would malform every line mentioning the label. */
std::string
promSanitizeLabelName(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 1);
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  c == '_' || (!out.empty() && c >= '0' && c <= '9');
        out += ok ? c : '_';
    }
    if (out.empty())
        out += '_';
    return out;
}

/** Prometheus label block: {a="x",b="y"} or empty. */
std::string
promLabels(const MetricLabels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &kv : labels) {
        if (!first)
            out += ',';
        first = false;
        out += promSanitizeLabelName(kv.first);
        out += "=\"";
        out += promEscapeLabelValue(kv.second);
        out += '"';
    }
    out += '}';
    return out;
}

std::string
promBound(double v)
{
    if (std::isinf(v))
        return "+Inf";
    return formatNumber(v);
}

} // namespace

void
metricsCounterAdd(const std::string &name, double delta,
                  const MetricLabels &labels)
{
    if (delta < 0)
        return; // counters are monotone; ignore bad deltas
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (Instance *inst = instance(r, name, Kind::Counter, labels))
        inst->value += delta;
}

void
metricsGaugeSet(const std::string &name, double value,
                const MetricLabels &labels)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (Instance *inst = instance(r, name, Kind::Gauge, labels))
        inst->value = value;
}

void
metricsHistogramObserve(const std::string &name, double value,
                        const MetricLabels &labels)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    Instance *inst = instance(r, name, Kind::Histogram, labels);
    if (!inst)
        return;
    std::size_t b = 0;
    while (b < inst->bounds.size() && value > inst->bounds[b])
        ++b;
    ++inst->counts[b];
    inst->sum += value;
    ++inst->count;
}

void
metricsHistogramDefine(const std::string &name,
                       const std::vector<double> &upper_bounds)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto sit = r.series.find(name);
    if (sit != r.series.end() && !sit->second.empty())
        return; // sticky once sampled
    std::vector<double> bounds = upper_bounds;
    std::sort(bounds.begin(), bounds.end());
    r.custom_bounds[name] = bounds;
}

void
metricsReset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.series.clear();
    r.kinds.clear();
    r.custom_bounds.clear();
    r.type_conflicts = 0;
}

std::uint64_t
metricsTypeConflicts()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.type_conflicts;
}

std::size_t
metricsInstanceCount()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::size_t n = 0;
    for (const auto &s : r.series)
        n += s.second.size();
    return n;
}

Result<double>
metricsValue(const std::string &name, const MetricLabels &labels)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto sit = r.series.find(name);
    if (sit == r.series.end())
        return Status::unavailable("no metric named '" + name + "'");
    auto iit = sit->second.find(labelsKey(labels));
    if (iit == sit->second.end())
        return Status::unavailable("no instance of '" + name +
                                   "' with those labels");
    if (iit->second.kind == Kind::Histogram)
        return iit->second.sum;
    return iit->second.value;
}

std::string
metricsToJson()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::string out = "{\"schema\":1,\"metrics\":[";
    bool first = true;
    for (const auto &s : r.series) { // map order: sorted by name
        for (const auto &i : s.second) { // sorted by label key
            const Instance &inst = i.second;
            if (!first)
                out += ',';
            first = false;
            out += "\n{\"name\":";
            appendEscaped(out, s.first);
            out += ",\"type\":\"";
            out += kindName(inst.kind);
            out += "\",\"labels\":{";
            bool lfirst = true;
            for (const auto &kv : inst.labels) {
                if (!lfirst)
                    out += ',';
                lfirst = false;
                appendEscaped(out, kv.first);
                out += ':';
                appendEscaped(out, kv.second);
            }
            out += '}';
            if (inst.kind == Kind::Histogram) {
                out += ",\"buckets\":[";
                for (std::size_t b = 0; b < inst.counts.size(); ++b) {
                    if (b)
                        out += ',';
                    out += "{\"le\":";
                    if (b < inst.bounds.size())
                        out += formatNumber(inst.bounds[b]);
                    else
                        out += "\"+Inf\"";
                    out += ",\"count\":" +
                           std::to_string(inst.counts[b]) + '}';
                }
                out += "],\"sum\":" + formatNumber(inst.sum) +
                       ",\"count\":" + std::to_string(inst.count);
            } else {
                out += ",\"value\":" + formatNumber(inst.value);
            }
            out += '}';
        }
    }
    out += "\n],\"type_conflicts\":" + std::to_string(r.type_conflicts) +
           "}\n";
    return out;
}

std::string
metricsToProm()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::string out;
    for (const auto &s : r.series) {
        const Kind kind = r.kinds.at(s.first);
        out += "# TYPE " + s.first + ' ' + kindName(kind) + '\n';
        for (const auto &i : s.second) {
            const Instance &inst = i.second;
            if (kind == Kind::Histogram) {
                std::uint64_t cum = 0;
                for (std::size_t b = 0; b < inst.counts.size(); ++b) {
                    cum += inst.counts[b];
                    MetricLabels ls = inst.labels;
                    ls["le"] = b < inst.bounds.size()
                                   ? promBound(inst.bounds[b])
                                   : "+Inf";
                    out += s.first + "_bucket" + promLabels(ls) + ' ' +
                           std::to_string(cum) + '\n';
                }
                out += s.first + "_sum" + promLabels(inst.labels) + ' ' +
                       formatNumber(inst.sum) + '\n';
                out += s.first + "_count" + promLabels(inst.labels) +
                       ' ' + std::to_string(inst.count) + '\n';
            } else {
                out += s.first + promLabels(inst.labels) + ' ' +
                       formatNumber(inst.value) + '\n';
            }
        }
    }
    return out;
}

Status
metricsWriteJson(const std::string &path)
{
    return atomicWriteFile(path, metricsToJson());
}

Status
metricsWriteProm(const std::string &path)
{
    return atomicWriteFile(path, metricsToProm());
}

} // namespace evrsim
