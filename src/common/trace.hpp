/**
 * @file
 * Low-overhead scoped-span tracer emitting Chrome trace-event JSON.
 *
 * Every figure in the paper is derived from event counters, but counters
 * only say *how much* — not *where the time went*. The tracer records
 * spans at two altitudes so a slow or faulty sweep is inspectable after
 * the fact in Perfetto / chrome://tracing:
 *
 *  - driver level: job queue wait, per-job execution, cache hit/miss,
 *    retry and quarantine instants, fleet dispatches, and the
 *    shard-side span of each run a shard process executes;
 *  - simulation level: per-frame spans, the pipeline stages inside each
 *    frame (geometry+binning, raster, RE frame end), and — optionally,
 *    and usually sampled — per-tile raster spans.
 *
 * Design constraints, in priority order:
 *
 *  1. Zero cost when disabled. Tracing is off unless EVRSIM_TRACE is
 *     set; a disabled TraceSpan is one relaxed atomic load and a branch,
 *     no allocation, no lock, no timestamp. Tracing never touches
 *     simulation state, so enabling it cannot perturb results (a test
 *     asserts RunResult byte-identity with tracing on vs off).
 *  2. Thread safety without a global hot lock. Each thread records into
 *     its own ring buffer (newest events win when full); the global
 *     registry is only locked to register a thread or to flush.
 *  3. Crash forensics. While a span is active its (category, name) is
 *     pushed onto the crash handler's thread-local span stack, so a
 *     worker that dies mid-stage reports *which* stage killed it.
 *
 * Configuration: EVRSIM_TRACE=<categories>[:<path>] where categories is
 * a comma-separated list of {driver, cache, worker, frame, stage, tile}
 * or "all", each optionally sampled with "/N" (record 1-in-N spans, for
 * hot categories like tile), and path is the output file (default
 * "evrsim_trace.json"). Parsing is strict in the env.hpp spirit: an
 * unknown category or malformed sample rate is a one-line error naming
 * the variable, never a silently different trace.
 */
#ifndef EVRSIM_COMMON_TRACE_HPP
#define EVRSIM_COMMON_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace evrsim {

/** Span categories; each is a bit in the enabled mask. */
enum class TraceCat : unsigned {
    Driver = 0, ///< scheduler: queue wait, job execution, retries
    Cache,      ///< result-cache hits / misses / quarantines
    Worker,     ///< shard-side runs ("shard-run"), shipped to the caller
    Frame,      ///< one span per rendered frame
    Stage,      ///< pipeline stages inside a frame (geometry, raster, RE)
    Tile,       ///< per-tile raster spans (hot: sample with tile/N)
    kCount,
};

constexpr std::size_t kTraceCatCount =
    static_cast<std::size_t>(TraceCat::kCount);

/** Stable lowercase name of a category ("driver", "tile", ...). */
const char *traceCatName(TraceCat cat);

/** Resolved EVRSIM_TRACE configuration. */
struct TraceConfig {
    unsigned mask = 0; ///< bit per TraceCat; 0 = tracing disabled
    /** Record 1-in-N spans of the category (1 = every span). */
    unsigned sample[kTraceCatCount] = {1, 1, 1, 1, 1, 1};
    std::string path = "evrsim_trace.json";

    bool enabled() const { return mask != 0; }
    bool
    has(TraceCat cat) const
    {
        return (mask & (1u << static_cast<unsigned>(cat))) != 0;
    }
};

/**
 * Parse EVRSIM_TRACE. Unset yields a disabled config (mask 0);
 * anything present must parse fully or the error names the variable,
 * the offending token, and the accepted grammar.
 */
Result<TraceConfig> traceConfigFromEnv();

/**
 * Install @p config globally, (re)arming the tracer. Events recorded
 * before a configure call are discarded. With an enabled config the
 * trace file is written automatically at process exit (std::atexit) —
 * including exit(1) via fatal() — or explicitly with traceWrite().
 */
void traceConfigure(const TraceConfig &config);

/** The currently installed configuration. */
TraceConfig traceConfig();

/** Internal: the enabled-category bitmask (do not touch directly). */
extern std::atomic<unsigned> g_trace_mask;

/** Cheap per-category check (one relaxed atomic load). */
inline bool
traceEnabled(TraceCat cat)
{
    return (g_trace_mask.load(std::memory_order_relaxed) &
            (1u << static_cast<unsigned>(cat))) != 0;
}

/** True when any category is enabled. */
inline bool
traceActive()
{
    return g_trace_mask.load(std::memory_order_relaxed) != 0;
}

/**
 * Serialize every thread's buffered events as Chrome trace-event JSON
 * and atomically publish the file at the configured path. Safe to call
 * while other threads are still tracing (they keep recording; a later
 * write picks their events up). Unavailable on I/O failure; Ok (doing
 * nothing) when tracing is disabled.
 */
Status traceWrite();

/** Nanoseconds since the tracer was configured (monotonic). */
std::uint64_t traceNowNs();

/** Events discarded because a thread's ring buffer wrapped. */
std::uint64_t traceDroppedEvents();

/** Open-span depth of the calling thread (tests assert balance). */
int traceActiveDepth();

/**
 * Span-totals accumulator: aggregate wall time per (category, name).
 *
 * Independent of the trace-event machinery above: totals can be
 * collected with tracing off (no ring buffers, no output file), and a
 * sampled trace still counts *every* span in the totals. bench_summary
 * --bench-speed uses this to attribute a run's wall time to pipeline
 * stages (geometry / binning / raster) without writing a trace.
 */
struct TraceTotal {
    const char *cat;  ///< category name ("stage", "frame", ...)
    const char *name; ///< span name ("geometry", "raster", ...)
    std::uint64_t count = 0;    ///< spans accumulated
    std::uint64_t total_ns = 0; ///< summed wall time
};

/**
 * Enable totals collection for the categories in @p mask (bit per
 * TraceCat, as in TraceConfig::mask; 0 disables). Implicitly resets
 * previously accumulated totals.
 */
void traceTotalsEnable(unsigned mask);

/** Zero all accumulated totals (collection state is unchanged). */
void traceTotalsReset();

/** Snapshot of the accumulated totals, sorted by category then name. */
std::vector<TraceTotal> traceTotals();

/**
 * Ambient trace context (Dapper-style). The control plane stamps a
 * {trace_id, parent_span} pair on every dispatched run; the executing
 * side installs it as the calling thread's ambient context, and every
 * event recorded while it is set carries the trace id (emitted as a
 * 16-hex-digit args.trace_id). A zero trace_id means "no context".
 */
struct TraceContext {
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
};

/** Install @p ctx as the calling thread's ambient trace context. */
void traceContextSet(const TraceContext &ctx);

/** Clear the calling thread's ambient trace context. */
void traceContextClear();

/** The calling thread's ambient trace context (zero when unset). */
TraceContext traceContextCurrent();

/** Format a trace/span id as the canonical 16-hex-digit wire string. */
std::string traceIdHex(std::uint64_t id);

/** Parse a 16-hex-digit id; 0 on malformed input. */
std::uint64_t traceIdParse(const std::string &hex);

/**
 * One event in shippable (process-independent) form: names and
 * categories are owned strings, timestamps are relative to an agreed
 * base so the receiver can rebase them onto its own clock.
 */
struct TraceShippedEvent {
    std::string name;
    std::string cat;
    char phase = 'X';          ///< 'X' complete, 'i' instant
    std::uint64_t ts_ns = 0;   ///< relative to the collection base
    std::uint64_t dur_ns = 0;  ///< complete events only
    std::int64_t value = INT64_MIN;
    std::string detail;
    int tid = 1;               ///< recording thread ordinal
    std::uint64_t trace_id = 0;
};

/**
 * Snapshot every local event recorded at or after @p since_ns (a
 * traceNowNs() value), with timestamps rebased so ts_ns = 0 at
 * @p since_ns. The shard side uses this to ship one run's spans back
 * on the result frame. Empty when tracing is disabled.
 */
std::vector<TraceShippedEvent> traceCollect(std::uint64_t since_ns);

/**
 * Adopt foreign events into this process's trace under a synthetic
 * pid lane. @p pid_tag keys the lane (stable per remote process slot),
 * @p process_name labels it, and @p base_ns (a local traceNowNs()
 * value) rebases the shipped timestamps onto the local clock — the
 * control plane passes the dispatch span's start so shard spans land
 * inside it. No-op when tracing is disabled.
 */
void traceIngestRemote(int pid_tag, const std::string &process_name,
                       std::uint64_t base_ns,
                       const std::vector<TraceShippedEvent> &events);

/** Record an instant event (a point in time, no duration). */
void traceInstant(TraceCat cat, const char *name);
void traceInstant(TraceCat cat, const char *name, std::string detail);

/**
 * Record a complete event with an explicit start and duration, for
 * spans whose start was captured before the recording thread knew it
 * would trace them (e.g. job queue wait: enqueue is timestamped at
 * submit, the event is emitted at dequeue on the worker thread).
 */
void traceComplete(TraceCat cat, const char *name, std::uint64_t start_ns,
                   std::uint64_t dur_ns, std::string detail = {},
                   std::int64_t value = INT64_MIN);

/**
 * RAII scoped span. Construction decides activity once (category
 * enabled + sampling filter); destruction records a complete event
 * covering the scope. @p name must be a string literal (it is kept by
 * pointer, and handed to the crash handler's span stack).
 */
class TraceSpan
{
  public:
    TraceSpan(TraceCat cat, const char *name);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** True when this span will be recorded (use to gate arg building). */
    bool active() const { return active_; }

    /** Attach a free-form string argument (args.detail in the JSON). */
    void
    setDetail(std::string detail)
    {
        if (active_)
            detail_ = std::move(detail);
    }

    /** Attach an integer argument (args.value; frame index, pid, ...). */
    void
    setValue(std::int64_t value)
    {
        if (active_)
            value_ = value;
    }

  private:
    bool active_;        ///< recorded as a trace event
    bool totals_ = false; ///< accumulated into the span totals
    TraceCat cat_;
    const char *name_;
    std::uint64_t start_ns_ = 0;
    std::int64_t value_ = INT64_MIN;
    std::string detail_;
};

} // namespace evrsim

#endif // EVRSIM_COMMON_TRACE_HPP
