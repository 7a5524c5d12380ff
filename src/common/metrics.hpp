/**
 * @file
 * Metrics registry: counters, gauges and histograms with labels.
 *
 * The simulator already counts everything the paper's figures need
 * (FrameStats, memory traffic, driver retry/cache counters), but those
 * counts only surface as end-of-sweep tables printed to stdout. The
 * registry gives them a machine-readable home: benches record per-run
 * totals and sweep-level aggregates here, and the experiment layer
 * exports one `metrics.json` (plus a Prometheus-style `metrics.prom`
 * text file) per sweep into the EVRSIM_OBS directory, so `BENCH_*.json`
 * trajectories and dashboards can consume them mechanically.
 *
 * Threading: every operation takes one registry mutex. Metrics are
 * recorded at per-run granularity (a few dozen samples per simulation),
 * never inside pixel loops, so contention is irrelevant; simplicity and
 * correctness win. Recording is gated by the experiment layer
 * (EVRSIM_OBS=dir), so the default path costs nothing but the
 * enabled-check.
 *
 * Identity: a metric instance is (name, sorted label set). Re-recording
 * with the same identity accumulates (counter/histogram) or overwrites
 * (gauge). Types are sticky: the first use of a name fixes its type and
 * a mismatched later use is counted in `evrsim_metrics_type_conflicts`
 * rather than corrupting the series.
 */
#ifndef EVRSIM_COMMON_METRICS_HPP
#define EVRSIM_COMMON_METRICS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace evrsim {

/** Label set attached to a metric sample ({{"workload","ccs"},...}). */
using MetricLabels = std::map<std::string, std::string>;

/** Add @p delta (>= 0) to a monotonically increasing counter. */
void metricsCounterAdd(const std::string &name, double delta,
                       const MetricLabels &labels = {});

/** Set a gauge to the latest observed value. */
void metricsGaugeSet(const std::string &name, double value,
                     const MetricLabels &labels = {});

/**
 * Record one observation into a histogram. Buckets default to a
 * geometric ladder spanning sub-millisecond to minutes (fits wall-time
 * in ms); call metricsHistogramDefine first for a custom ladder.
 */
void metricsHistogramObserve(const std::string &name, double value,
                             const MetricLabels &labels = {});

/**
 * Fix the bucket upper bounds (ascending, +Inf implied) used by every
 * instance of histogram @p name. No-op once the histogram has samples.
 */
void metricsHistogramDefine(const std::string &name,
                            const std::vector<double> &upper_bounds);

/** Drop every recorded metric (tests; batch boundaries). */
void metricsReset();

/** Number of distinct metric instances currently recorded. */
std::size_t metricsInstanceCount();

/** Samples dropped so far because a name was re-used with another
 *  type. */
std::uint64_t metricsTypeConflicts();

/**
 * Fetch the current value of a counter/gauge instance. Unavailable when
 * the instance does not exist (exact name + labels match).
 */
Result<double> metricsValue(const std::string &name,
                            const MetricLabels &labels = {});

/**
 * Serialize the registry as JSON: `{"schema":1,"metrics":[...]}` with
 * one entry per instance carrying name/type/labels and either `value`
 * (counter, gauge) or `buckets`/`sum`/`count` (histogram). Entries are
 * sorted by (name, labels) so output is deterministic.
 */
std::string metricsToJson();

/** Serialize in Prometheus text exposition format (# TYPE lines,
 *  `name{label="v"} value`, histogram `_bucket`/`_sum`/`_count`). */
std::string metricsToProm();

/** Write metricsToJson() / metricsToProm() atomically to @p path. */
Status metricsWriteJson(const std::string &path);
Status metricsWriteProm(const std::string &path);

} // namespace evrsim

#endif // EVRSIM_COMMON_METRICS_HPP
