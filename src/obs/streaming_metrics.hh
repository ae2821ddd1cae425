/**
 * @file
 * Streaming metric sketches: bounded-memory replacement for the
 * per-request RequestMetrics vector.
 *
 * With --streaming-metrics the cluster folds each request's metrics
 * into fixed-size accumulators the moment its arena chunk retires,
 * instead of growing a RunResult::perRequest row per request. Chunk
 * recycling then fully bounds simulation memory: a 10M-request soak
 * holds only live requests plus these sketches.
 *
 * The fold is qoe::Rollup's, the same one qoe::aggregateMetrics
 * runs over the full vector; only the percentile source differs:
 *   - stats::Summary — exact count/mean/max (Welford) for TTFT, E2E,
 *     answering latency and QoE; means and maxima in the aggregate
 *     are exact, not estimates.
 *   - LogHistogram — log-spaced buckets (gamma = 1.005) for the
 *     percentile families: TTFT, E2E, blocking and KV transfer.
 *     Quantiles report the geometric bucket center, so the relative
 *     error is at most sqrt(gamma) - 1 ~= 0.25%, well inside the 1%
 *     tolerance the tier-1 test pins for p50/p95/p99 TTFT.
 *
 * Folding is deterministic: requests retire in simulation order, and
 * every accumulator is order-insensitive for the values it reports
 * exactly (count/mean via Welford, min/max) and order-dependent only
 * in ways the same seed reproduces bit-for-bit.
 */

#ifndef PASCAL_OBS_STREAMING_METRICS_HH
#define PASCAL_OBS_STREAMING_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.hh"
#include "src/qoe/metrics.hh"

namespace pascal
{
namespace obs
{

/**
 * Log-spaced histogram for positive samples.
 *
 * Bucket i covers [minValue * gamma^i, minValue * gamma^(i+1));
 * samples below minValue (including zero — blocking latency is often
 * exactly 0) land in a dedicated zero bucket reported as 0.0. The
 * bucket array grows lazily to span only the index range actually
 * hit, so a family whose samples cover three decades costs a few
 * thousand uint64 slots.
 */
class LogHistogram
{
  public:
    /** @param gamma Bucket growth ratio (> 1).
     *  @param min_value Smallest resolvable sample (> 0). */
    explicit LogHistogram(double gamma = 1.005,
                          double min_value = 1e-9);

    /** Fold one sample (negatives count as zero). */
    void add(double x);

    /** Samples folded so far. */
    std::uint64_t count() const { return total; }

    /**
     * Quantile estimate at percentile @p p in [0, 100] via
     * nearest-rank over bucket counts; returns the geometric center
     * of the selected bucket (0 for an empty histogram).
     */
    double quantile(double p) const;

    /** Worst-case relative error of quantile(): sqrt(gamma) - 1. */
    double relativeError() const;

    /** Allocated bucket slots (memory-bound diagnostics). */
    std::size_t numBuckets() const { return buckets.size(); }

  private:
    std::int64_t bucketIndex(double x) const;

    double gammaVal;
    double minValue;
    double invLogGamma;
    std::uint64_t zeroCount = 0;
    std::uint64_t total = 0;
    /** buckets[k] counts bucket index baseIndex + k. */
    std::vector<std::uint64_t> buckets;
    std::int64_t baseIndex = 0;
};

/**
 * Bounded-memory aggregate over a run's requests: the exact rollup's
 * rule with log-histogram percentiles. Copyable: the cluster
 * snapshots it at result time and folds still-live requests into the
 * copy without disturbing the running accumulation.
 */
using StreamingMetrics = qoe::Rollup<LogHistogram>;

} // namespace obs
} // namespace pascal

#endif // PASCAL_OBS_STREAMING_METRICS_HH
