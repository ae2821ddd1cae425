/**
 * @file
 * RunResult: everything one simulated serving run reports, as scored
 * by RunContext::result().
 */

#ifndef PASCAL_CLUSTER_RUN_RESULT_HH
#define PASCAL_CLUSTER_RUN_RESULT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.hh"
#include "src/obs/stat_registry.hh"
#include "src/obs/streaming_metrics.hh"
#include "src/qoe/metrics.hh"
#include "src/workload/slo_class.hh"

namespace pascal
{
namespace cluster
{

/** Lifecycle counts for one service class. The Cluster keeps one row
 *  per class as its only per-class ledger (exported as
 *  cluster.slo.<class>.*); RunResult::perClass is a copy of it.
 *  Totality invariant (checked by bench_chaos_goodput
 *  --check-invariants): submitted == completed + shed +
 *  deadlineFailed + retryFailed + still-live-at-horizon. demoted
 *  tracks demote-on-expiry transitions and overlaps the other outcome
 *  buckets. */
struct ClassOutcome
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t deadlineFailed = 0;
    std::uint64_t retryFailed = 0;
    std::uint64_t demoted = 0;
    /** completed / submitted; 1.0 when the class saw no work. Filled
     *  in by RunContext::result(). */
    double goodputFraction = 1.0;
};

/** Everything a harness needs from one simulated run. */
struct RunResult
{
    std::vector<qoe::RequestMetrics> perRequest;
    qoe::AggregateMetrics aggregate;

    /** Largest GPU KV occupancy on any instance (tokens); feeds the
     *  Section III "50 % of oracle" capacity recipe. */
    TokenCount peakGpuKvTokens = 0;

    /** Per-instance KV capacity the run used (tokens). */
    TokenCount kvCapacityTokens = 0;

    std::uint64_t totalIterations = 0;
    std::size_t numUnfinished = 0;
    int totalMigrations = 0;

    /** @name Failure accounting (src/fault/; all zero — and goodput
     *  1.0 with an empty trace — when the fault layer is off) */
    /** @{ */
    std::uint64_t numCrashes = 0;
    std::uint64_t numRetries = 0;
    std::uint64_t numShed = 0;
    /** All terminal failures (retry-budget exhaustion + shed +
     *  deadline expiry). */
    std::uint64_t numTerminalFailures = 0;
    /**
     * Fraction of submitted requests that completed (emitted every
     * token): numFinished / numRequests, 1.0 for an empty trace.
     *
     * Denominator semantics (pinned by the GoodputSemantics tests in
     * tests/test_slo_classes.cc):
     *  - The denominator counts every submitted request — including
     *    requests shed at admission (global fault-layer floor or
     *    class-aware overload control), requests terminally failed
     *    (retry budget or deadline expiry), and requests still live
     *    when the run stopped.
     *  - The numerator counts only fully-completed requests. A shed
     *    or terminally-failed request is Done for lifecycle purposes
     *    but never counts as finished; a demoted best-effort request
     *    that completes DOES count.
     * So goodputFraction + numUnfinished/numRequests == 1 exactly,
     * and numUnfinished == numTerminalFailures when nothing was cut
     * off by the horizon (numShed is a subset of terminal failures,
     * not an extra term).
     */
    double goodputFraction = 1.0;
    /** @} */

    /** @name SLO-class outcomes (all rows zero — and per-class
     *  goodput 1.0 — when cfg.sloClasses is disabled) */
    /** @{ */
    std::array<ClassOutcome, workload::kNumSloClasses> perClass{};

    /** Per-class rollups over perRequest, by the same rule as
     *  aggregate (qoe::Rollup); left zero-initialized in streaming
     *  mode, which keeps no rows. */
    std::array<qoe::AggregateMetrics, workload::kNumSloClasses>
        classAggregates{};
    /** @} */

    /** All KV migration latencies (Section V-C). */
    std::vector<double> kvTransferLatencies;

    std::string schedulerName;
    std::string placementName;
    std::string predictorName; //!< "none" when running reactively.

    /** @name Telemetry (src/obs/; excluded from byte-identity
     *  comparisons so force-recompute twins stay comparable — the
     *  plan-rung counters live here, under cluster.plan.*) */
    /** @{ */

    /** Generic snapshot of the cluster's stat registry (always
     *  populated — the registry is costless). */
    obs::StatDump statsDump;

    /** Chrome/Perfetto trace-event JSON; "" unless
     *  SystemConfig::telemetry.traceEnabled. */
    std::string traceJson;

    /** Streaming-sketch rollup; non-null only in streaming mode
     *  (where perRequest stays empty and aggregate comes from the
     *  sketches). */
    std::shared_ptr<const obs::StreamingMetrics> streaming;

    /** @} */
};

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_RUN_RESULT_HH
