/**
 * @file
 * Per-request and aggregate serving metrics.
 *
 * Converts the raw timestamps a Request accumulates during simulation
 * into the quantities the paper reports: TTFT (submission to first
 * answering token, Fig. 1(b)), TTFAT, reasoning/answering latency with
 * executed/blocked/preempted breakdowns (Fig. 4/5), QoE and SLO
 * violations (Fig. 11), blocking latency (Fig. 13), and KV transfer
 * latencies (Section V-C).
 */

#ifndef PASCAL_QOE_METRICS_HH
#define PASCAL_QOE_METRICS_HH

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "src/common/stats.hh"
#include "src/common/types.hh"
#include "src/qoe/slo.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace qoe
{

/** Everything the harnesses need to know about one finished request. */
struct RequestMetrics
{
    RequestId id = kNoRequest;
    std::string dataset;
    Time arrival = 0.0;
    TokenCount promptTokens = 0;
    TokenCount reasoningTokens = 0;
    TokenCount answerTokens = 0;

    bool finished = false;

    /** Terminally failed by the fault layer (failed implies
     *  !finished); why is in failReason. */
    bool failed = false;
    workload::FailReason failReason = workload::FailReason::None;

    /** Service class from the spec (Standard when classes are off). */
    workload::SloClass sloClass = workload::SloClass::Standard;

    /** The armed relative deadline expired before completion. */
    bool deadlineExpired = false;

    /** Finished as best-effort after a demote-on-expiry. */
    bool bestEffort = false;

    /** Submission to first answering token (the paper's TTFT). */
    double ttft = 0.0;
    /** Reasoning end (</think>) to first answering token. */
    double ttfat = 0.0;
    /** Submission to reasoning end (Fig. 4's reasoning latency). */
    double reasoningLatency = 0.0;
    /** Submission to completion. */
    double e2eLatency = 0.0;
    /** Arrival/transition to completion of the answering phase. */
    double answeringLatency = 0.0;
    /** Reasoning end to first answering-phase decode step (Fig. 13(c)
     *  "blocking latency"). */
    double blockingLatency = 0.0;
    /** Arrival to the first time any work ran for the request. */
    double queueingDelay = 0.0;
    /** Mean seconds per answering token after the first. */
    double meanTpot = 0.0;

    workload::PhaseBuckets reasoningBuckets;
    workload::PhaseBuckets answeringBuckets;

    double qoe = 1.0;
    bool sloViolated = false;

    int migrationCount = 0;
    std::vector<double> kvTransferLatencies;
};

/**
 * Score one simulated request against @p slo.
 *
 * When @p classes is non-null and enabled, the class's TPOT/TTFAT
 * targets (Batch's for best-effort requests) replace the global ones
 * for QoE scoring; every other SloConfig knob still comes from
 * @p slo.
 *
 * @pre The request finished (metrics of unfinished requests have
 *      finished == false and only the fields known so far).
 */
RequestMetrics computeRequestMetrics(
    const workload::Request& req, const SloConfig& slo,
    const SloClassConfig* classes = nullptr);

/** Rollup of a set of requests (a run, or one SLO class of it).
 *  Latency stats cover finished requests only; a rollup with none
 *  reports numRequests and numFinished alone. */
struct AggregateMetrics
{
    std::size_t numRequests = 0;
    std::size_t numFinished = 0;
    double makespan = 0.0;           //!< First arrival to last finish.
    double throughputTokensPerSec = 0.0;
    double meanTtft = 0.0;
    double p50Ttft = 0.0;
    double p99Ttft = 0.0;
    double maxTtft = 0.0;
    double meanQoe = 0.0;
    double sloViolationRate = 0.0;   //!< Fraction of finished requests.
    double meanE2eLatency = 0.0;
    double p50E2eLatency = 0.0;
    double p99E2eLatency = 0.0;
    /** Mean answering-phase latency over finished requests (the
     *  speculative schedulers' headline metric). */
    double meanAnsweringLatency = 0.0;
    double p99BlockingLatency = 0.0;
    double p99KvTransferLatency = 0.0;
    int totalMigrations = 0;
};

/** Exact percentile source: every sample, sorted on the first read
 *  after an add (stats::percentileOfSorted, 0 when empty). */
class SortedSamples
{
  public:
    void
    add(double x)
    {
        values.push_back(x);
        sorted = false;
    }

    double
    quantile(double p) const
    {
        if (!sorted) {
            std::sort(values.begin(), values.end());
            sorted = true;
        }
        return stats::percentileOfSorted(values, p);
    }

  private:
    mutable std::vector<double> values;
    mutable bool sorted = true;
};

/**
 * The one aggregation rule: which requests a rollup counts and how
 * it turns them into means, percentiles and rates.
 *
 * Every request counts toward numRequests and the first arrival;
 * only finished ones feed anything else. Means and maxima are
 * stats::Summary values in fold order. Percentiles come from
 * @p Samples (add(double), quantile(p) for p in [0, 100]):
 * SortedSamples for the exact rollup, obs::LogHistogram for the
 * bounded-memory streaming one. Families that report only a mean
 * (answering latency, QoE) keep no samples.
 */
template <typename Samples>
class Rollup
{
  public:
    void
    fold(const RequestMetrics& m)
    {
        ++requests;
        firstArrival = std::min(firstArrival, m.arrival);
        if (!m.finished)
            return;
        ++finished;
        ttftSum.add(m.ttft);
        ttfts.add(m.ttft);
        e2eSum.add(m.e2eLatency);
        e2es.add(m.e2eLatency);
        answeringSum.add(m.answeringLatency);
        blockings.add(m.blockingLatency);
        for (double t : m.kvTransferLatencies)
            transfers.add(t);
        qoeSum.add(m.qoe);
        if (m.sloViolated)
            ++violations;
        lastFinish = std::max(lastFinish, m.arrival + m.e2eLatency);
        totalTokens += m.reasoningTokens + m.answerTokens;
        migrations += m.migrationCount;
    }

    AggregateMetrics
    aggregate() const
    {
        AggregateMetrics agg;
        agg.numRequests = requests;
        agg.numFinished = finished;
        if (finished == 0)
            return agg;

        agg.makespan = lastFinish - firstArrival;
        if (agg.makespan > 0.0) {
            agg.throughputTokensPerSec =
                static_cast<double>(totalTokens) / agg.makespan;
        }
        agg.meanTtft = ttftSum.mean();
        agg.maxTtft = ttftSum.max();
        agg.p50Ttft = ttfts.quantile(50.0);
        agg.p99Ttft = ttfts.quantile(99.0);
        agg.meanE2eLatency = e2eSum.mean();
        agg.p50E2eLatency = e2es.quantile(50.0);
        agg.p99E2eLatency = e2es.quantile(99.0);
        agg.meanAnsweringLatency = answeringSum.mean();
        agg.p99BlockingLatency = blockings.quantile(99.0);
        agg.p99KvTransferLatency = transfers.quantile(99.0);
        agg.meanQoe = qoeSum.mean();
        agg.sloViolationRate = static_cast<double>(violations) /
                               static_cast<double>(finished);
        agg.totalMigrations = migrations;
        return agg;
    }

    /** TTFT percentile source over finished requests. */
    const Samples& ttft() const { return ttfts; }

  private:
    stats::Summary ttftSum;
    stats::Summary e2eSum;
    stats::Summary answeringSum;
    stats::Summary qoeSum;
    Samples ttfts;
    Samples e2es;
    Samples blockings;
    Samples transfers;

    std::size_t requests = 0;
    std::size_t finished = 0;
    std::size_t violations = 0;
    Time firstArrival = kTimeInfinity;
    Time lastFinish = 0.0;
    TokenCount totalTokens = 0;
    int migrations = 0;
};

/** Roll up a set of per-request metrics. */
AggregateMetrics aggregateMetrics(
    const std::vector<RequestMetrics>& requests);

/** Roll up @p requests per SLO class (demoted best-effort requests
 *  count against their nominal class). */
std::array<AggregateMetrics, workload::kNumSloClasses>
aggregateByClass(const std::vector<RequestMetrics>& requests);

} // namespace qoe
} // namespace pascal

#endif // PASCAL_QOE_METRICS_HH
