/**
 * @file
 * Unit tests for per-request metric extraction and aggregation, and
 * for the one rollup rule (qoe::Rollup) that the run aggregate, the
 * per-class aggregates and the streaming sketch share.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/streaming_metrics.hh"
#include "src/qoe/metrics.hh"

namespace
{

using namespace pascal;
using qoe::AggregateMetrics;
using qoe::aggregateMetrics;
using qoe::computeRequestMetrics;
using qoe::RequestMetrics;
using qoe::SloConfig;
using workload::Request;
using workload::RequestSpec;
using workload::SloClass;

Request
runPacedRequest(Time arrival, TokenCount reasoning, TokenCount answer,
                Time step)
{
    RequestSpec s;
    s.id = 1;
    s.arrival = arrival;
    s.promptTokens = 64;
    s.reasoningTokens = reasoning;
    s.answerTokens = answer;
    Request r(s);
    Time t = arrival + 0.5; // Prefill finishes 0.5 s after arrival.
    r.completePrefill(t, 0);
    for (TokenCount i = 1; i < reasoning + answer; ++i) {
        t += step;
        r.emitToken(t, 0);
    }
    return r;
}

TEST(Metrics, TimestampsMapToPaperDefinitions)
{
    // 4 reasoning + 3 answering tokens, 0.1 s/step, prefill at +0.5.
    Request r = runPacedRequest(10.0, 4, 3, 0.1);
    SloConfig slo;
    auto m = computeRequestMetrics(r, slo);

    ASSERT_TRUE(m.finished);
    // Reasoning ends at 10.5 + 3*0.1 = 10.8; first answer at 10.9.
    EXPECT_NEAR(m.reasoningLatency, 0.8, 1e-9);
    EXPECT_NEAR(m.ttft, 0.9, 1e-9);
    EXPECT_NEAR(m.ttfat, 0.1, 1e-9);
    // Finish at 11.1.
    EXPECT_NEAR(m.e2eLatency, 1.1, 1e-9);
    EXPECT_NEAR(m.answeringLatency, 0.3, 1e-9);
    EXPECT_NEAR(m.meanTpot, 0.1, 1e-9);
}

TEST(Metrics, PacedRequestMeetsSlo)
{
    Request r = runPacedRequest(0.0, 4, 50, 0.05); // Faster than pace.
    SloConfig slo;
    auto m = computeRequestMetrics(r, slo);
    EXPECT_DOUBLE_EQ(m.qoe, 1.0);
    EXPECT_FALSE(m.sloViolated);
}

TEST(Metrics, SlowGenerationViolatesSlo)
{
    Request r = runPacedRequest(0.0, 4, 50, 0.5); // 5x slower.
    SloConfig slo;
    auto m = computeRequestMetrics(r, slo);
    EXPECT_LT(m.qoe, 0.95);
    EXPECT_TRUE(m.sloViolated);
}

TEST(Metrics, Fig5ModeChargesLateFirstToken)
{
    // startInAnswering request whose first token arrives 5 s after
    // the reasoning end: fine in main-eval mode, violation in the
    // characterization (TTFAT-anchored) mode.
    RequestSpec s;
    s.id = 2;
    s.arrival = 0.0;
    s.promptTokens = 128;
    s.reasoningTokens = 0;
    s.answerTokens = 20;
    s.startInAnswering = true;
    Request r(s);
    Time t = 5.0;
    for (TokenCount i = 0; i < s.answerTokens; ++i) {
        r.emitToken(t, 0);
        t += 0.05;
    }

    SloConfig main_eval;
    main_eval.qoeFromFirstToken = true;
    EXPECT_FALSE(computeRequestMetrics(r, main_eval).sloViolated);

    SloConfig characterization;
    characterization.qoeFromFirstToken = false;
    auto m = computeRequestMetrics(r, characterization);
    EXPECT_TRUE(m.sloViolated);
    EXPECT_LT(m.qoe, 0.95);
}

TEST(Metrics, UnfinishedRequestMarked)
{
    RequestSpec s;
    s.id = 3;
    s.arrival = 0.0;
    s.promptTokens = 64;
    s.reasoningTokens = 10;
    s.answerTokens = 10;
    Request r(s);
    r.completePrefill(1.0, 0);
    auto m = computeRequestMetrics(r, SloConfig{});
    EXPECT_FALSE(m.finished);
    EXPECT_DOUBLE_EQ(m.e2eLatency, 0.0);
}

TEST(Metrics, AggregateRollsUp)
{
    SloConfig slo;
    std::vector<RequestMetrics> ms;
    ms.push_back(
        computeRequestMetrics(runPacedRequest(0.0, 4, 20, 0.05), slo));
    ms.push_back(
        computeRequestMetrics(runPacedRequest(1.0, 4, 20, 0.5), slo));

    auto agg = aggregateMetrics(ms);
    EXPECT_EQ(agg.numRequests, 2u);
    EXPECT_EQ(agg.numFinished, 2u);
    EXPECT_NEAR(agg.sloViolationRate, 0.5, 1e-9);
    EXPECT_GT(agg.makespan, 0.0);
    EXPECT_GT(agg.throughputTokensPerSec, 0.0);
    EXPECT_GT(agg.p99Ttft, agg.p50Ttft - 1e-12);
    EXPECT_GT(agg.meanQoe, 0.0);
}

TEST(Metrics, AggregateEmptyIsZeroed)
{
    auto agg = aggregateMetrics({});
    EXPECT_EQ(agg.numRequests, 0u);
    EXPECT_DOUBLE_EQ(agg.throughputTokensPerSec, 0.0);
}

TEST(Metrics, AggregateSkipsUnfinished)
{
    SloConfig slo;
    RequestSpec s;
    s.id = 9;
    s.arrival = 0.0;
    s.promptTokens = 64;
    s.reasoningTokens = 10;
    s.answerTokens = 10;
    Request r(s);
    std::vector<RequestMetrics> ms{computeRequestMetrics(r, slo)};
    auto agg = aggregateMetrics(ms);
    EXPECT_EQ(agg.numRequests, 1u);
    EXPECT_EQ(agg.numFinished, 0u);
}

/** One hand-made row; unfinished rows carry what a request that is
 *  still running (or failed) would know so far. */
RequestMetrics
row(SloClass cls, bool finished, Time arrival, double ttft, double e2e,
    double blocking, std::vector<double> transfers = {})
{
    RequestMetrics m;
    m.sloClass = cls;
    m.finished = finished;
    m.arrival = arrival;
    m.ttft = ttft;
    m.e2eLatency = e2e;
    m.answeringLatency = finished ? 0.25 * e2e : 0.0;
    m.blockingLatency = blocking;
    m.kvTransferLatencies = std::move(transfers);
    m.reasoningTokens = 100 + static_cast<TokenCount>(10 * arrival);
    m.answerTokens = 40;
    m.migrationCount = static_cast<int>(m.kvTransferLatencies.size());
    m.qoe = 1.0 / (1.0 + ttft);
    m.sloViolated = m.qoe < 0.5;
    return m;
}

/**
 * Finished, unfinished and failed rows across all three classes. The
 * finished rows' percentile families each hold an odd count with a
 * repeated maximum, so the exact interpolated percentiles and the
 * sketch's nearest-rank ones select the same sample.
 */
std::vector<RequestMetrics>
mixedRows()
{
    const SloClass I = SloClass::Interactive;
    const SloClass S = SloClass::Standard;
    const SloClass B = SloClass::Batch;
    std::vector<RequestMetrics> rows{
        row(I, true, 1.0, 0.3, 4.0, 0.0),
        row(S, true, 1.5, 0.7, 6.5, 0.02, {0.04}),
        row(B, true, 2.0, 1.1, 3.25, 0.0),
        // Still running when the run ended: earliest arrival, and a
        // TTFT, blocking and transfer larger than any finished row's.
        row(S, false, 0.25, 50.0, 0.0, 3.0, {7.0}),
        row(I, true, 2.5, 0.5, 9.0, 0.15),
        row(S, true, 3.0, 2.5, 5.5, 0.0, {0.12, 0.02}),
        row(B, true, 3.5, 0.9, 9.0, 0.15),
        row(I, true, 4.0, 1.7, 7.75, 0.01, {0.12}),
        row(S, true, 4.5, 2.5, 4.5, 0.0),
        row(B, true, 5.0, 1.3, 8.0, 0.05),
    };
    RequestMetrics shed = row(B, false, 5.5, 0.0, 0.0, 0.0);
    shed.failed = true;
    shed.failReason = workload::FailReason::Shed;
    rows.push_back(shed);
    RequestMetrics expired = row(I, false, 6.0, 40.0, 0.0, 2.0, {9.0});
    expired.failed = true;
    expired.failReason = workload::FailReason::DeadlineExceeded;
    rows.push_back(expired);
    return rows;
}

/** Every field equal; the percentile fields within @p rel_tol
 *  relative error (exactly equal when it is 0). */
void
expectSameAggregate(const AggregateMetrics& a, const AggregateMetrics& b,
                    double rel_tol)
{
    EXPECT_EQ(a.numRequests, b.numRequests);
    EXPECT_EQ(a.numFinished, b.numFinished);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.throughputTokensPerSec, b.throughputTokensPerSec);
    EXPECT_EQ(a.meanTtft, b.meanTtft);
    EXPECT_EQ(a.maxTtft, b.maxTtft);
    EXPECT_EQ(a.meanQoe, b.meanQoe);
    EXPECT_EQ(a.sloViolationRate, b.sloViolationRate);
    EXPECT_EQ(a.meanE2eLatency, b.meanE2eLatency);
    EXPECT_EQ(a.meanAnsweringLatency, b.meanAnsweringLatency);
    EXPECT_EQ(a.totalMigrations, b.totalMigrations);

    const double pairs[][2] = {
        {a.p50Ttft, b.p50Ttft},
        {a.p99Ttft, b.p99Ttft},
        {a.p50E2eLatency, b.p50E2eLatency},
        {a.p99E2eLatency, b.p99E2eLatency},
        {a.p99BlockingLatency, b.p99BlockingLatency},
        {a.p99KvTransferLatency, b.p99KvTransferLatency},
    };
    for (const auto& p : pairs) {
        if (rel_tol == 0.0) {
            EXPECT_EQ(p[0], p[1]);
        } else {
            const double err = p[1] == 0.0
                                   ? std::abs(p[0])
                                   : std::abs(p[0] - p[1]) / p[1];
            EXPECT_LE(err, rel_tol) << p[0] << " vs " << p[1];
        }
    }
}

TEST(Rollup, ClassRowsEqualTheRunRollupOfThatClass)
{
    const auto rows = mixedRows();
    const auto by_class = qoe::aggregateByClass(rows);
    const std::size_t requests[] = {4, 4, 4};
    const std::size_t finished[] = {3, 3, 3};
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        SCOPED_TRACE("class " + std::to_string(c));
        std::vector<RequestMetrics> mine;
        for (const auto& m : rows)
            if (workload::sloClassIndex(m.sloClass) == c)
                mine.push_back(m);
        EXPECT_EQ(by_class[c].numRequests, requests[c]);
        EXPECT_EQ(by_class[c].numFinished, finished[c]);
        expectSameAggregate(by_class[c], aggregateMetrics(mine), 0.0);
    }
}

TEST(Rollup, UnfinishedRowsCountOnlyTowardRequestsAndFirstArrival)
{
    const auto agg = aggregateMetrics(mixedRows());
    EXPECT_EQ(agg.numRequests, 12u);
    EXPECT_EQ(agg.numFinished, 9u);
    // First arrival 0.25 (an unfinished row) to last finish 5.0 + 8.0.
    EXPECT_EQ(agg.makespan, 13.0 - 0.25);
    EXPECT_EQ(agg.maxTtft, 2.5);
    EXPECT_EQ(agg.p99Ttft, 2.5);
    EXPECT_EQ(agg.p99BlockingLatency, 0.15);
    EXPECT_EQ(agg.p99KvTransferLatency, 0.12);
    EXPECT_EQ(agg.totalMigrations, 4);

    // A rollup with no finished request reports the counts alone.
    std::vector<RequestMetrics> unfinished;
    for (const auto& m : mixedRows())
        if (!m.finished)
            unfinished.push_back(m);
    AggregateMetrics counts_only;
    counts_only.numRequests = unfinished.size();
    expectSameAggregate(aggregateMetrics(unfinished), counts_only, 0.0);
    for (const auto& c : qoe::aggregateByClass(unfinished)) {
        counts_only.numRequests = c.numRequests;
        expectSameAggregate(c, counts_only, 0.0);
    }
}

TEST(Rollup, StreamingSketchFollowsTheExactRule)
{
    const auto rows = mixedRows();
    obs::StreamingMetrics streaming;
    for (const auto& m : rows)
        streaming.fold(m);
    expectSameAggregate(streaming.aggregate(), aggregateMetrics(rows),
                        obs::LogHistogram().relativeError());
}

} // namespace
