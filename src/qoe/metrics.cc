#include "src/qoe/metrics.hh"

#include "src/qoe/qoe.hh"

namespace pascal
{
namespace qoe
{

RequestMetrics
computeRequestMetrics(const workload::Request& req, const SloConfig& slo,
                      const SloClassConfig* classes)
{
    slo.validate();

    // Per-class targets override the global ones when the class
    // subsystem is on; everything else (threshold, anchoring mode)
    // stays global.
    Time tpot_target = slo.tpotTarget;
    Time ttfat_target = slo.ttfatTarget;
    if (classes != nullptr && classes->enabled) {
        const SloClassParams& p =
            classes->effective(req.spec().sloClass, req.bestEffort);
        tpot_target = p.tpotTarget;
        ttfat_target = p.ttfatTarget;
    }

    const auto& spec = req.spec();
    RequestMetrics m;
    m.id = spec.id;
    m.dataset = spec.dataset;
    m.arrival = spec.arrival;
    m.promptTokens = spec.promptTokens;
    m.reasoningTokens = spec.reasoningTokens;
    m.answerTokens = spec.answerTokens;
    m.reasoningBuckets = req.reasoningBuckets;
    m.answeringBuckets = req.answeringBuckets;
    m.migrationCount = req.migrationCount;
    m.kvTransferLatencies = req.kvTransferLatencies;
    m.finished = req.finished();
    m.failReason = req.failReason;
    m.failed = m.failReason != workload::FailReason::None;
    m.sloClass = spec.sloClass;
    m.deadlineExpired = req.deadlineExpired;
    m.bestEffort = req.bestEffort;

    if (req.reasoningEnd >= 0.0)
        m.reasoningLatency = req.reasoningEnd - spec.arrival;
    if (req.firstAnswer >= 0.0) {
        m.ttft = req.firstAnswer - spec.arrival;
        m.ttfat = req.firstAnswer - req.reasoningEnd;
    }
    if (req.firstAnswerScheduled >= 0.0 && req.reasoningEnd >= 0.0)
        m.blockingLatency = req.firstAnswerScheduled - req.reasoningEnd;
    if (req.firstScheduled >= 0.0)
        m.queueingDelay = req.firstScheduled - spec.arrival;

    if (!m.finished)
        return m;

    m.e2eLatency = req.finish - spec.arrival;
    m.answeringLatency = req.finish - req.reasoningEnd;

    const auto& emits = req.answerEmitTimes;
    if (emits.size() > 1) {
        m.meanTpot = (emits.back() - emits.front()) /
                     static_cast<double>(emits.size() - 1);
    }

    Time expected_start = slo.qoeFromFirstToken
                              ? req.firstAnswer
                              : req.reasoningEnd + ttfat_target;
    m.qoe = computeQoe(emits, expected_start, tpot_target);
    m.sloViolated = m.qoe < slo.qoeThreshold;
    return m;
}

AggregateMetrics
aggregateMetrics(const std::vector<RequestMetrics>& requests)
{
    Rollup<SortedSamples> rollup;
    for (const auto& m : requests)
        rollup.fold(m);
    return rollup.aggregate();
}

std::array<AggregateMetrics, workload::kNumSloClasses>
aggregateByClass(const std::vector<RequestMetrics>& requests)
{
    std::array<Rollup<SortedSamples>, workload::kNumSloClasses> rollups;
    for (const auto& m : requests)
        rollups[workload::sloClassIndex(m.sloClass)].fold(m);
    std::array<AggregateMetrics, workload::kNumSloClasses> out;
    for (std::size_t i = 0; i < workload::kNumSloClasses; ++i)
        out[i] = rollups[i].aggregate();
    return out;
}

} // namespace qoe
} // namespace pascal
