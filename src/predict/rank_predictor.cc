#include "src/predict/rank_predictor.hh"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace pascal
{
namespace predict
{

namespace
{

/** Recent completions each bucket keeps as pairwise opponents. */
constexpr std::size_t kReservoirSize = 64;

/** Cold-start priors shared with the profile predictor's scale. */
constexpr double kPriorReasoningTokens = 600.0;
constexpr double kPriorAnswerTokens = 500.0;

/** log2 bucket of a prompt length (0 for <= 1 token). */
int
promptBucket(TokenCount prompt)
{
    int bucket = 0;
    while (prompt > 1) {
        prompt >>= 1;
        ++bucket;
    }
    return bucket;
}

/** Serials start at 1: a request's memo owner 0 means "none". */
std::atomic<std::uint64_t> nextSerial{1};

} // namespace

PairwiseRankPredictor::PairwiseRankPredictor(int warmup_comparisons)
    : warmup(warmup_comparisons), serial(nextSerial++)
{}

PairwiseRankPredictor::Bucket&
PairwiseRankPredictor::find(const workload::Request& req) const
{
    if (req.predictOwner == serial)
        return *static_cast<Bucket*>(req.predictBucket);
    const workload::RequestSpec& spec = req.spec();
    Bucket& bucket =
        buckets
            .try_emplace(
                BucketKey{spec.dataset, promptBucket(spec.promptTokens)})
            .first->second;
    req.predictBucket = &bucket;
    req.predictOwner = serial;
    return bucket;
}

double
PairwiseRankPredictor::winRate(const workload::Request& req) const
{
    const Bucket& bucket = find(req);
    // games == 0 must stay neutral even when warmup is 0: 0/0 would
    // produce a NaN rank score, and NaN keys break std::sort's strict
    // weak ordering in the schedulers.
    if (bucket.games == 0 ||
        bucket.games < static_cast<std::uint64_t>(warmup)) {
        return 0.5;
    }
    return static_cast<double>(bucket.wins) /
           static_cast<double>(bucket.games);
}

double
PairwiseRankPredictor::rankScore(const workload::Request& req) const
{
    if (req.finished())
        return 0.0;
    return 1.0 - winRate(req);
}

double
PairwiseRankPredictor::meanReasoning(const Bucket& bucket) const
{
    if (bucket.reasoningCompletions > 0) {
        return bucket.sumReasoning /
               static_cast<double>(bucket.reasoningCompletions);
    }
    if (globalReasoningCompletions > 0)
        return globalSumReasoning /
               static_cast<double>(globalReasoningCompletions);
    return kPriorReasoningTokens;
}

double
PairwiseRankPredictor::meanAnswer(const Bucket& bucket) const
{
    if (bucket.completions > 0)
        return bucket.sumAnswer / static_cast<double>(bucket.completions);
    if (globalCompletions > 0)
        return globalSumAnswer / static_cast<double>(globalCompletions);
    return kPriorAnswerTokens;
}

double
PairwiseRankPredictor::remainingReasoning(const workload::Request& req,
                                          const Bucket& bucket) const
{
    if (req.spec().startInAnswering ||
        req.phase() != workload::Phase::Reasoning) {
        return 0.0;
    }
    double generated = static_cast<double>(req.reasoningGenerated());
    return std::max(meanReasoning(bucket) - generated, 1.0);
}

double
PairwiseRankPredictor::predictRemainingReasoningTokens(
    const workload::Request& req) const
{
    return remainingReasoning(req, find(req));
}

double
PairwiseRankPredictor::predictRemainingTokens(
    const workload::Request& req) const
{
    switch (req.phase()) {
      case workload::Phase::Finished:
        return 0.0;
      case workload::Phase::Reasoning: {
        const Bucket& bucket = find(req);
        return remainingReasoning(req, bucket) + meanAnswer(bucket);
      }
      case workload::Phase::Answering: {
        double generated = static_cast<double>(req.answerGenerated());
        return std::max(meanAnswer(find(req)) - generated, 1.0);
      }
    }
    return 0.0;
}

void
PairwiseRankPredictor::observeCompletion(const workload::Request& req)
{
    bumpVersion(); // Win rates move: downstream keys must re-rank.
    const workload::RequestSpec& spec = req.spec();
    double total = static_cast<double>(req.totalToGenerate());

    // std::map references are stable across later insertions.
    Bucket& bucket = find(req);

    // Play the completion against every *other* bucket's reservoir:
    // the shorter total generation wins; ties charge both a game but
    // award no win.
    for (auto& entry : buckets) {
        Bucket& other = entry.second;
        if (&other == &bucket)
            continue;
        for (double opponent : other.reservoir) {
            ++bucket.games;
            ++other.games;
            if (total < opponent)
                ++bucket.wins;
            else if (opponent < total)
                ++other.wins;
        }
    }

    if (!spec.startInAnswering) {
        bucket.sumReasoning +=
            static_cast<double>(spec.reasoningTokens);
        globalSumReasoning +=
            static_cast<double>(spec.reasoningTokens);
        ++bucket.reasoningCompletions;
        ++globalReasoningCompletions;
    }
    bucket.sumAnswer += static_cast<double>(spec.answerTokens);
    ++bucket.completions;
    ++globalCompletions;
    globalSumAnswer += static_cast<double>(spec.answerTokens);

    if (bucket.reservoir.size() < kReservoirSize) {
        bucket.reservoir.push_back(total);
    } else {
        bucket.reservoir[bucket.reservoirNext] = total;
        bucket.reservoirNext =
            (bucket.reservoirNext + 1) % kReservoirSize;
    }
}

} // namespace predict
} // namespace pascal
