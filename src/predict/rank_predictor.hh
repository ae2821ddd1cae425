/**
 * @file
 * PairwiseRankPredictor: learning-to-rank over feature buckets.
 *
 * "Ranking before serving" style: instead of regressing a length, the
 * predictor learns which *kinds* of requests tend to finish before
 * which others, and emits a rank score. Requests are bucketed by the
 * features observable at scheduling time — source dataset and a log2
 * prompt-length bucket — and every completion plays pairwise games
 * against a bounded reservoir of recent completions from every other
 * bucket; the shorter total generation wins. A bucket's score is its
 * overall win rate, so rankScore() = 1 - winRate orders likely-short
 * requests first without committing to a token count.
 *
 * For consumers that do need a length (predictive demotion, predictive
 * placement), the predictor falls back to per-bucket running means of
 * the realized reasoning/answering lengths.
 */

#ifndef PASCAL_PREDICT_RANK_PREDICTOR_HH
#define PASCAL_PREDICT_RANK_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/predict/predictor.hh"

namespace pascal
{
namespace predict
{

/** Pairwise win-rate learning-to-rank predictor. */
class PairwiseRankPredictor : public LengthPredictor
{
  public:
    /** @param warmup_comparisons Pairwise games a bucket needs before
     *         its win rate is trusted (below: neutral 0.5). */
    explicit PairwiseRankPredictor(int warmup_comparisons);

    /** Not copyable: requests memoize bucket addresses under this
     *  predictor's serial, which a copy would share. */
    PairwiseRankPredictor(const PairwiseRankPredictor&) = delete;
    PairwiseRankPredictor& operator=(const PairwiseRankPredictor&) =
        delete;

    std::string name() const override { return "rank"; }

    /** Bucket win-rate score in [0, 1]: lower = historically shorter.
     *  Neutral 0.5 for unwarmed buckets; 0 for finished requests. */
    double rankScore(const workload::Request& req) const override;

    /** The bucket is fixed by the spec, so the score moves only when
     *  the predictor learns (version()). */
    bool rankTracksProgress() const override { return false; }

    double predictRemainingTokens(
        const workload::Request& req) const override;

    double predictRemainingReasoningTokens(
        const workload::Request& req) const override;

    /** Plays the finished request against every other bucket's
     *  reservoir and records its realized lengths. */
    void observeCompletion(const workload::Request& req) override;

    /** Win rate of the bucket @p req falls into (0.5 if unwarmed). */
    double winRate(const workload::Request& req) const;

  private:
    struct Bucket
    {
        std::uint64_t wins = 0;
        std::uint64_t games = 0;

        /** Running means of realized lengths (the length fallback).
         *  Reasoning keeps its own count: startInAnswering
         *  completions contribute no reasoning sample (they would
         *  dilute the mean toward 0 and mute predictive demotion). */
        double sumReasoning = 0.0;
        double sumAnswer = 0.0;
        std::uint64_t completions = 0;
        std::uint64_t reasoningCompletions = 0;

        /** Ring buffer of recent total generation lengths: the
         *  opponents future completions play against. */
        std::vector<double> reservoir;
        std::size_t reservoirNext = 0;
    };

    /** A bucket's features: source dataset and log2 prompt length
     *  (ordered by dataset, then length). */
    struct BucketKey
    {
        std::string dataset;
        int promptLog2 = 0;

        bool
        operator<(const BucketKey& o) const
        {
            return std::tie(dataset, promptLog2) <
                   std::tie(o.dataset, o.promptLog2);
        }
    };

    /**
     * @p req's bucket, created empty on first sight. An empty bucket
     * scores exactly like an absent one (neutral win rate, global
     * length means, an empty reservoir that plays no games), and
     * later completions land in it. Resolved once per request: the
     * reference is memoized on the request (Request::predictBucket,
     * stamped with this predictor's serial) and map nodes never move.
     */
    Bucket& find(const workload::Request& req) const;
    /** Length means of @p bucket, falling back to the global means
     *  and then the priors when it has no sample. */
    double meanReasoning(const Bucket& bucket) const;
    double meanAnswer(const Bucket& bucket) const;
    double remainingReasoning(const workload::Request& req,
                              const Bucket& bucket) const;

    int warmup;

    /** Process-unique id stamped into the requests' bucket memo. */
    std::uint64_t serial;

    /** std::map: deterministic iteration, so pairwise game order is
     *  a pure function of completion order (the outcomes are integer
     *  counts, so the order itself never changes a score), and stable
     *  node addresses for the per-request memo. Mutable: find()
     *  creates empty buckets, which no prediction can tell apart from
     *  absent ones. */
    mutable std::map<BucketKey, Bucket> buckets;

    /** Global length means (fallback for unseen buckets). */
    double globalSumReasoning = 0.0;
    double globalSumAnswer = 0.0;
    std::uint64_t globalCompletions = 0;
    std::uint64_t globalReasoningCompletions = 0;
};

} // namespace predict
} // namespace pascal

#endif // PASCAL_PREDICT_RANK_PREDICTOR_HH
