/**
 * @file
 * Speculative shortest-remaining-processing-time scheduler.
 *
 * Orders every schedulable request by the wired LengthPredictor's rank
 * score (predicted remaining decode tokens for length predictors, a
 * win-rate score for the pairwise rank predictor) and serves the
 * shortest first. With the oracle predictor this is true preemptive
 * SRPT — the classical mean-latency optimum — which bounds what any
 * speculative policy can gain; with noisy/learned predictors it
 * degrades gracefully because mis-ranked requests are merely scheduled
 * late, never starved of correctness.
 *
 * Like FCFS, SRPT needs no token quantum: priorities come entirely
 * from the predictions, so quantum accounting is disabled.
 *
 * SRPT is the shared planner keyed by the predictor: the score level of
 * SchedOrder is the rank score. Under a length predictor every
 * executed request is re-keyed each iteration (no verbatim plan
 * reuse), but idle requests keep their cached score: the repair is
 * O(batch log batch) instead of O(hosted log hosted). A predictor
 * version bump (an online learner updating its state) re-scores
 * everything and requeues only if a queue's order moved; under the
 * rank predictor, whose score does not move with progress, that is
 * the only re-score, so steady decode reuses plans and runs lazily.
 * Candidates that do not fit are skipped: a long request must not
 * block the shorter ones behind it (that would re-create FCFS
 * blocking).
 */

#ifndef PASCAL_CORE_SRPT_SCHEDULER_HH
#define PASCAL_CORE_SRPT_SCHEDULER_HH

#include <string>

#include "src/core/intra_scheduler.hh"

namespace pascal
{
namespace core
{

/** Predicted-shortest-remaining-first scheduler. */
class SrptScheduler : public IntraScheduler
{
  public:
    /** Priorities are purely predicted: quantum accounting is
     *  disabled so the quanta level of the order never moves (as in
     *  FCFS). */
    explicit SrptScheduler(SchedLimits limits) : IntraScheduler(limits)
    {
        this->limits.quantum = 0;
    }

    std::string name() const override { return "SRPT"; }

  protected:
    bool keysUsePredictions() const override { return true; }

    /** SRPT cannot rank requests blind: planning without a predictor
     *  throws FatalError. */
    bool requiresPredictor() const override { return true; }
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_SRPT_SCHEDULER_HH
