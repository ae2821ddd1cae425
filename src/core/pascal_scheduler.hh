/**
 * @file
 * PASCAL's hierarchical intra-instance scheduler (Section IV-C).
 *
 * Two priority queues:
 *  - High priority: reasoning-phase requests. Served first with
 *    preferential KV allocation; round-robin among themselves so
 *    short reasoning requests stay responsive under memory pressure.
 *  - Low priority: answering-phase requests (plus demoted reasoning
 *    requests). Time-shared round-robin over whatever GPU memory the
 *    high queue leaves, with the token pacer (in the QoE layer)
 *    smoothing their output.
 *
 * A reasoning request whose KV cache exceeds the demotion threshold
 * (paper: 5000 tokens) is demoted to the low-priority queue so one
 * monster request cannot starve the answering phase.
 *
 * PASCAL is the shared planner with the high queue switched on:
 * isHigh() routes reasoning requests there, both queues share
 * SchedOrder (score 0 here; PASCAL-Spec keys it by prediction), and
 * the policy adds only its demotion rule, the phase-transition quantum
 * reset and the optional answering reserve. In incremental mode the
 * demotion rule is re-checked only for requests whose KV (or
 * prediction) moved since the last plan.
 */

#ifndef PASCAL_CORE_PASCAL_SCHEDULER_HH
#define PASCAL_CORE_PASCAL_SCHEDULER_HH

#include <string>
#include <vector>

#include "src/core/intra_scheduler.hh"

namespace pascal
{
namespace core
{

/**
 * Phase-aware two-queue scheduler.
 *
 * The demotion rule is a virtual hook so speculative variants
 * (PascalSpecScheduler) can demote on *predicted* KV growth without
 * duplicating the queue mechanics.
 */
class PascalScheduler : public IntraScheduler
{
  public:
    explicit PascalScheduler(SchedLimits limits);

    std::string name() const override { return "PASCAL"; }

    /** Entering the low-priority queue restarts quantum accounting:
     *  each queue has its own token quantum (Section V-A). */
    void onPhaseTransition(workload::Request* req) override;

  protected:
    /** Reasoning requests that are not demoted. */
    bool
    isHigh(const workload::Request* req) const final
    {
        return req->phase() == workload::Phase::Reasoning &&
               !req->demoted;
    }

    /** The answering reserve caps what the high queue may claim, so
     *  the low queue is never fully squeezed out. */
    bool
    capsHighQueue() const override
    {
        return limits.answeringReserveFraction > 0.0;
    }

    /** Queue the high-queue member @p req for a demotion re-check if
     *  it is in reach of the rule (deduped via schedDemotionPending). */
    void deferDecision(workload::Request* req) override;

    /**
     * Demote every candidate the rule now fires for: the pending
     * candidates in incremental mode, every hosted request in
     * recompute mode, so both modes demote at the same boundary.
     * @return true if any request was demoted.
     */
    bool applyDeferredDecisions() override;

    /**
     * Demotion rule for a not-yet-demoted reasoning request. The paper
     * reacts to the KV actually exceeding the threshold; speculative
     * variants may fire earlier.
     */
    virtual bool shouldDemote(const workload::Request* req) const;

    /**
     * The demotion window starts above this KV size. Only requests
     * past it are queued as demotion candidates, so a steady batch far
     * below the threshold re-checks nothing at all. shouldDemote() must
     * be false at or below it for every subclass, or incremental mode
     * would miss demotions that recompute mode applies.
     */
    TokenCount
    deferWindowStart() const override
    {
        return limits.demoteThresholdTokens;
    }

  private:
    /** Demote @p req into the low queue; its quantum restarts there. */
    void demote(workload::Request* req);

    /** Requests whose demotion rule must be re-checked at the next
     *  plan boundary (deduped via schedDemotionPending). */
    std::vector<workload::Request*> demotionCandidates;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_PASCAL_SCHEDULER_HH
