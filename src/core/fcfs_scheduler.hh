/**
 * @file
 * First-Come-First-Served scheduler (vLLM's default policy,
 * Section II-C).
 *
 * Requests are served strictly in arrival order. When GPU memory is
 * exhausted, the most recently arrived running requests are preempted
 * (KV swapped to CPU), new admissions block until space frees, and
 * preempted requests resume before any newer request is admitted. The
 * resulting head-of-line blocking is the behaviour Figs. 2(b), 4 and 5
 * characterize.
 *
 * FCFS is the shared planner with quantum 0 and no score, so SchedOrder
 * reduces to (class rank, arrival, id): the key is immutable, and in
 * incremental mode the queue only changes on add/remove.
 */

#ifndef PASCAL_CORE_FCFS_SCHEDULER_HH
#define PASCAL_CORE_FCFS_SCHEDULER_HH

#include <string>

#include "src/core/intra_scheduler.hh"

namespace pascal
{
namespace core
{

/** Strict arrival-order scheduling with preempt-latest eviction. */
class FcfsScheduler : public IntraScheduler
{
  public:
    /** FCFS has no quantum: quantum accounting is disabled so the
     *  quanta level of the order never moves. */
    explicit FcfsScheduler(SchedLimits limits) : IntraScheduler(limits)
    {
        this->limits.quantum = 0;
    }

    std::string name() const override { return "FCFS"; }

  protected:
    /**
     * Stop at the first candidate that does not fit. Swapped requests
     * are older than waiting ones by construction, so one ordered walk
     * reproduces vLLM FCFS: resume-before-admit, block new arrivals
     * behind the first request that does not fit, and evict from the
     * back (the most recently arrived) when the batch cannot grow.
     */
    bool strictOrder() const override { return true; }
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_FCFS_SCHEDULER_HH
