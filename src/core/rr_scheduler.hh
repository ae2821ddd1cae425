/**
 * @file
 * Round-robin time-sharing scheduler (Section II-C, Fig. 2(c)).
 *
 * Every request receives a fixed token quantum (paper: 500). Having
 * consumed more quanta lowers a request's priority, so under memory
 * pressure the longest-running requests are preempted first and newly
 * arrived requests are admitted promptly, eliminating head-of-line
 * blocking at the cost of preemption overhead. The policy is
 * phase-unaware: reasoning and answering tokens count against the same
 * quantum.
 *
 * RR is the shared planner unchanged: one queue ordered by
 * (class rank, quanta, arrival, id), score kept at 0, candidates that
 * do not fit skipped rather than blocking the walk. The key only moves
 * on a quantum rollover — once every `quantum` emitted tokens per
 * request — so the incremental repair touches at most the handful of
 * requests that rolled over since the last plan.
 */

#ifndef PASCAL_CORE_RR_SCHEDULER_HH
#define PASCAL_CORE_RR_SCHEDULER_HH

#include <string>

#include "src/core/intra_scheduler.hh"

namespace pascal
{
namespace core
{

/** Token-quantum round-robin across all hosted requests. */
class RrScheduler : public IntraScheduler
{
  public:
    /** @throws FatalError unless the token quantum is positive. */
    explicit RrScheduler(SchedLimits limits) : IntraScheduler(limits)
    {
        if (this->limits.quantum <= 0)
            fatal("RrScheduler requires a positive token quantum");
    }

    std::string name() const override { return "RR"; }
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_RR_SCHEDULER_HH
