#include "src/core/pascal_scheduler.hh"

#include "src/common/log.hh"

namespace pascal
{
namespace core
{

PascalScheduler::PascalScheduler(SchedLimits limits)
    : IntraScheduler(limits)
{
    if (this->limits.quantum <= 0)
        fatal("PascalScheduler requires a positive token quantum");
}

bool
PascalScheduler::shouldDemote(const workload::Request* req) const
{
    return req->kvTokens() > limits.demoteThresholdTokens;
}

void
PascalScheduler::demote(workload::Request* req)
{
    req->demoted = true;
    req->resetQuantum();
    rekey(req); // Moves it to the low queue.
}

void
PascalScheduler::deferDecision(workload::Request* req)
{
    if (!req->schedDemotionPending &&
        req->kvTokens() > deferWindowStart()) {
        req->schedDemotionPending = true;
        demotionCandidates.push_back(req);
    }
}

bool
PascalScheduler::applyDeferredDecisions()
{
    bool any = false;
    auto check = [&](workload::Request* r) {
        if (isHigh(r) && shouldDemote(r)) {
            demote(r);
            any = true;
        }
    };
    if (!incrementalEnabled()) {
        for (auto* r : requests)
            check(r);
        return any;
    }
    for (auto* r : demotionCandidates) {
        // Migrated away since being flagged (the pending flag, if set,
        // now belongs to its new host's list), or superseded by a
        // remove+re-add or a duplicate entry.
        if (!isHosted(r) || !r->schedDemotionPending)
            continue;
        r->schedDemotionPending = false;
        check(r);
    }
    demotionCandidates.clear();
    return any;
}

void
PascalScheduler::onPhaseTransition(workload::Request* req)
{
    // noteExecuted already moved it into the low queue when the
    // transition token was emitted; the reset re-keys it there and
    // makes it "fresh" again for the a_i counter.
    req->resetQuantum();
    rekey(req);
}

} // namespace core
} // namespace pascal
