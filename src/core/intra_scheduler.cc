#include "src/core/intra_scheduler.hh"

#include <algorithm>
#include <functional>
#include <string>

#include "src/common/log.hh"

namespace pascal
{
namespace core
{

namespace
{
const char* const kPlanDeclineNames[] = {
    "none",           // PlanDecline::None
    "inactive",       // PlanDecline::Inactive
    "state_changed",  // PlanDecline::StateChanged
    "predictor_moved",// PlanDecline::PredictorMoved
    "veto",           // PlanDecline::Veto
    "budget",         // PlanDecline::Budget
    "waiting_work",   // PlanDecline::WaitingWork
    "swapped_members",// PlanDecline::SwappedMembers
    "bailed",         // PlanDecline::Bailed
    "batch_limit",    // PlanDecline::BatchLimit
};
} // namespace

const char* const*
planDeclineNames()
{
    return kPlanDeclineNames;
}

std::size_t
numPlanDeclineNames()
{
    return sizeof(kPlanDeclineNames) / sizeof(kPlanDeclineNames[0]);
}

void
SchedLimits::validate() const
{
    if (maxBatchSize <= 0)
        fatal("SchedLimits: maxBatchSize must be positive");
    if (maxPrefillTokens <= 0 || maxPrefillSeqs <= 0)
        fatal("SchedLimits: prefill limits must be positive");
    if (demoteThresholdTokens <= 0)
        fatal("SchedLimits: demoteThresholdTokens must be positive");
    if (answeringReserveFraction < 0.0 ||
        answeringReserveFraction >= 1.0) {
        fatal("SchedLimits: answeringReserveFraction must be in "
              "[0, 1)");
    }
    if (demoteLookaheadTokens < 0) {
        fatal("SchedLimits: demoteLookaheadTokens must be >= 0 "
              "(0 disables predictive demotion lookahead)");
    }
}

IntraScheduler::IntraScheduler(SchedLimits limits) : limits(limits)
{
    limits.validate();
}

void
IntraScheduler::enableIncremental()
{
    if (limits.forceResort)
        return;
    if (!requests.empty())
        panic("enableIncremental: must be called before requests are "
              "added");
    incremental = true;
    stateChanged = true;
    lastPlanReusable = false;
    // The plan-repair force twin backs off only the repair leg;
    // queues, counters, and plan reuse stay incremental.
    repairDisabled = limits.forcePlanRepair;
    lineage = false;
}

void
IntraScheduler::add(workload::Request* req)
{
    if (req == nullptr)
        panic("IntraScheduler::add(nullptr)");
    req->schedHostedPos = requests.size();
    requests.push_back(req);
    req->schedPrevHosted = hostedLast;
    req->schedNextHosted = nullptr;
    if (hostedLast != nullptr)
        hostedLast->schedNextHosted = req;
    else
        hostedFirst = req;
    hostedLast = req;
    // Greedy-walk early-exit bookkeeping (any previous host already
    // unlinked the request from its own structures in remove()).
    req->schedInResidentList = false;
    req->schedRepairState = kRepairNone;
    req->schedRepairSplice = false;
    req->schedPlanStamp = 0;
    req->schedCountedPrewarm = false;
    req->schedCountedWaiting = false;
    if (req->exec == workload::ExecState::WaitingNew) {
        waitingPrompts.insert(req->spec().promptTokens);
        req->schedCountedWaiting = true;
        if (req->spec().startInAnswering) {
            req->schedCountedPrewarm = true;
            ++waitingPrewarmCount;
        }
    }
    noteResidency(req); // Migration landings arrive holding KV.
    if (!incremental)
        return;
    // A migrated request carries stale bookkeeping from its previous
    // host; start from a clean slate.
    req->schedQueueTag = 0;
    req->schedDirtyPending = false;
    req->schedDemotionPending = false;
    req->schedCountedReasoning = false;
    req->schedCountedFreshAns = false;
    req->schedScore = 0.0;
    req->schedCachedQuanta = req->quantaConsumed;
    syncCounters(req);
    noteStateChanged();
    if (keysUsePredictions())
        req->schedScore = rankScore(req);
    queueByTag(queueTagFor(req)).insert(req);
    // A request arriving with a fat KV (or inside a speculative
    // lookahead window) may be decided on at the very next boundary.
    if (req->schedQueueTag == kHighTag)
        deferDecision(req);
    // Journal entries for material landings are made by noteResidency
    // (called above, before the state resets): it is the single point
    // where a request gains KV on this instance — migration landings
    // here, prefill/prewarm allocations in the engine. WaitingNew
    // landings need no entry: a non-empty waiting set fails repair
    // eligibility by itself.
}

void
IntraScheduler::remove(workload::Request* req)
{
    std::size_t pos = req->schedHostedPos;
    if (pos >= requests.size() || requests[pos] != req) {
        panic("IntraScheduler::remove: request " +
              std::to_string(req->id()) + " not hosted on instance " +
              (instanceId == kNoInstance ? std::string("?")
                                         : std::to_string(instanceId)));
    }
    requests[pos] = requests.back();
    requests[pos]->schedHostedPos = pos;
    requests.pop_back();
    if (req->schedPrevHosted != nullptr)
        req->schedPrevHosted->schedNextHosted = req->schedNextHosted;
    else
        hostedFirst = req->schedNextHosted;
    if (req->schedNextHosted != nullptr)
        req->schedNextHosted->schedPrevHosted = req->schedPrevHosted;
    else
        hostedLast = req->schedPrevHosted;
    req->schedPrevHosted = nullptr;
    req->schedNextHosted = nullptr;
    if (incremental) {
        if (req->schedCountedReasoning)
            --reasoningCount;
        if (req->schedCountedFreshAns)
            --freshAnsweringCount;
        req->schedCountedReasoning = false;
        req->schedCountedFreshAns = false;
        req->schedDemotionPending = false;
        noteStateChanged();
        if (repairActive()) {
            if (req->schedRepairState == kRepairInsert) {
                // Landed and departed within one lineage: cancel the
                // pending insert instead of journaling an erase (the
                // member never joined the batch).
                for (auto it = repairJournal.rbegin();
                     it != repairJournal.rend(); ++it) {
                    if (it->req == req && it->op == kRepairInsert) {
                        it->op = kRepairNone;
                        break;
                    }
                }
                req->schedRepairState = kRepairNone;
            } else if (req->schedInResidentList) {
                // Departing batch member: record its histogram bucket
                // now — the entry must stay valid even if the request
                // is re-hosted (and keeps growing) elsewhere. Having
                // executed planAge + 1 times since its bucket was
                // recorded, its build-time offset is kv - planAge - 1
                // (mod block).
                req->schedRepairState = kRepairNone;
                std::int64_t block =
                    static_cast<std::int64_t>(lastBlockSize);
                std::int64_t v =
                    static_cast<std::int64_t>(req->kvTokens()) -
                    static_cast<std::int64_t>(planAge) - 1;
                repairJournal.push_back(
                    {req, kRepairErase,
                     static_cast<std::uint32_t>(((v % block) + block) %
                                                block)});
            }
        }
        // Queue unlink first: it reads schedInResidentList to keep
        // its material count exact.
        queueByTag(req->schedQueueTag).erase(req);
    }
    req->schedInResidentList = false;
    if (req->schedCountedWaiting) {
        // Departing while still waiting (not a path the engine takes
        // today, but the floor must stay exact regardless).
        req->schedCountedWaiting = false;
        waitingPrompts.erase(
            waitingPrompts.find(req->spec().promptTokens));
    }
    if (req->schedCountedPrewarm) {
        req->schedCountedPrewarm = false;
        --waitingPrewarmCount;
    }
}

void
IntraScheduler::noteResidency(workload::Request* req)
{
    bool material =
        req->exec == workload::ExecState::ResidentGpu ||
        req->exec == workload::ExecState::SwappedCpu;
    if (material && !req->schedInResidentList) {
        req->schedInResidentList = true;
        if (repairActive()) {
            if (req->exec == workload::ExecState::ResidentGpu &&
                req->schedRepairState == kRepairNone) {
                // GPU KV appeared mid-lineage (migration landing,
                // prefill or prewarm allocation during an excursion):
                // patchable — merge it into the decode batch at its
                // rank at the next boundary.
                req->schedRepairState = kRepairInsert;
                repairJournal.push_back({req, kRepairInsert, 0});
            } else if (req->exec == workload::ExecState::SwappedCpu) {
                // A swapped landing needs a swap-in decision the patch
                // path cannot make; only a full walk can.
                repairBail = true;
            }
        }
        if (req->schedNode != nullptr) {
            // Flipped in place while linked (prefill/prewarm
            // allocation): the node moves to the material sublist.
            queueByTag(req->schedQueueTag).noteMaterialized(req);
        }
        if (req->schedCountedWaiting) {
            // It stopped waiting: retire its admission-floor entry.
            req->schedCountedWaiting = false;
            waitingPrompts.erase(
                waitingPrompts.find(req->spec().promptTokens));
        }
    } else if (!material && req->schedInResidentList) {
        req->schedInResidentList = false;
        if (req->schedNode != nullptr)
            queueByTag(req->schedQueueTag).noteMaterialized(req);
    }
    if (req->schedCountedPrewarm &&
        req->exec != workload::ExecState::WaitingNew) {
        req->schedCountedPrewarm = false;
        --waitingPrewarmCount;
    }
}

void
IntraScheduler::syncCounters(workload::Request* req)
{
    workload::Phase phase = req->phase();
    bool reasoning =
        phase == workload::Phase::Reasoning && !req->demoted;
    bool fresh = phase == workload::Phase::Answering &&
                 req->quantaConsumed == 0;
    if (reasoning != req->schedCountedReasoning) {
        reasoningCount += reasoning ? 1 : -1;
        req->schedCountedReasoning = reasoning;
    }
    if (fresh != req->schedCountedFreshAns) {
        freshAnsweringCount += fresh ? 1 : -1;
        req->schedCountedFreshAns = fresh;
    }
}

void
IntraScheduler::noteExecuted(workload::Request* req)
{
    if (!incremental)
        return;
    const bool quanta_changed =
        req->quantaConsumed != req->schedCachedQuanta;
    req->schedCachedQuanta = req->quantaConsumed;
    syncCounters(req);
    // A request is re-keyed on a quantum rollover, on leaving the
    // high queue (the </think> token or a completion), and, under a
    // keyed policy whose predictor's score tracks progress (predicted
    // remaining work), on every execution. A score that moves only
    // when the predictor learns (the rank predictor's bucket win
    // rate) is re-scored for every hosted request at the next plan
    // boundary instead (rescoreOnPredictorMove()). Nothing ever moves
    // from the low queue to the high.
    const bool rescore = keysTrackProgress();
    if (rescore)
        req->schedScore = rankScore(req);
    const bool high = req->schedQueueTag == kHighTag;
    const bool leaves_high = high && !isHigh(req);
    if (rescore || quanta_changed || leaves_high)
        requeue(req, leaves_high ? kLowTag : req->schedQueueTag);
    if (high && !leaves_high)
        deferDecision(req);
}

void
IntraScheduler::rekey(workload::Request* req)
{
    if (!incremental)
        return;
    req->schedCachedQuanta = req->quantaConsumed;
    syncCounters(req);
    requeue(req, queueTagFor(req));
}

OrderedQueue<SchedOrder>&
IntraScheduler::queueByTag(std::uint8_t tag)
{
    if (tag == kHighTag)
        return highQueue;
    if (tag != kLowTag)
        panic("IntraScheduler: queue tag " + std::to_string(tag) +
              " names no queue");
    return lowQueue;
}

void
IntraScheduler::requeue(workload::Request* req, std::uint8_t tag)
{
    if (req->schedQueueTag == tag) {
        queueByTag(tag).markDirty(req);
    } else {
        queueByTag(req->schedQueueTag).erase(req);
        queueByTag(tag).insert(req);
    }
    noteKeyChanged(req);
    noteStateChanged();
}

int
IntraScheduler::numReasoning() const
{
    return incremental ? reasoningCount : scanReasoning();
}

int
IntraScheduler::numFreshAnswering() const
{
    return incremental ? freshAnsweringCount : scanFreshAnswering();
}

int
IntraScheduler::scanReasoning() const
{
    int n = 0;
    for (const auto* r : requests) {
        if (r->phase() == workload::Phase::Reasoning && !r->demoted)
            ++n;
    }
    return n;
}

int
IntraScheduler::scanFreshAnswering() const
{
    int n = 0;
    for (const auto* r : requests) {
        if (r->phase() == workload::Phase::Answering && !r->finished()
            && r->quantaConsumed == 0) {
            ++n;
        }
    }
    return n;
}

bool
IntraScheduler::keysTrackProgress() const
{
    return keysUsePredictions() && lengthPredictor != nullptr &&
           lengthPredictor->rankTracksProgress();
}

bool
IntraScheduler::predictorMoved() const
{
    return keysUsePredictions() &&
           currentPredictorVersion() != lastPredictorVersion;
}

bool
IntraScheduler::rescoreOnPredictorMove()
{
    // Runs before the boundary settles a lazy stretch, so the
    // stretch's members carry stale progress. Neither read below
    // sees it: a score that tracks progress opens no stretch
    // (steadySteps() returns 0), and steadySteps() ends a stretch
    // before any high-queue member's KV passes deferWindowStart(),
    // which is all deferDecision() reads of a member at or below it.
    lastPredictorVersion = currentPredictorVersion();
    // Link the pending members under their old keys first: a member
    // requeued since the last walk may already sit in the lineage
    // batch at its old rank, so the check below must see it too.
    highQueue.repair();
    lowQueue.repair();
    for (auto* r : requests)
        r->schedScore = rankScore(r);
    // The walk merges each queue's waiting and material members by
    // key, so with admissions pending a bump can move a waiting
    // request ahead of a resident without unsorting either sublist,
    // and the lineage no longer proves that nothing waiting fits.
    const bool requeue_all = !waitingPrompts.empty() ||
                             !highQueue.inOrder() ||
                             !lowQueue.inOrder();
    for (auto* r : requests) {
        if (requeue_all)
            requeue(r, r->schedQueueTag);
        // Predictive demotion reads the predicted length, which the
        // bump may have moved.
        if (r->schedQueueTag == kHighTag)
            deferDecision(r);
    }
    return requeue_all;
}

void
IntraScheduler::buildPlan(const model::KvPool& pool, IterationPlan& out)
{
    out.reset();
    // A walk does not by itself end a patchable lineage: whether it
    // does depends on the plan it produces (see the excursion test
    // below), so the journal is cleared at the end, not here.
    bool lineage_alive = repairActive();
    if (incremental) {
        lastKeptResidents.clear();
        lastWalkCapped = false;
    }
    planInto(pool, out);
    if (!incremental)
        return;
    stateChanged = false;
    // A lineage plan: uncapped pure decode with every material member
    // selected (no kept residents).
    lastPlanReusable = out.prefill.empty() && out.prewarm.empty() &&
                       out.swapIn.empty() && out.swapOut.empty() &&
                       !out.decode.empty() && !lastWalkCapped &&
                       lastKeptResidents.empty();
    if (lineage_alive && out.decode.empty() && out.swapIn.empty() &&
        out.swapOut.empty() &&
        (!out.prefill.empty() || !out.prewarm.empty())) {
        // Prefill/prewarm excursion: the walk only admits new prompts
        // — no decode member runs this iteration, so every basis
        // member's KV (and with it the lineage's histogram, age and
        // journal) is untouched, and the lineage stays patchable. The
        // newly resident members journal their own inserts from
        // noteResidency when the engine applies this plan, exactly
        // like migration landings.
        return;
    }
    planAge = 0;
    clearRepairJournal();
    lineage = lastPlanReusable;
    if (lineage) {
        auto block = static_cast<std::size_t>(pool.blockSize());
        blockOffsetHist.assign(block, 0);
        for (const auto* r : out.decode) {
            ++blockOffsetHist[static_cast<std::size_t>(
                r->kvTokens() % pool.blockSize())];
        }
        basisDecode.assign(out.decode.begin(), out.decode.end());
    }
    lastBlockSize = pool.blockSize();
}

void
IntraScheduler::noteKeyChanged(workload::Request* req)
{
    if (req->schedInResidentList && repairActive() &&
        req->schedRepairState == kRepairNone) {
        // First key move of this lineage; later moves ride the same
        // entry (the merge reads keys at patch time), and a pending
        // insert already re-reads its key too.
        req->schedRepairState = kRepairRekey;
        repairJournal.push_back({req, kRepairRekey, 0});
    }
}

void
IntraScheduler::clearRepairJournal()
{
    for (auto& e : repairJournal) {
        // Erase entries' requests may already be journaled by a new
        // host — their state belongs to that scheduler now. (A
        // request that round-tripped back shows up in a later entry
        // of our own journal and is cleared through it.)
        if (e.op != kRepairErase && isHosted(e.req))
            e.req->schedRepairState = kRepairNone;
    }
    repairJournal.clear();
    repairBail = false;
    lineage = false;
}

bool
IntraScheduler::lineageFits(const model::KvPool& pool) const
{
    // At this boundary the lineage has run planAge times and is about
    // to run again (k-th execution): the members whose build-time
    // offset is block - k (mod block) cross a block boundary now.
    return pool.gpuUsed() +
               lastBlockSize * static_cast<TokenCount>(
                                   lineageCrossings(planAge + 1)) <=
           pool.gpuCapacity();
}

TokenCount
IntraScheduler::steadySteps(
    const std::vector<workload::Request*>& batch) const
{
    if (keysTrackProgress())
        return 0;
    const TokenCount window = deferWindowStart();
    TokenCount steps = std::numeric_limits<TokenCount>::max();
    for (const auto* req : batch) {
        // The next token event: </think> while reasoning, the first
        // answering token right after it, the finish after that.
        const TokenCount g = req->generated();
        const TokenCount r = req->spec().reasoningTokens;
        const TokenCount event =
            g < r ? r : (g == r ? r + 1 : req->totalToGenerate());
        steps = std::min(steps, event - g - 1);
        if (limits.quantum > 0)
            steps = std::min(steps,
                             limits.quantum - req->quantumTokens - 1);
        if (req->schedQueueTag == kHighTag)
            steps = std::min(steps, window - req->kvTokens());
        if (steps <= 0)
            return 0;
    }
    return steps;
}

PlanRung
IntraScheduler::patchPlan(IterationPlan& prev, const model::KvPool& pool)
{
    // A bump that keeps every queue's order costs nothing more: the
    // lineage reuses or repairs as if the predictor had not moved.
    const bool requeued =
        incremental && predictorMoved() && rescoreOnPredictorMove();
    const PlanRung rung = patchLineage(prev, pool);
    if (requeued)
        decline = PlanDecline::PredictorMoved;
    return rung;
}

PlanRung
IntraScheduler::patchLineage(IterationPlan& prev,
                             const model::KvPool& pool)
{
    decline = PlanDecline::None;
    if (!incremental || !lineage) {
        decline = PlanDecline::Inactive;
        return PlanRung::Walk;
    }
    // Verbatim reuse: the repair of an empty journal. Deferred
    // plan-time decisions (PASCAL's demotions) fire at every boundary
    // in recompute mode, so both rungs apply them before reading the
    // state; any that fires journals its own re-key.
    if (!lastPlanReusable || stateChanged) {
        decline = PlanDecline::StateChanged;
    } else if (applyDeferredDecisions()) {
        decline = PlanDecline::Veto;
    } else if (lineageFits(pool)) {
        ++planAge;
        return PlanRung::Reuse;
    } else {
        decline = PlanDecline::Budget;
    }

    if (!repairActive()) {
        decline = repairBail ? PlanDecline::Bailed : PlanDecline::Inactive;
        return PlanRung::Walk;
    }
    applyDeferredDecisions();
    if (repairBail || !waitingPrompts.empty() ||
        waitingPrewarmCount > 0 ||
        pool.numTracked() != pool.numGpuResident()) {
        decline = repairBail ? PlanDecline::Bailed
                  : (!waitingPrompts.empty() || waitingPrewarmCount > 0)
                      ? PlanDecline::WaitingWork
                      : PlanDecline::SwappedMembers;
        return PlanRung::Walk;
    }

    // Fold the journal into the histogram and collect the patch: a
    // member whose KV is kv now behaves like a build-time member with
    // offset kv - k (mod B), k = planAge + 1 (see lineageFits).
    const std::uint64_t k = planAge + 1;
    const std::int64_t block = static_cast<std::int64_t>(lastBlockSize);
    repairPatch.clear();
    eraseScratch.clear();
    std::int64_t batch = static_cast<std::int64_t>(basisDecode.size());
    for (auto& e : repairJournal) {
        switch (e.op) {
          case kRepairErase:
            // Self-contained: bucket recorded at remove time, member
            // guaranteed present in the basis (lineage builds select
            // every material member). Never dereferenced — the
            // departed request's arena slot may already host an
            // unrelated arrival — so the splice goes by pointer
            // identity.
            --blockOffsetHist[e.histIdx];
            eraseScratch.push_back(e.req);
            --batch;
            break;
          case kRepairRekey: {
            // Stale once the member departed (its state was reset at
            // remove; a new host may even have re-journaled it).
            if (e.req->schedRepairState != kRepairRekey ||
                !isHosted(e.req))
                break;
            e.req->schedRepairState = kRepairNone;
            e.req->schedRepairSplice = true;
            repairPatch.push_back(e.req);
            // No histogram move: the member stays in the batch and
            // keeps growing one token per iteration.
            break;
          }
          case kRepairInsert: {
            if (e.req->schedRepairState != kRepairInsert ||
                !isHosted(e.req))
                break;
            e.req->schedRepairState = kRepairNone;
            std::int64_t v =
                static_cast<std::int64_t>(e.req->kvTokens()) -
                static_cast<std::int64_t>(k);
            ++blockOffsetHist[static_cast<std::size_t>(
                ((v % block) + block) % block)];
            repairPatch.push_back(e.req);
            ++batch;
            break;
          }
          default:
            break; // Cancelled insert.
        }
    }
    repairJournal.clear();

    // Exact budget + cap check over the patched batch: under the
    // eligibility conditions every material member is in the batch,
    // so if the histogram check passes the full walk admits everyone
    // in eviction-priority order with no evictions, which is
    // precisely the merged batch below.
    const bool batch_ok =
        batch > 0 &&
        batch <= static_cast<std::int64_t>(limits.maxBatchSize);
    if (!batch_ok || !lineageFits(pool)) {
        decline = batch_ok ? PlanDecline::Budget : PlanDecline::BatchLimit;
        // Bail to the full walk: clear the transient splice marks —
        // every flagged member is in the patch (erases are flagless)
        // — and let buildPlan rebuild the moot half-patched
        // histogram.
        for (auto* r : repairPatch)
            r->schedRepairSplice = false;
        lineage = false;
        return PlanRung::Walk;
    }

    // Splice + ordered merge against the scheduler-held basis (the
    // caller's plan may be a prefill excursion whose decode is
    // empty): patch members re-enter at their current
    // ResidentEvictOrder rank; surviving members are already sorted
    // under their (unmoved) keys.
    std::sort(repairPatch.begin(), repairPatch.end(),
              ResidentEvictOrder{});
    std::less<const workload::Request*> addr_less{};
    std::sort(eraseScratch.begin(), eraseScratch.end(), addr_less);
    decodeScratch.clear();
    ResidentEvictOrder less{};
    auto pi = repairPatch.begin();
    for (auto* r : basisDecode) {
        if (r->schedRepairSplice) {
            r->schedRepairSplice = false;
            continue;
        }
        if (!eraseScratch.empty() &&
            std::binary_search(eraseScratch.begin(),
                               eraseScratch.end(),
                               static_cast<const workload::Request*>(r),
                               addr_less))
            continue;
        while (pi != repairPatch.end() && less(*pi, r))
            decodeScratch.push_back(*pi++);
        decodeScratch.push_back(r);
    }
    while (pi != repairPatch.end())
        decodeScratch.push_back(*pi++);
    prev.reset();
    prev.decode.swap(decodeScratch);
    basisDecode.assign(prev.decode.begin(), prev.decode.end());

    // The patched plan is byte-for-byte what buildPlan would emit, so
    // the lineage continues — and the in-flight plan is again the
    // lineage plan, even when the boundary followed an excursion.
    // Kept residents are cleared: the patched batch holds every
    // material member, so there is nothing for the engine to restamp.
    lastPlanReusable = true;
    lastKeptResidents.clear();
    stateChanged = false;
    ++planAge;
    return PlanRung::Repair;
}

void
IntraScheduler::planInto(const model::KvPool& pool, IterationPlan& out)
{
    if (requiresPredictor() && lengthPredictor == nullptr) {
        fatal(name() + ": no length predictor wired; set "
              "SystemConfig::predictor (e.g. PredictorType::Oracle) or "
              "use FCFS/RR/PASCAL");
    }
    if (incremental)
        incrementalPlan(pool, out);
    else
        recomputePlan(pool, out);
}

void
IntraScheduler::incrementalPlan(const model::KvPool& pool,
                                IterationPlan& out)
{
    // patchPlan() absorbs a bump first; callers that build without
    // patching (unit probes) reach it here.
    if (predictorMoved())
        rescoreOnPredictorMove();
    applyDeferredDecisions();
    highQueue.repair();
    lowQueue.repair();
    // The skip lists are walked in place — no scratch concatenation;
    // the high queue outranks the low queue exactly as the recompute
    // path's concatenated order does.
    greedySelectRanges(highQueue.begin(), highQueue.end(),
                       lowQueue.begin(), lowQueue.end(), capsHighQueue(),
                       highBudgetCap(pool), pool, strictOrder(), out);
}

void
IntraScheduler::recomputePlan(const model::KvPool& pool,
                              IterationPlan& out)
{
    applyDeferredDecisions();
    const bool keyed = keysUsePredictions();
    highScratch.clear();
    lowScratch.clear();
    for (auto* r : requests) {
        if (!schedulable(r))
            continue;
        // One prediction per request, not one per comparison; the
        // cached score is the field the incremental queues order by.
        if (keyed)
            r->schedScore = rankScore(r);
        (isHigh(r) ? highScratch : lowScratch).push_back(r);
    }
    std::sort(highScratch.begin(), highScratch.end(), SchedOrder{});
    std::sort(lowScratch.begin(), lowScratch.end(), SchedOrder{});
    orderScratch.assign(highScratch.begin(), highScratch.end());
    orderScratch.insert(orderScratch.end(), lowScratch.begin(),
                        lowScratch.end());
    greedySelectInto(orderScratch, pool, strictOrder(), out,
                     capsHighQueue() ? highScratch.size() : 0,
                     highBudgetCap(pool));
}

TokenCount
IntraScheduler::highBudgetCap(const model::KvPool& pool) const
{
    return static_cast<TokenCount>(
        static_cast<double>(pool.gpuCapacity()) *
        (1.0 - limits.answeringReserveFraction));
}

void
IntraScheduler::greedySelectInto(
    const std::vector<workload::Request*>& order,
    const model::KvPool& pool, bool stop_at_unfit, IterationPlan& out,
    std::size_t high_prefix_len, TokenCount high_budget_cap)
{
    auto split = order.begin() +
                 static_cast<std::ptrdiff_t>(high_prefix_len);
    greedySelectRanges(order.begin(), split, split, order.end(),
                       high_prefix_len > 0, high_budget_cap, pool,
                       stop_at_unfit, out);
}

void
IntraScheduler::finishGreedySelect(const model::KvPool& pool,
                                   IterationPlan& out,
                                   TokenCount leftover_budget)
{
    std::vector<workload::Request*>& unselected_residents =
        lastKeptResidents;

    // Unselected residents stay resident while the leftover budget
    // covers them (they simply skip this iteration); the rest are
    // evicted, lowest priority first. The record is already in walk
    // priority order end to end (the early-exit tail comes from the
    // queues' material sublists pre-sorted), so the evicted
    // set and the swapOut sequence are byte-identical to the full
    // walk's with no re-sort.
    TokenCount total_keep_cost = 0;
    for (const auto* r : unselected_residents)
        total_keep_cost += pool.chargeFor(r->kvTokens());
    if (total_keep_cost > leftover_budget) {
        TokenCount keep_budget = leftover_budget;
        std::size_t kept = 0;
        for (auto* r : unselected_residents) {
            TokenCount keep_cost = pool.chargeFor(r->kvTokens());
            if (keep_cost <= keep_budget) {
                keep_budget -= keep_cost;
                unselected_residents[kept++] = r;
            } else {
                out.swapOut.push_back(r);
            }
        }
        unselected_residents.resize(kept); // Record: residents kept.
    }

    if (!out.prefill.empty() && !limits.chunkedPrefill) {
        // Prefill iterations do not decode (vLLM prefill priority).
        // Selected decode candidates stay resident and run next
        // iteration; swap-ins still execute so they are ready. The
        // displaced members join the kept-resident record so the
        // engine's lazy-accrual restamp covers them.
        for (auto* r : out.decode)
            unselected_residents.push_back(r);
        out.decode.clear();
    } else {
        // Prewarmed requests join the decode batch immediately: their
        // KV allocation is free of charge. Under chunked prefill the
        // decode batch additionally runs alongside the prefills.
        for (auto* r : out.prewarm)
            out.decode.push_back(r);
    }
}

} // namespace core
} // namespace pascal
