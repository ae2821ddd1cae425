/**
 * @file
 * The intra-instance scheduler (Section II-C / IV-C): one planner that
 * every policy shares.
 *
 * A scheduler owns the set of requests hosted on its instance and, at
 * every iteration boundary, produces an IterationPlan deciding which
 * requests prefill, decode, swap in, or are evicted, subject to the
 * GPU KV capacity.
 *
 * One order, one planner
 * ----------------------
 * Every shipped policy is PASCAL's two-queue round robin with some
 * levels frozen. Requests sit in a high or a low queue (isHigh()), and
 * within a queue they are ordered by SchedOrder: SLO-class rank, quanta
 * consumed, cached rank score, arrival, id. FCFS and SRPT never consume
 * quanta, FCFS and RR keep score 0, and only PASCAL fills the high
 * queue. The base class owns both queues and both plan paths; a policy
 * overrides only the hooks that differ (see "Policy hooks" below).
 *
 *  - Recompute mode (default; also SchedLimits::forceResort): every
 *    buildPlan() partitions the schedulable requests by isHigh(),
 *    rescores them if keyed, std::sorts each partition by SchedOrder
 *    and runs the greedy walk. This is the reference behaviour the
 *    invariance tests compare against.
 *
 *  - Incremental mode (enabled by the owning Instance via
 *    enableIncremental()): the queues are skip lists repaired only for
 *    requests whose key moved, and the r_i / a_i monitor counters are
 *    maintained. In the dominant decode-only steady state patchPlan()
 *    lets the instance run the previous IterationPlan verbatim (or
 *    patched by a bounded delta), skipping plan construction entirely.
 *
 * Incremental mode relies on the *dirty-set contract*: every mutation
 * of a hosted request's scheduler-visible state must reach the
 * scheduler through one of the notification points —
 *
 *  - add() / remove()          membership (arrival, migration, finish),
 *  - noteExecuted()            after each emitToken()/completePrefill()
 *                              (token progress, quantum rollover, phase
 *                              flip, KV growth),
 *  - onPhaseTransition()       reasoning->answering staying home,
 *
 * plus LengthPredictor::version() for predictor-driven key changes.
 * Code that mutates requests behind the scheduler's back (unit tests
 * poking exec states directly) must simply leave incremental mode off.
 * A policy that moves a key itself (PASCAL's demotion and quantum
 * reset) reports it through rekey(). The randomized force-resort
 * invariance tests enforce byte-identical RunResults across the two
 * modes.
 */

#ifndef PASCAL_CORE_INTRA_SCHEDULER_HH
#define PASCAL_CORE_INTRA_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <type_traits>
#include <utility>
#include <string>
#include <vector>

#include "src/common/log.hh"
#include "src/common/types.hh"
#include "src/core/iteration_plan.hh"
#include "src/core/ordered_queue.hh"
#include "src/model/kv_pool.hh"
#include "src/predict/predictor.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace core
{

/**
 * The one within-queue priority order of every policy: SLO-class rank
 * (all zero with classes off), fewest quanta consumed, cached rank
 * score, arrival, id — a strict total order, so the incremental skip
 * lists and the recompute std::sort yield the same sequence. Policies
 * freeze levels instead of bringing their own comparator: FCFS and
 * SRPT run with quantum 0, so quanta stay 0; unkeyed policies (FCFS,
 * RR, PASCAL) keep score 0.
 */
struct SchedOrder
{
    bool
    operator()(const workload::Request* a,
               const workload::Request* b) const
    {
        if (a->schedClassRank != b->schedClassRank)
            return a->schedClassRank < b->schedClassRank;
        if (a->quantaConsumed != b->quantaConsumed)
            return a->quantaConsumed < b->quantaConsumed;
        if (a->schedScore != b->schedScore)
            return a->schedScore < b->schedScore;
        if (a->spec().arrival != b->spec().arrival)
            return a->spec().arrival < b->spec().arrival;
        return a->id() < b->id();
    }
};

/**
 * Priority order of GPU residents across both queues: the queue tag
 * ranks the high queue above the low queue, then SchedOrder. It is the
 * greedy walk's order, so it equals the high queue's material sublist
 * followed by the low queue's (what the early-exit settle pass reads);
 * patchPlan() uses it to merge re-keyed members into a repaired plan.
 */
struct ResidentEvictOrder
{
    bool
    operator()(const workload::Request* a,
               const workload::Request* b) const
    {
        if (a->schedQueueTag != b->schedQueueTag)
            return a->schedQueueTag < b->schedQueueTag;
        return SchedOrder{}(a, b);
    }
};

/** Detection idiom for iterators that support dropping their waiting
 *  stream (OrderedQueue's merged iterator); plain vector iterators
 *  (the recompute wrapper) are left untouched. */
template <typename It, typename = void>
struct HasSkipWaiting : std::false_type
{
};
template <typename It>
struct HasSkipWaiting<
    It, std::void_t<decltype(std::declval<It&>().skipWaiting())>>
    : std::true_type
{
};

template <typename It>
inline void
maybeSkipWaiting(It& it)
{
    if constexpr (HasSkipWaiting<It>::value)
        it.skipWaiting();
}

/**
 * Which plan-boundary rung patchPlan() ran: the lineage plan again
 * verbatim, the lineage plan patched by the journaled dirty set, or
 * neither (the caller then runs the full buildPlan() walk).
 */
enum class PlanRung : std::uint8_t
{
    Reuse,
    Repair,
    Walk,
};

/**
 * Why a plan-boundary rung declined, recorded per boundary for the
 * telemetry layer: on a repair it says why verbatim reuse declined,
 * on a full walk why the repair declined. Purely observational —
 * never consulted by scheduling decisions.
 */
enum class PlanDecline : std::uint8_t
{
    None = 0,       //!< The path ran (or was never consulted).
    Inactive,       //!< No live lineage (recompute mode, force twin,
                    //!< or the last walk was no lineage plan).
    StateChanged,   //!< Membership/key/queue change since last build.
    PredictorMoved, //!< Predictor version bumped under spec keys.
    Veto,           //!< Policy veto (PASCAL's deferred demotion).
    Budget,         //!< Paged-memory budget check failed.
    WaitingWork,    //!< Waiting admission candidates exist.
    SwappedMembers, //!< Tracked KV not fully GPU-resident.
    Bailed,         //!< Lineage bailed (unjournalable mutation).
    BatchLimit,     //!< Patched batch empty or over maxBatchSize.
};

/** Stable lowercase name of @p d (trace "reason" arg rendering). */
const char* planDeclineName(PlanDecline d);

/** The full name table, index == enum value (TraceSink reason
 *  table). */
const char* const* planDeclineNames();

/** Number of entries in planDeclineNames(). */
std::size_t numPlanDeclineNames();

/** The shared planner; policies override the hooks that differ. */
class IntraScheduler
{
  public:
    explicit IntraScheduler(SchedLimits limits);
    virtual ~IntraScheduler() = default;

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /** A request was routed to this instance (arrival or migration). */
    void add(workload::Request* req);

    /** A request left this instance (finished or migrated away).
     *  O(1) via the request's intrusive hosted-position index. */
    void remove(workload::Request* req);

    /** Requests currently hosted. Removal swaps the last request into
     *  the vacated slot, so the order is arbitrary (every consumer is
     *  order-independent or establishes its own order; for insertion
     *  order use hostedHead()/schedNextHosted). */
    const std::vector<workload::Request*>& hosted() const
    {
        return requests;
    }

    /** Head of the intrusive insertion-ordered hosted list (walk via
     *  schedNextHosted). Consumers whose result depends on iteration
     *  order — the snapshot's floating-point prediction sum — use
     *  this so O(1) swap-pop removal cannot perturb their output. */
    workload::Request* hostedHead() const { return hostedFirst; }

    /**
     * Build the next iteration's plan into @p out. @p out is reset
     * first with its capacity retained, so steady-state replans do
     * not allocate.
     */
    void buildPlan(const model::KvPool& pool, IterationPlan& out);

    /** Convenience wrapper building a fresh plan. */
    IterationPlan
    plan(const model::KvPool& pool)
    {
        IterationPlan out;
        buildPlan(pool, out);
        return out;
    }

    /**
     * Plan-boundary fast path over the live *lineage*: the run of
     * boundaries that keep rerunning or patching one walked lineage
     * plan — an uncapped pure-decode plan that selected every
     * material member, so the block-offset histogram is the whole
     * budget story and membership deltas are the whole batch story.
     * Capped and kept-resident plans start no lineage; they walk.
     *
     *  - Reuse: @p prev is the lineage plan and no membership, key,
     *    demotion, or predictor change was observed since it was
     *    built, so it runs again verbatim once the O(1) histogram
     *    budget check passes. Waiting work may be present: nothing
     *    changed, so the walk would still not admit it.
     *  - Repair: the change is in the journal. Departed / re-keyed
     *    members are spliced out of the lineage batch, landed and
     *    re-keyed members are merged back in at their
     *    ResidentEvictOrder rank, and the budget check re-runs over
     *    the histogram patched by the same deltas — O(delta log delta
     *    + batch) with no queue walk, no predictor calls, and no
     *    allocation once warm. Eligible only with no waiting
     *    admission candidates, no swapped members and no predictor
     *    movement, so the patched batch provably equals the walk's.
     *    Disabled by SchedLimits::forcePlanRepair (the force twin
     *    keeps the journal dark; verbatim reuse still runs).
     *  - Walk: neither applies; the caller must run buildPlan().
     */
    PlanRung patchPlan(IterationPlan& prev, const model::KvPool& pool);

    /**
     * Block-rounded GPU growth of the step the last Reuse approved:
     * the lineage batch opens blockSize tokens for every member whose
     * KV sits on a block boundary (the histogram count lineageFits()
     * checked). Valid right after patchPlan() returned Reuse.
     */
    TokenCount
    lineageStepGrowth() const
    {
        return lastBlockSize *
               static_cast<TokenCount>(lineageCrossings(planAge));
    }

    /**
     * Consecutive upcoming executions of the hosted @p batch that are
     * steady: each member emits a token that crosses no event
     * (</think>, first answering token, finish, quantum rollover) and
     * leaves noteExecuted() with nothing to do (no re-key, counter
     * move, or deferred decision). 0 means the very next execution is
     * not steady. Keyed policies re-key every execution, so nothing is
     * steady under them. Incremental mode only.
     */
    TokenCount
    steadySteps(const std::vector<workload::Request*>& batch) const;

    /** Notification that @p req crossed the reasoning->answering
     *  boundary and stays on this instance. */
    virtual void onPhaseTransition(workload::Request* req)
    {
        (void)req;
    }

    /**
     * Dirty-set contract, residency leg: the engine reports every
     * exec-state flip of a hosted request (prefill/prewarm
     * allocation, swap out/in, migration landing) so the scheduler's
     * intrusive GPU-resident list stays exact. The greedy walk's
     * early exit settles unvisited residents from this list instead
     * of scanning the whole admission backlog. add()/remove() sync
     * membership themselves.
     */
    void noteResidency(workload::Request* req);

    /**
     * Instance notification: @p req just emitted a token (or finished
     * prefill) in the iteration being completed. Updates the
     * maintained counters, re-keys it if its quanta, score or queue
     * moved, and offers it to deferDecision(). No-op in recompute
     * mode.
     */
    void noteExecuted(workload::Request* req);

    /** Paper r_i: reasoning requests in the high-priority queue
     *  (excludes demoted ones). O(1) in incremental mode. */
    int numReasoning() const;

    /** Paper a_i: answering requests that have not exhausted their
     *  first time quantum. O(1) in incremental mode. */
    int numFreshAnswering() const;

    const SchedLimits& schedLimits() const { return limits; }

    /**
     * Switch on incremental maintenance. Must be called before any
     * request is added. Ignored when SchedLimits::forceResort is
     * set.
     */
    void enableIncremental();

    bool incrementalEnabled() const { return incremental; }

    /** Instance id for diagnostics (placement-bug panics). */
    void setInstanceId(InstanceId id) { instanceId = id; }

    /**
     * Wire a length predictor (not owned; may be nullptr). Speculative
     * policies (SRPT, PASCAL-Spec) consult it when ordering requests
     * and deciding demotion; phase-reactive policies ignore it. The
     * Cluster shares one predictor across all of its instances.
     */
    void setPredictor(const predict::LengthPredictor* p)
    {
        lengthPredictor = p;
    }

    const predict::LengthPredictor* predictor() const
    {
        return lengthPredictor;
    }

    /**
     * Residents the last buildPlan() left resident without running
     * them this iteration: the greedy walk's kept-but-unselected
     * requests plus, on prefill-priority iterations, the selected
     * decode candidates the prefill pass displaced. The instance
     * restamps their lazy-accrual bucket from this record, so a fresh
     * plan touches only requests whose standing bucket can actually
     * have changed. Valid until the next buildPlan().
     */
    const std::vector<workload::Request*>& keptResidents() const
    {
        return lastKeptResidents;
    }

    /** Why the last patchPlan() call did not reuse verbatim: after a
     *  Repair, why the verbatim rung declined; after a Walk, why the
     *  repair declined (None after a Reuse). */
    PlanDecline lastDecline() const { return decline; }

    /** Arena compactions of the high and low policy queues (stat
     *  registry: <instance>.queue.compactions). */
    std::uint64_t numQueueCompactions() const
    {
        return highQueue.numCompactions() + lowQueue.numCompactions();
    }

  protected:
    /** True if @p req can be considered for scheduling at all.
     *  Inline: evaluated once per walked candidate per plan. */
    static bool
    schedulable(const workload::Request* req)
    {
        if (req->finished())
            return false;
        switch (req->exec) {
          case workload::ExecState::WaitingNew:
          case workload::ExecState::ResidentGpu:
          case workload::ExecState::SwappedCpu:
            return true;
          default:
            return false;
        }
    }

    /**
     * Produce the plan into @p out (arrives reset): the shared planner
     * over the two queues, incremental or recompute. Virtual only so
     * unit probes can drive greedySelectInto() directly.
     */
    virtual void planInto(const model::KvPool& pool, IterationPlan& out);

    /** @name Policy hooks */
    /** @{ */

    /** True if @p req belongs in the high queue (PASCAL: reasoning and
     *  not demoted). Single-queue policies leave everyone low. */
    virtual bool isHigh(const workload::Request* req) const
    {
        (void)req;
        return false;
    }

    /** True if the walk stops at the first candidate that does not
     *  fit (FCFS) instead of skipping it. */
    virtual bool strictOrder() const { return false; }

    /** True if the high queue is charged against the answering
     *  reserve (SchedLimits::answeringReserveFraction) as well as the
     *  global budget. */
    virtual bool capsHighQueue() const { return false; }

    /** True if the score level is the predictor's rank score, so a
     *  predictor version bump re-keys every request. */
    virtual bool keysUsePredictions() const { return false; }

    /** True if planning without a wired predictor is an error. */
    virtual bool requiresPredictor() const { return false; }

    /**
     * @p req, a high-queue member, joined, ran, or was re-keyed by a
     * predictor move, so its KV or prediction may have changed. A
     * policy with plan-time decisions about its high queue (PASCAL's
     * demotion) queues it for the next applyDeferredDecisions().
     * Incremental mode only.
     */
    virtual void deferDecision(workload::Request* req) { (void)req; }

    /**
     * KV size at or below which deferDecision() ignores a high-queue
     * member (PASCAL: the start of its demotion window). Bounds
     * steadySteps(); the default policy defers nothing.
     */
    virtual TokenCount
    deferWindowStart() const
    {
        return std::numeric_limits<TokenCount>::max();
    }

    /**
     * Apply the decisions a policy takes at plan time (PASCAL's
     * demotions), at the start of every plan and, in incremental mode,
     * before patchPlan() reuses or patches. Must be idempotent and
     * report its key changes via rekey(). Return true if any decision
     * fired: verbatim reuse is then off and the boundary falls to the
     * repair.
     */
    virtual bool applyDeferredDecisions() { return false; }

    /** @} */

    /**
     * A policy moved @p req's quanta or queue membership outside an
     * execution (demotion, phase-transition quantum reset): re-sync
     * the monitor counters and re-place it in its queue. No-op in
     * recompute mode.
     */
    void rekey(workload::Request* req);

    /** True if @p req is currently hosted by *this* scheduler (the
     *  intrusive fields alone cannot tell schedulers apart). */
    bool
    isHosted(const workload::Request* req) const
    {
        return req->schedHostedPos < requests.size() &&
               requests[req->schedHostedPos] == req;
    }

    /** Single-order convenience over greedySelectRanges: the first
     *  @p high_prefix_len entries of @p order form the capped high
     *  segment (0 disables the cap). */
    void greedySelectInto(const std::vector<workload::Request*>& order,
                          const model::KvPool& pool, bool stop_at_unfit,
                          IterationPlan& out,
                          std::size_t high_prefix_len = 0,
                          TokenCount high_budget_cap = 0);

    std::vector<workload::Request*> requests;
    SchedLimits limits;
    const predict::LengthPredictor* lengthPredictor = nullptr;

  private:
    static constexpr std::uint8_t kHighTag = 1;
    static constexpr std::uint8_t kLowTag = 2;

    /** Tag of the queue @p req belongs in. */
    std::uint8_t
    queueTagFor(const workload::Request* req) const
    {
        return isHigh(req) ? kHighTag : kLowTag;
    }

    /** The queue stamped with @p tag (panics on 0: not queued). */
    OrderedQueue<SchedOrder>& queueByTag(std::uint8_t tag);

    /** Re-place @p req in the queue tagged @p tag (a transfer, or a
     *  dirty mark when it is already there) and journal the key move. */
    void requeue(workload::Request* req, std::uint8_t tag);

    /** The predictor's rank score for @p req (0 without one). */
    double
    rankScore(const workload::Request* req) const
    {
        return lengthPredictor ? lengthPredictor->rankScore(*req) : 0.0;
    }

    /** Incremental plan: re-key on a predictor move, apply deferred
     *  decisions, repair both queues, walk them in place. */
    void incrementalPlan(const model::KvPool& pool, IterationPlan& out);

    /** Recompute reference: partition, rescore, std::sort, walk. */
    void recomputePlan(const model::KvPool& pool, IterationPlan& out);

    /** The high queue's KV cap under the answering reserve. */
    TokenCount highBudgetCap(const model::KvPool& pool) const;

    /** Queue contents or keys changed outside buildPlan (blocks
     *  verbatim reuse until the next buildPlan). */
    void noteStateChanged() { stateChanged = true; }

    /**
     * A hosted request's ResidentEvictOrder key moved (quantum
     * consumption, queue transfer, demotion, predictor re-key).
     * Journals the member for the plan-repair splice/merge when a
     * repairable lineage is active. No-op for non-material members
     * (their keys are re-read at admission) and in recompute mode.
     */
    void noteKeyChanged(workload::Request* req);

    /** Recompute @p req's contribution to the maintained monitor
     *  counters from its live state. */
    void syncCounters(workload::Request* req);

    /** Predictor version() changed since the last buildPlan (only
     *  meaningful when keysUsePredictions()). */
    bool predictorMoved() const;

    /**
     * Shared greedy selection over two priority ranges (the capped
     * high-priority segment, then the uncapped rest): walk by
     * priority, charging each candidate's full memory footprint (KV +
     * one token of decode growth, or prompt + first token for
     * prefills, block-rounded per the pool's paged allocator) against
     * the GPU capacity. Unselected residents are kept resident while
     * the leftover budget allows and evicted (swapOut) otherwise,
     * which preempts the lowest-priority requests first.
     *
     * Skip-semantics policies (RR, SRPT, PASCAL) walk on past a
     * candidate that does not fit; strictOrder() policies (FCFS) pass
     * stop_at_unfit and stop the walk there.
     *
     * Early exit: once nothing further can be admitted (the walk
     * stopped, the batch is full, or the leftover budget is below one
     * paged block — the minimum any candidate charges) the only
     * remaining work is accounting GPU residents for the keep/evict
     * pass, so the walk ends as soon as every pool-resident
     * allocation has been seen. A saturated instance therefore plans
     * in O(batch + residents) instead of O(hosted), no matter how
     * deep its admission backlog grows.
     *
     * The ranges are templated so the skip-list queues are consumed
     * in place — no O(n) copy into a scratch order per plan.
     *
     * In incremental mode the walk also records what decides whether
     * its plan starts a lineage (see patchPlan()): whether the high
     * range was capped, and the kept residents.
     *
     * @param cap_high Charge the high range against
     *        @p high_budget_cap as well as the global budget
     *        (PASCAL's answering-reserve extension).
     */
    template <typename It>
    void
    greedySelectRanges(It high_begin, It high_end, It low_begin,
                       It low_end, bool cap_high,
                       TokenCount high_budget_cap,
                       const model::KvPool& pool, bool stop_at_unfit,
                       IterationPlan& out)
    {
        TokenCount budget = pool.gpuCapacity();
        TokenCount high_budget = cap_high ? high_budget_cap : budget;
        TokenCount prefill_tokens = 0;
        int batch = 0;
        bool stopped = false;
        bool walking = true;
        const std::size_t gpu_total = pool.numGpuResident();
        const std::size_t cpu_total = pool.numTracked() - gpu_total;
        std::size_t residents_seen = 0;
        std::size_t swapped_seen = 0;
        ++planWalkEpoch;
        // Exact admission floor for the whole waiting population (the
        // waiting set is frozen while a plan is built): the smallest
        // prompt bounds both the memory charge and the prefill token
        // cap of every waiting candidate, prewarm or not.
        const TokenCount min_waiting_prompt =
            waitingPrompts.empty()
                ? std::numeric_limits<TokenCount>::max()
                : *waitingPrompts.begin();
        const TokenCount waiting_floor =
            waitingPrompts.empty()
                ? 0
                : pool.chargeFor(min_waiting_prompt + 1);
        std::vector<workload::Request*>& unselected_residents =
            lastKeptResidents; // Reused buffer; doubles as the record.
        unselected_residents.clear();
        lastWalkCapped = cap_high;

        // True once no waiting candidate can join the batch. Every
        // input is monotone along the walk (budget shrinks,
        // batch/prefill counts grow), so it is re-evaluated only
        // after admissions; the moment it flips, the walk drops the
        // queues' waiting streams (iterator::skipWaiting) and
        // finishes over the material members alone.
        bool waiting_dead = waitingPrompts.empty();
        auto recheck = [&]() {
            if (stopped || batch >= limits.maxBatchSize) {
                // Nothing at all can be admitted. Incremental mode
                // settles the unreached residents from the material
                // list after the walk; recompute mode (whose exec
                // states may be test-poked without notifications)
                // only stops once everything with KV has been
                // walked.
                if (incremental || (residents_seen == gpu_total &&
                                    swapped_seen == cpu_total)) {
                    walking = false;
                }
                return;
            }
            waiting_dead =
                waiting_dead || budget < waiting_floor ||
                (waitingPrewarmCount == 0 &&
                 (static_cast<int>(out.prefill.size()) >=
                      limits.maxPrefillSeqs ||
                  prefill_tokens + min_waiting_prompt >
                      limits.maxPrefillTokens));
        };
        recheck();

        // Strict-order policies (stop_at_unfit) may NOT skip the
        // waiting stream: their first unfit waiting candidate stops
        // the whole walk, so a skipped waiting member would let a
        // later material member be admitted that the reference walk
        // blocks. They still exit fast — the unfit candidate flips
        // `stopped` and the material-list tail settles the rest.
        const bool can_skip_waiting = incremental && !stop_at_unfit;
        It it = high_begin;
        It range_end = high_end;
        bool in_high = true;
        bool capped = cap_high;
        if (can_skip_waiting && waiting_dead)
            maybeSkipWaiting(it);
        for (;;) {
            if (!walking)
                break;
            if (it == range_end) {
                if (!in_high)
                    break;
                in_high = false;
                capped = false;
                it = low_begin;
                range_end = low_end;
                if (can_skip_waiting && waiting_dead)
                    maybeSkipWaiting(it);
                continue;
            }
            workload::Request* r = *it;
            if (!schedulable(r)) {
                ++it;
                continue;
            }
            bool resident =
                r->exec == workload::ExecState::ResidentGpu;
            if (resident) {
                ++residents_seen;
                r->schedPlanStamp = planWalkEpoch;
                if (residents_seen == gpu_total)
                    recheck();
            } else if (r->exec == workload::ExecState::SwappedCpu) {
                ++swapped_seen;
                if (swapped_seen == cpu_total)
                    recheck();
            }

            if (stopped || batch >= limits.maxBatchSize) {
                if (resident)
                    unselected_residents.push_back(r);
                ++it;
                continue;
            }

            // Effective budget: capped (high-queue) candidates may
            // not eat into the memory reserved for the low queue.
            TokenCount avail =
                capped ? std::min(budget, high_budget) : budget;
            bool admitted = false;
            TokenCount cost = 0;
            switch (r->exec) {
              case workload::ExecState::WaitingNew: {
                cost = pool.chargeFor(r->spec().promptTokens + 1);
                bool prewarm = r->spec().startInAnswering;
                bool caps_ok =
                    prewarm ||
                    (static_cast<int>(out.prefill.size()) <
                         limits.maxPrefillSeqs &&
                     prefill_tokens + r->spec().promptTokens <=
                         limits.maxPrefillTokens);
                if (!caps_ok || cost > avail) {
                    if (stop_at_unfit) {
                        stopped = true;
                        recheck();
                    }
                    break;
                }
                admitted = true;
                if (prewarm) {
                    out.prewarm.push_back(r);
                } else {
                    out.prefill.push_back(r);
                    prefill_tokens += r->spec().promptTokens;
                }
                break;
              }
              case workload::ExecState::ResidentGpu: {
                cost = pool.chargeFor(r->kvTokens() + 1);
                if (cost > avail) {
                    unselected_residents.push_back(r);
                    if (stop_at_unfit) {
                        stopped = true;
                        recheck();
                    }
                    break;
                }
                admitted = true;
                out.decode.push_back(r);
                break;
              }
              case workload::ExecState::SwappedCpu: {
                cost = pool.chargeFor(r->kvTokens() + 1);
                if (cost > avail) {
                    if (stop_at_unfit) {
                        stopped = true;
                        recheck();
                    }
                    break;
                }
                admitted = true;
                out.swapIn.push_back(r);
                out.decode.push_back(r);
                break;
              }
              default:
                panic("greedySelect: unexpected exec state");
            }
            if (admitted) {
                budget -= cost;
                if (capped)
                    high_budget -= cost;
                ++batch;
                // The budget/batch/prefill state moved, so the exit
                // verdicts may have flipped.
                bool was_dead = waiting_dead;
                recheck();
                if (can_skip_waiting && waiting_dead && !was_dead)
                    maybeSkipWaiting(it);
            }
            ++it;
        }

        if (!walking && incremental) {
            // Full exit (batch full / strict-order stop): settle the
            // GPU residents the walk never reached. Every unstamped
            // material member is by construction unselected
            // (selection requires a visit), and the high queue's
            // material sublist followed by the low queue's is walk
            // priority order (both were repaired before the walk) —
            // so the keep/evict pass needs no tail re-sort.
            for (const auto* q : {&highQueue, &lowQueue}) {
                for (auto mit = q->materialBegin(); mit != q->end();
                     ++mit) {
                    workload::Request* r = *mit;
                    if (r->exec != workload::ExecState::ResidentGpu ||
                        r->schedPlanStamp == planWalkEpoch ||
                        !schedulable(r))
                        continue;
                    unselected_residents.push_back(r);
                }
            }
        }
        finishGreedySelect(pool, out, budget);
    }

    /**
     * Shared tail of the greedy walk: keep unselected residents while
     * @p leftover_budget covers them and evict the rest. The record
     * arrives in walk priority order end to end — the walked prefix
     * by construction, the early-exit tail because the queues'
     * material sublists yield it pre-sorted — so no re-sort is
     * needed and the emitted plan is byte-identical to the full
     * walk's.
     */
    void finishGreedySelect(const model::KvPool& pool,
                            IterationPlan& out,
                            TokenCount leftover_budget);

    /** The lineage batch still fits the pool at this boundary (the
     *  O(1) histogram budget check; see blockOffsetHist). */
    bool lineageFits(const model::KvPool& pool) const;

    /** Lineage members that open a fresh KV block on the lineage's
     *  k-th execution since its build (see blockOffsetHist). */
    std::uint32_t
    lineageCrossings(std::uint64_t k) const
    {
        const auto block = static_cast<std::uint64_t>(lastBlockSize);
        return blockOffsetHist[static_cast<std::size_t>(
            (block - k % block) % block)];
    }

    /** Recompute-mode counter scans. */
    int scanReasoning() const;
    int scanFreshAnswering() const;

    std::uint64_t
    currentPredictorVersion() const
    {
        return lengthPredictor ? lengthPredictor->version() : 0;
    }

    /** Insertion-ordered intrusive hosted list (see hostedHead()). */
    workload::Request* hostedFirst = nullptr;
    workload::Request* hostedLast = nullptr;

    bool incremental = false;
    InstanceId instanceId = kNoInstance;

    /** Maintained monitor counters (incremental mode). */
    int reasoningCount = 0;
    int freshAnsweringCount = 0;

    /** @name Greedy-walk early-exit state */
    /** @{ */

    /** Exact multiset of hosted waiting requests' prompt sizes (the
     *  waiting set is frozen during a walk, so its minimum yields an
     *  exact "nothing waiting fits" admission floor). */
    std::multiset<TokenCount> waitingPrompts;

    /** Hosted startInAnswering requests still waiting (they bypass
     *  the prefill caps, so the walk may only stop early when none
     *  remain). */
    int waitingPrewarmCount = 0;

    /** Epoch stamped into visited residents per greedy walk. */
    std::uint64_t planWalkEpoch = 0;

    /** @} */

    /** @name Plan-repair journal (the dirty set of the live plan
     *  lineage; see patchPlan()) */
    /** @{ */

    /** Journal ops, also stored in Request::schedRepairState (which
     *  dedupes per-request journaling per lineage). */
    static constexpr std::uint8_t kRepairNone = 0;
    static constexpr std::uint8_t kRepairRekey = 1;
    static constexpr std::uint8_t kRepairInsert = 2;
    static constexpr std::uint8_t kRepairErase = 3; //!< Entry-only.

    struct RepairEntry
    {
        workload::Request* req;
        std::uint8_t op;
        /** Erase only: the member's block-offset histogram bucket,
         *  recorded at remove time (its KV may move afterwards). */
        std::uint32_t histIdx;
    };

    /** True while mutations must be journaled: a lineage is live,
     *  the repair rung is on, and the lineage has not bailed. */
    bool
    repairActive() const
    {
        return incremental && lineage && !repairDisabled && !repairBail;
    }

    /** Reset the journal and per-request journal states and end the
     *  lineage (every lineage-ending buildPlan). */
    void clearRepairJournal();

    std::vector<RepairEntry> repairJournal;

    /** Something unjournalable happened (a swapped-in migration
     *  landing): the lineage cannot be repaired, only rebuilt. */
    bool repairBail = false;

    /** A lineage is live: the last lineage-ending walk produced a
     *  lineage plan (see patchPlan()), possibly since followed by
     *  reuses, repairs and prefill-only excursions. */
    bool lineage = false;

    /** SchedLimits::forcePlanRepair: the repair rung is
     *  disabled and the journal stays dark; verbatim reuse still
     *  runs. */
    bool repairDisabled = false;

    /** Pool block size at the last build (remove() has no pool). */
    TokenCount lastBlockSize = 1;

    /** Scratch: re-keyed + inserted members, sorted then merged. */
    std::vector<workload::Request*> repairPatch;

    /** Scratch: merge target for the patched decode batch. */
    std::vector<workload::Request*> decodeScratch;

    /**
     * The lineage's decode basis: the batch of the last full build or
     * repair, in plan order. Kept scheduler-side (not read from the
     * caller's plan) because a prefill-only excursion build overwrites
     * the in-flight plan while the lineage — whose decode members sat
     * out the prefill iteration with their KV untouched — stays
     * patchable.
     */
    std::vector<workload::Request*> basisDecode;

    /**
     * Scratch: departed members' pointer identities for the splice.
     * Erased entries are never dereferenced — the request may have
     * finished and had its arena slot recycled for an unrelated
     * arrival by the time the journal is folded — so the merge skips
     * basis members by pointer identity instead of a flag.
     */
    std::vector<const workload::Request*> eraseScratch;

    /** @} */

    /** Telemetry: see lastDecline(). */
    PlanDecline decline = PlanDecline::None;

    /** Any membership/key/queue change since the last buildPlan. */
    bool stateChanged = true;

    /** The in-flight plan is the lineage plan itself (not a
     *  prefill-only excursion), so it may run again verbatim. */
    bool lastPlanReusable = false;

    std::uint64_t lastPredictorVersion = 0;

    /** @name Lineage record of the last greedy walk */
    /** @{ */
    std::vector<workload::Request*> lastKeptResidents;
    bool lastWalkCapped = false;

    /**
     * O(1) lineage budget check: histogram of the lineage batch's
     * kv % blockSize at build time. During a run of verbatim reuses
     * every member's KV grows by exactly one token per iteration, so
     * the number of members crossing a paged block boundary at reuse
     * k is blockOffsetHist[(block - k%block) % block], and the whole
     * walk's budget check collapses to
     *   gpuUsed + blockSize * crossings <= capacity
     * (the selection prefix sums are bounded by that total when every
     * material member is selected and no per-member cap applies).
     */
    std::vector<std::uint32_t> blockOffsetHist;

    /**
     * Iterations the current plan lineage has run since its last full
     * build: incremented by every verbatim reuse and every successful
     * repair, reset by buildPlan. Anchors the histogram phase — at a
     * boundary with planAge = a, every surviving decode member has
     * executed exactly a + 1 times since its histogram bucket was
     * recorded, which is what the repair journal's erase/insert
     * bucket arithmetic relies on.
     */
    std::uint64_t planAge = 0;
    /** @} */

    /** The policy queues, tagged kHighTag / kLowTag (incremental mode
     *  only; recompute mode sorts the scratch partitions instead). */
    OrderedQueue<SchedOrder> highQueue{kHighTag};
    OrderedQueue<SchedOrder> lowQueue{kLowTag};

    /** Recompute-mode scratch: the two partitions and their
     *  concatenation (capacity reused across plans). */
    std::vector<workload::Request*> highScratch;
    std::vector<workload::Request*> lowScratch;
    std::vector<workload::Request*> orderScratch;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_INTRA_SCHEDULER_HH
