/**
 * @file
 * The request model: immutable trace spec + mutable runtime state.
 *
 * A reasoning-LLM request advances through
 *   Reasoning (prefill + reasoning-token decode)
 *     -> Answering (user-visible tokens)
 *       -> Finished,
 * matching Fig. 1(b) of the paper. Per Section II-D the reasoning phase
 * includes the prefill stage. The phase transition is *observed* when
 * the final reasoning token (the </think> marker) is emitted; it cannot
 * be predicted in advance.
 */

#ifndef PASCAL_WORKLOAD_REQUEST_HH
#define PASCAL_WORKLOAD_REQUEST_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.hh"
#include "src/workload/slo_class.hh"

namespace pascal
{
namespace workload
{

/** Execution phase of a request (paper Fig. 1(b)). */
enum class Phase
{
    Reasoning, //!< Prefill + hidden reasoning-token decode.
    Answering, //!< User-visible answering-token decode.
    Finished,  //!< All tokens generated.
};

/** Where the request currently sits in the serving machinery. */
enum class ExecState
{
    Unassigned,  //!< Not yet routed to an instance.
    WaitingNew,  //!< On an instance, no KV yet (needs prefill).
    ResidentGpu, //!< KV in GPU HBM; decodable.
    SwappedCpu,  //!< KV offloaded to host DRAM (preempted).
    InTransit,   //!< KV migrating between instances.
    Done,        //!< Finished; KV released.
};

/** Why a request terminally failed under fault injection. */
enum class FailReason : std::uint8_t
{
    None,        //!< Not failed (completed or still running).
    RetryBudget, //!< Crash/link-failure retries exhausted the budget.
    Shed,        //!< Rejected at admission while capacity was below
                 //!< the configured shed floor.
    DeadlineExceeded, //!< The request's per-class relative deadline
                      //!< expired before completion (SLO classes).
};

/** Immutable description of one request, as read from a trace. */
struct RequestSpec
{
    RequestId id = kNoRequest;
    Time arrival = 0.0;
    TokenCount promptTokens = 0;
    TokenCount reasoningTokens = 0; //!< 0 iff startInAnswering.
    TokenCount answerTokens = 0;

    /**
     * Fig. 5 mode: the request enters the system already past its
     * reasoning phase; its prompt KV is assumed pre-generated
     * (allocated without prefill cost) and every generated token is an
     * answering token.
     */
    bool startInAnswering = false;

    std::string dataset; //!< Source dataset label (diagnostic).

    /** Service class (inert unless SloClassConfig::enabled). */
    SloClass sloClass = SloClass::Standard;

    /** Sanity-check the spec; calls fatal() on malformed entries. */
    void validate() const;
};

/** Time breakdown within one phase (the Fig. 4 / Fig. 5 stacks). */
struct PhaseBuckets
{
    double executed = 0.0;  //!< Actively running on the GPU.
    double blocked = 0.0;   //!< Waiting, never yet started.
    double preempted = 0.0; //!< Waiting after having started.

    double total() const { return executed + blocked + preempted; }
};

/** Which bucket a waiting interval belongs to. */
enum class BucketKind
{
    Executed,
    Blocked,
    Preempted,
};

/** One logged decode step of an instance: when it started and when
 *  it completed (see Request::catchUpSteps). */
struct StepSpan
{
    Time start;
    Time end;
};

/**
 * Mutable runtime state of one request.
 *
 * Owned by the Cluster; instances and schedulers hold raw pointers.
 */
class Request
{
  public:
    explicit Request(RequestSpec s);

    const RequestSpec& spec() const { return specData; }
    RequestId id() const { return specData.id; }

    /** @name Token progress */
    /** @{ */

    /** Decode tokens generated so far (reasoning + answering). */
    TokenCount generated() const { return generatedTokens; }

    /** Reasoning tokens generated so far. */
    TokenCount
    reasoningGenerated() const
    {
        return generatedTokens < specData.reasoningTokens
                   ? generatedTokens
                   : specData.reasoningTokens;
    }

    /** Answering tokens generated so far. */
    TokenCount
    answerGenerated() const
    {
        return generatedTokens > specData.reasoningTokens
                   ? generatedTokens - specData.reasoningTokens
                   : 0;
    }

    /** Total tokens this request will generate. */
    TokenCount
    totalToGenerate() const
    {
        return specData.reasoningTokens + specData.answerTokens;
    }

    /** Current phase implied by progress. Inline: this is the single
     *  most-called accessor on the simulation hot path. */
    Phase
    phase() const
    {
        if (generatedTokens >= totalToGenerate())
            return Phase::Finished;
        if (generatedTokens >= specData.reasoningTokens)
            return Phase::Answering;
        return Phase::Reasoning;
    }

    bool finished() const { return phase() == Phase::Finished; }

    /**
     * KV tokens logically owned right now: prompt + generated tokens
     * (each decoded token appends one KV entry).
     */
    TokenCount kvTokens() const
    {
        return specData.promptTokens + generatedTokens;
    }

    /** Record the emission of one decode token at time @p now.
     *  Updates phase timestamps and quantum accounting. Inline: runs
     *  once per decode-batch member per iteration. */
    void
    emitToken(Time now, TokenCount quantum)
    {
        if (finished())
            emitTokenPanic();
        ++generatedTokens;
        if (quantum > 0) {
            ++quantumTokens;
            if (quantumTokens >= quantum) {
                quantumTokens = 0;
                ++quantaConsumed;
            }
        }
        if (!specData.startInAnswering &&
            generatedTokens == specData.reasoningTokens) {
            // This token is the </think> marker: the reasoning phase
            // ends here and the instance monitor observes the
            // transition.
            reasoningEnd = now;
        }
        if (generatedTokens == specData.reasoningTokens + 1 ||
            (specData.startInAnswering && generatedTokens == 1)) {
            firstAnswer = now;
        }
        if (generatedTokens > specData.reasoningTokens) {
            // One exact reservation instead of doubling reallocs: the
            // final answering length is known from the spec, and a
            // long answer otherwise pays ~log2(n) grow-copy passes.
            if (answerEmitTimes.capacity() == 0)
                answerEmitTimes.reserve(
                    static_cast<std::size_t>(specData.answerTokens));
            answerEmitTimes.push_back(now);
        }
        if (generatedTokens == totalToGenerate())
            finish = now;
    }

    [[noreturn]] void emitTokenPanic() const;

    /**
     * Apply @p n logged steady decode steps at once: for each step,
     * exactly what the engine's eager path does to a batch member —
     * settle the gap before the step start and the step itself into
     * the executed bucket (the same two additions, in the same order),
     * emit one token, and push its emission time for an answering
     * member. The instance only defers steps that cross no event: no
     * </think>, first answering token or finish, no quantum rollover,
     * and the member already running (standing bucket Executed). A
     * stretch that would cross one is a simulator bug and panics.
     */
    void
    catchUpSteps(const StepSpan* steps, std::size_t n, TokenCount quantum)
    {
        if (n == 0)
            return;
        const auto steps_n = static_cast<TokenCount>(n);
        const TokenCount after = generatedTokens + steps_n;
        const bool answering = generatedTokens > specData.reasoningTokens;
        if (accrualKind != BucketKind::Executed ||
            after >= (answering ? totalToGenerate()
                                : specData.reasoningTokens) ||
            (quantum > 0 && quantumTokens + steps_n >= quantum)) {
            catchUpPanic(n);
        }
        PhaseBuckets& b = answering ? answeringBuckets : reasoningBuckets;
        double executed = b.executed;
        Time last = lastAccount;
        for (std::size_t i = 0; i < n; ++i) {
            double dt = steps[i].start - last;
            if (dt > 0.0)
                executed += dt;
            dt = steps[i].end - steps[i].start;
            if (dt > 0.0)
                executed += dt;
            last = steps[i].end;
            if (answering)
                answerEmitTimes.push_back(last);
        }
        b.executed = executed;
        lastAccount = last;
        generatedTokens = after;
        if (quantum > 0)
            quantumTokens += steps_n;
    }

    [[noreturn]] void catchUpPanic(std::size_t n) const;

    /** Mark prefill completion at @p now; emits the first reasoning
     *  token (Fig. 1(b): prefill produces r1). */
    void completePrefill(Time now, TokenCount quantum);

    /** @} */

    /** @name Scheduling state (manipulated by instances/schedulers) */
    /** @{ */

    ExecState exec = ExecState::Unassigned;
    InstanceId home = kNoInstance;
    bool demoted = false;       //!< PASCAL: forced into the low queue.
    bool prefillDone = false;

    /** Terminal failure reason (fault layer); None otherwise. */
    FailReason failReason = FailReason::None;

    /** Placement retries consumed (crashes, link failures,
     *  no-capacity outcomes) against FaultConfig::retryBudget. */
    int retryCount = 0;

    /** Monotonic KV-transfer attempt counter; feeds the stateless
     *  per-attempt link-failure draw so the verdict is independent of
     *  event interleaving. */
    std::uint64_t transferNonce = 0;

    /** Tokens generated inside the current quantum. */
    TokenCount quantumTokens = 0;
    /** Full quanta consumed (the RR priority key; more = lower prio). */
    int quantaConsumed = 0;

    /** Reset quantum accounting (PASCAL does this when a request
     *  changes queues at the phase boundary). */
    void resetQuantum();

    /** @name SLO-class state (owned by the Cluster's class layer)
     *
     * All fields stay at their zero defaults while the class
     * subsystem is disabled, so every comparator that reads
     * schedClassRank falls through to the policy's own key and runs
     * are byte-identical to a classless build.
     */
    /** @{ */

    /** Scheduler class rank: sloClassIndex(spec().sloClass) when
     *  classes are enabled, kBestEffortClassRank after a
     *  demote-on-expiry, 0 otherwise. Lower runs earlier; the FIRST
     *  comparison of every shipped policy order. */
    std::uint8_t schedClassRank = 0;

    /** The armed relative deadline fired before completion. */
    bool deadlineExpired = false;

    /** Demoted to best-effort after a deadline expiry: scheduled
     *  behind every real class and scored against Batch targets. */
    bool bestEffort = false;

    /** Pending deadline event on the cluster's simulator
     *  (sim::kNoEvent when none armed). */
    std::uint64_t deadlineEventId = 0;

    /** @} */

    /** @name Intrusive scheduler/engine bookkeeping
     *
     * Owned by the hosting core::IntraScheduler (sched*) and
     * cluster::Instance (slo*, kvSlot); not part of the workload
     * semantics. Keeping these fields inside the request makes the
     * incremental scheduling structures allocation-free and O(1) to
     * update: the queues store raw pointers and find a request's
     * membership, dirtiness, and cached ordering key without any
     * side-table lookup.
     */
    /** @{ */

    /** Index in the scheduler's hosted vector (O(1) removal). */
    std::size_t schedHostedPos = 0;

    /** Intrusive insertion-order hosted list (O(1) unlink). The
     *  hosted vector uses swap-pop removal, so consumers that need
     *  the original arrival order — the snapshot's floating-point
     *  prediction sum, whose result depends on summation order —
     *  walk this list instead. */
    Request* schedPrevHosted = nullptr;
    Request* schedNextHosted = nullptr;

    /** Cached predictor rank score used as the ordering key by
     *  SRPT/PASCAL-Spec; refreshed whenever the request is re-keyed
     *  so comparisons never call the predictor. */
    double schedScore = 0.0;

    /** Length-predictor memo: the feature bucket a
     *  predict::PairwiseRankPredictor resolved for this request, and
     *  that predictor's serial (0 = none), so a prediction looks its
     *  bucket up once per request instead of once per call. Mutable:
     *  predictions take the request by const reference. */
    mutable void* predictBucket = nullptr;
    mutable std::uint64_t predictOwner = 0;

    /** quantaConsumed at the last scheduler sync (change detector). */
    int schedCachedQuanta = 0;

    /** Which scheduler queue holds the request (0 = none). */
    std::uint8_t schedQueueTag = 0;

    /** Awaiting re-insertion into its queue (key changed). */
    bool schedDirtyPending = false;

    /** Counted in the scheduler's maintained r_i counter. */
    bool schedCountedReasoning = false;

    /** Counted in the scheduler's maintained a_i counter. */
    bool schedCountedFreshAns = false;

    /** Queued for a demotion-rule re-check (KV or prediction moved). */
    bool schedDemotionPending = false;

    /** Skip-list node of the OrderedQueue currently holding the
     *  request (owned by that queue; null when unlinked or pending).
     *  Lets erase/markDirty unlink in O(log n) without a search. */
    void* schedNode = nullptr;

    /** @name Scheduler resident-set tracking
     *
     * Intrusive membership in the hosting scheduler's material set
     * (GPU-resident or swapped), kept in sync by the engine's
     * residency notifications (incremental mode's dirty-set
     * contract). In incremental mode it also picks the sublist of
     * the request's policy queue: the material sublists, high queue
     * first, are the residents in eviction priority order, so the
     * greedy walk's settle pass visits the unreached residents
     * pre-sorted without walking the admission backlog.
     */
    /** @{ */
    bool schedInResidentList = false;

    /** Plan-repair journal state for the active plan lineage
     *  (core::IntraScheduler repair ops; 0 = not journaled). */
    std::uint8_t schedRepairState = 0;

    /** Transient mark used by the plan repair's splice-and-merge to
     *  drop patched members from the surviving decode batch. */
    bool schedRepairSplice = false;

    /** Queued-prewarm membership in the scheduler's waitingPrewarm
     *  counter (startInAnswering arrivals bypass prefill caps, so the
     *  walk may only stop early when none remain). */
    bool schedCountedPrewarm = false;

    /** Membership in the scheduler's exact waiting-prompt multiset
     *  (requests with equal prompts are indistinguishable there, so
     *  the flag guards against double erases). */
    bool schedCountedWaiting = false;

    /** Last greedy walk (scheduler-local epoch) that visited this
     *  request as a GPU resident; unvisited residents are exactly
     *  the ones the walk's early exit still owes a keep/evict
     *  decision. */
    std::uint64_t schedPlanStamp = 0;
    /** @} */

    /**
     * Intrusive min-deadline heap slot on the hosting Instance's SLO
     * heap (-1 = not at risk / not answering). The heap tracks, per
     * answering request, the earliest time its TPOT/TTFAT verdict
     * could flip, so the monitor's answeringSloOk is a heap peek
     * instead of an O(hosted) walk.
     */
    std::int32_t sloHeapPos = -1;

    /** SLO-heap key (valid while sloHeapPos >= 0): a lower bound on
     *  the earliest time the request's verdict could flip. Set
     *  exactly at membership changes and formula switches and raised
     *  when it comes due (see Instance::answeringSloOk); steady
     *  emissions leave it behind the exact bound. */
    double sloKey = 0.0;

    /** Index of the owning RequestArena chunk inside the Cluster's
     *  arena (-1 outside a cluster run); drives chunk recycling. */
    std::int32_t arenaChunk = -1;

    /** Compact KV-pool slot on the hosting instance's KvPool
     *  (model::KvPool hands it out on alloc); -1 when no KV is
     *  tracked. Keeping the handle here makes every per-token pool
     *  call a direct array index and lets the pool's table be sized
     *  by *live* requests instead of the largest RequestId ever
     *  hosted. */
    std::int32_t kvSlot = -1;

    /** @} */

    /** @name Accounting */
    /** @{ */

    /**
     * Accrue wall time since the last accrual into the bucket @p kind
     * of the *current* phase. Call before mutating token progress so
     * the interval lands in the phase it was spent in. Inline: runs
     * once per batch member per iteration.
     */
    void
    accrue(Time now, BucketKind kind)
    {
        double dt = now - lastAccount;
        lastAccount = now;
        if (dt <= 0.0)
            return;
        PhaseBuckets& b = (phase() == Phase::Reasoning)
                              ? reasoningBuckets
                              : answeringBuckets;
        switch (kind) {
          case BucketKind::Executed:
            b.executed += dt;
            break;
          case BucketKind::Blocked:
            b.blocked += dt;
            break;
          case BucketKind::Preempted:
            b.preempted += dt;
            break;
        }
    }

    /** Reset the accrual cursor without booking time (on arrival or
     *  when landing on a new instance), stamping the standing bucket
     *  the request accrues into until the next stampAccrual(). */
    void
    resetAccrual(Time now, BucketKind kind = BucketKind::Blocked)
    {
        lastAccount = now;
        accrualKind = kind;
    }

    /**
     * Lazy-accrual stamp: which bucket the request is currently
     * accruing into. Instead of booking every iteration's wall time
     * for every hosted request (the old O(hosted) accrueAll walk),
     * the engine restamps a request only when its standing bucket
     * changes (batch entry/exit, admit, swap, detach, migration) and
     * the elapsed interval is settled in one addition at the next
     * observation point (emission, detach, finish, scoring). The
     * SchedLimits::forceAccrue debug mode keeps the eager per-iteration
     * walk as a verification pass that panics on any stale stamp.
     */
    BucketKind accrualKind = BucketKind::Blocked;

    /** Settle the interval since the last settlement into the stamped
     *  bucket of the current phase. */
    void settleAccrual(Time now) { accrue(now, accrualKind); }

    /** Settle under the old stamp, then switch the standing bucket
     *  to @p kind. */
    void
    stampAccrual(Time now, BucketKind kind)
    {
        accrue(now, accrualKind);
        accrualKind = kind;
    }

    PhaseBuckets reasoningBuckets;
    PhaseBuckets answeringBuckets;

    /** @} */

    /** @name Timestamps (negative = not yet happened) */
    /** @{ */

    Time firstScheduled = -1.0;  //!< First time any work ran for it.
    Time prefillEnd = -1.0;
    Time reasoningEnd = -1.0;    //!< </think> observed.
    Time firstAnswer = -1.0;     //!< First answering token: TTFT ref.
    Time finish = -1.0;
    Time firstAnswerScheduled = -1.0; //!< First answering-phase decode
                                      //!< step start (Fig. 13 blocking
                                      //!< latency reference).

    /** Emission time of each answering token (pacer/QoE input). */
    std::vector<Time> answerEmitTimes;

    int migrationCount = 0;
    /** Per-migration end-to-end KV transfer latency (Sec. V-C). */
    std::vector<double> kvTransferLatencies;

    /** @} */

  private:
    RequestSpec specData;
    TokenCount generatedTokens = 0;
    Time lastAccount = 0.0;

};

} // namespace workload
} // namespace pascal

#endif // PASCAL_WORKLOAD_REQUEST_HH
