/**
 * @file
 * One serving instance: the continuous-batching execution engine that
 * turns scheduler IterationPlans into simulated iterations.
 *
 * An instance owns a model replica (represented by the shared
 * PerfModel), a KV pool, a PCIe host link for swap traffic, and an
 * intra-instance scheduler. At every iteration boundary it asks the
 * scheduler for a plan, applies the swaps (PCIe latency), then runs
 * either one prefill pass or one decode step and reports emissions,
 * phase transitions, and completions to the cluster.
 */

#ifndef PASCAL_CLUSTER_INSTANCE_HH
#define PASCAL_CLUSTER_INSTANCE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/cluster_view.hh"
#include "src/core/intra_scheduler.hh"
#include "src/model/kv_pool.hh"
#include "src/model/link.hh"
#include "src/model/perf_model.hh"
#include "src/obs/stat_registry.hh"
#include "src/obs/trace_sink.hh"
#include "src/predict/predictor.hh"
#include "src/qoe/slo.hh"
#include "src/sim/simulator.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace cluster
{

/** Cluster-side hooks invoked at iteration completion. */
struct InstanceCallbacks
{
    /** The request just emitted its final reasoning token; the
     *  instance-level scheduler decides where it answers. */
    std::function<void(workload::Request*, InstanceId)> onPhaseTransition;

    /** The request generated all its tokens and released its KV. */
    std::function<void(workload::Request*, InstanceId)> onFinished;

    /**
     * A hosted request whose deadline expired mid-step reached the
     * safe enforcement point (the iteration boundary): the cluster's
     * deadline policy (fail or demote) runs now. May be empty (the
     * deferred expiry is then dropped; standalone instances).
     */
    std::function<void(workload::Request*, InstanceId)> onDeadlineExpired;
};

/** Continuous-batching serving instance. */
class Instance
{
  public:
    /**
     * @param id Cluster-unique instance id.
     * @param sim Shared simulator (must outlive the instance).
     * @param perf Shared performance model.
     * @param sched Intra-instance scheduling policy (owned).
     * @param kv_capacity_tokens GPU KV capacity in tokens.
     * @param slo SLO targets for the t_i monitor condition.
     * @param callbacks Cluster hooks.
     * @param kv_block_size_tokens Paged-KV block size (>= 1).
     */
    Instance(InstanceId id, sim::Simulator& sim,
             const model::PerfModel& perf,
             std::unique_ptr<core::IntraScheduler> sched,
             TokenCount kv_capacity_tokens, const qoe::SloConfig& slo,
             InstanceCallbacks callbacks,
             TokenCount kv_block_size_tokens = 1);

    InstanceId id() const { return instanceId; }

    /** Route a newly arrived request here (no KV yet). */
    void
    addRequest(workload::Request* req)
    {
        addRequests(&req, 1);
    }

    /**
     * Burst admission: route @p n same-timestamp arrivals here with a
     * single snapshot invalidation and a single kick() — one plan
     * boundary for the whole burst instead of one per member.
     */
    void addRequests(workload::Request* const* reqs, std::size_t n);

    /**
     * Admission of one member of a same-timestamp arrival burst whose
     * remaining members are still being placed: admits now, and
     * defers the plan boundary to a same-timestamp event so every
     * burst member (on this instance) shares ONE plan build. The
     * kickPending flag dedupes the boundary;
     * SchedLimits::forcePerArrivalKick skips the dedup so every
     * member schedules its own boundary (byte-identical results: a
     * redundant boundary either finds a step in flight or rebuilds
     * the same idle plan). The Cluster drains same-timestamp arrival
     * runs through this.
     */
    void addRequestCoalesced(workload::Request* req);

    /** A migrated request's KV just landed over the fabric. */
    void landMigration(workload::Request* req);

    /** Remove a request that migrates away; releases its KV. */
    void detach(workload::Request* req);

    /** @name Fault layer (driven by the Cluster's failover path) */
    /** @{ */

    /** Instance is up (serving). */
    bool isUp() const { return up; }

    /** Instance is draining toward a planned decommission. */
    bool isDraining() const { return draining; }

    /**
     * Take the instance down. Every hosted request that holds GPU KV
     * (or no KV yet) is detached and appended to @p orphans for the
     * cluster's failover re-placement; when @p preserve_cpu_kv is set,
     * CPU-offloaded requests keep their host-DRAM KV and stay hosted,
     * resuming after recover(). The in-flight iteration (if any) is
     * abandoned: its completion event is invalidated by a generation
     * bump, and the partial step's wall time stays booked as executed
     * (the GPU really did spend it).
     */
    void crash(bool preserve_cpu_kv,
               std::vector<workload::Request*>& orphans);

    /** Rejoin the fleet after MTTR; resumes any preserved work. */
    void recover();

    /** Enter/leave the draining state (placement routes away; the
     *  engine keeps executing until the drain deadline). */
    void setDraining(bool on);

    /** Straggler window: multiply every iteration's latency by
     *  @p scale (1.0 restores full speed). Reads no member state, so a
     *  lazy stretch runs on across it. */
    void setPerfScale(double scale);

    /** @} */

    /**
     * A hosted request crossed the reasoning->answering boundary and
     * the placement decision keeps it here: requeue it into the
     * scheduler's answering-phase machinery. Routed through the
     * instance (not the scheduler directly) because the requeue
     * mutates monitor-visible state (the quantum reset makes the
     * request "fresh" again) after the decision's view refresh.
     */
    void
    stayHomeTransition(workload::Request* req)
    {
        sched->onPhaseTransition(req);
        markViewDirty();
    }

    /** Ensure an iteration is scheduled if there is runnable work. */
    void kick();

    /** A step is executing right now. Deadline enforcement must not
     *  detach batch members mid-step; the cluster checks this and
     *  defers through noteDeadlineExpired(). */
    bool hasStepInFlight() const { return stepInFlight; }

    /** @name SLO classes (ROADMAP item 4) */
    /** @{ */

    /**
     * Wire the cluster's SLO-class config (copied; call before any
     * request is added). With the default disabled config every
     * per-class path collapses to the global SloConfig targets.
     */
    void setSloClassConfig(const qoe::SloClassConfig& c)
    {
        classCfg = c;
    }

    /**
     * Demote a hosted request to best-effort after a deadline expiry:
     * re-rank it behind every real class (remove/re-add re-seeds the
     * scheduler queues) and re-key its SLO-heap entry against Batch
     * targets. Only valid at a safe boundary (no step in flight).
     */
    void demoteBestEffort(workload::Request* req);

    /**
     * A hosted request's deadline fired while a step is in flight:
     * record it for enforcement at the iteration boundary, where
     * detaching cannot corrupt the executing batch. The boundary
     * re-checks liveness/residency and then invokes
     * callbacks.onDeadlineExpired.
     */
    void noteDeadlineExpired(workload::Request* req);

    /** @} */

    /**
     * Paper t_i: all answering requests are keeping the user's
     * expected pace (token pacer not starved). The SLO heap's keys
     * are lower bounds on each request's flip time, so a top key
     * still ahead of @p now answers in O(1). Otherwise the lazy batch
     * catches up (the exact check reads token progress), every due
     * request (key <= now) is checked exactly until one fails, and
     * each due key visited is then raised to its exact value.
     *
     * @param slo_risk_at Optional out-param: earliest time a *true*
     *        verdict could flip to false with no further state change
     *        on this instance (kTimeInfinity when it cannot, e.g. no
     *        live answering requests or already false — false is
     *        sticky until an instance event). Conservative by at
     *        least one tpot so floating-point rounding can never make
     *        a cached verdict disagree with a fresh recomputation.
     */
    bool answeringSloOk(Time now, Time* slo_risk_at = nullptr);

    /** Monitor snapshot for the placement algorithms. @p slo_risk_at
     *  as in answeringSloOk(). The predicted-footprint walk reads
     *  every hosted request's progress, so it catches up first. */
    core::InstanceSnapshot snapshot(Time now,
                                    Time* slo_risk_at = nullptr);

    /**
     * Settle the lazy stretch: replay every logged step onto each
     * batch member (Request::catchUpSteps) and settle its KV slot, so
     * member state is exactly what eager steps would have left. A lazy
     * step in flight gets its start applied and completes eagerly.
     * Every reader of member state calls this first; harnesses call
     * it (through Cluster::catchUp) before inspecting requests.
     */
    void catchUp();

    /**
     * Wire the cluster's incremental-view dirty marking: whenever an
     * event can change this instance's snapshot (admission, landing,
     * detach, plan application, iteration completion), the instance
     * sets its flag and enqueues its id once. Both pointers must stay
     * valid for the instance's lifetime; @p list must never reallocate
     * (the cluster reserves one slot per instance and the flag
     * dedupes). nullptr disables marking (standalone instances).
     */
    void
    setViewDirtyHook(std::uint8_t* flag, std::vector<InstanceId>* list)
    {
        dirtyFlag = flag;
        dirtyList = list;
    }

    /**
     * Wire the cluster's shared length predictor (not owned; may be
     * nullptr). Forwards to the intra-instance scheduler.
     *
     * @param predictive_snapshots Also fill the snapshot's
     *        predicted-KV-footprint signal — O(hosted) predictor
     *        calls per snapshot, so the Cluster enables it only when
     *        the placement policy actually routes on it.
     */
    void setPredictor(const predict::LengthPredictor* p,
                      bool predictive_snapshots)
    {
        predictor = predictive_snapshots ? p : nullptr;
        sched->setPredictor(p);
    }

    const model::KvPool& pool() const { return kvPool; }
    core::IntraScheduler& scheduler() { return *sched; }
    const core::IntraScheduler& scheduler() const { return *sched; }
    model::Link& pcieLink() { return pcie; }

    /** @name Engine statistics */
    /** @{ */
    std::uint64_t numIterations() const { return iterations; }
    std::uint64_t numDecodeTokens() const { return decodeTokens; }
    std::uint64_t numPrefills() const { return prefills; }
    std::uint64_t numSwapOuts() const { return swapOuts; }
    std::uint64_t numSwapIns() const { return swapIns; }
    /** Iterations that ran the previous IterationPlan verbatim via
     *  the scheduler's steady-state fast path. */
    std::uint64_t numPlanReuses() const { return planReuses; }
    /** Full scheduler plan builds (non-reused boundaries, including
     *  boundaries whose plan came back idle). The burst-coalescing
     *  engagement gate checks this stays below the arrival count.
     *  Repaired boundaries count here too (a repair is still a
     *  non-reused boundary); numFullWalks() isolates the walks. */
    std::uint64_t numPlanBuilds() const { return planBuilds; }
    /** Non-reused boundaries satisfied by patching the previous plan
     *  by its dirty set (IntraScheduler::patchPlan's repair rung)
     *  instead of a full material walk. Subset of numPlanBuilds(). */
    std::uint64_t numPlanRepairs() const { return planRepairs; }
    /** Non-reused boundaries that fell through to the O(material)
     *  buildPlan walk: numPlanBuilds() - numPlanRepairs(). */
    std::uint64_t numFullWalks() const { return planBuilds - planRepairs; }
    /** Exact SLO-heap key (re)computations: inserts, formula
     *  switches (first answering token, demotion) and due keys that
     *  answeringSloOk raised. Steady emissions re-key nothing. */
    std::uint64_t numSloHeapRekeys() const { return sloRekeys; }
    /** Steps that ran lazily: logged instead of walking the batch. */
    std::uint64_t numLazySteps() const { return lazySteps; }
    /** Catch-ups that settled a lazy stretch. */
    std::uint64_t numCatchUps() const { return catchups; }
    /** Lazy steps (logged or in flight) the batch has not replayed:
     *  non-zero exactly while a stretch is open. */
    std::size_t
    numPendingSteps() const
    {
        return stepLog.size() + (lazyInFlight ? 1 : 0);
    }
    /** Non-reused boundaries whose lastDecline() was @p d. */
    std::uint64_t
    numPlanDeclines(core::PlanDecline d) const
    {
        return declines[static_cast<std::size_t>(d)];
    }
    /** @} */

    /**
     * Wire the cluster's trace sink (not owned; nullptr disables).
     * Recording is observation-only: it never touches scheduler or
     * engine state, so traced and untraced runs are byte-identical.
     */
    void setTraceSink(obs::TraceSink* sink) { trace = sink; }

    /**
     * Register this instance's counters/gauges on @p reg under
     * @p prefix (e.g. "instance.3"): engine counters, plan fast-path
     * counters, SLO-heap rekeys, KV pool gauges, and the decode
     * batch-size distribution.
     * Registration is non-owning pointers/functors — the hot path
     * keeps its bare member increments.
     */
    void registerStats(obs::StatRegistry& reg,
                       const std::string& prefix);

    /**
     * Debug hook (cluster view audits): recompute every hosted
     * request's SLO-heap membership from scratch, check every stored
     * key is a lower bound on its exact flip key and the heap order
     * holds, and panic on any divergence; then cross-check the
     * heap-based answeringSloOk verdict against the reference
     * O(hosted) walk at @p now (same verdict, heap risk no later than
     * the walk's).
     */
    void verifySloHeap(Time now);

  private:
    void startIteration();
    void completeIteration(Time step_start);

    /**
     * Run the reused lineage plan as a lazy step starting at @p t0, if
     * it is inside the stretch's event bound. O(1) except when it
     * opens a stretch (O(batch) bounds). Schedules the completion and
     * returns true; false means run the step eagerly.
     */
    bool startLazyStep(Time t0);

    /** Completion of a lazy step: log it and do the O(1) aggregate
     *  work (decode counter). */
    void completeLazyStep(Time step_start);

    /** Shared admission body (exec/home/accrual/scheduler/SLO heap). */
    void admit(workload::Request* req);

    /** Mark this instance's cluster-view snapshot stale (no-op when
     *  no hook is wired). */
    void
    markViewDirty()
    {
        if (dirtyFlag != nullptr && *dirtyFlag == 0) {
            *dirtyFlag = 1;
            dirtyList->push_back(instanceId);
        }
    }

    /**
     * SchedLimits::forceAccrue debug walk: recompute every hosted
     * request's standing accrual bucket the way the old eager
     * accrueAll derived it and panic if the lazily maintained stamp
     * disagrees. Settlement itself stays lazy in both modes (shared
     * arithmetic => byte-identical RunResults); this walk proves the
     * restamp points catch every bucket change.
     *
     * @param prefill_iteration True if the iteration ran prefills:
     *        residents pausing for a prefill pass are normal
     *        continuous-batching pipeline overhead (booked as
     *        executed), whereas residents excluded from a decode batch
     *        were preempted by the scheduling policy.
     */
    void verifyAccrualStamps(bool prefill_iteration) const;

    InstanceId instanceId;
    sim::Simulator& sim;
    const model::PerfModel& perf;
    std::unique_ptr<core::IntraScheduler> sched;
    model::KvPool kvPool;
    qoe::SloConfig slo;

    /** Per-class SLO targets (disabled by default: every per-request
     *  target collapses to the global SloConfig). */
    qoe::SloClassConfig classCfg;

    InstanceCallbacks callbacks;
    model::Link pcie;
    const predict::LengthPredictor* predictor = nullptr;

    /** Cluster-owned incremental-view dirty marking (may be null). */
    std::uint8_t* dirtyFlag = nullptr;
    std::vector<InstanceId>* dirtyList = nullptr;

    /** SchedLimits::forceAccrue: run the eager
     *  stamp-verification walk every iteration. */
    bool verifyAccrual = false;

    /** SchedLimits::forcePerArrivalKick: schedule
     *  a plan-boundary event per kick() instead of deduplicating. */
    bool forceKick = false;

    /** SchedLimits::forceStep: every step walks its batch eagerly. */
    bool forceStep = false;

    bool stepInFlight = false;

    /** Fault layer: false while crashed/drained-out (the engine idles
     *  and placement routes away). */
    bool up = true;

    /** Fault layer: planned decommission in its grace window. */
    bool draining = false;

    /** Fault layer: straggler latency multiplier (1.0 = full speed;
     *  multiplying by 1.0 is an exact IEEE no-op, so fault-off runs
     *  are byte-identical). */
    double perfScale = 1.0;

    /** Bumped by crash() so the abandoned step's completion event
     *  (which carries the generation it was scheduled under) becomes
     *  a no-op instead of completing into post-crash state. */
    std::uint64_t crashGen = 0;

    /** crash() scratch: hosted-set copy walked while detach mutates
     *  the live set. */
    std::vector<workload::Request*> scratchHosted;

    /** A deferred plan-boundary event is already scheduled at the
     *  current timestamp (coalesced mode only). */
    bool kickPending = false;

    /** Plan of the iteration currently executing. Held here (not in
     *  the continuation closure) so the per-iteration event callback
     *  stays small enough for EventCallback's inline storage — the
     *  steady-state event loop then never heap-allocates. In the
     *  decode-only steady state the scheduler's patchPlan() lets the
     *  next iteration run this plan verbatim, so the buffers are
     *  never even rebuilt. */
    core::IterationPlan inflight;

    std::uint64_t iterations = 0;
    std::uint64_t decodeTokens = 0;
    std::uint64_t prefills = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t planReuses = 0;
    std::uint64_t planBuilds = 0;
    std::uint64_t planRepairs = 0;
    /** Cluster-owned trace sink (may be null — the common case). */
    obs::TraceSink* trace = nullptr;

    /** Registry-owned decode batch-size distribution (null until
     *  registerStats wires it). */
    stats::Summary* batchDist = nullptr;

    /** @name Min-deadline SLO heap (see answeringSloOk)
     *
     * Intrusive binary min-heap over the hosted answering requests,
     * keyed by a lower bound on the earliest time each one's
     * TPOT/TTFAT verdict could flip (Request::sloKey; position in
     * Request::sloHeapPos). The paper's t_i monitor check then peeks
     * the heap top in O(1) instead of walking every hosted request on
     * each dirty snapshot refresh. A pacing request's exact key only
     * grows with its token progress, so a key set once stays a lower
     * bound: keys are set exactly at insertion (admission, landing,
     * transition) and formula switches (first answering token,
     * demotion) and raised when they come due, never per emitted
     * token; finish and detach remove.
     */
    /** @{ */

    /** Effective per-request TPOT target: the class's (Batch's for
     *  best-effort) when classes are on, the global otherwise. */
    Time tpotOf(const workload::Request* r) const;

    /** Effective per-request TTFAT target (same selection rule). */
    Time ttfatOf(const workload::Request* r) const;

    /** Exact conservative flip-time key for an answering request
     *  (formula shared with the reference walk); Request::sloKey
     *  never exceeds it. */
    double sloKeyOf(const workload::Request* r) const;

    /** Exact verdict for one request at @p now (shared with the
     *  reference walk). */
    bool sloViolated(const workload::Request* r, Time now) const;

    /** Membership fixup, setting the key exactly (sloKeyOf). */
    void sloHeapFix(workload::Request* r);

    void sloHeapErase(workload::Request* r);
    void sloHeapSiftUp(std::size_t i);
    void sloHeapSiftDown(std::size_t i);

    /** DFS over the heap's {key <= now} rooted subtree, exactly
     *  re-checking each due request until one fails; records every
     *  visited request in sloDue for answeringSloOk to re-key. */
    bool sloAtRiskViolated(std::size_t i, Time now);

    /** Reference O(hosted) implementation of answeringSloOk (kept
     *  for audits and tests; shares sloKeyOf/sloViolated). */
    bool answeringSloOkScan(Time now, Time* slo_risk_at) const;

    std::vector<workload::Request*> sloHeap;

    /** Due requests the last DFS visited (re-keyed after the walk,
     *  which must not move heap entries under it). */
    std::vector<workload::Request*> sloDue;

    std::uint64_t sloRekeys = 0;

    /** @} */

    /** Run the deferred-deadline list through the cluster's policy at
     *  the iteration boundary (completeIteration, after the step's
     *  effects settle and stepInFlight clears). */
    void drainDeadlineDeferred();

    /** Hosted requests whose deadline fired mid-step, awaiting the
     *  boundary (cleared by crash(): orphans re-enter through the
     *  retry guards instead). */
    std::vector<workload::Request*> deadlineDeferred;

    /** True while drainDeadlineDeferred() walks the parked list.
     *  Suppresses kick(): a step started mid-drain would force the
     *  remaining entries to re-park into the vector being walked
     *  (unbounded growth); completeIteration() starts the next
     *  iteration itself once every expiry has settled. */
    bool drainingDeadlines = false;

    std::uint64_t lazySteps = 0;
    std::uint64_t catchups = 0;

    /** Non-reused boundaries per PlanDecline reason. */
    std::vector<std::uint64_t> declines;

    /** @name Lazy steady decode (see catchUp())
     *
     * While the lineage plan reruns verbatim, a stretch of steps that
     * cross no member event runs without touching the batch: each step
     * charges the blocks its batch opens (from the lineage histogram),
     * bumps the counters, and appends its (start, end) to the step
     * log. Members replay the log at the next catch-up. Their SLO-heap
     * keys stay put: a stretch crosses no formula switch, so each
     * stays a lower bound.
     */
    /** @{ */

    /** The stretch's batch (the lineage decode batch its logged steps
     *  ran); empty when no stretch is open. */
    std::vector<workload::Request*> lazyBatch;

    /** Completed lazy steps the batch has not replayed yet. */
    std::vector<workload::StepSpan> stepLog;

    /** Step-log capacity reserved at construction: covers typical
     *  stretches without a mid-run reallocation. */
    static constexpr std::size_t kStepLogReserve = 256;

    /** Lazy steps the stretch may still take before a member's next
     *  execution crosses an event (IntraScheduler::steadySteps). */
    TokenCount lazyLeft = 0;

    /** The batch's summed kvTokens() at the next lazy step's start:
     *  every step grows it by exactly the batch size. */
    TokenCount lazyBatchKv = 0;

    /** GPU growth the stretch charged; the slots' settled growth must
     *  add up to it at the catch-up. */
    TokenCount lazyCharged = 0;

    /** The in-flight step is lazy (its start not yet applied to the
     *  batch). */
    bool lazyInFlight = false;
    Time lazyStart = 0.0;

    /** @} */
};

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_INSTANCE_HH
