#include "src/cluster/instance.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/log.hh"

namespace pascal
{
namespace cluster
{

using workload::BucketKind;
using workload::ExecState;
using workload::Phase;
using workload::Request;

namespace
{

/** Double-allocation guard (the slot-keyed pool cannot detect it
 *  itself): a request must not already hold KV when the engine
 *  allocates for it. */
void
checkNoKv(const Request* r)
{
    if (r->kvSlot != model::kNoKvSlot) {
        panic("request " + std::to_string(r->id()) +
              " already holds KV slot " + std::to_string(r->kvSlot) +
              " (double allocation)");
    }
}

} // namespace

Instance::Instance(InstanceId id, sim::Simulator& sim,
                   const model::PerfModel& perf,
                   std::unique_ptr<core::IntraScheduler> sched,
                   TokenCount kv_capacity_tokens,
                   const qoe::SloConfig& slo, InstanceCallbacks callbacks,
                   TokenCount kv_block_size_tokens)
    : instanceId(id),
      sim(sim),
      perf(perf),
      sched(std::move(sched)),
      kvPool(kv_capacity_tokens, kv_block_size_tokens),
      slo(slo),
      callbacks(std::move(callbacks)),
      pcie(sim, perf.hardwareConfig().effPcieBandwidth(),
           "pcie-" + std::to_string(id))
{
    if (this->sched == nullptr)
        panic("Instance needs a scheduler");
    this->sched->setInstanceId(id);
    // Incremental queue maintenance + the steady-state plan-reuse
    // fast path. enableIncremental() itself backs off when the
    // force-resort debug mode (SchedLimits::forceResort) asks for
    // recompute-from-scratch.
    this->sched->enableIncremental();
    // Accrual debug mode: keep the eager O(hosted) walk as a
    // per-iteration stamp verification.
    verifyAccrual = this->sched->schedLimits().forceAccrue;
    // Per-arrival plan boundaries: verification mode for burst
    // coalescing.
    forceKick = this->sched->schedLimits().forcePerArrivalKick;
    forceStep = this->sched->schedLimits().forceStep;
    declines.assign(core::numPlanDeclineNames(), 0);
    // Size the lazy-stretch buffers up front so opening a stretch or
    // logging a step allocates nothing mid-run (a batch never exceeds
    // maxBatchSize; a longer stretch grows the log, which keeps its
    // capacity).
    lazyBatch.reserve(
        static_cast<std::size_t>(this->sched->schedLimits().maxBatchSize));
    stepLog.reserve(kStepLogReserve);
}

void
Instance::admit(Request* req)
{
    // A failover re-admission arrives InTransit with a live accrual
    // cursor (the crash/retry wait since detach); settle it before
    // switching to Blocked so the backoff interval stays booked.
    // Fresh arrivals just reset the cursor.
    if (req->exec == ExecState::InTransit)
        req->stampAccrual(sim.now(), BucketKind::Blocked);
    else
        req->resetAccrual(sim.now(), BucketKind::Blocked);
    req->exec = ExecState::WaitingNew;
    req->home = instanceId;
    req->kvSlot = model::kNoKvSlot;
    sched->add(req);
    // startInAnswering arrivals begin their TTFAT countdown the
    // moment they are admitted.
    sloHeapFix(req);
    if (trace != nullptr) {
        trace->instant(obs::TraceCat::Admission, obs::TraceName::Admit,
                       instanceId, sim.now(), obs::TraceArg::Request,
                       static_cast<std::int64_t>(req->id()));
    }
}

void
Instance::addRequests(Request* const* reqs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        admit(reqs[i]);
    markViewDirty();
    kick();
}

void
Instance::addRequestCoalesced(Request* req)
{
    admit(req);
    markViewDirty();
    // Defer the plan boundary through the event queue: same-timestamp
    // events fire FIFO, so every member of the arrival burst is
    // admitted (and placed) before the single coalesced plan build
    // runs. In forcePerArrivalKick mode the dedup is skipped and every
    // member schedules its own (redundant) boundary — the per-arrival
    // cost model the byte-identity tests verify against.
    if (stepInFlight)
        return;
    if (!forceKick) {
        if (kickPending)
            return; // Boundary already scheduled at this timestamp.
        kickPending = true;
    }
    sim.at(sim.now(), [this] {
        kickPending = false;
        if (!stepInFlight)
            startIteration();
    });
}

void
Instance::landMigration(Request* req)
{
    // The in-transit interval counts as answering-phase preemption
    // (the stamp was set by detach on the source instance).
    req->settleAccrual(sim.now());
    req->home = instanceId;
    checkNoKv(req);
    if (kvPool.canAllocGpu(req->kvTokens())) {
        req->kvSlot = kvPool.allocGpu(req->id(), req->kvTokens());
        req->exec = ExecState::ResidentGpu;
        // Until the next plan boundary the request sits out whatever
        // step is already executing: pipeline overhead if that step
        // is a prefill pass, preemption otherwise (the same rule the
        // eager walk applies to residents outside the batch).
        req->accrualKind = stepInFlight && inflight.isPrefillIteration()
                               ? BucketKind::Executed
                               : BucketKind::Preempted;
    } else {
        req->kvSlot = kvPool.allocCpu(req->id(), req->kvTokens());
        req->exec = ExecState::SwappedCpu;
        req->accrualKind = BucketKind::Preempted;
    }
    sched->add(req);
    sloHeapFix(req);
    markViewDirty();
    kick();
}

void
Instance::detach(Request* req)
{
    if (req->home != instanceId)
        panic("detach: request " + std::to_string(req->id()) +
              " not homed here");
    catchUp();
    // Settle up to the detach point, then stamp the transit interval
    // as preemption (it lands in the answering phase: detach happens
    // at the observed </think> emission).
    req->stampAccrual(sim.now(), BucketKind::Preempted);
    if (req->kvSlot != model::kNoKvSlot) {
        kvPool.release(req->kvSlot);
        req->kvSlot = model::kNoKvSlot;
    }
    sched->remove(req);
    sloHeapErase(req);
    req->exec = ExecState::InTransit;
    markViewDirty();
}

void
Instance::demoteBestEffort(Request* req)
{
    if (req->home != instanceId)
        panic("demoteBestEffort: request " + std::to_string(req->id()) +
              " not homed here");
    catchUp();
    // Re-key through the scheduler's remove/add path: the class rank
    // is the leading comparator level in every policy's order, so the
    // queues must observe it as a key change. add() re-links material
    // (KV-holding) requests via noteResidency, the same path a
    // migration landing takes.
    sched->remove(req);
    req->bestEffort = true;
    req->schedClassRank = workload::kBestEffortClassRank;
    sched->add(req);
    // The pacing targets just relaxed to the Batch class's: the SLO
    // monitor key must move with them.
    sloHeapFix(req);
    markViewDirty();
}

void
Instance::noteDeadlineExpired(Request* req)
{
    // Deadline events that fire while a step is executing must not
    // mutate the in-flight plan's membership (completeIteration still
    // walks its vectors); park the request until the iteration
    // boundary and let the cluster's policy run there.
    deadlineDeferred.push_back(req);
}

void
Instance::drainDeadlineDeferred()
{
    // The cluster's handler kicks after each enforcement; a step
    // started mid-drain would make the hosted-expiry check re-park
    // every later entry into the vector being walked (unbounded
    // growth). Suppress kick() for the drain — completeIteration()
    // starts the next iteration right after, with every expiry
    // settled and the freed KV visible to the plan build.
    drainingDeadlines = true;
    // Index loop: the cluster's handler can re-enter (detach, fail,
    // demote) but never appends here while stepInFlight is false.
    for (std::size_t i = 0; i < deadlineDeferred.size(); ++i) {
        Request* r = deadlineDeferred[i];
        // Re-check liveness: the step that deferred this expiry may
        // have finished the request, or a crash may have orphaned it
        // off this instance in the meantime.
        if (r->finished() || r->exec == ExecState::Done)
            continue;
        if (r->home != instanceId)
            continue;
        if (r->exec != ExecState::WaitingNew &&
            r->exec != ExecState::ResidentGpu &&
            r->exec != ExecState::SwappedCpu) {
            continue;
        }
        if (!r->deadlineExpired)
            continue;
        if (callbacks.onDeadlineExpired)
            callbacks.onDeadlineExpired(r, instanceId);
    }
    deadlineDeferred.clear();
    drainingDeadlines = false;
}

void
Instance::kick()
{
    if (!stepInFlight && !drainingDeadlines)
        startIteration();
}

void
Instance::startIteration()
{
    // A down instance executes nothing; recover() kicks it back on.
    if (!up)
        return;
    // Plan-boundary fast path: rerun the lineage plan verbatim when
    // nothing changed (the dominant decode-only regime), patch it by
    // the journaled delta when the change was small and benign, and
    // fall back to the full walk otherwise. A repair counts as a
    // build too (it is a non-reused boundary — the coalescing gate's
    // builds < arrivals invariant must keep seeing every boundary).
    const core::PlanRung rung = sched->patchPlan(inflight, kvPool);
    switch (rung) {
      case core::PlanRung::Reuse:
        ++planReuses;
        if (trace != nullptr) {
            trace->instant(obs::TraceCat::Plan,
                           obs::TraceName::PlanReuse, instanceId,
                           sim.now());
        }
        break;
      case core::PlanRung::Repair:
        ++planBuilds;
        ++planRepairs;
        ++declines[static_cast<std::size_t>(sched->lastDecline())];
        if (trace != nullptr) {
            // The reason arg answers "why not verbatim reuse".
            trace->instant(obs::TraceCat::Plan,
                           obs::TraceName::PlanRepair, instanceId,
                           sim.now(), obs::TraceArg::Reason,
                           static_cast<std::int64_t>(
                               sched->lastDecline()));
        }
        break;
      case core::PlanRung::Walk:
        catchUp(); // The walk reads every member's KV and keys.
        sched->buildPlan(kvPool, inflight);
        ++planBuilds;
        ++declines[static_cast<std::size_t>(sched->lastDecline())];
        if (trace != nullptr) {
            // The reason arg answers "why not the O(delta) repair".
            trace->instant(obs::TraceCat::Plan,
                           obs::TraceName::PlanFullWalk, instanceId,
                           sim.now(), obs::TraceArg::Reason,
                           static_cast<std::int64_t>(
                               sched->lastDecline()));
        }
        break;
    }
    // Plan construction itself can mutate monitor-visible state
    // (PASCAL applies demotions at the plan boundary), so the
    // snapshot is stale even if the plan comes back idle.
    markViewDirty();
    const core::IterationPlan& plan = inflight;
    if (plan.idle())
        return;

    stepInFlight = true;
    Time t0 = sim.now();
    if (rung == core::PlanRung::Reuse && startLazyStep(t0))
        return;
    // Every eager step (repaired, or a reuse that crosses an event)
    // settles the lazy stretch first.
    catchUp();
    Time swaps_done = t0;

    // Evictions free GPU memory; the KV rides the PCIe link to host
    // DRAM. The iteration's compute cannot start until swap traffic
    // completes.
    for (auto* r : plan.swapOut) {
        r->stampAccrual(t0, BucketKind::Preempted);
        kvPool.moveToCpu(r->kvSlot);
        r->exec = ExecState::SwappedCpu;
        sched->noteResidency(r);
        Time done = pcie.submit(perf.kvBytes(r->kvTokens()), nullptr);
        swaps_done = std::max(swaps_done, done);
        ++swapOuts;
        if (trace != nullptr) {
            trace->instant(obs::TraceCat::Eviction,
                           obs::TraceName::Evict, instanceId, t0,
                           obs::TraceArg::Request,
                           static_cast<std::int64_t>(r->id()));
        }
    }
    for (auto* r : plan.swapIn) {
        r->stampAccrual(t0, BucketKind::Executed);
        kvPool.moveToGpu(r->kvSlot);
        r->exec = ExecState::ResidentGpu;
        sched->noteResidency(r);
        Time done = pcie.submit(perf.kvBytes(r->kvTokens()), nullptr);
        swaps_done = std::max(swaps_done, done);
        ++swapIns;
    }

    // Pre-generated KV (Fig. 5 characterization) appears without
    // prefill cost.
    for (auto* r : plan.prewarm) {
        r->stampAccrual(t0, BucketKind::Executed);
        checkNoKv(r);
        r->kvSlot = kvPool.allocGpu(r->id(), r->spec().promptTokens);
        r->exec = ExecState::ResidentGpu;
        sched->noteResidency(r);
        r->prefillDone = true;
        if (r->firstScheduled < 0.0)
            r->firstScheduled = t0;
    }

    TokenCount prompt_tokens = 0;
    for (auto* r : plan.prefill) {
        r->stampAccrual(t0, BucketKind::Executed);
        // Prompt KV plus the slot for the first reasoning token the
        // prefill pass emits.
        checkNoKv(r);
        r->kvSlot = kvPool.allocGpu(r->id(), r->spec().promptTokens + 1);
        r->exec = ExecState::ResidentGpu;
        sched->noteResidency(r);
        if (r->firstScheduled < 0.0)
            r->firstScheduled = t0;
        prompt_tokens += r->spec().promptTokens;
        ++prefills;
    }

    TokenCount batch_kv = 0;
    for (auto* r : plan.decode) {
        r->stampAccrual(t0, BucketKind::Executed);
        kvPool.growGpu(r->kvSlot, 1);
        batch_kv += r->kvTokens();
        if (r->firstScheduled < 0.0)
            r->firstScheduled = t0;
        if (r->phase() == Phase::Answering &&
            r->firstAnswerScheduled < 0.0) {
            r->firstAnswerScheduled = t0;
        }
    }

    // On a freshly built plan the not-running residents' standing
    // bucket can flip (batch exit, or pipeline overhead when a
    // prefill pass stalls the decode stream); the greedy walk already
    // recorded exactly those requests. Reused and repaired plans hold
    // every material member, so the record is empty and steady-state
    // iterations touch only the batch.
    BucketKind kept_kind = plan.isPrefillIteration()
                               ? BucketKind::Executed
                               : BucketKind::Preempted;
    for (auto* r : sched->keptResidents())
        r->stampAccrual(t0, kept_kind);

    // Scheduler contract: prefill and decode only coexist in chunked
    // mode (the default vLLM-style planner clears decode otherwise).
    Time latency = perf.mixedStepLatency(
        prompt_tokens, static_cast<int>(plan.decode.size()), batch_kv);
    // Straggler windows stretch compute; x1.0 is an exact no-op.
    latency *= perfScale;

    Time step_end = std::max(swaps_done, t0 + latency);
    ++iterations;
    if (batchDist != nullptr)
        batchDist->add(static_cast<double>(plan.decode.size()));
    if (trace != nullptr) {
        trace->complete(obs::TraceCat::Iteration,
                        obs::TraceName::Iteration, instanceId, t0,
                        step_end - t0, obs::TraceArg::Batch,
                        static_cast<std::int64_t>(plan.decode.size()));
    }
    // The completion event carries the crash generation it was
    // scheduled under: a crash abandons the step by bumping the
    // generation, turning the stale event into a no-op.
    sim.at(step_end, [this, t0, gen = crashGen] {
        if (gen == crashGen)
            completeIteration(t0);
    });
}

void
Instance::crash(bool preserve_cpu_kv,
                std::vector<Request*>& orphans)
{
    up = false;
    draining = false;
    ++crashGen; // Invalidate the in-flight step's completion event.
    stepInFlight = false;
    kickPending = false;
    // Deferred deadline expiries die with the step: the orphans
    // re-enter the retry path, whose guards enforce expiry there.
    deadlineDeferred.clear();
    // detach() settles any lazy stretch, applying the abandoned
    // step's start (its wall time stays booked as executed), and
    // mutates the scheduler's hosted set; walk a copy. The copy
    // keeps the swap-pop vector's order: not insertion order once a
    // request has left, but deterministic, so the orphan list — and
    // every retry placement made from it — replays byte-identically.
    scratchHosted.assign(sched->hosted().begin(),
                         sched->hosted().end());
    for (auto* r : scratchHosted) {
        if (preserve_cpu_kv && r->exec == ExecState::SwappedCpu) {
            // Host-DRAM KV survives the GPU loss: the request stays
            // hosted and resumes after recovery, accruing preempted
            // time while the instance is down.
            r->stampAccrual(sim.now(), BucketKind::Preempted);
            continue;
        }
        detach(r);
        orphans.push_back(r);
    }
    markViewDirty();
}

void
Instance::recover()
{
    up = true;
    markViewDirty();
    kick();
}

void
Instance::setDraining(bool on)
{
    draining = on;
    markViewDirty();
}

void
Instance::setPerfScale(double scale)
{
    perfScale = scale;
}

void
Instance::verifyAccrualStamps(bool prefill_iteration) const
{
    // The step's batch: during a lazy stretch inflight.decode is the
    // lazy batch and inflight.prefill is empty.
    std::vector<const Request*> ran(inflight.prefill.begin(),
                                    inflight.prefill.end());
    ran.insert(ran.end(), inflight.decode.begin(), inflight.decode.end());
    std::sort(ran.begin(), ran.end());
    for (const auto* r : sched->hosted()) {
        BucketKind expect;
        if (std::binary_search(ran.begin(), ran.end(), r)) {
            expect = BucketKind::Executed;
        } else if (r->exec == ExecState::WaitingNew) {
            expect = BucketKind::Blocked;
        } else if (r->exec == ExecState::ResidentGpu &&
                   prefill_iteration) {
            // Stalling resident decodes for a prefill pass is inherent
            // continuous-batching overhead, not a scheduling decision:
            // even the oracle pays it.
            expect = BucketKind::Executed;
        } else {
            // Excluded from a decode batch or swapped out: preempted.
            expect = BucketKind::Preempted;
        }
        if (r->accrualKind != expect) {
            panic("lazy accrual stamp stale for request " +
                  std::to_string(r->id()) + " on instance " +
                  std::to_string(instanceId) + ": stamped " +
                  std::to_string(static_cast<int>(r->accrualKind)) +
                  ", eager walk expects " +
                  std::to_string(static_cast<int>(expect)));
        }
    }
}

bool
Instance::startLazyStep(Time t0)
{
    if (forceStep)
        return false;
    const std::size_t batch = inflight.decode.size();
    if (lazyBatch.empty()) {
        // Open a stretch: it may run until the first member execution
        // that crosses an event.
        TokenCount batch_kv = 0;
        for (const auto* r : inflight.decode)
            batch_kv += r->kvTokens();
        const TokenCount left = sched->steadySteps(inflight.decode);
        if (left == 0)
            return false;
        lazyBatch.assign(inflight.decode.begin(), inflight.decode.end());
        lazyLeft = left;
        lazyBatchKv = batch_kv;
        lazyCharged = 0;
    } else if (lazyLeft == 0) {
        return false; // The next execution crosses an event.
    }

    --lazyLeft;
    lazyInFlight = true;
    lazyStart = t0;
    const TokenCount growth = sched->lineageStepGrowth();
    kvPool.chargeGrowth(growth);
    lazyCharged += growth;
    Time latency = perf.mixedStepLatency(0, static_cast<int>(batch),
                                         lazyBatchKv);
    latency *= perfScale;
    lazyBatchKv += static_cast<TokenCount>(batch);
    Time step_end = std::max(t0, t0 + latency);
    ++iterations;
    if (batchDist != nullptr)
        batchDist->add(static_cast<double>(batch));
    if (trace != nullptr) {
        trace->complete(obs::TraceCat::Iteration,
                        obs::TraceName::Iteration, instanceId, t0,
                        step_end - t0, obs::TraceArg::Batch,
                        static_cast<std::int64_t>(batch));
    }
    sim.at(step_end, [this, t0, gen = crashGen] {
        if (gen == crashGen)
            completeIteration(t0);
    });
    return true;
}

void
Instance::completeLazyStep(Time step_start)
{
    lazyInFlight = false;
    markViewDirty();
    if (verifyAccrual)
        verifyAccrualStamps(false);
    stepLog.push_back({step_start, sim.now()});
    decodeTokens += lazyBatch.size();
    ++lazySteps;
    stepInFlight = false;
    if (!deadlineDeferred.empty())
        drainDeadlineDeferred();
    startIteration();
}

void
Instance::catchUp()
{
    if (lazyBatch.empty())
        return;
    const TokenCount quantum = sched->schedLimits().quantum;
    const std::size_t n = stepLog.size();
    const auto grown = static_cast<TokenCount>(n) + (lazyInFlight ? 1 : 0);
    TokenCount settled = 0;
    for (auto* r : lazyBatch) {
        r->catchUpSteps(stepLog.data(), n, quantum);
        if (lazyInFlight)
            r->stampAccrual(lazyStart, BucketKind::Executed);
        settled += kvPool.settleGrowth(r->kvSlot, grown);
    }
    if (settled != lazyCharged) {
        panic("lazy stretch on instance " + std::to_string(instanceId) +
              " charged " + std::to_string(lazyCharged) +
              " GPU tokens but its slots grew by " +
              std::to_string(settled));
    }
    ++catchups;
    // A lazy step in flight now has its start applied and completes
    // eagerly.
    lazyInFlight = false;
    lazyBatch.clear();
    stepLog.clear();
}

void
Instance::completeIteration(Time step_start)
{
    if (lazyInFlight) {
        completeLazyStep(step_start);
        return;
    }
    // The plan stays parked in `inflight` so the steady-state fast
    // path can run it again verbatim; the next startIteration()
    // rebuilds it only if the scheduler observed a state change.
    const core::IterationPlan& plan = inflight;
    Time now = sim.now();

    markViewDirty();
    if (verifyAccrual)
        verifyAccrualStamps(plan.isPrefillIteration());

    TokenCount quantum = sched->schedLimits().quantum;

    // Settle each batch member's executed interval before mutating
    // its progress, so the step's wall time lands in the phase it was
    // actually spent in; non-members keep accruing lazily under their
    // standing stamp. Emissions first (dirty-set contract: every
    // mutation is reported via noteExecuted before any callback can
    // observe the scheduler's counters), then completions and phase
    // transitions.
    for (auto* r : plan.prefill) {
        r->settleAccrual(now);
        r->completePrefill(now, quantum);
        sched->noteExecuted(r);
        // A one-token reasoning phase transitions at its prefill.
        sloHeapFix(r);
    }
    for (auto* r : plan.decode) {
        r->settleAccrual(now);
        r->emitToken(now, quantum);
        ++decodeTokens;
        sched->noteExecuted(r);
        // A steady answering emission only moves the exact key later,
        // so the stored key stays a lower bound; membership changes
        // (transition, finish) and the first answering token's
        // formula switch re-key exactly.
        if (r->sloHeapPos < 0 || r->finished() || r->answerGenerated() == 1)
            sloHeapFix(r);
    }

    auto handle = [&](Request* r) {
        if (r->finished()) {
            kvPool.release(r->kvSlot);
            r->kvSlot = model::kNoKvSlot;
            r->exec = ExecState::Done;
            sched->remove(r);
            // Re-mark: an earlier transition in this same loop may
            // have had its placement decision refresh (and clean)
            // the cached snapshot this finish just invalidated.
            markViewDirty();
            if (callbacks.onFinished)
                callbacks.onFinished(r, instanceId);
        } else if (r->reasoningEnd == now &&
                   !r->spec().startInAnswering &&
                   r->phase() == Phase::Answering) {
            // The </think> token was just observed: let the
            // instance-level scheduler place the answering phase. The
            // callback may detach the request for migration.
            if (callbacks.onPhaseTransition)
                callbacks.onPhaseTransition(r, instanceId);
        }
    };
    for (auto* r : plan.prefill)
        handle(r);
    for (auto* r : plan.decode)
        handle(r);

    stepInFlight = false;
    // Deadlines that fired mid-step were parked; enforce them now that
    // the plan's vectors are no longer live, before the next boundary
    // builds a plan that could include the expired requests.
    if (!deadlineDeferred.empty())
        drainDeadlineDeferred();
    startIteration();
}

Time
Instance::tpotOf(const Request* r) const
{
    // Per-class pacing target when classes are on; the global SLO
    // otherwise. Best-effort demotion relaxes to the Batch targets.
    if (classCfg.enabled)
        return classCfg.effective(r->spec().sloClass, r->bestEffort)
            .tpotTarget;
    return slo.tpotTarget;
}

Time
Instance::ttfatOf(const Request* r) const
{
    if (classCfg.enabled)
        return classCfg.effective(r->spec().sloClass, r->bestEffort)
            .ttfatTarget;
    return slo.ttfatTarget;
}

double
Instance::sloKeyOf(const Request* r) const
{
    if (r->firstAnswer >= 0.0) {
        // The verdict can only flip once the expected-token floor
        // reaches generated - margin; one tpot of slack absorbs any
        // rounding disagreement between this bound and the
        // floor-based check in sloViolated().
        double flip_tokens = static_cast<double>(
            r->answerGenerated() - slo.monitorBufferMarginTokens - 1);
        return r->firstAnswer + flip_tokens * tpotOf(r);
    }
    // Transitioned but no first answering token yet: the verdict
    // flips exactly when the TTFAT budget runs out; one tpot of
    // slack absorbs any rounding disagreement with the subtraction
    // in the exact check.
    return r->reasoningEnd + ttfatOf(r) - tpotOf(r);
}

bool
Instance::sloViolated(const Request* r, Time now) const
{
    if (r->firstAnswer >= 0.0) {
        // The user digests one token per tpot from the first
        // answering token; the monitor flags the request once the
        // pacer buffer (generated minus digested) runs below the
        // early-warning margin.
        auto expected = static_cast<TokenCount>(
            std::floor((now - r->firstAnswer) / tpotOf(r))) + 1;
        expected = std::min(expected + slo.monitorBufferMarginTokens,
                            r->spec().answerTokens);
        return r->answerGenerated() < expected;
    }
    // Failing once the TTFAT budget is exhausted.
    return now - r->reasoningEnd > ttfatOf(r);
}

void
Instance::sloHeapSiftUp(std::size_t i)
{
    Request* r = sloHeap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (sloHeap[parent]->sloKey <= r->sloKey)
            break;
        sloHeap[i] = sloHeap[parent];
        sloHeap[i]->sloHeapPos = static_cast<std::int32_t>(i);
        i = parent;
    }
    sloHeap[i] = r;
    r->sloHeapPos = static_cast<std::int32_t>(i);
}

void
Instance::sloHeapSiftDown(std::size_t i)
{
    Request* r = sloHeap[i];
    std::size_t n = sloHeap.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            sloHeap[child + 1]->sloKey < sloHeap[child]->sloKey) {
            ++child;
        }
        if (r->sloKey <= sloHeap[child]->sloKey)
            break;
        sloHeap[i] = sloHeap[child];
        sloHeap[i]->sloHeapPos = static_cast<std::int32_t>(i);
        i = child;
    }
    sloHeap[i] = r;
    r->sloHeapPos = static_cast<std::int32_t>(i);
}

void
Instance::sloHeapErase(Request* r)
{
    std::int32_t pos = r->sloHeapPos;
    if (pos < 0)
        return; // Not at risk (e.g. a reasoning-phase detach).
    r->sloHeapPos = -1;
    Request* last = sloHeap.back();
    sloHeap.pop_back();
    if (last != r) {
        auto i = static_cast<std::size_t>(pos);
        sloHeap[i] = last;
        last->sloHeapPos = pos;
        sloHeapSiftUp(i);
        sloHeapSiftDown(static_cast<std::size_t>(last->sloHeapPos));
    }
}

void
Instance::sloHeapFix(Request* r)
{
    bool member = r->phase() == Phase::Answering && !r->finished();
    if (!member) {
        sloHeapErase(r);
        return;
    }
    double key = sloKeyOf(r);
    if (r->sloHeapPos < 0) {
        ++sloRekeys;
        r->sloKey = key;
        sloHeap.push_back(r);
        sloHeapSiftUp(sloHeap.size() - 1);
        return;
    }
    if (key == r->sloKey)
        return;
    ++sloRekeys;
    bool up = key < r->sloKey;
    r->sloKey = key;
    auto i = static_cast<std::size_t>(r->sloHeapPos);
    if (up)
        sloHeapSiftUp(i);
    else
        sloHeapSiftDown(i);
}

bool
Instance::sloAtRiskViolated(std::size_t i, Time now)
{
    if (i >= sloHeap.size() || sloHeap[i]->sloKey > now)
        return false; // Heap order prunes the whole subtree.
    sloDue.push_back(sloHeap[i]);
    if (sloViolated(sloHeap[i], now))
        return true;
    return sloAtRiskViolated(2 * i + 1, now) ||
           sloAtRiskViolated(2 * i + 2, now);
}

bool
Instance::answeringSloOk(Time now, Time* slo_risk_at)
{
    // Min-deadline heap: every key is a lower bound on its request's
    // flip time, so a top key still ahead of now settles the common
    // decision in one comparison. Otherwise the due requests (key <=
    // now) are checked exactly (keys only gate when the exact check
    // runs), and each one visited gets its exact key back.
    bool ok = true;
    if (!sloHeap.empty() && sloHeap.front()->sloKey <= now) {
        catchUp(); // The exact check reads token progress.
        ok = !sloAtRiskViolated(0, now);
        for (auto* r : sloDue)
            sloHeapFix(r);
        sloDue.clear();
    }
    if (slo_risk_at != nullptr) {
        // A false verdict is sticky until an instance event.
        *slo_risk_at = kTimeInfinity;
        if (ok && !sloHeap.empty())
            *slo_risk_at = sloHeap.front()->sloKey;
    }
    return ok;
}

bool
Instance::answeringSloOkScan(Time now, Time* slo_risk_at) const
{
    // Reference O(hosted) walk the heap replaced; shares the exact
    // per-request check and the flip-bound formula with the heap so
    // the two can never drift. Audits and tests call this to
    // cross-check the maintained heap.
    Time risk = kTimeInfinity;
    for (const auto* r : sched->hosted()) {
        if (r->phase() != Phase::Answering || r->finished())
            continue;
        if (sloViolated(r, now)) {
            if (slo_risk_at != nullptr)
                *slo_risk_at = kTimeInfinity; // Sticky until dirty.
            return false;
        }
        risk = std::min(risk, sloKeyOf(r));
    }
    if (slo_risk_at != nullptr)
        *slo_risk_at = risk;
    return true;
}

void
Instance::verifySloHeap(Time now)
{
    catchUp();
    std::size_t members = 0;
    for (const auto* r : sched->hosted()) {
        bool member = r->phase() == Phase::Answering && !r->finished();
        if (!member) {
            if (r->sloHeapPos >= 0) {
                panic("SLO heap holds non-answering request " +
                      std::to_string(r->id()) + " on instance " +
                      std::to_string(instanceId));
            }
            continue;
        }
        ++members;
        auto pos = static_cast<std::size_t>(r->sloHeapPos);
        if (r->sloHeapPos < 0 || pos >= sloHeap.size() ||
            sloHeap[pos] != r) {
            panic("SLO heap lost answering request " +
                  std::to_string(r->id()) + " on instance " +
                  std::to_string(instanceId));
        }
        // Stored keys may lag (steady emissions leave them behind)
        // but must never pass the exact flip key.
        if (r->sloKey > sloKeyOf(r)) {
            panic("SLO heap key above its flip bound for request " +
                  std::to_string(r->id()) + " on instance " +
                  std::to_string(instanceId) + " (ahead by " +
                  std::to_string(r->sloKey - sloKeyOf(r)) + ")");
        }
    }
    if (members != sloHeap.size()) {
        panic("SLO heap size " + std::to_string(sloHeap.size()) +
              " != answering population " + std::to_string(members) +
              " on instance " + std::to_string(instanceId));
    }
    for (std::size_t i = 1; i < sloHeap.size(); ++i) {
        if (sloHeap[(i - 1) / 2]->sloKey > sloHeap[i]->sloKey)
            panic("SLO heap order violated on instance " +
                  std::to_string(instanceId));
    }
    Time heap_risk = kTimeInfinity;
    Time scan_risk = kTimeInfinity;
    bool heap_ok = answeringSloOk(now, &heap_risk);
    bool scan_ok = answeringSloOkScan(now, &scan_risk);
    if (heap_ok != scan_ok || heap_risk > scan_risk) {
        panic("SLO heap verdict diverged from reference walk on "
              "instance " +
              std::to_string(instanceId) + " at t=" +
              std::to_string(now));
    }
}

core::InstanceSnapshot
Instance::snapshot(Time now, Time* slo_risk_at)
{
    core::InstanceSnapshot snap;
    snap.id = instanceId;
    snap.up = up && !draining;
    snap.answeringSloOk = answeringSloOk(now, slo_risk_at);
    snap.kvFootprintTokens = kvPool.totalFootprintTokens();
    snap.numReasoning = sched->numReasoning();
    snap.numFreshAnswering = sched->numFreshAnswering();
    snap.gpuFreeTokens = kvPool.gpuFree();
    snap.gpuCapacityTokens = kvPool.gpuCapacity();
    snap.predictedKvFootprintTokens = snap.kvFootprintTokens;
    if (predictor != nullptr) {
        catchUp();
        double growth = 0.0;
        // Insertion-order walk: the float sum depends on summation
        // order, so iterating the swap-pop hosted vector would let a
        // mere removal perturb the rounded footprint (and with it a
        // placement tie-break).
        for (const workload::Request* r = sched->hostedHead();
             r != nullptr; r = r->schedNextHosted) {
            if (r->finished())
                continue;
            growth += predictor->predictRemainingTokens(*r);
            // Queued arrivals own no pool KV yet, but their prompt
            // will be allocated the moment they prefill; without it a
            // burst of large-prompt arrivals keeps looking free and
            // predictive placement herds the burst onto one instance.
            if (r->exec == ExecState::WaitingNew)
                growth += static_cast<double>(r->spec().promptTokens);
        }
        snap.predictedKvFootprintTokens +=
            static_cast<TokenCount>(std::llround(growth));
    }
    return snap;
}

void
Instance::registerStats(obs::StatRegistry& reg,
                        const std::string& prefix)
{
    reg.counter(prefix + ".engine.iterations", &iterations);
    reg.counter(prefix + ".engine.decode_tokens", &decodeTokens);
    reg.counter(prefix + ".engine.prefills", &prefills);
    reg.counter(prefix + ".engine.swap_outs", &swapOuts);
    reg.counter(prefix + ".engine.swap_ins", &swapIns);
    reg.counter(prefix + ".engine.lazy_steps", &lazySteps);
    reg.counter(prefix + ".engine.catchups", &catchups);
    reg.counter(prefix + ".plan.reuses", &planReuses);
    reg.counter(prefix + ".plan.builds", &planBuilds);
    reg.counter(prefix + ".plan.repairs", &planRepairs);
    reg.counter(prefix + ".plan.full_walks",
                [this] { return planBuilds - planRepairs; });
    reg.counter(prefix + ".slo.rekeys", &sloRekeys);
    reg.gauge(prefix + ".kv.gpu_capacity", [this] {
        return static_cast<double>(kvPool.gpuCapacity());
    });
    reg.gauge(prefix + ".kv.gpu_free", [this] {
        return static_cast<double>(kvPool.gpuFree());
    });
    reg.gauge(prefix + ".kv.peak_gpu_used", [this] {
        return static_cast<double>(kvPool.peakGpuUsed());
    });
    reg.gauge(prefix + ".kv.footprint_tokens", [this] {
        return static_cast<double>(kvPool.totalFootprintTokens());
    });
    reg.gauge(prefix + ".kv.gpu_resident", [this] {
        return static_cast<double>(kvPool.numGpuResident());
    });
    reg.gauge(prefix + ".kv.table_size", [this] {
        return static_cast<double>(kvPool.tableSize());
    });
    batchDist = &reg.distribution(prefix + ".batch.decode_size");
}

} // namespace cluster
} // namespace pascal
