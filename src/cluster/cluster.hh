/**
 * @file
 * The multi-instance serving cluster (Fig. 6): a pool of instances, an
 * instance-level scheduler routing arrivals and phase transitions, and
 * the 100 Gbps fabric carrying KV migrations.
 *
 * Fabric contention is modeled per target node: each instance owns an
 * ingress Link, so simultaneous migrations into the same node queue
 * behind each other (the Section V-C scenario).
 */

#ifndef PASCAL_CLUSTER_CLUSTER_HH
#define PASCAL_CLUSTER_CLUSTER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/instance.hh"
#include "src/cluster/run_result.hh"
#include "src/cluster/system_config.hh"
#include "src/core/placement.hh"
#include "src/fault/fault_injector.hh"
#include "src/obs/streaming_metrics.hh"
#include "src/predict/predictor.hh"
#include "src/qoe/metrics.hh"
#include "src/sim/simulator.hh"
#include "src/workload/request_arena.hh"
#include "src/workload/trace.hh"

namespace pascal
{
namespace cluster
{

/** The complete simulated deployment. */
class Cluster
{
  public:
    /**
     * @param sim Shared simulator (must outlive the cluster).
     * @param cfg Validated system configuration.
     */
    Cluster(sim::Simulator& sim, const SystemConfig& cfg);

    /** Schedule every request of @p trace as arrival events.
     *  Consecutive same-timestamp requests are scheduled as ONE burst
     *  event, so their placement decisions and admissions drain
     *  back-to-back and the instances' deferred plan boundaries
     *  coalesce to one build per burst per instance. */
    void submitTrace(const workload::Trace& trace);

    /**
     * Opt-in for long-lived clusters fed thousands of traces: once
     * every request of a submitted trace has finished, score the
     * chunk into compact per-request metrics rows and recycle its
     * arena storage, so resident Request memory (including the
     * per-token emission vectors) stays bounded by *live* requests.
     * collectMetrics() output is byte-identical either way (same
     * rows, same order). Call before the simulation runs.
     */
    void enableChunkRecycling() { chunkRecycling = true; }

    /** Trace chunks whose storage was recycled (see
     *  enableChunkRecycling). */
    std::size_t
    numRecycledChunks() const
    {
        return requests.numRecycledChunks();
    }

    /** Resolved per-instance GPU KV capacity (tokens). */
    TokenCount kvCapacityTokens() const { return kvCapacity; }

    /** Score all requests against the configured SLO. Call after
     *  catchUp(): scoring reads every request's progress. */
    std::vector<qoe::RequestMetrics> collectMetrics() const;

    /** Settle every instance's lazy decode stretch
     *  (Instance::catchUp), so each hosted request reads exactly as
     *  if every step had run eagerly. RunContext calls it at the end
     *  of every run() chunk and before scoring. */
    void
    catchUp()
    {
        for (auto& inst : instances)
            inst->catchUp();
    }

    /** Requests that never finished (trace infeasible or horizon
     *  hit). */
    std::size_t numUnfinished() const;

    /** Largest GPU KV occupancy seen on any instance. */
    TokenCount maxPeakGpuKv() const;

    /** Sum of iteration counts across instances. */
    std::uint64_t totalIterations() const;

    /** Every KV migration's end-to-end latency (Section V-C). */
    std::vector<double> allKvTransferLatencies() const;

    int totalMigrations() const { return migrations; }

    const std::vector<std::unique_ptr<Instance>>&
    getInstances() const
    {
        return instances;
    }

    const SystemConfig& config() const { return cfg; }

    /** @name Fault layer
     *
     * The failover path is driven by the seeded FaultInjector when
     * cfg.fault.enabled, but the entry points are public so tests can
     * script exact fault timings (enable the fault layer with all
     * rates at zero and call these directly). On crash, hosted
     * requests lose GPU KV (CPU-offloaded KV survives when
     * cfg.fault.preserveCpuKv), get re-queued through placement under
     * capped exponential backoff, and terminally fail with an
     * accounted FailReason once the per-request retry budget is
     * spent. Requires the fault layer (panics when cfg.fault.enabled
     * is false — the migration abort checks would silently not run).
     */
    /** @{ */

    /** Take an instance down now and run the failover path. */
    void crashInstance(InstanceId id);

    /** Bring a crashed/drained-out instance back up. */
    void recoverInstance(InstanceId id);

    /** Begin a planned decommission: placement routes away, the
     *  engine keeps executing. */
    void startDrain(InstanceId id);

    /** Drain deadline: take the (draining) instance down like a
     *  crash. */
    void finishDrain(InstanceId id);

    /** Apply a straggler latency multiplier (1.0 restores). */
    void setStraggler(InstanceId id, double factor);

    /** Per-instance fabric ingress link (tests observe in-flight
     *  migrations/restores through its busy horizon). */
    const model::Link& ingressLink(InstanceId id) const
    {
        return *ingress[static_cast<std::size_t>(id)];
    }

    /** @name Failure accounting */
    /** @{ */
    std::uint64_t numCrashes() const { return numCrashesCount; }
    std::uint64_t numDrains() const { return numDrainsCount; }
    std::uint64_t numStragglerWindows() const
    {
        return stragglerWindowsCount;
    }
    std::uint64_t numLinkFailures() const { return linkFailuresCount; }
    std::uint64_t numRetries() const { return retriesCount; }
    std::uint64_t numShed() const { return shedCount; }
    /** All terminal failures (retry-budget exhaustion + shed +
     *  deadline expiry). */
    std::uint64_t numTerminalFailures() const
    {
        return terminalFailuresCount;
    }
    /** @} */

    /** @} */

    /** SLO-class accounting, one row per class in sloClassIndex
     *  order (all-zero when cfg.sloClasses is disabled; goodputFraction
     *  is left at its default — RunContext::result() fills it in). */
    const std::array<ClassOutcome, workload::kNumSloClasses>&
    classOutcomes() const
    {
        return classOutcome;
    }

    /** The shared length predictor (nullptr when cfg.predictor is
     *  None). Exposed so harnesses can inspect what a run learned. */
    const predict::LengthPredictor* lengthPredictor() const
    {
        return predictor.get();
    }

    /**
     * Debug/test hook: on every incremental buildView(), additionally
     * recompute every instance's snapshot from scratch and panic on
     * any field divergence from the maintained view. The cluster-view
     * property tests churn a multi-instance deployment with this on,
     * proving the dirty-marking contract covers every event that can
     * move a snapshot field.
     */
    void enableViewAudit() { viewAudit = true; }

    /** Incremental-view bookkeeping stats (bench/diagnostics). */
    std::uint64_t numViewRefreshes() const { return viewRefreshes; }
    std::uint64_t numViewBuilds() const { return viewBuilds; }

    /** Sum of scheduler plan builds across instances (the burst
     *  coalescing engagement stat). */
    std::uint64_t totalPlanBuilds() const;

    /** Sum of O(delta) plan repairs across instances (subset of
     *  totalPlanBuilds()). */
    std::uint64_t totalPlanRepairs() const;

    /** Sum of full O(material) plan walks across instances:
     *  totalPlanBuilds() - totalPlanRepairs(). */
    std::uint64_t totalFullWalks() const;

    /** Sum of SLO-heap re-key operations across instances. */
    std::uint64_t totalSloHeapRekeys() const;

    /** @name Observability (src/obs/) */
    /** @{ */

    /** Snapshot every registered stat (registration order). */
    obs::StatDump dumpStats() const { return registry.dump(); }

    /** Chrome trace-event JSON of the recorded ring ("" when tracing
     *  is off). */
    std::string traceJson() const
    {
        return trace ? trace->writeJson() : std::string();
    }

    /** Streaming-sketch mode active (implies chunk recycling). */
    bool streamingEnabled() const { return streaming != nullptr; }

    /**
     * Streaming mode's end-of-run rollup: a copy of the running
     * sketch with every still-unretired request folded in (settling
     * lazily accrued phase time exactly like collectMetrics), so it
     * covers the same population collectMetrics would score. nullptr
     * when streaming is off.
     */
    std::shared_ptr<const obs::StreamingMetrics>
    finalStreamingMetrics() const;

    /** @} */

  private:
    /** Route @p n same-timestamp arrivals via Placement::placeNew
     *  (Algorithm 1). Each member's decision sees the previous
     *  members admitted — identical to the per-arrival chain — but
     *  the admissions share one deferred plan boundary per touched
     *  instance. */
    void onArrivals(workload::Request* first, std::uint32_t n);

    /** Chunk-recycling bookkeeping at request completion. */
    void noteRequestFinished(workload::Request* req);

    /** Score and recycle a fully-finished trace chunk. */
    void retireChunk(std::size_t idx);

    /** Score one request against the configured SLO, first settling
     *  the lazily accrued phase time of a request still in flight. */
    qoe::RequestMetrics scoreRequest(workload::Request& req) const;

    /** Handle a reasoning->answering transition (Algorithm 2 +
     *  adaptive override). */
    void onPhaseTransition(workload::Request* req, InstanceId from);

    /** Start a KV migration over the target's fabric ingress link. */
    void migrate(workload::Request* req, InstanceId from,
                 InstanceId to);

    /** Ship @p req's KV to @p to over its fabric ingress link (a
     *  migration, or a failover restore when !@p migration); @p nonce
     *  keys the transfer's link-failure draw. */
    void transferKv(workload::Request* req, InstanceId to,
                    std::uint64_t nonce, bool migration);

    /** A KV transfer onto @p to, started at @p start, finished: abort
     *  it on a link failure or a downed target, enforce an expiry that
     *  fired on the wire, else land the request. Only a migration
     *  bumps migrationCount. */
    void landKv(workload::Request* req, InstanceId to, Time start,
                std::uint64_t nonce, bool migration);

    /** @name Failover internals (fault layer) */
    /** @{ */

    /** Shared crash body: detach/preserve hosted work and re-queue
     *  the orphans (@p why distinguishes crash vs drain deadline in
     *  the trace). */
    void crashImpl(InstanceId id, obs::TraceName why);

    /** Schedule a backoff retry for a displaced request, or fail it
     *  terminally once the budget is spent. */
    void requeueRequest(workload::Request* req);

    /** Backoff expired: place the request again; prefill-complete
     *  requests re-materialize their KV over the target's ingress
     *  link (as if restored from a replica) instead of recomputing
     *  the prefill. */
    void retryPlace(workload::Request* req);

    /** Account a terminal failure and release the request. */
    void failTerminally(workload::Request* req,
                        workload::FailReason reason);

    /** Fraction of instances currently routable (up, not draining). */
    double upFraction() const;

    /** @} */

    /** @name SLO-class internals (tentpole: deadline-aware admission,
     *  request timeouts, graceful degradation) */
    /** @{ */

    /** Class-aware admission: shed the arrival when its class's
     *  overload floors or the deadline-slack bound say the cluster
     *  cannot serve it. @return true when the request was shed. */
    bool classAdmissionShed(workload::Request* req);

    /** Arm the per-request deadline timeout (no-op when the class has
     *  no relative deadline or enforcement is off). */
    void armDeadline(workload::Request* req);

    /** The deadline event fired: mark expiry and enforce it. */
    void onDeadlineFire(workload::Request* req);

    /** Enforce an expiry per the class policy: demote to best-effort
     *  or terminally fail (also the iteration-boundary callback for
     *  expiries deferred while a step was in flight). */
    void enforceExpiry(workload::Request* req);

    /** Terminal-fail an expired request on a failover/landing path.
     *  @return true when it consumed the request. */
    bool interceptExpired(workload::Request* req);

    /** Free GPU KV across routable instances as a capacity fraction. */
    double freeGpuKvFraction() const;

    /** @} */

    /**
     * The placement algorithms' cluster view. The cluster keeps one
     * persistent core::ClusterView and refreshes only the snapshots
     * of instances that marked themselves dirty since the last
     * decision (plus any instance whose cached answeringSloOk could
     * have flipped purely by time passing — see sloRiskAt), making
     * arrivals and phase transitions O(dirty) instead of
     * O(instances x hosted). SystemConfig::forceViewRebuild restores
     * the full per-decision rebuild (the reference the equivalence
     * tests compare against).
     */
    const core::ClusterView& buildView(Time now);

    /** Refresh one instance's cached snapshot (and its SLO flip
     *  bound) at @p now. */
    void refreshSnapshot(InstanceId id, Time now);

    sim::Simulator& sim;
    SystemConfig cfg;
    model::PerfModel perf;
    TokenCount kvCapacity;
    std::unique_ptr<predict::LengthPredictor> predictor;
    std::unique_ptr<core::Placement> placement;
    std::vector<std::unique_ptr<Instance>> instances;
    std::vector<std::unique_ptr<model::Link>> ingress;

    /** All Requests of every submitted trace, in contiguous per-trace
     *  chunks (mutable: scoring lazily settles accrued phase time —
     *  an observation, not a simulation step). */
    mutable workload::RequestArena requests;

    /** @name Chunk recycling state */
    /** @{ */
    bool chunkRecycling = false;
    std::vector<std::size_t> chunkLive; //!< Unfinished per chunk.
    /** Scored rows of retired chunks, in chunk order (so
     *  collectMetrics output is order-identical with recycling).
     *  Streaming mode leaves these empty — rows fold into the sketch
     *  at retire time instead of being stored. */
    std::vector<std::vector<qoe::RequestMetrics>> retiredMetrics;
    /** Chunks already retired (streaming mode leaves retiredMetrics
     *  empty, so emptiness cannot mark retirement). */
    std::vector<std::uint8_t> chunkRetired;
    /** @} */

    /** @name Observability state */
    /** @{ */
    obs::StatRegistry registry;
    std::unique_ptr<obs::TraceSink> trace;  //!< Null unless tracing.
    std::unique_ptr<obs::StreamingMetrics> streaming; //!< Null unless on.
    /** @} */

    /** @name Incremental cluster view state */
    /** @{ */
    core::ClusterView view;
    std::vector<Time> sloRiskAt;        //!< Per-instance flip bound.
    std::vector<std::uint8_t> viewDirtyFlags;
    std::vector<InstanceId> viewDirtyList;
    Time minSloRiskAt = kTimeInfinity;  //!< min over cached-ok rows.
    std::uint64_t viewPredictorVersion = 0;
    bool viewPrimed = false;
    bool predictiveView = false; //!< Snapshots carry predictions.
    bool viewAudit = false;
    std::uint64_t viewRefreshes = 0;
    std::uint64_t viewBuilds = 0;
    /** @} */

    int migrations = 0;

    /** @name Fault layer state */
    /** @{ */

    /** Seeded fault scheduler (null unless cfg.fault.enabled; the
     *  null check also gates every failover branch on hot paths, so
     *  fault-off runs take the exact pre-fault code). */
    std::unique_ptr<fault::FaultInjector> injector;

    /** Submitted-but-not-yet-finished requests (includes terminal
     *  failures as finished); gates fault-chain re-arming. */
    std::int64_t liveRequests = 0;

    /** crashImpl scratch: requests displaced by one crash. */
    std::vector<workload::Request*> orphanScratch;

    std::uint64_t numCrashesCount = 0;
    std::uint64_t numDrainsCount = 0;
    std::uint64_t stragglerWindowsCount = 0;
    std::uint64_t linkFailuresCount = 0;
    std::uint64_t retriesCount = 0;
    std::uint64_t shedCount = 0;
    std::uint64_t terminalFailuresCount = 0;
    /** @} */

    /** @name SLO-class state */
    /** @{ */

    /** Cached cfg.sloClasses.enabled: the single gate every class
     *  branch on a hot path checks, so classes-off runs take the
     *  exact pre-class code. */
    bool classesOn = false;

    /** The per-class ledger (the registry's cluster.slo.<class>.*
     *  counters point into it). */
    std::array<ClassOutcome, workload::kNumSloClasses> classOutcome{};
    /** @} */
};

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_CLUSTER_HH
