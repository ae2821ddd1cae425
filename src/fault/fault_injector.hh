/**
 * @file
 * Seeded, deterministic fault scheduler.
 *
 * The FaultInjector owns per-instance random fault chains and turns
 * them into ordinary events on the slotted simulator queue; the
 * cluster reacts through a small hook table, so this file knows
 * nothing about scheduling or KV management. Three independent chains
 * run per instance:
 *
 *  - lifecycle: a superposed Poisson process of crashes and planned
 *    decommissions. A crash takes the instance down immediately and
 *    schedules recovery after mttr; a decommission first marks the
 *    instance draining (no new placements) for drainGrace seconds,
 *    then takes it down like a crash.
 *  - straggler: transient windows during which the instance's
 *    iteration latency is multiplied by stragglerFactor.
 *  - link failures: *stateless* per-transfer Bernoulli draws hashed
 *    from {seed, request, attempt nonce}, so the verdict for a given
 *    transfer attempt is independent of event interleaving and the
 *    force-mode twins stay byte-identical.
 *
 * Chains re-arm only while the cluster still has live work
 * (hooks.anyWorkLeft), so fault events never keep an otherwise-idle
 * run alive past its natural end.
 */

#ifndef PASCAL_FAULT_FAULT_INJECTOR_HH
#define PASCAL_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.hh"
#include "src/common/types.hh"
#include "src/fault/fault_config.hh"
#include "src/sim/simulator.hh"

namespace pascal
{
namespace fault
{

/** Cluster-side reactions to injected faults. All must be set. */
struct FaultHooks
{
    /** Instance went down losing GPU state; run the failover path. */
    std::function<void(InstanceId)> onCrash;

    /** Instance rejoined the fleet after mttr. */
    std::function<void(InstanceId)> onRecover;

    /** Planned decommission: stop placing onto the instance. */
    std::function<void(InstanceId)> onDrainStart;

    /** Drain grace expired: take the instance down. */
    std::function<void(InstanceId)> onDrainDeadline;

    /** Straggler window opened; apply the latency multiplier. */
    std::function<void(InstanceId, double)> onStragglerStart;

    /** Straggler window closed; restore full speed. */
    std::function<void(InstanceId)> onStragglerEnd;

    /** True while any submitted request is still unfinished; gates
     *  chain re-arming so faults cannot outlive the workload. */
    std::function<bool()> anyWorkLeft;
};

/** SplitMix64 — stateless 64-bit mixer for seed derivation and
 *  per-transfer Bernoulli draws. */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Schedules deterministic faults for @p num_instances instances.
 *
 * Construction arms the chains (when the respective rates are > 0);
 * after that the injector is driven entirely by the event queue.
 */
class FaultInjector
{
  public:
    FaultInjector(sim::Simulator& sim, const FaultConfig& cfg,
                  int num_instances, FaultHooks hooks);

    /**
     * Stateless verdict for one KV transfer attempt.
     *
     * @param req Request being moved.
     * @param nonce Per-request attempt counter (monotonic).
     * @return True if this attempt fails in flight.
     */
    bool drawLinkFailure(RequestId req, std::uint64_t nonce) const;

  private:
    /** Per-instance chain state. */
    struct NodeState
    {
        Rng lifecycleRng{1};
        Rng stragglerRng{1};
        bool down = false;
        bool draining = false;
        bool straggling = false;
    };

    void armLifecycle(InstanceId id);
    void armStraggler(InstanceId id);
    void fireLifecycle(InstanceId id);
    void fireStraggler(InstanceId id);
    void fireDrainDeadline(InstanceId id);
    void fireRecover(InstanceId id);
    void fireStragglerEnd(InstanceId id);

    sim::Simulator& sim;
    FaultConfig cfg;
    FaultHooks hooks;
    std::vector<NodeState> nodes;
};

} // namespace fault
} // namespace pascal

#endif // PASCAL_FAULT_FAULT_INJECTOR_HH
