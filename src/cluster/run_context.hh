/**
 * @file
 * RunContext: the wiring for one simulated serving run.
 *
 * A RunContext owns a fresh Simulator and Cluster built from one
 * SystemConfig, and knows how to score the finished simulation into a
 * RunResult. It is the library's one entry point: execute() is the
 * one-shot run; harnesses that need more control (stepping the clock,
 * inspecting instances mid-run, attaching extra probes before the run
 * starts) construct a RunContext directly. SweepRunner builds one per
 * grid point, so runs stay independent and bit-reproducible.
 *
 *   RunResult r = RunContext::execute(SystemConfig::pascal(8), trace);
 */

#ifndef PASCAL_CLUSTER_RUN_CONTEXT_HH
#define PASCAL_CLUSTER_RUN_CONTEXT_HH

#include <memory>

#include "src/cluster/cluster.hh"
#include "src/cluster/run_result.hh"
#include "src/cluster/system_config.hh"
#include "src/sim/simulator.hh"
#include "src/workload/trace.hh"

namespace pascal
{
namespace cluster
{

/** Simulator + cluster + scoring for exactly one run. */
class RunContext
{
  public:
    /** Build a fresh simulator and cluster from @p cfg (copied and
     *  validated). */
    explicit RunContext(const SystemConfig& cfg);

    /** Schedule every request of @p trace as an arrival event. */
    void submit(const workload::Trace& trace);

    /**
     * Drive the simulation until the queue drains or simulated time
     * would exceed @p until (default: the config's horizon). Can be
     * called repeatedly with growing horizons to step a run; every
     * chunk ends with Cluster::catchUp(), so hosted requests can be
     * inspected in between.
     *
     * @return Number of events executed.
     */
    std::uint64_t run(Time until = -1.0);

    /** Score the simulation into a RunResult. Warns if the horizon
     *  cut the run short — but not for mid-run inspection of a
     *  stepped run, where pending events and unfinished requests are
     *  expected. Settles lazy decode stretches first. */
    RunResult result();

    /** One-shot convenience: submit, run, score. */
    static RunResult execute(const SystemConfig& cfg,
                             const workload::Trace& trace);

    sim::Simulator& simulator() { return sim; }
    Cluster& cluster() { return *clusterPtr; }
    const Cluster& cluster() const { return *clusterPtr; }
    const SystemConfig& config() const { return cfg; }

  private:
    SystemConfig cfg;
    sim::Simulator sim;
    std::unique_ptr<Cluster> clusterPtr;

    /** True once run() was asked to drive to the config horizon;
     *  gates the cut-short warnings in result(). */
    bool ranToHorizon = false;
};

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_RUN_CONTEXT_HH
