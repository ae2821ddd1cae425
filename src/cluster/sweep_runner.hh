/**
 * @file
 * SweepRunner: parallel experiment grids over the serving simulator.
 *
 * The paper's evaluation (Figs. 9-16) is thousands of independent
 * simulated runs crossing schedulers, placement policies, traces, and
 * seeds. SweepRunner fans such a grid across a thread pool: every
 * grid point gets its own RunContext (fresh simulator + cluster), so
 * each simulation stays single-threaded and bit-reproducible, and the
 * collected SweepResult is in deterministic grid order no matter how
 * many worker threads ran it or how they interleaved.
 *
 * Quickstart:
 *   SweepRunner runner;
 *   auto t = runner.addGeneratedTrace(
 *       workload::DatasetProfile::alpacaEval(), 1000, 25.0, 7);
 *   runner.addGrid({SystemConfig::baseline(SchedulerType::Fcfs),
 *                   SystemConfig::pascal()},
 *                  {t}, {7});
 *   SweepResult result = runner.run(4);
 *   const SweepOutcome* best =
 *       result.bestBy([](const RunResult& r) {
 *           return r.aggregate.p99Ttft;
 *       });
 */

#ifndef PASCAL_CLUSTER_SWEEP_RUNNER_HH
#define PASCAL_CLUSTER_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/run_result.hh"
#include "src/cluster/system_config.hh"
#include "src/workload/datasets.hh"
#include "src/workload/trace.hh"

namespace pascal
{
namespace cluster
{

/** One experiment in the grid: a deployment config applied to one
 *  registered trace, tagged with the seed that produced the trace (or
 *  distinguishes the replicate). */
struct SweepPoint
{
    std::string label;         //!< Free-form tag for reports.
    SystemConfig config;
    std::size_t traceIndex = 0; //!< Into SweepRunner's trace registry.
    std::uint64_t seed = 0;     //!< Recorded in the outcome.
};

/** One grid point's scored run. */
struct SweepOutcome
{
    std::string label;
    std::size_t traceIndex = 0;
    std::uint64_t seed = 0;
    RunResult result;
};

/** A metric extracted from one run, e.g. p99 TTFT. */
using SweepMetric = std::function<double(const RunResult&)>;

/** All outcomes of a sweep, in grid (insertion) order. */
struct SweepResult
{
    std::vector<SweepOutcome> outcomes;

    std::size_t size() const { return outcomes.size(); }

    /** Outcome minimizing (default) or maximizing @p metric; nullptr
     *  on an empty sweep. Ties keep the earliest grid point. */
    const SweepOutcome* bestBy(const SweepMetric& metric,
                               bool minimize = true) const;

    /** Mean of @p metric across all outcomes (0 when empty). */
    double meanOf(const SweepMetric& metric) const;

    /** First outcome with the given label; nullptr if absent. */
    const SweepOutcome* find(const std::string& label) const;

    /** Outcomes whose label satisfies @p pred, in grid order. */
    std::vector<const SweepOutcome*>
    where(const std::function<bool(const SweepOutcome&)>& pred) const;
};

/** Builds and executes experiment grids. */
class SweepRunner
{
  public:
    /**
     * Register a trace shared by any number of grid points. The trace
     * becomes an immutable shared arena: every grid point (and any
     * harness holding a traceHandle()) references the same frozen
     * copy, so a thousand-point grid over a million-request trace
     * carries exactly one spec array.
     * @return Index for SweepPoint::traceIndex.
     */
    std::size_t addTrace(workload::Trace trace);

    /** Register an already-shared trace without copying. */
    std::size_t addTrace(std::shared_ptr<const workload::Trace> trace);

    /** Generate a Poisson trace from @p profile with Rng(@p seed) and
     *  register it; the trace records its generating
     *  {profile, n, rate, seed} provenance so sweep artifacts are
     *  self-describing. @return The trace index. */
    std::size_t addGeneratedTrace(const workload::DatasetProfile& profile,
                                  int n, double rate_per_sec,
                                  std::uint64_t seed,
                                  Time start_time = 0.0);

    /** Append one grid point. An empty label is auto-filled with
     *  "<scheduler>/<placement>/t<trace>/s<seed>", with
     *  "/<predictor>" spliced in after the placement when the config
     *  carries one.
     *  @return The point's index (== its position in the results). */
    std::size_t add(SweepPoint point);

    /**
     * Append the full cartesian grid configs x traces x seeds, in
     * nested deterministic order (configs outermost, seeds innermost).
     * @p seeds defaults to the single seed 0.
     */
    void addGrid(const std::vector<SystemConfig>& configs,
                 const std::vector<std::size_t>& trace_indices,
                 const std::vector<std::uint64_t>& seeds = {});

    /**
     * Predictor-crossed grid: every config is additionally run under
     * every predictor of @p predictors (overwriting the config's own
     * predictor knobs). Order: configs outermost, then predictors,
     * then traces, then seeds. Reactive configs crossed with a
     * PredictorType::None entry reproduce the plain addGrid point.
     */
    void addPredictorGrid(
        const std::vector<SystemConfig>& configs,
        const std::vector<predict::PredictorConfig>& predictors,
        const std::vector<std::size_t>& trace_indices,
        const std::vector<std::uint64_t>& seeds = {});

    /**
     * Run every grid point and collect results in grid order.
     *
     * @param num_threads Worker threads; 0 picks the hardware
     *        concurrency; 1 runs serially on the calling thread.
     *        Results are identical for every thread count.
     * @throws FatalError if any point's run fails (first error wins).
     */
    SweepResult run(int num_threads = 0) const;

    std::size_t numPoints() const { return points.size(); }
    std::size_t numTraces() const { return traces.size(); }
    const workload::Trace& trace(std::size_t i) const;

    /** Shared ownership of a registered trace (outlives the runner;
     *  lets harnesses keep replaying without a copy). */
    std::shared_ptr<const workload::Trace>
    traceHandle(std::size_t i) const;

    const SweepPoint& point(std::size_t i) const;

  private:
    std::vector<std::shared_ptr<const workload::Trace>> traces;
    std::vector<SweepPoint> points;
};

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_SWEEP_RUNNER_HH
