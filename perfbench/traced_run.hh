/**
 * @file
 * The traced run: one workload run whose layers are timed from
 * outside, through the public API. Top-level spans wrap the calls
 * into each layer; under sim.run, every Simulator::run(horizon, 1)
 * step is one event span, named from the deltas of the public
 * counters across the step. Spans stay in memory and are written as
 * Chrome trace-event JSON at the end.
 */

#ifndef PERFBENCH_TRACED_RUN_HH
#define PERFBENCH_TRACED_RUN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"

#include "workloads.hh"

namespace perfbench
{

/** Cluster-wide sums of the public engine, plan, view and fault
 *  counters. */
struct ClusterCounters
{
    std::uint64_t planReuses = 0;
    std::uint64_t planBuilds = 0;  //!< Repairs + full walks.
    std::uint64_t planRepairs = 0;
    std::uint64_t iterations = 0;
    std::uint64_t decodeTokens = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t sloRekeys = 0;
    std::uint64_t viewBuilds = 0; //!< Placement decisions.
    std::uint64_t viewRefreshes = 0;
    std::uint64_t migrations = 0;
    std::uint64_t faults = 0; //!< Crashes, drains, stragglers, links,
                              //!< retries and terminal failures.

    std::uint64_t fullWalks() const { return planBuilds - planRepairs; }
};

ClusterCounters readCounters(const pascal::cluster::Cluster& c);

/** What one event step did, by the public counters it moved. */
enum class EventKind : std::uint8_t
{
    IterReuse,
    IterRepair,
    IterFullWalk,
    Place,   //!< A placement decision with no plan boundary.
    Migrate, //!< A migration started or landed, nothing else.
    Fault,   //!< Fault-layer accounting moved, nothing else.
    Other,
};
constexpr std::size_t kNumEventKinds = 7;

const char* eventSpanName(EventKind k);

/** One Simulator::run(horizon, 1) step. */
struct EventSpan
{
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    std::uint32_t placements = 0; //!< Decisions made inside the step.
    EventKind kind = EventKind::Other;
};

/** A span around one call into a layer. */
struct TopSpan
{
    const char* name = "";
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
};

struct TracedRun
{
    std::vector<TopSpan> top; //!< generate, construct, submit, run, score.
    std::vector<EventSpan> events;
    pascal::cluster::RunResult result;
    ClusterCounters counters; //!< At the end of the run.

    /** Duration of the top-level span named @p name (0 if absent). */
    std::uint64_t topNs(const std::string& name) const;
};

/** Run @p w on @p seed's trace, stepping one event at a time. */
TracedRun tracedRun(WorkloadId w, std::uint64_t seed);

/** Write @p run's spans as Chrome trace-event JSON to @p path.
 *  @return false if the file could not be written. */
bool writeChromeTrace(const TracedRun& run, const std::string& path);

} // namespace perfbench

#endif // PERFBENCH_TRACED_RUN_HH
