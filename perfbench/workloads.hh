/**
 * @file
 * The benchmark's named workloads: for each, the deployment it runs
 * under and the open-loop trace it feeds that deployment, both built
 * from the workload seed alone. README.md records why each was chosen.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/cluster/system_config.hh"
#include "src/workload/trace.hh"

namespace perfbench
{

enum class WorkloadId
{
    ReasoningSteady, //!< Section V-D math/science/code mix, PASCAL.
    ChatBurst,       //!< AlpacaEval on/off bursts across the knee.
    SpecFaults,      //!< Fig. 16 mix, PASCAL-Spec + classes + faults.
};

/** Parse a workload name; @return false for an unknown name. */
bool parseWorkload(const std::string& name, WorkloadId* out);

const char* workloadName(WorkloadId w);

/** The deployment @p w runs under (its fault chains, if any, are
 *  seeded from @p seed). */
pascal::cluster::SystemConfig workloadConfig(WorkloadId w,
                                             std::uint64_t seed);

/** Generate @p w's trace from @p seed through workload::generate*. */
pascal::workload::Trace workloadTrace(WorkloadId w, std::uint64_t seed);

/** Requests in the prefix the force-recompute twin replays. */
std::size_t twinPrefixRequests(WorkloadId w);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
