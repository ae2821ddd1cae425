/**
 * @file
 * Output checks every benchmark run applies: a digest of the scored
 * RunResult (for traced-vs-untraced and fast-vs-force-twin identity),
 * totality and leak checks, and the regime guards that keep each
 * workload exercising the layer it was chosen for.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"

#include "workloads.hh"

namespace perfbench
{

/**
 * Digest of every RunResult field the repository's byte-identity
 * tests compare (tests/run_result_util.hh): per-request rows,
 * aggregates, failure and per-class outcomes, migration latencies and
 * policy names. Fast-path diagnostics and telemetry are excluded, so
 * force-recompute twins and traced runs digest identically.
 */
std::uint64_t resultDigest(const pascal::cluster::RunResult& r);

/** Failed checks, collected so one run reports all of them. */
class CheckLog
{
  public:
    void require(bool ok, const std::string& what);
    bool passed() const { return failures.empty(); }
    const std::vector<std::string>& messages() const { return failures; }

  private:
    std::vector<std::string> failures;
};

/**
 * Totality (overall, and per SLO class when classes are on), no
 * requests lost to the horizon, no failed or unfinished requests on
 * the fault-free workloads, no NaN or inf in any row or aggregate,
 * and every instance's KV pool empty at the end.
 */
void checkOutputs(WorkloadId w, const pascal::workload::Trace& trace,
                  const pascal::cluster::RunContext& ctx,
                  const pascal::cluster::RunResult& r, CheckLog& log);

/**
 * Regime guards from exact counts: reasoning-steady reuses plans most
 * and its TTFT does not grow across the trace; chat-burst full-walks
 * more than it reuses, swaps, and has same-timestamp arrivals;
 * spec-faults crashes, retries and sheds under a real predictor.
 */
void checkRegime(WorkloadId w, const pascal::workload::Trace& trace,
                 const pascal::cluster::RunContext& ctx,
                 const pascal::cluster::RunResult& r, CheckLog& log);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
