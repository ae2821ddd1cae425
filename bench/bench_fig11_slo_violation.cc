/**
 * @file
 * Regenerates Fig. 11: answering-phase SLO violation rates across
 * request-arrival rates for FCFS, RR, and PASCAL on both chat
 * datasets. A violation is QoE < 0.95 with QoE computed from TPOT
 * starting at the first answering token (Section V-A).
 *
 * Expected shape (paper): PASCAL's violation rate is lower than or
 * comparable to both baselines at every rate (0-5 % band).
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using namespace pascal::bench;

void
runDataset(const DatasetBench& bench)
{
    struct RateCase
    {
        const char* label;
        double rate;
    };
    std::vector<RateCase> rates = {{"low", bench.lowRate},
                                   {"medium", bench.mediumRate},
                                   {"high", bench.highRate}};

    // Three independent trials per cell; violation rates at these
    // scales are noisy single-run statistics.
    const std::uint64_t seeds[] = {1111, 2222, 3333};

    std::printf("\n=== %s (n=%d, %zu trials) ===\n",
                bench.profile.name.c_str(), bench.numRequests,
                std::size(seeds));
    std::printf("%-8s %12s %12s %12s\n", "policy", "low", "medium",
                "high");
    for (const auto& policy : mainPolicies()) {
        std::printf("%-8s", policy.label.c_str());
        for (const auto& rate_case : rates) {
            double violation = 0.0;
            for (auto seed : seeds) {
                auto trace = makeTrace(bench, rate_case.rate, seed);
                auto result = cluster::RunContext::execute(
                    clusterConfig(policy), trace);
                violation += result.aggregate.sloViolationRate;
            }
            violation /= static_cast<double>(std::size(seeds));
            std::printf(" %11.2f%%", 100.0 * violation);
        }
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    header("Fig. 11", "Answering-phase SLO violation rates across "
                      "arrival rates");
    runDataset(alpacaBench());
    runDataset(arenaBench());
    std::printf("\nExpected shape: PASCAL <= baselines at every rate; "
                "violations grow with load for everyone.\n");
    return 0;
}
