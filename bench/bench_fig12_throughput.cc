/**
 * @file
 * Regenerates Fig. 12: serving throughput (generated tokens/s,
 * reasoning + answering) across request-arrival rates for FCFS, RR,
 * and PASCAL on both chat datasets.
 *
 * Expected shape (paper): the three schedulers are within ~3 % of each
 * other at every rate — phase-aware scheduling buys its latency wins
 * without sacrificing throughput.
 */

#include <algorithm>
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

    // Three independent trials per cell; makespan (and hence
    // throughput) is sensitive to the longest sampled requests.
    const std::uint64_t seeds[] = {1212, 2323, 3434};

    std::printf("\n=== %s (n=%d, %zu trials) ===\n",
                bench.profile.name.c_str(), bench.numRequests,
                std::size(seeds));
    std::printf("%-8s %14s %14s %14s\n", "policy", "low (tok/s)",
                "medium (tok/s)", "high (tok/s)");

    std::vector<std::vector<double>> table;
    for (const auto& policy : mainPolicies()) {
        std::vector<double> row;
        std::printf("%-8s", policy.label.c_str());
        for (const auto& rate_case : rates) {
            double tput = 0.0;
            for (auto seed : seeds) {
                auto trace = makeTrace(bench, rate_case.rate, seed);
                auto result = cluster::RunContext::execute(
                    clusterConfig(policy), trace);
                tput += result.aggregate.throughputTokensPerSec;
            }
            row.push_back(tput / static_cast<double>(std::size(seeds)));
            std::printf(" %14.0f", row.back());
        }
        std::printf("\n");
        table.push_back(row);
    }

    // Max relative spread across policies at each rate.
    double worst_spread = 0.0;
    for (std::size_t j = 0; j < rates.size(); ++j) {
        double lo = table[0][j], hi = table[0][j];
        for (const auto& row : table) {
            lo = std::min(lo, row[j]);
            hi = std::max(hi, row[j]);
        }
        worst_spread = std::max(worst_spread, (hi - lo) / hi);
    }
    std::printf("max cross-policy throughput spread: %.1f%% "
                "(paper: <= ~3%%)\n",
                100.0 * worst_spread);
}

} // namespace

int
main()
{
    header("Fig. 12", "Serving throughput across arrival rates");
    runDataset(alpacaBench());
    runDataset(arenaBench());
    return 0;
}
