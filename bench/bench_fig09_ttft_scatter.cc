/**
 * @file
 * Regenerates Fig. 9: absolute TTFT as a function of reasoning-token
 * length under low/medium/high arrival rates, for FCFS, RR, and
 * PASCAL on both chat datasets (8-instance cluster).
 *
 * The figure is a scatter; the bench prints per-policy TTFT summary
 * statistics per rate plus the mean TTFT within coarse reasoning-token
 * bands, which captures the scatter's structure (how TTFT scales with
 * reasoning length and how the policies separate as load grows).
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

    std::printf("\n=== %s (n=%d) ===\n", bench.profile.name.c_str(),
                bench.numRequests);
    for (const auto& rate_case : rates) {
        auto trace = makeTrace(bench, rate_case.rate, 909);
        std::printf("\n-- arrival rate: %s (%.1f req/s) --\n",
                    rate_case.label, rate_case.rate);
        std::printf("%-8s %9s %9s %9s %9s %22s\n", "policy", "mean",
                    "p50", "p99", "max", "mean TTFT by r-band");
        std::printf("%-8s %9s %9s %9s %9s %7s %7s %7s\n", "", "(s)",
                    "(s)", "(s)", "(s)", "<1k", "1k-3k", ">3k");
        for (const auto& policy : mainPolicies()) {
            auto result = cluster::RunContext::execute(
                clusterConfig(policy), trace);

            std::vector<double> ttfts;
            stats::Summary band_short, band_mid, band_long;
            for (const auto& m : result.perRequest) {
                if (!m.finished)
                    continue;
                ttfts.push_back(m.ttft);
                if (m.reasoningTokens < 1000)
                    band_short.add(m.ttft);
                else if (m.reasoningTokens < 3000)
                    band_mid.add(m.ttft);
                else
                    band_long.add(m.ttft);
            }
            std::printf("%-8s %9.2f %9.2f %9.2f %9.2f %7.1f %7.1f "
                        "%7.1f\n",
                        policy.label.c_str(), meanOf(ttfts),
                        stats::percentile(ttfts, 50.0),
                        stats::percentile(ttfts, 99.0),
                        stats::percentile(ttfts, 100.0),
                        band_short.mean(), band_mid.mean(),
                        band_long.mean());
        }
    }
}

} // namespace

int
main()
{
    header("Fig. 9", "Absolute TTFT vs reasoning length across "
                     "arrival rates (8 instances)");
    runDataset(alpacaBench());
    runDataset(arenaBench());
    std::printf("\nExpected shape: policies are close at low rate; at "
                "high rate FCFS's TTFT inflates even for short "
                "reasoning requests, RR inflates for long ones, and "
                "PASCAL stays lowest overall.\n");
    return 0;
}
