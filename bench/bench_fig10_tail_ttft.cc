/**
 * @file
 * Regenerates Fig. 10: tail TTFT by reasoning-token length (256-token
 * bins, adaptive percentile per the figure caption) under the high
 * arrival rate, for FCFS, RR, and PASCAL on AlpacaEval 2.0 and
 * Arena-Hard.
 *
 * Headline (paper): PASCAL cuts tail TTFT by up to 61 % (AlpacaEval)
 * and 72 % (Arena-Hard) vs FCFS, and by ~33 %/29 % vs RR.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using namespace pascal::bench;

using TailMap = std::map<double, double>; // bin lo -> tail TTFT.

/** Seeds pooled per policy: bin tails are noisy statistics, so each
 *  policy sees the same three independent trials. */
constexpr std::uint64_t kSeeds[] = {1010, 2020, 3030};

TailMap
tailsFor(const PolicyUnderTest& policy, const DatasetBench& bench)
{
    stats::BinnedTail binned(256.0);
    for (auto seed : kSeeds) {
        auto trace = makeTrace(bench, bench.highRate, seed);
        auto result = cluster::RunContext::execute(
            clusterConfig(policy), trace);
        for (const auto& m : result.perRequest) {
            if (m.finished)
                binned.add(static_cast<double>(m.reasoningTokens),
                           m.ttft);
        }
    }

    TailMap out;
    for (const auto& bin : binned.reduce()) {
        if (bin.tail.has_value())
            out[bin.lo] = *bin.tail;
    }
    return out;
}

void
runDataset(const DatasetBench& bench, double paper_vs_fcfs,
           double paper_vs_rr)
{
    std::printf("\n=== %s, high rate (%.1f req/s, n=%d, %zu trials) "
                "===\n",
                bench.profile.name.c_str(), bench.highRate,
                bench.numRequests, std::size(kSeeds));

    auto policies = mainPolicies();
    std::vector<TailMap> tails;
    for (const auto& p : policies)
        tails.push_back(tailsFor(p, bench));

    std::printf("%-14s %10s %10s %10s %9s %9s\n", "reasoning bin",
                "FCFS", "RR", "PASCAL", "vs FCFS", "vs RR");
    rule();

    double best_vs_fcfs = 0.0, best_vs_rr = 0.0;
    for (const auto& [lo, fcfs_tail] : tails[0]) {
        auto rr_it = tails[1].find(lo);
        auto pa_it = tails[2].find(lo);
        if (rr_it == tails[1].end() || pa_it == tails[2].end())
            continue;
        double rr_tail = rr_it->second;
        double pa_tail = pa_it->second;
        double vs_fcfs = 100.0 * (1.0 - pa_tail / fcfs_tail);
        double vs_rr = 100.0 * (1.0 - pa_tail / rr_tail);
        best_vs_fcfs = std::max(best_vs_fcfs, vs_fcfs);
        best_vs_rr = std::max(best_vs_rr, vs_rr);
        std::printf("[%5.0f,%5.0f) %10.1f %10.1f %10.1f %8.0f%% "
                    "%8.0f%%\n",
                    lo, lo + 256.0, fcfs_tail, rr_tail, pa_tail,
                    vs_fcfs, vs_rr);
    }
    rule();
    std::printf("max tail-TTFT reduction: vs FCFS %.0f%% (paper up to "
                "%.0f%%), vs RR %.0f%% (paper up to %.0f%%)\n",
                best_vs_fcfs, paper_vs_fcfs, best_vs_rr, paper_vs_rr);
}

} // namespace

int
main()
{
    header("Fig. 10", "Tail TTFT by reasoning-token bin, high "
                      "arrival rate (adaptive tail statistic)");
    runDataset(alpacaBench(), 61.0, 33.0);
    runDataset(arenaBench(), 72.0, 29.0);
    return 0;
}
