/**
 * @file
 * Regenerates Fig. 16: the reasoning-heavy mixed workload. 50 % of the
 * Arena-Hard trace is replaced by requests sampled uniformly from
 * MATH-500, GPQA, and LiveCodeBench (long reasoning, short answers).
 *
 * Expected shape (paper): PASCAL still cuts tail TTFT for short
 * reasoning segments by up to ~70 % vs FCFS; gains vs RR shrink
 * (answering phases are too short to contend) but stay competitive,
 * with worst-case degradation under ~8 %.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using namespace pascal::bench;

} // namespace

int
main()
{
    header("Fig. 16", "Mixed reasoning-heavy workload (50 % "
                      "Arena-Hard + 50 % MATH/GPQA/LCB), high rate");

    std::vector<workload::MixComponent> mix = {
        {workload::DatasetProfile::arenaHard(), 3.0},
        {workload::DatasetProfile::math500(), 1.0},
        {workload::DatasetProfile::gpqa(), 1.0},
        {workload::DatasetProfile::liveCodeBench(), 1.0},
    };
    // Rate calibrated to the simulated cluster's saturation knee for
    // this mix (memory pressure present, not globally collapsed).
    // Three independent trials are pooled per policy: bin tails are
    // noisy statistics.
    const std::uint64_t seeds[] = {1616, 1717, 1818};

    std::printf("(a) TTFT distribution\n");
    std::printf("%-8s %9s %9s %9s %9s\n", "policy", "mean", "p50",
                "p90", "p99");

    std::vector<std::map<double, double>> tails;
    for (const auto& policy : mainPolicies()) {
        std::vector<double> ttfts;
        stats::BinnedTail binned(256.0);
        for (auto seed : seeds) {
            Rng rng(seed);
            auto trace =
                workload::generateMixedTrace(mix, 1200, 12.0, rng);
            auto result = cluster::RunContext::execute(
                clusterConfig(policy), trace);
            for (const auto& m : result.perRequest) {
                if (!m.finished)
                    continue;
                ttfts.push_back(m.ttft);
                binned.add(static_cast<double>(m.reasoningTokens),
                           m.ttft);
            }
        }
        std::printf("%-8s %9.2f %9.2f %9.2f %9.2f\n",
                    policy.label.c_str(), meanOf(ttfts),
                    stats::percentile(ttfts, 50.0),
                    stats::percentile(ttfts, 90.0),
                    stats::percentile(ttfts, 99.0));

        std::map<double, double> tail_map;
        for (const auto& bin : binned.reduce()) {
            if (bin.tail.has_value())
                tail_map[bin.lo] = *bin.tail;
        }
        tails.push_back(std::move(tail_map));
    }

    std::printf("\n(b) tail TTFT by reasoning-token bin\n");
    std::printf("%-14s %10s %10s %10s %9s %9s\n", "reasoning bin",
                "FCFS", "RR", "PASCAL", "vs FCFS", "vs RR");
    rule();
    double best_vs_fcfs = 0.0, worst_vs_rr = 0.0, best_vs_rr = 0.0;
    for (const auto& [lo, fcfs_tail] : tails[0]) {
        auto rr_it = tails[1].find(lo);
        auto pa_it = tails[2].find(lo);
        if (rr_it == tails[1].end() || pa_it == tails[2].end())
            continue;
        double vs_fcfs = 100.0 * (1.0 - pa_it->second / fcfs_tail);
        double vs_rr = 100.0 * (1.0 - pa_it->second / rr_it->second);
        best_vs_fcfs = std::max(best_vs_fcfs, vs_fcfs);
        best_vs_rr = std::max(best_vs_rr, vs_rr);
        worst_vs_rr = std::min(worst_vs_rr, vs_rr);
        std::printf("[%5.0f,%5.0f) %10.1f %10.1f %10.1f %8.0f%% "
                    "%8.0f%%\n",
                    lo, lo + 256.0, fcfs_tail, rr_it->second,
                    pa_it->second, vs_fcfs, vs_rr);
    }
    rule();
    std::printf("max reduction vs FCFS: %.0f%% (paper: up to 70%%); "
                "best vs RR: %.0f%% (paper: up to 13.9%%); worst vs "
                "RR: %.0f%% (paper: within -7.7%%)\n",
                best_vs_fcfs, best_vs_rr, worst_vs_rr);
    return 0;
}
