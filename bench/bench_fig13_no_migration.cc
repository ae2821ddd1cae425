/**
 * @file
 * Regenerates Fig. 13: the importance of migrating requests at the
 * reasoning->answering boundary. PASCAL(NoMigration) keeps the
 * hierarchical queues but pins every request to its Algorithm-1
 * instance.
 *
 * Expected shape (paper): (a) worse tail TTFT at high rate, (b)
 * reasoning latency nearly unchanged, (c) P99 blocking latency
 * (transition -> first answering-phase schedule) up to ~27 s vs ~0 for
 * PASCAL, (d) higher answering SLO violation rates.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using namespace pascal::bench;

struct Outcome
{
    double meanTtft = 0.0;
    double p99Ttft = 0.0;
    double meanReasoningLatency = 0.0;
    double p99Blocking = 0.0;
    double sloViolation = 0.0;
};

/** Three pooled trials per cell: migration benefits live in the tail
 *  and single runs are noisy near the saturation knee. */
constexpr std::uint64_t kSeeds[] = {1414, 2525, 3636};

Outcome
runPooled(cluster::PlacementType placement, const DatasetBench& bench,
          double rate)
{
    PolicyUnderTest policy{"", cluster::SchedulerType::Pascal,
                           placement};

    Outcome o;
    std::vector<double> ttfts, blockings;
    stats::Summary reasoning;
    double violation = 0.0;
    for (auto seed : kSeeds) {
        Rng rng(seed);
        auto trace = workload::generateTrace(bench.profile,
                                             bench.numRequests, rate,
                                             rng);
        auto result = cluster::RunContext::execute(
            clusterConfig(policy), trace);
        for (const auto& m : result.perRequest) {
            if (!m.finished)
                continue;
            ttfts.push_back(m.ttft);
            blockings.push_back(m.blockingLatency);
            reasoning.add(m.reasoningLatency);
        }
        violation += result.aggregate.sloViolationRate;
    }
    o.meanTtft = meanOf(ttfts);
    o.p99Ttft = stats::percentile(ttfts, 99.0);
    o.meanReasoningLatency = reasoning.mean();
    o.p99Blocking = stats::percentile(blockings, 99.0);
    o.sloViolation = violation / static_cast<double>(std::size(kSeeds));
    return o;
}

} // namespace

int
main()
{
    header("Fig. 13", "PASCAL vs PASCAL(NoMigration) on AlpacaEval "
                      "(migration ablation)");
    auto bench = alpacaBench();

    // Migration matters at the saturation knee, where instances
    // saturate transiently while slack still exists elsewhere; the
    // sweep therefore extends past the main experiments' high rate.
    struct RateCase
    {
        const char* label;
        double rate;
    };
    std::vector<RateCase> rates = {{"medium", bench.mediumRate},
                                   {"high", bench.highRate},
                                   {"knee", 36.0},
                                   {"over", 40.0}};

    std::printf("%-8s %-16s %9s %9s %10s %11s %8s\n", "rate",
                "variant", "mean-TTFT", "p99-TTFT", "reasoning",
                "p99-block", "SLO-vio");
    rule();
    for (const auto& rate_case : rates) {
        auto full = runPooled(cluster::PlacementType::Pascal, bench,
                              rate_case.rate);
        auto pinned = runPooled(
            cluster::PlacementType::PascalNoMigration, bench,
            rate_case.rate);

        auto print_row = [&](const char* name, const Outcome& o) {
            std::printf("%-8s %-16s %9.2f %9.2f %10.2f %11.3f %7.2f%%\n",
                        rate_case.label, name, o.meanTtft, o.p99Ttft,
                        o.meanReasoningLatency, o.p99Blocking,
                        100.0 * o.sloViolation);
        };
        print_row("PASCAL", full);
        print_row("NoMigration", pinned);
        rule();
    }
    std::printf("\nExpected: reasoning latency ~unchanged everywhere. "
                "At the high rate NoMigration's P99 blocking latency "
                "and SLO violation rate exceed PASCAL's (paper: "
                "27.39 s blocking vs ~0). Past the saturation knee "
                "this simulator's symmetric Poisson load saturates "
                "every instance at once, so both variants degrade "
                "together — the paper's larger gap relies on load "
                "asymmetry between instances (see EXPERIMENTS.md).\n");
    return 0;
}
