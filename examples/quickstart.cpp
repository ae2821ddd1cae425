/**
 * @file
 * Quickstart: build a 4-instance PASCAL deployment, synthesize a small
 * AlpacaEval-style trace, run it, and print the headline metrics.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "src/cluster/run_context.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"

int
main()
{
    using namespace pascal;

    // 1. Describe the deployment: DeepSeek-R1-Distill-Qwen-32B on
    //    H100-96GB nodes, PASCAL scheduling at both levels.
    cluster::SystemConfig cfg = cluster::SystemConfig::pascal(4);

    // 2. Synthesize a serving trace: 200 AlpacaEval-like requests
    //    arriving at 6 requests/second.
    Rng rng(/*seed=*/42);
    workload::Trace trace = workload::generateTrace(
        workload::DatasetProfile::alpacaEval(), /*n=*/200,
        /*rate_per_sec=*/6.0, rng);

    // 3. Run the simulation.
    cluster::RunResult result = cluster::RunContext::execute(cfg, trace);

    // 4. Report.
    const auto& agg = result.aggregate;
    std::printf("scheduler            : %s + %s\n",
                result.schedulerName.c_str(),
                result.placementName.c_str());
    std::printf("requests finished    : %zu / %zu\n", agg.numFinished,
                agg.numRequests);
    std::printf("makespan             : %.1f s\n", agg.makespan);
    std::printf("throughput           : %.0f tokens/s\n",
                agg.throughputTokensPerSec);
    std::printf("TTFT mean / p50 / p99: %.2f / %.2f / %.2f s\n",
                agg.meanTtft, agg.p50Ttft, agg.p99Ttft);
    std::printf("mean QoE             : %.4f\n", agg.meanQoe);
    std::printf("SLO violation rate   : %.2f %%\n",
                100.0 * agg.sloViolationRate);
    std::printf("migrations           : %d (P99 KV transfer %.3f s)\n",
                agg.totalMigrations, agg.p99KvTransferLatency);
    return 0;
}
