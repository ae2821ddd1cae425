/**
 * @file
 * Regenerates Fig. 4: reasoning-phase latency breakdown (executed /
 * blocked / preempted) under oracle, FCFS, and RR for reasoning
 * lengths {128, 256, 512, 1024, 2048}, single instance, 300 Poisson
 * requests, prompt 128, memory capped at 50 % of the oracle peak.
 *
 * Expected shape (paper): FCFS inflates short requests the most
 * (blocking, up to ~5x oracle at 128 tokens); RR inflates long
 * requests (repeated preemption, up to ~1.75x at 2048 tokens);
 * executed time stays near the oracle everywhere.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using namespace pascal::bench;

struct Row
{
    double executed = 0.0;
    double blocked = 0.0;
    double preempted = 0.0;
    int count = 0;

    double total() const { return executed + blocked + preempted; }
};

cluster::SystemConfig
baseConfig(cluster::SchedulerType sched)
{
    cluster::SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = cluster::PlacementType::Baseline;
    cfg.numInstances = 1;
    // Generous admission so the oracle run is not admission-limited.
    cfg.limits.maxPrefillTokens = 16384;
    cfg.limits.maxPrefillSeqs = 64;
    return cfg;
}

std::map<TokenCount, Row>
runAndGroup(const cluster::SystemConfig& cfg,
            const workload::Trace& trace)
{
    auto result = cluster::RunContext::execute(cfg, trace);

    std::map<TokenCount, Row> rows;
    for (const auto& m : result.perRequest) {
        if (!m.finished)
            continue;
        Row& row = rows[m.reasoningTokens];
        row.executed += m.reasoningBuckets.executed;
        row.blocked += m.reasoningBuckets.blocked;
        row.preempted += m.reasoningBuckets.preempted;
        ++row.count;
    }
    for (auto& [len, row] : rows) {
        row.executed /= row.count;
        row.blocked /= row.count;
        row.preempted /= row.count;
    }
    return rows;
}

} // namespace

int
main()
{
    header("Fig. 4", "Reasoning-phase latency breakdown, "
                     "oracle vs FCFS vs RR (50 % memory)");

    Rng rng(2024);
    auto trace =
        workload::generateReasoningCharacterization(300, 3.0, rng);

    // Oracle: capacity that holds every request's final KV at once.
    TokenCount oracle_capacity = 0;
    for (const auto& s : trace.requests) {
        oracle_capacity += s.promptTokens + s.reasoningTokens +
                           s.answerTokens + 1;
    }
    auto oracle_cfg = baseConfig(cluster::SchedulerType::Fcfs);
    oracle_cfg.gpuKvCapacityTokens = cluster::SystemConfig::alignKvCapacity(
        oracle_capacity, oracle_cfg.kvBlockSizeTokens);

    auto oracle_run = cluster::RunContext::execute(oracle_cfg, trace);
    TokenCount constrained = cluster::SystemConfig::alignKvCapacity(
        oracle_run.peakGpuKvTokens / 2, oracle_cfg.kvBlockSizeTokens);
    std::printf("oracle peak KV usage: %lld tokens; constrained "
                "capacity (50 %%): %lld tokens\n\n",
                static_cast<long long>(oracle_run.peakGpuKvTokens),
                static_cast<long long>(constrained));

    auto oracle_rows = runAndGroup(oracle_cfg, trace);

    auto fcfs_cfg = baseConfig(cluster::SchedulerType::Fcfs);
    fcfs_cfg.gpuKvCapacityTokens = constrained;
    auto fcfs_rows = runAndGroup(fcfs_cfg, trace);

    auto rr_cfg = baseConfig(cluster::SchedulerType::Rr);
    rr_cfg.gpuKvCapacityTokens = constrained;
    auto rr_rows = runAndGroup(rr_cfg, trace);

    std::printf("%8s %-8s %10s %10s %10s %10s %8s\n", "tokens",
                "policy", "executed", "blocked", "preempted",
                "total(s)", "vs-orc");
    rule();
    for (auto& [len, orc] : oracle_rows) {
        auto print_row = [&](const char* name, const Row& row) {
            std::printf("%8lld %-8s %10.2f %10.2f %10.2f %10.2f "
                        "%7.2fx\n",
                        static_cast<long long>(len), name, row.executed,
                        row.blocked, row.preempted, row.total(),
                        row.total() / orc.total());
        };
        print_row("Oracle", orc);
        print_row("FCFS", fcfs_rows[len]);
        print_row("RR", rr_rows[len]);
        rule();
    }

    double fcfs_short = fcfs_rows.begin()->second.total() /
                        oracle_rows.begin()->second.total();
    double rr_long = rr_rows.rbegin()->second.total() /
                     oracle_rows.rbegin()->second.total();
    std::printf("\nheadline: FCFS at 128 reasoning tokens = %.2fx "
                "oracle (paper: up to 5.14x)\n",
                fcfs_short);
    std::printf("headline: RR at 2048 reasoning tokens = %.2fx oracle "
                "(paper: up to 1.75x)\n",
                rr_long);
    return 0;
}
