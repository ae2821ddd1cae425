/**
 * @file
 * Regenerates Fig. 5: answering-phase latency breakdown and SLO
 * attainment under oracle, FCFS, and RR. Requests arrive with their
 * 128-token prefill+reasoning KV pre-generated and emit 128..2048
 * answering tokens; SLO = QoE >= 0.95 with TTFAT target 0.25 s and
 * TPOT target 100 ms.
 *
 * Expected shape (paper): oracle ~100 % attainment everywhere; FCFS
 * low across all lengths (blocking destroys TTFAT); RR close to the
 * oracle even at 2048 tokens despite higher absolute latency, because
 * both TTFAT and the paced token rate stay within thresholds.
 */

#include <cstdio>
#include <map>

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
    int violations = 0;
    int count = 0;

    double total() const { return executed + blocked + preempted; }
    double attainment() const
    {
        return count == 0 ? 0.0
                          : 1.0 - static_cast<double>(violations) /
                                      static_cast<double>(count);
    }
};

cluster::SystemConfig
baseConfig(cluster::SchedulerType sched)
{
    cluster::SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = cluster::PlacementType::Baseline;
    cfg.numInstances = 1;
    // Fig. 5 scoring anchors the expected curve at reasoningEnd +
    // TTFAT target (Section III).
    cfg.slo.qoeFromFirstToken = false;
    cfg.slo.ttfatTarget = 0.25;
    cfg.slo.tpotTarget = 0.100;
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
        Row& row = rows[m.answerTokens];
        row.executed += m.answeringBuckets.executed;
        row.blocked += m.answeringBuckets.blocked;
        row.preempted += m.answeringBuckets.preempted;
        row.violations += m.sloViolated ? 1 : 0;
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
    header("Fig. 5", "Answering-phase latency breakdown + SLO "
                     "attainment, oracle vs FCFS vs RR (50 % memory)");

    Rng rng(2025);
    auto trace =
        workload::generateAnsweringCharacterization(300, 3.0, rng);

    TokenCount oracle_capacity = 0;
    for (const auto& s : trace.requests)
        oracle_capacity += s.promptTokens + s.answerTokens + 1;
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

    std::printf("(a) answering-phase latency breakdown / "
                "(b) SLO attainment\n");
    std::printf("%8s %-8s %10s %10s %10s %10s %8s\n", "tokens",
                "policy", "executed", "blocked", "preempted",
                "total(s)", "SLO-ok");
    rule();
    for (auto& [len, orc] : oracle_rows) {
        auto print_row = [&](const char* name, const Row& row) {
            std::printf("%8lld %-8s %10.2f %10.2f %10.2f %10.2f "
                        "%7.0f%%\n",
                        static_cast<long long>(len), name, row.executed,
                        row.blocked, row.preempted, row.total(),
                        100.0 * row.attainment());
        };
        print_row("Oracle", orc);
        print_row("FCFS", fcfs_rows[len]);
        print_row("RR", rr_rows[len]);
        rule();
    }

    double fcfs_mean = 0.0, rr_mean = 0.0, orc_mean = 0.0;
    for (auto& [len, row] : fcfs_rows)
        fcfs_mean += row.attainment();
    for (auto& [len, row] : rr_rows)
        rr_mean += row.attainment();
    for (auto& [len, row] : oracle_rows)
        orc_mean += row.attainment();
    std::printf("\nmean SLO attainment: oracle %.0f%%, RR %.0f%%, "
                "FCFS %.0f%% (paper: RR ~ oracle >> FCFS)\n",
                100.0 * orc_mean / oracle_rows.size(),
                100.0 * rr_mean / rr_rows.size(),
                100.0 * fcfs_mean / fcfs_rows.size());
    return 0;
}
