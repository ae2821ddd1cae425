/**
 * @file
 * Regenerates Fig. 2: how oracle, FCFS, and RR (token quantum 4)
 * schedule three requests A/B/C arriving at t = 0, 1, 2 when GPU
 * memory fits only two requests at a time.
 *
 * Decode steps are pinned to ~1 time unit via the hardware overheads
 * so the printed numbers map one-to-one onto the paper's figure.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "src/cluster/run_context.hh"

namespace
{

using namespace pascal;

/** A model/hardware pair whose iterations take ~1 simulated second
 *  regardless of batch composition. */
cluster::SystemConfig
unitStepConfig(cluster::SchedulerType sched, TokenCount capacity)
{
    cluster::SystemConfig cfg;
    cfg.model = model::ModelConfig::tiny7B();
    cfg.hardware = model::HardwareConfig::h100();
    // Make compute/memory terms negligible and the fixed iteration
    // overhead dominant: every iteration costs 1 s.
    cfg.hardware.iterationOverhead = 1.0;
    cfg.hardware.perSeqOverhead = 0.0;
    cfg.scheduler = sched;
    cfg.placement = cluster::PlacementType::Baseline;
    cfg.numInstances = 1;
    cfg.gpuKvCapacityTokens = capacity;
    cfg.kvBlockSizeTokens = 1; // Exact accounting for the toy slots.
    cfg.limits.quantum = 4;    // The figure's token quantum.
    return cfg;
}

/**
 * A/B/C as in Fig. 2: arrivals 0/1/2; A and B generate 8 tokens, C
 * generates 7. One token is the answer, the rest reasoning. The
 * figure treats each request as one memory slot, so the prompt (100
 * tokens) dominates the KV footprint and admission requires a free
 * slot.
 */
workload::Trace
figureTrace()
{
    workload::Trace trace;
    auto add = [&](RequestId id, Time arrival, TokenCount total) {
        workload::RequestSpec s;
        s.id = id;
        s.arrival = arrival;
        s.promptTokens = 100;
        s.reasoningTokens = total - 1;
        s.answerTokens = 1;
        s.dataset = "fig2";
        trace.requests.push_back(s);
    };
    add(0, 0.0, 8); // A
    add(1, 1.0, 8); // B
    add(2, 2.0, 7); // C
    trace.validate();
    return trace;
}

void
run(const char* title, cluster::SystemConfig cfg,
    const workload::Trace& trace)
{
    auto result = cluster::RunContext::execute(cfg, trace);

    std::printf("%s\n", title);
    const char* names = "ABC";
    std::printf("  %-8s %-9s %-11s %-8s %-22s\n", "request", "arrival",
                "first-run", "finish", "waited(blk/preempt)");
    for (const auto& m : result.perRequest) {
        double blocked = m.reasoningBuckets.blocked +
                         m.answeringBuckets.blocked;
        double preempted = m.reasoningBuckets.preempted +
                           m.answeringBuckets.preempted;
        std::printf("  %-8c %-9.0f %-11.0f %-8.0f %.0f / %.0f\n",
                    names[m.id], m.arrival,
                    m.arrival + m.queueingDelay,
                    m.arrival + m.e2eLatency, blocked, preempted);
    }
    std::printf("  Request C start delay: %.0f time units\n\n",
                result.perRequest.back().queueingDelay);
}

} // namespace

int
main()
{
    using namespace pascal::bench;
    header("Fig. 2", "Oracle vs FCFS vs RR toy timeline "
                     "(A,B,C arrive at t=0,1,2; memory fits 2)");

    auto trace = figureTrace();

    // Oracle: memory for everyone.
    run("(a) Oracle (infinite GPU memory)",
        unitStepConfig(cluster::SchedulerType::Fcfs, 100000), trace);

    // Constrained: two ~110-token slots.
    run("(b) FCFS, memory fits 2 requests",
        unitStepConfig(cluster::SchedulerType::Fcfs, 220), trace);

    run("(c) RR (token quantum 4), memory fits 2 requests",
        unitStepConfig(cluster::SchedulerType::Rr, 220), trace);

    std::printf("Paper expectation: FCFS makes C wait for A to finish "
                "(start delay ~6-7 units); RR admits C at the quantum "
                "boundary (~2-3 units) at the cost of preempting A.\n");
    return 0;
}
