/**
 * @file
 * Failure injection and pathological-configuration tests: the system
 * must degrade gracefully (requests stay unfinished, others progress)
 * rather than deadlock or corrupt accounting.
 */

#include <gtest/gtest.h>

#include "src/cluster/run_context.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::RunContext;
using cluster::SystemConfig;

workload::RequestSpec
spec(RequestId id, Time arrival, TokenCount prompt, TokenCount reasoning,
     TokenCount answer)
{
    workload::RequestSpec s;
    s.id = id;
    s.arrival = arrival;
    s.promptTokens = prompt;
    s.reasoningTokens = reasoning;
    s.answerTokens = answer;
    s.dataset = "edge";
    return s;
}

SystemConfig
tinyConfig(SchedulerType sched, TokenCount capacity)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = sched == SchedulerType::Pascal
                        ? PlacementType::Pascal
                        : PlacementType::Baseline;
    cfg.numInstances = 1;
    cfg.gpuKvCapacityTokens = capacity;
    cfg.kvBlockSizeTokens = 1;
    return cfg;
}

TEST(EdgeCases, MonsterRequestDoesNotBlockOthersUnderRr)
{
    // Request 0 can never fit (prompt alone exceeds capacity); the
    // others must still complete.
    workload::Trace trace;
    trace.requests = {spec(0, 0.0, 5000, 100, 10),
                      spec(1, 0.1, 64, 50, 10),
                      spec(2, 0.2, 64, 50, 10)};
    auto result = RunContext::execute(
        tinyConfig(SchedulerType::Rr, 1000), trace);
    EXPECT_EQ(result.numUnfinished, 1u);
    EXPECT_FALSE(result.perRequest[0].finished);
    EXPECT_TRUE(result.perRequest[1].finished);
    EXPECT_TRUE(result.perRequest[2].finished);
}

TEST(EdgeCases, MonsterRequestBlocksQueueUnderStrictFcfs)
{
    // FCFS semantics: the unschedulable head of the queue starves the
    // rest. That is the policy's defining pathology, not a bug — the
    // run must still terminate.
    workload::Trace trace;
    trace.requests = {spec(0, 0.0, 5000, 100, 10),
                      spec(1, 0.1, 64, 50, 10)};
    auto result = RunContext::execute(
        tinyConfig(SchedulerType::Fcfs, 1000), trace);
    EXPECT_EQ(result.numUnfinished, 2u);
}

TEST(EdgeCases, RequestOutgrowingMemoryIsEvictedForever)
{
    // Fits at admission but its KV outgrows the whole pool mid-run:
    // it ends unfinished, later requests still complete.
    workload::Trace trace;
    trace.requests = {spec(0, 0.0, 400, 700, 10), // Grows past 1000.
                      spec(1, 0.1, 64, 50, 10)};
    auto result = RunContext::execute(
        tinyConfig(SchedulerType::Rr, 1000), trace);
    EXPECT_EQ(result.numUnfinished, 1u);
    EXPECT_FALSE(result.perRequest[0].finished);
    EXPECT_TRUE(result.perRequest[1].finished);
}

TEST(EdgeCases, SimultaneousArrivalsAllServed)
{
    workload::Trace trace;
    for (int i = 0; i < 20; ++i)
        trace.requests.push_back(spec(i, 1.0, 64, 30, 10));
    auto result = RunContext::execute(
        tinyConfig(SchedulerType::Pascal, 100000), trace);
    EXPECT_EQ(result.numUnfinished, 0u);
}

TEST(EdgeCases, HorizonCutsRunShort)
{
    workload::Trace trace;
    trace.requests = {spec(0, 0.0, 64, 2000, 500)};
    auto cfg = tinyConfig(SchedulerType::Fcfs, 100000);
    cfg.maxSimTime = 1.0; // Far too short for 2500 tokens.
    auto result = RunContext::execute(cfg, trace);
    EXPECT_EQ(result.numUnfinished, 1u);
    EXPECT_FALSE(result.perRequest[0].finished);
}

TEST(EdgeCases, SingleTokenPhases)
{
    // Minimal legal request: 1 reasoning token (emitted by prefill)
    // and 1 answering token.
    workload::Trace trace;
    trace.requests = {spec(0, 0.0, 16, 1, 1)};
    auto result = RunContext::execute(
        tinyConfig(SchedulerType::Pascal, 100000), trace);
    ASSERT_EQ(result.numUnfinished, 0u);
    const auto& m = result.perRequest[0];
    EXPECT_GT(m.reasoningLatency, 0.0);
    EXPECT_GT(m.ttfat, 0.0);
    EXPECT_NEAR(m.ttft, m.e2eLatency, 1e-9);
}

TEST(EdgeCases, CapacityOfOneBlockStillProgresses)
{
    // Degenerate capacity: one request at a time, tiny prompts.
    workload::Trace trace;
    for (int i = 0; i < 3; ++i)
        trace.requests.push_back(spec(i, 0.1 * i, 8, 5, 3));
    auto result = RunContext::execute(
        tinyConfig(SchedulerType::Rr, 64), trace);
    EXPECT_EQ(result.numUnfinished, 0u);
}

TEST(EdgeCases, ManyInstancesFewRequests)
{
    workload::Trace trace;
    trace.requests = {spec(0, 0.0, 64, 20, 10),
                      spec(1, 0.0, 64, 20, 10)};
    auto cfg = tinyConfig(SchedulerType::Pascal, 100000);
    cfg.numInstances = 16;
    auto result = RunContext::execute(cfg, trace);
    EXPECT_EQ(result.numUnfinished, 0u);
}

TEST(EdgeCases, BurstThenSilence)
{
    // A large instantaneous burst followed by nothing: the queue must
    // drain completely under memory pressure.
    workload::Trace trace;
    for (int i = 0; i < 40; ++i)
        trace.requests.push_back(spec(i, 0.0, 64, 60, 20));
    auto result = RunContext::execute(
        tinyConfig(SchedulerType::Pascal, 2000), trace);
    EXPECT_EQ(result.numUnfinished, 0u);
    EXPECT_LE(result.peakGpuKvTokens, 2000);
}

TEST(EdgeCases, ZeroReasoningPrewarmMix)
{
    // Prewarmed (Fig. 5 style) and normal requests coexist.
    workload::Trace trace;
    auto warm = spec(0, 0.0, 64, 0, 20);
    warm.startInAnswering = true;
    trace.requests = {warm, spec(1, 0.05, 64, 30, 10)};
    auto result = RunContext::execute(
        tinyConfig(SchedulerType::Pascal, 100000), trace);
    EXPECT_EQ(result.numUnfinished, 0u);
    EXPECT_GT(result.perRequest[0].qoe, 0.0);
}

} // namespace
