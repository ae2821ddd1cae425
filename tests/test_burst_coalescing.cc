/**
 * @file
 * Burst-coalesced arrival planning invariance tests.
 *
 * Same-timestamp arrivals are drained as one burst event and every
 * kick() of the burst dedupes into a single deferred plan boundary
 * per touched instance. The contract:
 * SchedLimits::forcePerArrivalKick (one boundary event per kick — the
 * pre-optimization cost model that rebuilds a plan per burst member)
 * must produce byte-identical RunResults, including bit-exact
 * phase-time buckets, across the whole scheduler x predictor grid on
 * an arrival-storm trace; and the coalesced fast path must engage
 * (strictly fewer plan builds than arrivals).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"
#include "tests/run_result_util.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::SystemConfig;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using BurstCoalescing = QuietLogs;
using ForceModeMatrix = QuietLogs;

/**
 * Arrival-storm trace with genuine bursts: Poisson arrivals quantized
 * onto a coarse tick grid, so tens of requests share each timestamp
 * (the CascadeInfer-style arrival-storm regime the coalesced path
 * targets).
 */
workload::Trace
burstTrace(std::uint64_t seed, int n = 400, double rate = 800.0,
           double tick = 0.02)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {80.0, 0.5, 32, 192};
    profile.reasoning = {160.0, 0.7, 24, 700};
    profile.answering = {70.0, 0.6, 16, 300};
    auto trace = workload::generateTrace(profile, n, rate, rng);
    for (auto& spec : trace.requests) {
        spec.arrival =
            tick * static_cast<double>(
                       static_cast<std::int64_t>(spec.arrival / tick));
    }
    return trace;
}

SystemConfig
stormConfig(SchedulerType sched, predict::PredictorConfig pred)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = pred.type == predict::PredictorType::None
                        ? PlacementType::Pascal
                        : PlacementType::PascalPredictive;
    cfg.predictor = pred;
    cfg.numInstances = 3;
    cfg.gpuKvCapacityTokens = 8192; // Tight: admission backlogs form.
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 700;
    return cfg;
}

predict::PredictorConfig
predictorNamed(const std::string& kind)
{
    predict::PredictorConfig cfg;
    if (kind == "oracle")
        cfg.type = predict::PredictorType::Oracle;
    else if (kind == "profile")
        cfg.type = predict::PredictorType::Profile;
    return cfg;
}

TEST_F(BurstCoalescing, ByteIdenticalAcrossSchedulerPredictorGrid)
{
    auto trace = burstTrace(1001);
    struct GridPoint
    {
        SchedulerType sched;
        std::string predictor;
    };
    std::vector<GridPoint> grid;
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr,
          SchedulerType::Pascal}) {
        for (const char* kind : {"none", "oracle", "profile"})
            grid.push_back({sched, kind});
    }
    for (SchedulerType sched :
         {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        for (const char* kind : {"oracle", "profile"})
            grid.push_back({sched, kind});
    }
    for (const auto& point : grid) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(point.sched)) +
                     " predictor " + point.predictor);
        SystemConfig cfg =
            stormConfig(point.sched, predictorNamed(point.predictor));
        cfg.limits.forcePerArrivalKick = false;
        auto coalesced = cluster::RunContext::execute(cfg, trace);
        cfg.limits.forcePerArrivalKick = true;
        auto per_arrival = cluster::RunContext::execute(cfg, trace);
        test::expectIdentical(coalesced, per_arrival);
    }
}

TEST_F(BurstCoalescing, FastPathEngagesOnArrivalStorm)
{
    // One plan boundary per burst per instance: on a bursty arrival
    // storm with short generations, the whole burst prefills at one
    // boundary, so both plan builds and iterations stay strictly
    // below the arrival count (the pre-coalescing chain planned each
    // member as it arrived).
    Rng rng(77);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {48.0, 0.4, 16, 96};
    profile.reasoning = {10.0, 0.4, 4, 24};
    profile.answering = {6.0, 0.4, 2, 16};
    auto trace = workload::generateTrace(profile, 2000, 4000.0, rng);
    for (auto& spec : trace.requests) {
        spec.arrival =
            0.05 * static_cast<double>(
                       static_cast<std::int64_t>(spec.arrival / 0.05));
    }

    SystemConfig cfg =
        stormConfig(SchedulerType::Pascal, predictorNamed("none"));
    cfg.gpuKvCapacityTokens = 65536; // Ample: bursts admit whole.

    cluster::RunContext coalesced(cfg);
    coalesced.submit(trace);
    coalesced.run();
    std::uint64_t builds = coalesced.cluster().totalPlanBuilds();
    auto result = coalesced.result();
    EXPECT_LT(builds, trace.size());
    EXPECT_LT(result.totalIterations, trace.size());
    EXPECT_EQ(result.numUnfinished, 0u);

    // The per-boundary-per-kick verification mode may only pay MORE
    // plan builds (redundant idle rebuilds), never fewer, and the
    // simulation must be byte-identical.
    cfg.limits.forcePerArrivalKick = true;
    cluster::RunContext forced(cfg);
    forced.submit(trace);
    forced.run();
    EXPECT_LE(builds, forced.cluster().totalPlanBuilds());
    test::expectIdentical(result, forced.result());
}

TEST_F(BurstCoalescing, ViewAuditCleanUnderBurstsAndSloHeap)
{
    // Incremental-view audit (which also re-verifies the SLO heap
    // against the reference O(hosted) walk at every decision) across
    // an arrival-storm run with migrations and transitions.
    auto trace = burstTrace(31, 250);
    SystemConfig cfg =
        stormConfig(SchedulerType::Pascal, predictorNamed("none"));
    cluster::RunContext ctx(cfg);
    ctx.cluster().enableViewAudit();
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    EXPECT_GT(result.aggregate.numFinished, 0u);
}

TEST_F(ForceModeMatrix, AllSixteenCornersByteIdentical)
{
    // {FORCE_KICK} x {FORCE_VIEW} x {FORCE_RESORT} x {FORCE_ACCRUE}:
    // every debug corner recomputes something the fast path maintains
    // incrementally, so all sixteen runs must agree byte-for-byte.
    auto trace = burstTrace(555, 220);
    SystemConfig base =
        stormConfig(SchedulerType::Pascal, predictorNamed("oracle"));

    std::vector<cluster::RunResult> results;
    for (int mask = 0; mask < 16; ++mask) {
        SystemConfig cfg = base;
        cfg.limits.forcePerArrivalKick = (mask & 1) != 0;
        cfg.forceViewRebuild = (mask & 2) != 0;
        cfg.limits.forceResort = (mask & 4) != 0;
        cfg.limits.forceAccrue = (mask & 8) != 0;
        results.push_back(cluster::RunContext::execute(cfg, trace));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        SCOPED_TRACE("mode mask " + std::to_string(i));
        test::expectIdentical(results[0], results[i]);
    }
}

TEST_F(BurstCoalescing, SpanAdmissionCoalescesThePlanBoundary)
{
    // Instance::addRequests(span) is the burst admission primitive:
    // one snapshot invalidation + one plan boundary for the whole
    // span. It must match a sequence of addRequestCoalesced calls
    // (the cluster's per-member drain — same single deferred
    // boundary) exactly, and never plan more than the plain
    // per-request addRequest chain, which starts an iteration at the
    // first member and plans the rest as they trickle in.
    auto trace = burstTrace(9, 40, 400.0, 1.0);
    SystemConfig cfg =
        stormConfig(SchedulerType::Pascal, predictorNamed("none"));
    cfg.numInstances = 1; // Placement-free: pure admission semantics.

    enum class Mode
    {
        Span,
        Coalesced,
        Sequential
    };
    auto run_with = [&](Mode mode) {
        cluster::RunContext ctx(cfg);
        std::vector<workload::Request> owned;
        owned.reserve(trace.size());
        for (const auto& spec : trace.requests)
            owned.emplace_back(spec);
        auto& inst = *ctx.cluster().getInstances()[0];
        std::vector<workload::Request*> ptrs;
        for (auto& r : owned)
            ptrs.push_back(&r);
        // Admit everything up front at t=0 (a maximal burst).
        switch (mode) {
          case Mode::Span:
            inst.addRequests(ptrs.data(), ptrs.size());
            break;
          case Mode::Coalesced:
            for (auto* r : ptrs)
                inst.addRequestCoalesced(r);
            break;
          case Mode::Sequential:
            for (auto* r : ptrs)
                inst.addRequest(r);
            break;
        }
        ctx.run();
        return std::pair<std::uint64_t, std::uint64_t>(
            inst.numPlanBuilds(), inst.numIterations());
    };

    auto span_stats = run_with(Mode::Span);
    auto coalesced_stats = run_with(Mode::Coalesced);
    auto seq_stats = run_with(Mode::Sequential);
    EXPECT_EQ(span_stats, coalesced_stats);
    EXPECT_LE(span_stats.first, seq_stats.first);
    EXPECT_LE(span_stats.second, seq_stats.second);
}

} // namespace
