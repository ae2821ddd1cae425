/**
 * @file
 * Parameterized property tests: invariants that must hold across the
 * scheduler x capacity x load grid.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/cluster/run_context.hh"
#include "src/common/rng.hh"
#include "src/predict/predictor.hh"
#include "src/workload/generator.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::RunContext;
using cluster::SystemConfig;

struct GridPoint
{
    SchedulerType scheduler;
    PlacementType placement;
    TokenCount capacity;
    double rate;
    TokenCount blockSize = 1;
    bool chunkedPrefill = false;
    double answeringReserve = 0.0;
    predict::PredictorType predictor = predict::PredictorType::None;
};

std::string
gridName(const testing::TestParamInfo<GridPoint>& info)
{
    const auto& p = info.param;
    std::string s;
    switch (p.scheduler) {
      case SchedulerType::Fcfs:
        s = "Fcfs";
        break;
      case SchedulerType::Rr:
        s = "Rr";
        break;
      case SchedulerType::Pascal:
        s = "Pascal";
        break;
      case SchedulerType::Srpt:
        s = "Srpt";
        break;
      case SchedulerType::PascalSpec:
        s = "PascalSpec";
        break;
    }
    switch (p.placement) {
      case PlacementType::Baseline:
        break;
      case PlacementType::Pascal:
        s += "Full";
        break;
      case PlacementType::PascalNonAdaptive:
        s += "NonAdaptive";
        break;
      case PlacementType::PascalNoMigration:
        s += "NoMigration";
        break;
      case PlacementType::PascalPredictive:
        s += "Predictive";
        break;
    }
    s += "_cap" + std::to_string(p.capacity);
    s += "_rate" + std::to_string(static_cast<int>(p.rate));
    if (p.blockSize > 1)
        s += "_blk" + std::to_string(p.blockSize);
    if (p.chunkedPrefill)
        s += "_chunked";
    if (p.answeringReserve > 0.0)
        s += "_reserve";
    switch (p.predictor) {
      case predict::PredictorType::None:
        break;
      case predict::PredictorType::Oracle:
        s += "_oracle";
        break;
      case predict::PredictorType::NoisyOracle:
        s += "_noisy";
        break;
      case predict::PredictorType::Profile:
        s += "_profile";
        break;
      case predict::PredictorType::Rank:
        s += "_rank";
        break;
    }
    return s;
}

class SchedulerGrid : public testing::TestWithParam<GridPoint>
{
  protected:
    workload::Trace
    trace() const
    {
        Rng rng(5);
        auto profile = workload::DatasetProfile::alpacaEval();
        profile.reasoning = {100.0, 0.8, 16, 400};
        profile.answering = {80.0, 0.8, 16, 400};
        profile.prompt = {48.0, 0.5, 16, 128};
        return workload::generateTrace(profile, 40, GetParam().rate,
                                       rng);
    }

    SystemConfig
    config() const
    {
        SystemConfig cfg;
        cfg.scheduler = GetParam().scheduler;
        cfg.placement = GetParam().placement;
        cfg.numInstances = 3;
        cfg.gpuKvCapacityTokens = GetParam().capacity;
        cfg.kvBlockSizeTokens = GetParam().blockSize;
        cfg.limits.chunkedPrefill = GetParam().chunkedPrefill;
        cfg.limits.answeringReserveFraction =
            GetParam().answeringReserve;
        cfg.predictor.type = GetParam().predictor;
        if (cfg.predictor.type == predict::PredictorType::NoisyOracle)
            cfg.predictor.noiseSigma = 0.5;
        return cfg;
    }
};

TEST_P(SchedulerGrid, EveryRequestFinishesExactlyOnce)
{
    auto result = RunContext::execute(config(), trace());
    EXPECT_EQ(result.numUnfinished, 0u);
    EXPECT_EQ(result.aggregate.numFinished, 40u);
}

TEST_P(SchedulerGrid, TimestampOrderingInvariants)
{
    auto result = RunContext::execute(config(), trace());
    for (const auto& m : result.perRequest) {
        ASSERT_TRUE(m.finished);
        EXPECT_GE(m.reasoningLatency, 0.0);
        EXPECT_GE(m.ttfat, 0.0);
        EXPECT_NEAR(m.ttft, m.reasoningLatency + m.ttfat, 1e-9);
        EXPECT_GE(m.e2eLatency, m.ttft);
        EXPECT_GE(m.blockingLatency, 0.0);
        EXPECT_LE(m.blockingLatency, m.ttfat + 1e-9);
    }
}

TEST_P(SchedulerGrid, QoeInUnitInterval)
{
    auto result = RunContext::execute(config(), trace());
    for (const auto& m : result.perRequest) {
        EXPECT_GE(m.qoe, 0.0);
        EXPECT_LE(m.qoe, 1.0);
    }
}

TEST_P(SchedulerGrid, BucketsCoverPhaseLatency)
{
    auto result = RunContext::execute(config(), trace());
    for (const auto& m : result.perRequest) {
        // The reasoning-phase buckets tile [arrival, reasoningEnd].
        EXPECT_NEAR(m.reasoningBuckets.total(), m.reasoningLatency,
                    1e-6);
        // The answering-phase buckets tile [reasoningEnd, finish].
        EXPECT_NEAR(m.answeringBuckets.total(),
                    m.e2eLatency - m.reasoningLatency, 1e-6);
    }
}

TEST_P(SchedulerGrid, PeakKvWithinCapacity)
{
    auto result = RunContext::execute(config(), trace());
    EXPECT_LE(result.peakGpuKvTokens, result.kvCapacityTokens);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerGrid,
    testing::Values(
        GridPoint{SchedulerType::Fcfs, PlacementType::Baseline, 2500,
                  20.0},
        GridPoint{SchedulerType::Fcfs, PlacementType::Baseline, 800000,
                  20.0},
        GridPoint{SchedulerType::Rr, PlacementType::Baseline, 2500,
                  20.0},
        GridPoint{SchedulerType::Rr, PlacementType::Baseline, 800000,
                  40.0},
        GridPoint{SchedulerType::Pascal, PlacementType::Pascal, 2500,
                  20.0},
        GridPoint{SchedulerType::Pascal, PlacementType::Pascal, 800000,
                  40.0},
        GridPoint{SchedulerType::Pascal,
                  PlacementType::PascalNonAdaptive, 2500, 20.0},
        GridPoint{SchedulerType::Pascal,
                  PlacementType::PascalNoMigration, 2500, 20.0},
        // Block-granular points: capacities must be multiples of the
        // paged-KV block size (SystemConfig::validate enforces it).
        GridPoint{SchedulerType::Pascal, PlacementType::Pascal, 2560,
                  20.0, /*blockSize=*/16},
        GridPoint{SchedulerType::Fcfs, PlacementType::Baseline, 2560,
                  20.0, /*blockSize=*/64},
        GridPoint{SchedulerType::Pascal, PlacementType::Pascal, 2500,
                  20.0, /*blockSize=*/1, /*chunkedPrefill=*/true},
        GridPoint{SchedulerType::Rr, PlacementType::Baseline, 2560,
                  20.0, /*blockSize=*/16, /*chunkedPrefill=*/true},
        GridPoint{SchedulerType::Pascal, PlacementType::Pascal, 2560,
                  20.0, /*blockSize=*/16, /*chunkedPrefill=*/false,
                  /*answeringReserve=*/0.25},
        GridPoint{SchedulerType::Pascal, PlacementType::Pascal, 2560,
                  40.0, /*blockSize=*/16, /*chunkedPrefill=*/true,
                  /*answeringReserve=*/0.2},
        // Speculative policies under every predictor family: the
        // conservation/ordering/QoE invariants must hold no matter how
        // wrong the predictions are.
        GridPoint{SchedulerType::Srpt, PlacementType::PascalPredictive,
                  2500, 20.0, /*blockSize=*/1, false, 0.0,
                  predict::PredictorType::Oracle},
        GridPoint{SchedulerType::Srpt, PlacementType::PascalPredictive,
                  2500, 20.0, /*blockSize=*/1, false, 0.0,
                  predict::PredictorType::NoisyOracle},
        GridPoint{SchedulerType::Srpt, PlacementType::Baseline, 2500,
                  20.0, /*blockSize=*/1, false, 0.0,
                  predict::PredictorType::Rank},
        GridPoint{SchedulerType::PascalSpec,
                  PlacementType::PascalPredictive, 2500, 20.0,
                  /*blockSize=*/1, false, 0.0,
                  predict::PredictorType::Oracle},
        GridPoint{SchedulerType::PascalSpec,
                  PlacementType::PascalPredictive, 2560, 20.0,
                  /*blockSize=*/16, /*chunkedPrefill=*/true, 0.0,
                  predict::PredictorType::Profile},
        GridPoint{SchedulerType::PascalSpec, PlacementType::Pascal,
                  2500, 40.0, /*blockSize=*/1, false, 0.0,
                  predict::PredictorType::NoisyOracle}),
    gridName);

/** The motivation result (Section III): under memory pressure, FCFS
 *  hurts short requests more; RR spreads pain but keeps everyone
 *  progressing. PASCAL's reasoning latency should not exceed RR's by
 *  much on reasoning-heavy mixes. */
TEST(SchedulerOrdering, FcfsHasWorstTailBlockingUnderPressure)
{
    Rng rng(9);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {150.0, 0.8, 16, 500};
    profile.answering = {100.0, 0.8, 16, 400};
    profile.prompt = {48.0, 0.5, 16, 128};
    auto trace = workload::generateTrace(profile, 80, 80.0, rng);

    SystemConfig base;
    base.numInstances = 1;
    base.gpuKvCapacityTokens = 1200;

    auto fcfs = base;
    fcfs.scheduler = SchedulerType::Fcfs;
    fcfs.placement = PlacementType::Baseline;
    auto rr = base;
    rr.scheduler = SchedulerType::Rr;
    rr.placement = PlacementType::Baseline;

    auto fcfs_result = RunContext::execute(fcfs, trace);
    auto rr_result = RunContext::execute(rr, trace);

    double fcfs_blocked = 0.0, rr_blocked = 0.0;
    for (const auto& m : fcfs_result.perRequest)
        fcfs_blocked += m.reasoningBuckets.blocked;
    for (const auto& m : rr_result.perRequest)
        rr_blocked += m.reasoningBuckets.blocked;

    // FCFS concentrates waiting into blocking; RR converts it into
    // preemption.
    EXPECT_GT(fcfs_blocked, rr_blocked);
}

} // namespace
