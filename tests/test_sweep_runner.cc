/**
 * @file
 * Tests for RunContext and the parallel SweepRunner: stepped vs
 * one-shot equivalence, bit-reproducibility of runs, and
 * serial/parallel result parity on multi-point grids.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/sweep_runner.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"
#include "tests/run_result_util.hh"

namespace
{

using namespace pascal;
using cluster::RunResult;
using cluster::SweepRunner;
using cluster::SystemConfig;
using test::expectIdentical;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using RunContextTest = QuietLogs;
using SweepRunnerTest = QuietLogs;

workload::Trace
smallTrace(std::uint64_t seed, int n = 120, double rate = 10.0)
{
    Rng rng(seed);
    return workload::generateTrace(
        workload::DatasetProfile::alpacaEval(), n, rate, rng);
}

// expectIdentical (tests/run_result_util.hh): byte-identical
// comparison shared with the plan-reuse invariance suite.

TEST_F(RunContextTest, StepwiseRunMatchesOneShot)
{
    auto trace = smallTrace(11);
    SystemConfig cfg = SystemConfig::baseline(
        cluster::SchedulerType::Fcfs, 2);

    cluster::RunContext stepped(cfg);
    stepped.submit(trace);
    // Drive in growing horizons; the final result must not depend on
    // how the run was chunked.
    stepped.run(5.0);
    stepped.run(50.0);
    stepped.run();

    expectIdentical(cluster::RunContext::execute(cfg, trace),
                    stepped.result());
}

TEST_F(RunContextTest, ExposesSimulatorAndCluster)
{
    SystemConfig cfg = SystemConfig::pascal(2);
    cluster::RunContext ctx(cfg);
    EXPECT_EQ(ctx.simulator().now(), 0.0);
    EXPECT_EQ(ctx.cluster().getInstances().size(), 2u);
    EXPECT_EQ(ctx.config().numInstances, 2);

    auto trace = smallTrace(3, 20);
    ctx.submit(trace);
    EXPECT_EQ(ctx.simulator().pendingEvents(), trace.size());
    ctx.run();
    EXPECT_EQ(ctx.simulator().pendingEvents(), 0u);
    EXPECT_EQ(ctx.result().numUnfinished, 0u);
}

TEST_F(RunContextTest, SameSeedRunsAreByteIdentical)
{
    SystemConfig cfg = SystemConfig::pascal(2);
    auto first = cluster::RunContext::execute(cfg, smallTrace(42));
    auto second = cluster::RunContext::execute(cfg, smallTrace(42));
    expectIdentical(first, second);
}

TEST_F(SweepRunnerTest, GridOrderAndLabels)
{
    SweepRunner runner;
    auto t0 = runner.addGeneratedTrace(
        workload::DatasetProfile::alpacaEval(), 40, 10.0, 1);
    auto t1 = runner.addGeneratedTrace(
        workload::DatasetProfile::arenaHard(), 40, 5.0, 2);
    EXPECT_EQ(runner.numTraces(), 2u);

    runner.addGrid({SystemConfig::baseline(cluster::SchedulerType::Fcfs, 2),
                    SystemConfig::pascal(2)},
                   {t0, t1}, {1, 2});
    ASSERT_EQ(runner.numPoints(), 8u);

    // Nested deterministic order: configs, then traces, then seeds.
    EXPECT_EQ(runner.point(0).traceIndex, t0);
    EXPECT_EQ(runner.point(0).seed, 1u);
    EXPECT_EQ(runner.point(1).seed, 2u);
    EXPECT_EQ(runner.point(2).traceIndex, t1);
    EXPECT_EQ(runner.point(4).config.scheduler,
              cluster::SchedulerType::Pascal);

    auto result = runner.run(1);
    ASSERT_EQ(result.size(), 8u);
    for (std::size_t i = 0; i < result.size(); ++i)
        EXPECT_EQ(result.outcomes[i].label, runner.point(i).label);
    EXPECT_EQ(result.outcomes[0].result.schedulerName, "FCFS");
    EXPECT_EQ(result.outcomes[4].result.schedulerName, "PASCAL");
}

TEST_F(SweepRunnerTest, GeneratedTracesRecordProvenance)
{
    SweepRunner runner;
    auto t = runner.addGeneratedTrace(
        workload::DatasetProfile::alpacaEval(), 40, 10.0, 1234);
    const auto& prov = runner.trace(t).provenance;
    EXPECT_TRUE(prov.generated);
    EXPECT_EQ(prov.profile, "AlpacaEval2.0");
    EXPECT_EQ(prov.n, 40);
    EXPECT_DOUBLE_EQ(prov.ratePerSec, 10.0);
    EXPECT_TRUE(prov.seedKnown);
    EXPECT_EQ(prov.seed, 1234u);
    EXPECT_EQ(runner.trace(t).describe(),
              "AlpacaEval2.0 n=40 rate=10 seed=1234");

    // External traces stay unlabeled (no invented knobs).
    auto ext = runner.addTrace(smallTrace(3));
    EXPECT_FALSE(runner.trace(ext).provenance.seedKnown);
}

TEST_F(SweepRunnerTest, TracesAreSharedNotCopied)
{
    // Registered traces are immutable shared arenas: handles alias
    // the registry entry (no per-point deep copies) and keep the
    // trace alive past the runner.
    std::shared_ptr<const workload::Trace> handle;
    const workload::RequestSpec* first = nullptr;
    {
        SweepRunner runner;
        auto t = runner.addGeneratedTrace(
            workload::DatasetProfile::alpacaEval(), 30, 10.0, 5);
        handle = runner.traceHandle(t);
        EXPECT_EQ(handle.get(), &runner.trace(t));
        first = &runner.trace(t).requests.front();
    }
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(&handle->requests.front(), first);
    EXPECT_EQ(handle->requests.size(), 30u);
}

TEST_F(SweepRunnerTest, ParallelMatchesSerialOnEightPointGrid)
{
    // The acceptance grid: >= 8 points on 4 threads must be
    // byte-identical to the serial run.
    SweepRunner runner;
    auto t0 = runner.addGeneratedTrace(
        workload::DatasetProfile::alpacaEval(), 100, 12.0, 5);
    auto t1 = runner.addGeneratedTrace(
        workload::DatasetProfile::arenaHard(), 60, 4.0, 6);

    runner.addGrid({SystemConfig::baseline(cluster::SchedulerType::Fcfs, 2),
                    SystemConfig::baseline(cluster::SchedulerType::Rr, 2),
                    SystemConfig::pascal(2),
                    SystemConfig::pascal(4)},
                   {t0, t1});
    ASSERT_EQ(runner.numPoints(), 8u);

    auto serial = runner.run(1);
    auto parallel = runner.run(4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial.outcomes[i].label, parallel.outcomes[i].label);
        EXPECT_EQ(serial.outcomes[i].seed, parallel.outcomes[i].seed);
        expectIdentical(serial.outcomes[i].result,
                        parallel.outcomes[i].result);
    }
}

TEST_F(SweepRunnerTest, RepeatedParallelRunsAreIdentical)
{
    SweepRunner runner;
    auto t = runner.addGeneratedTrace(
        workload::DatasetProfile::alpacaEval(), 80, 10.0, 9);
    runner.addGrid({SystemConfig::pascal(2)}, {t}, {9});

    auto first = runner.run(4);
    auto second = runner.run(4);
    ASSERT_EQ(first.size(), 1u);
    expectIdentical(first.outcomes[0].result,
                    second.outcomes[0].result);
}

TEST_F(SweepRunnerTest, AggregationHelpers)
{
    SweepRunner runner;
    auto t = runner.addGeneratedTrace(
        workload::DatasetProfile::alpacaEval(), 60, 10.0, 4);
    runner.add({"fcfs",
                SystemConfig::baseline(cluster::SchedulerType::Fcfs, 2),
                t, 4});
    runner.add({"pascal", SystemConfig::pascal(2), t, 4});

    auto result = runner.run();
    ASSERT_EQ(result.size(), 2u);

    auto p99 = [](const RunResult& r) { return r.aggregate.p99Ttft; };
    const auto* best = result.bestBy(p99);
    ASSERT_NE(best, nullptr);
    const auto* worst = result.bestBy(p99, /*minimize=*/false);
    ASSERT_NE(worst, nullptr);
    EXPECT_LE(best->result.aggregate.p99Ttft,
              worst->result.aggregate.p99Ttft);

    double mean = result.meanOf(p99);
    EXPECT_GE(mean, best->result.aggregate.p99Ttft);
    EXPECT_LE(mean, worst->result.aggregate.p99Ttft);

    ASSERT_NE(result.find("pascal"), nullptr);
    EXPECT_EQ(result.find("pascal")->result.schedulerName, "PASCAL");
    EXPECT_EQ(result.find("missing"), nullptr);

    auto finished = result.where([](const cluster::SweepOutcome& o) {
        return o.result.numUnfinished == 0;
    });
    EXPECT_EQ(finished.size(), 2u);
}

TEST_F(SweepRunnerTest, DefaultLabelsAreDescriptive)
{
    SweepRunner runner;
    auto t = runner.addGeneratedTrace(
        workload::DatasetProfile::alpacaEval(), 10, 10.0, 1);
    auto i = runner.add({"", SystemConfig::pascal(2), t, 77});
    EXPECT_EQ(runner.point(i).label, "PASCAL/PASCAL/t0/s77");

    // Predictor-carrying configs splice the predictor into the label.
    predict::PredictorConfig noisy;
    noisy.type = predict::PredictorType::NoisyOracle;
    noisy.noiseSigma = 0.2;
    auto cfg = SystemConfig::speculative(cluster::SchedulerType::Srpt,
                                         noisy, 2);
    auto j = runner.add({"", cfg, t, 3});
    EXPECT_EQ(runner.point(j).label,
              "SRPT/PASCAL(Predictive)/noisy(0.20)/t0/s3");
}

TEST_F(SweepRunnerTest, PredictorGridCrossesConfigsAndPredictors)
{
    SweepRunner runner;
    auto t = runner.addGeneratedTrace(
        workload::DatasetProfile::alpacaEval(), 20, 10.0, 1);

    predict::PredictorConfig oracle;
    oracle.type = predict::PredictorType::Oracle;
    predict::PredictorConfig profile;
    profile.type = predict::PredictorType::Profile;

    SystemConfig spec;
    spec.scheduler = cluster::SchedulerType::PascalSpec;
    spec.placement = cluster::PlacementType::Pascal;
    spec.numInstances = 2;
    runner.addPredictorGrid({spec}, {oracle, profile}, {t}, {1, 2});

    ASSERT_EQ(runner.numPoints(), 4u);
    // Predictors vary before traces/seeds, configs outermost.
    EXPECT_EQ(runner.point(0).label,
              "PASCAL-Spec/PASCAL/oracle/t0/s1");
    EXPECT_EQ(runner.point(1).label,
              "PASCAL-Spec/PASCAL/oracle/t0/s2");
    EXPECT_EQ(runner.point(2).label,
              "PASCAL-Spec/PASCAL/profile/t0/s1");
    EXPECT_EQ(runner.point(3).config.predictor.type,
              predict::PredictorType::Profile);
}

TEST_F(SweepRunnerTest, ParallelMatchesSerialWithPredictorsEnabled)
{
    // Acceptance: byte-identical SweepResults serial vs. multi-
    // threaded with predictors in the grid (the online learners must
    // not leak state across grid points or depend on worker
    // interleaving).
    SweepRunner runner;
    auto t0 = runner.addGeneratedTrace(
        workload::DatasetProfile::gpqa(), 80, 6.0, 5);
    auto t1 = runner.addGeneratedTrace(
        workload::DatasetProfile::alpacaEval(), 80, 12.0, 6);

    std::vector<predict::PredictorConfig> predictors(4);
    predictors[0].type = predict::PredictorType::Oracle;
    predictors[1].type = predict::PredictorType::NoisyOracle;
    predictors[1].noiseSigma = 0.5;
    predictors[2].type = predict::PredictorType::Profile;
    predictors[3].type = predict::PredictorType::Rank;

    SystemConfig srpt;
    srpt.scheduler = cluster::SchedulerType::Srpt;
    srpt.placement = cluster::PlacementType::PascalPredictive;
    srpt.numInstances = 2;
    SystemConfig spec;
    spec.scheduler = cluster::SchedulerType::PascalSpec;
    spec.placement = cluster::PlacementType::PascalPredictive;
    spec.numInstances = 2;
    runner.addPredictorGrid({srpt, spec}, predictors, {t0, t1});
    ASSERT_EQ(runner.numPoints(), 16u);

    auto serial = runner.run(1);
    auto parallel = runner.run(4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial.outcomes[i].label, parallel.outcomes[i].label);
        expectIdentical(serial.outcomes[i].result,
                        parallel.outcomes[i].result);
    }
}

TEST_F(SweepRunnerTest, BadTraceIndexIsFatal)
{
    SweepRunner runner;
    cluster::SweepPoint point;
    point.config = SystemConfig::pascal(2);
    point.traceIndex = 3; // No traces registered.
    EXPECT_THROW(runner.add(std::move(point)), FatalError);
}

} // namespace
