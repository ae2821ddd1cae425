/**
 * @file
 * Plan-reuse / incremental-scheduling invariance tests.
 *
 * The iteration fast path (incremental queues + verbatim plan reuse)
 * is a pure speed optimization: its one non-negotiable contract is
 * that RunResults stay byte-identical to the force-resort debug mode
 * that recomputes every queue from scratch each iteration. These
 * tests run randomized constrained traces across the full
 * {FCFS, RR, PASCAL, SRPT, PASCAL-Spec} x predictor grid in both
 * modes and compare every metric field exactly, plus unit-level
 * checks of the maintained monitor counters and the fast-path
 * engagement itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/core/pascal_scheduler.hh"
#include "src/obs/stat_registry.hh"
#include "src/workload/generator.hh"
#include "tests/run_result_util.hh"
#include "tests/scheduler_test_util.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::SystemConfig;
using test::SchedulerHarness;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

using PlanReuseInvariance = QuietLogs;
using PlanReuseFastPath = QuietLogs;

/**
 * A reasoning-heavy trace on a memory-constrained deployment:
 * arrivals, completions, phase transitions, migrations, swaps, and
 * demotions all fire, so every dirty-set code path is exercised.
 */
workload::Trace
churnTrace(std::uint64_t seed, int n = 140)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {300.0, 0.8, 32, 1500};
    profile.answering = {120.0, 0.7, 16, 600};
    return workload::generateTrace(profile, n, 12.0, rng);
}

SystemConfig
constrained(SchedulerType sched, predict::PredictorConfig pred,
            PlacementType placement)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = placement;
    cfg.predictor = pred;
    cfg.numInstances = 2;
    cfg.gpuKvCapacityTokens = 4096; // Tight: forces swaps/evictions.
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 600; // Demotions actually fire.
    cfg.limits.demoteLookaheadTokens = 128;
    return cfg;
}

void
expectModesIdentical(SystemConfig cfg, const workload::Trace& trace)
{
    cfg.limits.forceResort = false;
    auto fast = cluster::RunContext::execute(cfg, trace);
    cfg.limits.forceResort = true;
    auto reference = cluster::RunContext::execute(cfg, trace);
    test::expectIdentical(fast, reference);
}

predict::PredictorConfig
predictorNamed(const std::string& kind)
{
    predict::PredictorConfig cfg;
    if (kind == "oracle") {
        cfg.type = predict::PredictorType::Oracle;
    } else if (kind == "noisy") {
        cfg.type = predict::PredictorType::NoisyOracle;
        cfg.noiseSigma = 0.4;
    } else if (kind == "profile") {
        cfg.type = predict::PredictorType::Profile;
    } else if (kind == "rank") {
        cfg.type = predict::PredictorType::Rank;
    }
    return cfg;
}

TEST_F(PlanReuseInvariance, FcfsMigrationKeepsStrictOrderUnderPressure)
{
    // Regression guard for the strict-order walk: FCFS may never skip
    // its waiting stream — the first unfit waiting candidate blocks
    // every later candidate, including answering requests that
    // migrated in with late arrival stamps. High transition/migration
    // rates against a saturating waiting head maximize the chance a
    // landed migrant sits behind a blocked waiting request.
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        auto profile = workload::DatasetProfile::alpacaEval();
        profile.prompt = {160.0, 0.5, 64, 320}; // Fat waiting heads.
        profile.reasoning = {30.0, 0.5, 16, 80}; // Rapid transitions.
        profile.answering = {120.0, 0.6, 32, 400};
        auto trace = workload::generateTrace(profile, 160, 60.0, rng);

        SystemConfig cfg;
        cfg.scheduler = SchedulerType::Fcfs;
        cfg.placement = PlacementType::Pascal; // Migrations fire.
        cfg.numInstances = 2;
        cfg.gpuKvCapacityTokens = 3072;
        cfg.kvBlockSizeTokens = 16;

        cfg.limits.forceResort = false;
        auto fast = cluster::RunContext::execute(cfg, trace);
        cfg.limits.forceResort = true;
        auto reference = cluster::RunContext::execute(cfg, trace);
        test::expectIdentical(fast, reference);
        EXPECT_GT(fast.totalMigrations, 0);
    }
}

TEST_F(PlanReuseInvariance, EvictionStormTailStaysByteIdentical)
{
    // Swap-thrashing regime: the incremental walk's early exit
    // settles unreached residents from the queues' material
    // sublists, already in priority order — the evicted set and
    // swap-out sequence must still match the recompute walk exactly,
    // every iteration.
    Rng rng(4711);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {96.0, 0.5, 48, 192};
    profile.reasoning = {240.0, 0.7, 64, 900};
    profile.answering = {100.0, 0.6, 16, 400};
    auto trace = workload::generateTrace(profile, 180, 40.0, rng);

    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr, SchedulerType::Pascal,
          SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(sched)));
        SystemConfig cfg;
        cfg.scheduler = sched;
        cfg.placement = PlacementType::Pascal;
        cfg.numInstances = 2;
        cfg.gpuKvCapacityTokens = 2048; // Brutal: constant evictions.
        cfg.kvBlockSizeTokens = 16;
        cfg.limits.demoteThresholdTokens = 600;
        if (sched == SchedulerType::Srpt ||
            sched == SchedulerType::PascalSpec) {
            // Predictor-keyed orders: schedScore drives the eviction
            // tail's priority restoration too.
            cfg.predictor.type = predict::PredictorType::Oracle;
        }

        cfg.limits.forceResort = false;
        auto fast = cluster::RunContext::execute(cfg, trace);
        cfg.limits.forceResort = true;
        auto reference = cluster::RunContext::execute(cfg, trace);
        test::expectIdentical(fast, reference);
        EXPECT_GT(fast.totalIterations, 0u);
    }
}

TEST_F(PlanReuseInvariance, FrozenOrderLevelsStayFrozen)
{
    // Every policy shares one order, (class rank, quanta, score,
    // arrival, id), and the baselines are exact only because they
    // freeze levels of it: FCFS and SRPT never consume quanta, even
    // when the config asks for a 500-token quantum, and FCFS and RR
    // never carry a score. Checked on every hosted request at every
    // step of a run under KV pressure, in both scheduling modes.
    auto trace = churnTrace(4242);
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr, SchedulerType::Srpt}) {
        for (bool force_resort : {false, true}) {
            SCOPED_TRACE("scheduler " +
                         std::to_string(static_cast<int>(sched)) +
                         (force_resort ? " recompute" : " incremental"));
            SystemConfig cfg = constrained(sched, predictorNamed("oracle"),
                                           PlacementType::Pascal);
            cfg.limits.quantum = 500;
            cfg.limits.forceResort = force_resort;
            const bool quanta_frozen = sched != SchedulerType::Rr;
            const bool score_frozen = sched != SchedulerType::Srpt;
            cluster::RunContext ctx(cfg);
            ctx.submit(trace);
            int max_quanta = 0;
            double max_score = 0.0;
            std::size_t checked = 0;
            for (Time t = 0.5; ctx.simulator().pendingEvents() > 0;
                 t += 0.5) {
                ctx.run(t);
                for (const auto& inst : ctx.cluster().getInstances()) {
                    for (const auto* r : inst->scheduler().hosted()) {
                        max_quanta = std::max(max_quanta,
                                              r->quantaConsumed);
                        max_score = std::max(max_score, r->schedScore);
                        ++checked;
                        if (quanta_frozen) {
                            ASSERT_EQ(r->quantaConsumed, 0);
                        }
                        if (score_frozen) {
                            ASSERT_EQ(r->schedScore, 0.0);
                        }
                    }
                }
            }
            EXPECT_EQ(ctx.result().numUnfinished, 0u);
            EXPECT_GT(checked, 0u);
            std::uint64_t swap_outs = 0;
            for (const auto& inst : ctx.cluster().getInstances())
                swap_outs += inst->numSwapOuts();
            EXPECT_GT(swap_outs, 0u); // Under KV pressure.
            // The unfrozen level does move, so the checks above bite.
            if (!quanta_frozen) {
                EXPECT_GT(max_quanta, 0);
            }
            if (!score_frozen) {
                EXPECT_GT(max_score, 0.0);
            }
        }
    }
}

TEST_F(PlanReuseInvariance, ReactiveSchedulersAcrossPredictors)
{
    // Reactive policies ignore predictions for ordering, but wiring a
    // predictor still exercises the predictive-placement snapshots
    // under incremental bookkeeping.
    auto trace = churnTrace(1234);
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr,
          SchedulerType::Pascal}) {
        for (const std::string kind : {"none", "oracle", "noisy"}) {
            SCOPED_TRACE("scheduler " +
                         std::to_string(static_cast<int>(sched)) +
                         " predictor " + kind);
            auto pred = predictorNamed(kind);
            auto placement = kind == "none"
                                 ? PlacementType::Pascal
                                 : PlacementType::PascalPredictive;
            expectModesIdentical(constrained(sched, pred, placement),
                                 trace);
        }
    }
}

TEST_F(PlanReuseInvariance, SpeculativeSchedulersAcrossPredictors)
{
    // SRPT and PASCAL-Spec re-key executed requests every iteration
    // under the length predictors; the profile and rank predictors
    // additionally exercise the version-bump path that re-keys *idle*
    // requests when the online learner moves, and under the rank
    // predictor that bump is the only re-key.
    auto trace = churnTrace(777);
    for (SchedulerType sched :
         {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        for (const std::string kind :
             {"oracle", "noisy", "profile", "rank"}) {
            SCOPED_TRACE("scheduler " +
                         std::to_string(static_cast<int>(sched)) +
                         " predictor " + kind);
            auto pred = predictorNamed(kind);
            expectModesIdentical(
                constrained(sched, pred,
                            PlacementType::PascalPredictive),
                trace);
        }
    }
}

TEST_F(PlanReuseInvariance, SpeculativeWithoutPredictorStillRejected)
{
    // The {none} x {SRPT, PASCAL-Spec} corner of the acceptance grid
    // is invalid by construction; the config layer rejects it before
    // either scheduling mode could diverge.
    for (SchedulerType sched :
         {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        SystemConfig cfg = constrained(sched, predictorNamed("none"),
                                       PlacementType::Pascal);
        EXPECT_THROW(cfg.validate(), FatalError);
    }
}

TEST_F(PlanReuseInvariance, UncontendedSteadyStateAlsoIdentical)
{
    // Plenty of memory: the run is dominated by reusable decode-only
    // iterations, the exact regime the fast path targets.
    Rng rng(9);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {800.0, 0.3, 256, 2000};
    profile.answering = {300.0, 0.3, 64, 800};
    auto trace = workload::generateTrace(profile, 40, 50.0, rng);
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr,
          SchedulerType::Pascal}) {
        SystemConfig cfg;
        cfg.scheduler = sched;
        cfg.placement = PlacementType::Pascal;
        cfg.numInstances = 1;
        expectModesIdentical(cfg, trace);
    }
}

TEST_F(PlanReuseFastPath, SteadyStateActuallyReusesPlans)
{
    Rng rng(5);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {800.0, 0.3, 256, 2000};
    profile.answering = {300.0, 0.3, 64, 800};
    auto trace = workload::generateTrace(profile, 12, 100.0, rng);

    SystemConfig cfg;
    cfg.scheduler = SchedulerType::Pascal;
    cfg.placement = PlacementType::Pascal;
    cfg.numInstances = 1;

    // The config fields are the only force switches: a stray
    // PASCAL_FORCE_RESORT in the environment must not turn the fast
    // path off behind the config's back.
    const char* prev_env = std::getenv("PASCAL_FORCE_RESORT");
    const std::string saved = prev_env != nullptr ? prev_env : "";
    setenv("PASCAL_FORCE_RESORT", "1", 1);
    cluster::RunContext fast(cfg);
    fast.submit(trace);
    fast.run();
    if (prev_env != nullptr)
        setenv("PASCAL_FORCE_RESORT", saved.c_str(), 1);
    else
        unsetenv("PASCAL_FORCE_RESORT");
    const auto& inst = *fast.cluster().getInstances()[0];
    EXPECT_GT(inst.numIterations(), 0u);
    // Long decode phases: the bulk of iterations must have reused the
    // previous plan verbatim.
    EXPECT_GT(inst.numPlanReuses(), inst.numIterations() / 2);

    cfg.limits.forceResort = true;
    cluster::RunContext slow(cfg);
    slow.submit(trace);
    slow.run();
    EXPECT_EQ(slow.cluster().getInstances()[0]->numPlanReuses(), 0u);
    test::expectIdentical(fast.result(), slow.result());
}

TEST_F(PlanReuseFastPath, MaintainedCountersTrackScriptedSequence)
{
    // Drive a scheduler through the notification contract directly
    // and check the O(1) counters against the states the recompute
    // scan would report.
    core::SchedLimits limits;
    limits.quantum = 4;
    limits.demoteThresholdTokens = 200;
    core::PascalScheduler sched(limits);
    sched.enableIncremental();
    ASSERT_TRUE(sched.incrementalEnabled());

    SchedulerHarness h(100000);
    auto* rea = h.make(0, 0.0, 64, 300, 10);
    auto* ans = h.make(1, 1.0, 64, 2, 600);
    sched.add(rea);
    sched.add(ans);
    EXPECT_EQ(sched.numReasoning(), 2);
    EXPECT_EQ(sched.numFreshAnswering(), 0);

    // ans transitions to answering with a fresh quantum.
    h.makeResident(ans, limits.quantum);
    sched.noteExecuted(ans); // Prefill emitted its first token.
    h.decodeTokens(ans, 1, 0.5, limits.quantum);
    sched.noteExecuted(ans);
    sched.onPhaseTransition(ans);
    EXPECT_EQ(sched.numReasoning(), 1);
    EXPECT_EQ(sched.numFreshAnswering(), 1);

    // A full quantum of answering tokens: no longer fresh.
    for (int i = 0; i < limits.quantum; ++i) {
        h.decodeTokens(ans, 1, 2.0, limits.quantum);
        sched.noteExecuted(ans);
    }
    EXPECT_EQ(sched.numFreshAnswering(), 0);

    // rea crosses the demotion threshold; the rule applies at the
    // next plan boundary (exactly like recompute mode).
    h.makeResident(rea, limits.quantum);
    sched.noteExecuted(rea);
    h.decodeTokens(rea, 149, 3.0, limits.quantum); // kv 65 -> 214.
    sched.noteExecuted(rea);
    EXPECT_EQ(sched.numReasoning(), 1);
    auto plan = sched.plan(h.pool);
    EXPECT_FALSE(plan.idle());
    EXPECT_TRUE(rea->demoted);
    EXPECT_EQ(sched.numReasoning(), 0);

    // Removal keeps the counters consistent.
    sched.remove(ans);
    EXPECT_EQ(sched.numFreshAnswering(), 0);
    EXPECT_EQ(sched.hosted().size(), 1u);
}

TEST_F(PlanReuseFastPath, RemovePanicNamesInstance)
{
    core::SchedLimits limits;
    core::PascalScheduler sched(limits);
    sched.setInstanceId(3);
    SchedulerHarness h(1000);
    auto* a = h.make(7, 0.0, 64, 10, 10);
    EXPECT_DEATH(sched.remove(a),
                 "request 7 not hosted on instance 3");
}

TEST_F(PlanReuseFastPath, ForceResortEnvAndLimitDisableIncremental)
{
    core::SchedLimits limits;
    limits.forceResort = true;
    core::PascalScheduler sched(limits);
    sched.enableIncremental();
    EXPECT_FALSE(sched.incrementalEnabled());
}

/**
 * The bench's transition-storm shape scaled for CI: short phases at a
 * moderate rate on a pool with headroom, so plan boundaries are
 * dirtied by arrivals, departures, phase transitions, demotions and
 * migration landings — exactly the bounded deltas the O(delta) plan
 * repair patches — rather than by swap traffic.
 */
workload::Trace
transitionTrace(std::uint64_t seed, int n = 400)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {64.0, 0.4, 32, 128};
    profile.reasoning = {25.0, 0.5, 16, 60};
    profile.answering = {45.0, 0.5, 16, 120};
    return workload::generateTrace(profile, n, 60.0, rng);
}

/**
 * Sustained memory pressure: the pool fits only a fraction of the
 * material set, so kept/evicted membership oscillates boundary to
 * boundary (swap thrash) and most plans carry swap traffic — the
 * regime plan repair must recognise as out of scope and decline
 * byte-identically, every time.
 */
workload::Trace
swapThrashTrace(std::uint64_t seed, int n = 250)
{
    Rng rng(seed);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {96.0, 0.5, 32, 192};
    profile.reasoning = {200.0, 0.7, 32, 800};
    profile.answering = {80.0, 0.6, 16, 300};
    return workload::generateTrace(profile, n, 30.0, rng);
}

/** A cluster-level plan-rung counter (cluster.plan.*) from the run's
 *  stat dump, the single source of those counts. */
std::uint64_t
planStat(const cluster::RunResult& result, const std::string& name)
{
    const obs::StatValue* stat =
        obs::findStat(result.statsDump, "cluster.plan." + name);
    EXPECT_NE(stat, nullptr) << "missing stat cluster.plan." << name;
    return stat ? static_cast<std::uint64_t>(stat->value) : 0;
}

SystemConfig
repairConfig(SchedulerType sched, predict::PredictorConfig pred,
             TokenCount capacity)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.placement = pred.type == predict::PredictorType::None
                        ? PlacementType::Pascal
                        : PlacementType::PascalPredictive;
    cfg.predictor = pred;
    cfg.numInstances = 2;
    cfg.gpuKvCapacityTokens = capacity;
    cfg.kvBlockSizeTokens = 16;
    cfg.limits.demoteThresholdTokens = 700;
    return cfg;
}

TEST_F(PlanReuseInvariance, PlanRepairGridByteIdentical)
{
    // The repair fast path vs its force twin across the full
    // scheduler x predictor grid, on both regression shapes: the
    // repair-friendly transition storm and the repair-hostile swap
    // thrash. forcePlanRepair keeps the journal dark so every
    // non-reused boundary pays the full walk — byte-identity proves
    // the patched plans equal the walked ones everywhere.
    struct GridPoint
    {
        SchedulerType sched;
        std::string predictor;
        double answeringReserve = 0.0;
    };
    std::vector<GridPoint> grid;
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr,
          SchedulerType::Pascal}) {
        for (const char* kind : {"none", "oracle", "noisy", "profile"})
            grid.push_back({sched, kind});
    }
    for (SchedulerType sched :
         {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        // Speculative schedulers require a predictor (see
        // SpeculativeWithoutPredictorStillRejected).
        for (const char* kind : {"oracle", "noisy", "profile", "rank"})
            grid.push_back({sched, kind});
    }
    // The capped regime: PASCAL's answering reserve caps the high
    // queue, so its plans start no lineage and always walk. These
    // points are also checked against the recompute twin below.
    grid.push_back({SchedulerType::Pascal, "none", 0.2});
    grid.push_back({SchedulerType::PascalSpec, "profile", 0.2});

    auto transition = transitionTrace(77);
    auto thrash = swapThrashTrace(78);
    for (const auto& point : grid) {
        SCOPED_TRACE(std::string("scheduler ") +
                     std::to_string(static_cast<int>(point.sched)) +
                     " predictor " + point.predictor + " reserve " +
                     std::to_string(point.answeringReserve));
        for (const workload::Trace* trace : {&transition, &thrash}) {
            SystemConfig cfg =
                repairConfig(point.sched, predictorNamed(point.predictor),
                             trace == &thrash ? 3072 : 32768);
            cfg.limits.answeringReserveFraction = point.answeringReserve;
            cfg.limits.forcePlanRepair = false;
            auto fast = cluster::RunContext::execute(cfg, *trace);
            cfg.limits.forcePlanRepair = true;
            auto reference = cluster::RunContext::execute(cfg, *trace);
            test::expectIdentical(fast, reference);
            if (point.answeringReserve > 0.0) {
                cfg.limits.forcePlanRepair = false;
                cfg.limits.forceResort = true;
                test::expectIdentical(
                    fast, cluster::RunContext::execute(cfg, *trace));
            }
        }
    }
}

TEST_F(PlanReuseInvariance, BatchCappedKeptResidentsByteIdentical)
{
    // A batch cap far below the material set leaves residents kept
    // but unselected at most boundaries. Such plans start no lineage:
    // the repair journal assumes every material member is in the
    // batch, so reusing or patching them would diverge from the walk.
    auto trace = transitionTrace(303, 200);
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr,
          SchedulerType::Pascal}) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(sched)));
        SystemConfig cfg =
            repairConfig(sched, predictorNamed("none"), 4096);
        cfg.limits.maxBatchSize = 4;
        expectModesIdentical(cfg, trace);
    }
}

TEST_F(PlanReuseInvariance, AllSixtyFourForceCornersByteIdentical)
{
    // {FORCE_REPAIR} x {FORCE_KICK} x {FORCE_VIEW} x {FORCE_RESORT} x
    // {FORCE_ACCRUE} x {FORCE_STEP}: every corner disables (or eagerly
    // verifies) a different maintained structure, so all 64 runs
    // recompute different subsets of the same state and must agree
    // byte-for-byte. The all-ones corner is the bench's recompute
    // twin; mask 0 is the production fast path. PASCAL-Spec under the
    // rank predictor keys its order on predictions that move only
    // when the predictor learns, so its fast path reuses plans and
    // steps lazily too.
    auto trace = transitionTrace(555, 300);
    for (auto [sched, kind] :
         {std::pair{SchedulerType::Pascal, "oracle"},
          std::pair{SchedulerType::PascalSpec, "rank"}}) {
        SCOPED_TRACE(std::string("predictor ") + kind);
        SystemConfig base =
            repairConfig(sched, predictorNamed(kind), 8192);
        std::vector<cluster::RunResult> results;
        for (int mask = 0; mask < 64; ++mask) {
            SystemConfig cfg = base;
            cfg.limits.forcePerArrivalKick = (mask & 1) != 0;
            cfg.forceViewRebuild = (mask & 2) != 0;
            cfg.limits.forceResort = (mask & 4) != 0;
            cfg.limits.forceAccrue = (mask & 8) != 0;
            cfg.limits.forcePlanRepair = (mask & 16) != 0;
            cfg.limits.forceStep = (mask & 32) != 0;
            results.push_back(cluster::RunContext::execute(cfg, trace));
        }
        // The fast path really does run lazy steps on this shape.
        const obs::StatValue* lazy = obs::findStat(
            results[0].statsDump, "instance.0.engine.lazy_steps");
        ASSERT_NE(lazy, nullptr);
        EXPECT_GT(lazy->value, 0.0);
        for (std::size_t i = 1; i < results.size(); ++i) {
            SCOPED_TRACE("mode mask " + std::to_string(i));
            test::expectIdentical(results[0], results[i]);
        }
    }
}

TEST_F(PlanReuseFastPath, RepairsOutnumberFullWalksOnTransitionStorm)
{
    // On the transition-heavy shape the dominant non-reused boundary
    // carries only bounded deltas, so the O(delta) patch — not the
    // full walk — must satisfy most of them.
    SystemConfig cfg = repairConfig(SchedulerType::Pascal,
                                    predictorNamed("none"), 32768);
    auto result =
        cluster::RunContext::execute(cfg, transitionTrace(99, 500));
    EXPECT_GT(planStat(result, "repairs"), 0u);
    EXPECT_GT(planStat(result, "repairs"), planStat(result, "full_walks"));
}

TEST_F(PlanReuseFastPath, ForcePlanRepairKeepsTheJournalDark)
{
    // The force twin must not merely decline at the repair gate but
    // never journal at all: with forcePlanRepair set, every non-reused
    // boundary is a full walk. It turns the patch off, not verbatim
    // reuse: the lineage plans still rerun.
    SystemConfig cfg = repairConfig(SchedulerType::Pascal,
                                    predictorNamed("none"), 32768);
    auto trace = transitionTrace(101, 300);
    cfg.limits.forcePlanRepair = true;
    cluster::RunContext forced_run(cfg);
    forced_run.submit(trace);
    forced_run.run();
    auto forced = forced_run.result();
    std::uint64_t forced_reuses = 0;
    for (const auto& inst : forced_run.cluster().getInstances())
        forced_reuses += inst->numPlanReuses();
    EXPECT_GT(forced_reuses, 0u);
    EXPECT_EQ(planStat(forced, "repairs"), 0u);
    EXPECT_GT(planStat(forced, "full_walks"), 0u);
    cfg.limits.forcePlanRepair = false;
    auto fast = cluster::RunContext::execute(cfg, trace);
    EXPECT_GT(planStat(fast, "repairs"), 0u);
    test::expectIdentical(fast, forced);
}

} // namespace
