/**
 * @file
 * Lazy steady decode vs its force twin (SchedLimits::forceStep).
 *
 * While an instance reruns its lineage plan verbatim, steps that cross
 * no member event only log their (start, end) time; batch members
 * replay the log when something next reads them. Each catch-up
 * trigger gets a targeted run in which it fires while a stretch is
 * open (Instance::numPendingSteps() is non-zero), and the run must be
 * byte-identical to the same run with every step eager.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/system_config.hh"
#include "src/common/log.hh"
#include "src/obs/stat_registry.hh"
#include "tests/run_result_util.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::RunContext;
using cluster::RunResult;
using cluster::SchedulerType;
using cluster::SystemConfig;

class LazyStep : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

/** @p n requests, one every @p spacing seconds, with long reasoning
 *  and answering phases: the steady decode that lazy stretches
 *  cover. Reasoning lengths differ so events are staggered. */
workload::Trace
steadyTrace(int n, Time spacing, TokenCount reasoning = 900,
            TokenCount answer = 400)
{
    workload::Trace trace;
    for (int i = 0; i < n; ++i) {
        workload::RequestSpec s;
        s.id = i;
        s.arrival = spacing * i;
        s.promptTokens = 96 + 8 * i;
        s.reasoningTokens = reasoning + 37 * i;
        s.answerTokens = answer + 11 * i;
        s.dataset = "steady";
        trace.requests.push_back(s);
    }
    return trace;
}

SystemConfig
steadyConfig(int instances = 1)
{
    SystemConfig cfg;
    cfg.scheduler = SchedulerType::Pascal;
    cfg.placement = PlacementType::Pascal;
    cfg.numInstances = instances;
    cfg.gpuKvCapacityTokens = 65536;
    cfg.kvBlockSizeTokens = 16;
    return cfg;
}

/** Sum of an instance counter over the cluster. */
std::uint64_t
sumOver(const cluster::Cluster& cl,
        const std::function<std::uint64_t(const cluster::Instance&)>& f)
{
    std::uint64_t n = 0;
    for (const auto& inst : cl.getInstances())
        n += f(*inst);
    return n;
}

/**
 * One run of @p cfg over @p trace with @p script wiring extra events
 * (it receives the context and whether this is the eager twin).
 * Returns the result; @p lazy_steps gets the run's lazy-step count.
 */
RunResult
runWith(SystemConfig cfg, const workload::Trace& trace, bool force_step,
        const std::function<void(RunContext&, bool)>& script,
        std::uint64_t* lazy_steps = nullptr)
{
    cfg.limits.forceStep = force_step;
    RunContext ctx(cfg);
    ctx.submit(trace);
    if (script)
        script(ctx, force_step);
    ctx.run();
    RunResult result = ctx.result();
    if (lazy_steps != nullptr) {
        *lazy_steps = sumOver(ctx.cluster(), [](const auto& i) {
            return i.numLazySteps();
        });
    }
    return result;
}

/**
 * Run the lazy path and its forceStep twin with @p trigger fired at
 * @p at on instance @p inst, and require byte identity. In the lazy
 * run the trigger must land inside an open stretch; one that reads
 * member state (@p catches_up) settles it, one that does not leaves
 * it open.
 */
void
expectTriggerIdentical(
    SystemConfig cfg, const workload::Trace& trace, Time at,
    InstanceId inst,
    const std::function<void(cluster::Cluster&)>& trigger,
    bool catches_up = true)
{
    bool fired_mid_stretch = false;
    auto script = [&](RunContext& ctx, bool eager) {
        cluster::Cluster& cl = ctx.cluster();
        ctx.simulator().at(at, [&, eager] {
            const cluster::Instance& i =
                *cl.getInstances()[static_cast<std::size_t>(inst)];
            std::size_t pending = i.numPendingSteps();
            trigger(cl);
            if (!eager) {
                fired_mid_stretch =
                    pending > 0 &&
                    (catches_up ? i.numPendingSteps() == 0
                                : i.numPendingSteps() == pending);
            }
        });
    };
    std::uint64_t lazy_steps = 0;
    RunResult lazy = runWith(cfg, trace, false, script, &lazy_steps);
    RunResult eager = runWith(cfg, trace, true, script);
    EXPECT_TRUE(fired_mid_stretch) << "trigger missed every stretch";
    EXPECT_GT(lazy_steps, 0u);
    test::expectIdentical(lazy, eager);
}

TEST_F(LazyStep, SteadyRunIsMostlyLazyAndIdentical)
{
    auto trace = steadyTrace(24, 0.5);
    std::uint64_t lazy_steps = 0;
    RunResult lazy = runWith(steadyConfig(2), trace, false, nullptr,
                             &lazy_steps);
    std::uint64_t eager_lazy_steps = 1;
    RunResult eager = runWith(steadyConfig(2), trace, true, nullptr,
                              &eager_lazy_steps);
    test::expectIdentical(lazy, eager);
    EXPECT_EQ(eager_lazy_steps, 0u); // The force twin never defers.
    const obs::StatValue* reuses =
        obs::findStat(lazy.statsDump, "instance.0.plan.reuses");
    const obs::StatValue* lazy0 =
        obs::findStat(lazy.statsDump, "instance.0.engine.lazy_steps");
    const obs::StatValue* catchups =
        obs::findStat(lazy.statsDump, "instance.0.engine.catchups");
    ASSERT_NE(reuses, nullptr);
    ASSERT_NE(lazy0, nullptr);
    ASSERT_NE(catchups, nullptr);
    // Most reused steps are lazy, and a catch-up covers many steps.
    EXPECT_GT(lazy0->value, 0.75 * reuses->value);
    EXPECT_GT(lazy0->value, 4.0 * catchups->value);
}

TEST_F(LazyStep, RankKeyedPoliciesReuseAndStepLazily)
{
    // The rank predictor's score is a bucket win rate: it moves when
    // the predictor learns (a version bump, which the next boundary
    // re-scores in place and requeues only if a queue's order moved),
    // never with a request's own progress. So the policies keyed on
    // it reuse plans and step lazily, and must stay byte-identical to
    // their eager twin and to the all-force recompute twin. The
    // oracle's score is the remaining work, which every token moves:
    // none of its steps is steady.
    auto trace = steadyTrace(24, 0.5);
    struct Row
    {
        SchedulerType sched;
        predict::PredictorType predictor;
        bool steady;
    };
    for (const Row& row :
         {Row{SchedulerType::PascalSpec, predict::PredictorType::Rank,
              true},
          Row{SchedulerType::Srpt, predict::PredictorType::Rank, true},
          Row{SchedulerType::PascalSpec, predict::PredictorType::Oracle,
              false}}) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(row.sched)) +
                     " predictor " +
                     std::to_string(static_cast<int>(row.predictor)));
        SystemConfig cfg = steadyConfig(2);
        cfg.scheduler = row.sched;
        cfg.predictor.type = row.predictor;
        RunResult lazy = runWith(cfg, trace, false, nullptr);
        test::expectIdentical(lazy, runWith(cfg, trace, true, nullptr));
        SystemConfig forced = cfg;
        forced.limits.forcePerArrivalKick = true;
        forced.forceViewRebuild = true;
        forced.limits.forceResort = true;
        forced.limits.forceAccrue = true;
        forced.limits.forcePlanRepair = true;
        forced.limits.forceStep = true;
        test::expectIdentical(lazy, RunContext::execute(forced, trace));

        const obs::StatValue* reuses =
            obs::findStat(lazy.statsDump, "instance.0.plan.reuses");
        const obs::StatValue* lazy0 =
            obs::findStat(lazy.statsDump, "instance.0.engine.lazy_steps");
        ASSERT_NE(reuses, nullptr);
        ASSERT_NE(lazy0, nullptr);
        if (row.steady) {
            EXPECT_GT(reuses->value, 0.0);
            EXPECT_GT(lazy0->value, 0.0);
            // Every completion bumps the predictor, but only the
            // bumps that reorder a queue requeue and cost the lineage.
            const obs::StatValue* moved = obs::findStat(
                lazy.statsDump, "cluster.plan.decline.predictor_moved");
            ASSERT_NE(moved, nullptr);
            EXPECT_LT(moved->value,
                      static_cast<double>(lazy.aggregate.numFinished));
        } else {
            EXPECT_EQ(lazy0->value, 0.0);
        }
    }
}

TEST_F(LazyStep, DeclineCountersSumToNonReusedBoundaries)
{
    // cluster.plan.decline.<reason>: one count per non-reused
    // boundary, so the reasons add up to repairs + full walks. The
    // rank-keyed policies add predictor_moved, for the bumps that
    // reorder a queue.
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr, SchedulerType::Pascal,
          SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(sched)));
        SystemConfig cfg = steadyConfig(2);
        cfg.scheduler = sched;
        const bool keyed = sched == SchedulerType::Srpt ||
                           sched == SchedulerType::PascalSpec;
        if (keyed)
            cfg.predictor.type = predict::PredictorType::Rank;
        cfg.gpuKvCapacityTokens = 8192; // Walks and repairs both fire.
        RunResult r = runWith(cfg, steadyTrace(30, 0.3), false, nullptr);
        auto stat = [&](const std::string& name) {
            const obs::StatValue* s = obs::findStat(r.statsDump, name);
            EXPECT_NE(s, nullptr) << name;
            return s ? static_cast<std::uint64_t>(s->value) : 0;
        };
        // PlanDecline::None (index 0) never counts, so it has no row.
        EXPECT_EQ(obs::findStat(r.statsDump, "cluster.plan.decline.none"),
                  nullptr);
        std::uint64_t declines = 0;
        for (std::size_t d = 1; d < core::numPlanDeclineNames(); ++d) {
            declines += stat(std::string("cluster.plan.decline.") +
                             core::planDeclineNames()[d]);
        }
        EXPECT_GT(stat("cluster.plan.repairs") +
                      stat("cluster.plan.full_walks"),
                  0u);
        EXPECT_EQ(declines, stat("cluster.plan.repairs") +
                                stat("cluster.plan.full_walks"));
        if (keyed) {
            EXPECT_GT(stat("cluster.plan.decline.predictor_moved"), 0u);
        }
    }
}

/**
 * Test-only rank predictor: per-bucket scores set by the test (the
 * bucket is the request's dataset), a version bump only when they are
 * set, and a score that never tracks the request's own progress — the
 * contract of the pairwise rank predictor without its learning.
 */
class ScriptedRankPredictor : public predict::LengthPredictor
{
  public:
    std::string name() const override { return "scripted"; }

    double
    predictRemainingTokens(const workload::Request&) const override
    {
        return 0.0;
    }

    double
    predictRemainingReasoningTokens(
        const workload::Request&) const override
    {
        return 0.0;
    }

    double
    rankScore(const workload::Request& req) const override
    {
        return req.finished() ? 0.0 : scores.at(req.spec().dataset);
    }

    bool rankTracksProgress() const override { return false; }

    /** Install @p s as every bucket's score, and bump. */
    void
    set(std::map<std::string, double> s)
    {
        scores = std::move(s);
        bumpVersion();
    }

  private:
    std::map<std::string, double> scores;
};

/** What one scripted bump did on instance 0: whether a stretch was
 *  open when it landed, and the counters' moves until a later probe
 *  (the next boundaries, before anything else happens). */
struct BumpEffect
{
    bool midStretch = false;
    std::uint64_t builds = 0;
    std::uint64_t catchups = 0;
    std::uint64_t predictorMoved = 0;
    bool stretchGrew = false;
};

TEST_F(LazyStep, PredictorBumpRequeuesOnlyWhenItReorders)
{
    // Six requests, one bucket each, decode side by side; the bumps
    // land long after the last arrival and before any event. The KV
    // fills up after the last bump, so the walk then evicts by the
    // order the bumps left behind.
    workload::Trace trace = steadyTrace(6, 0.25, 1500, 200);
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace.requests[i].dataset = "b" + std::to_string(i);
    auto scores = [](std::vector<double> v) {
        std::map<std::string, double> m;
        for (std::size_t i = 0; i < v.size(); ++i)
            m["b" + std::to_string(i)] = v[i];
        return m;
    };
    struct Bump
    {
        const char* what;
        std::map<std::string, double> scores;
        bool reorders;
    };
    const std::vector<Bump> bumps = {
        {"keeps the order", scores({.2, .4, .6, .8, 1., 1.2}), false},
        {"swaps b1 and b2", scores({.2, .6, .4, .8, 1., 1.2}), true},
        {"ties b1 and b2 (arrival order)",
         scores({.2, .5, .5, .8, 1., 1.2}), true},
        {"breaks the tie the same way",
         scores({.2, .5, .51, .8, 1., 1.2}), false},
        {"swaps the first and the last",
         scores({1.2, .5, .51, .8, 1., .2}), true},
    };
    const Time first = 4.0;
    const Time gap = 1.0;
    const Time probe = 0.3;

    for (SchedulerType sched :
         {SchedulerType::Srpt, SchedulerType::PascalSpec}) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(sched)));
        SystemConfig cfg = steadyConfig();
        cfg.scheduler = sched;
        cfg.gpuKvCapacityTokens = 3072;
        // The cluster's own predictor only satisfies validation; every
        // scheduler is rewired to the scripted one before any arrival.
        cfg.predictor.type = predict::PredictorType::Rank;
        std::uint64_t swap_outs = 0;
        auto run = [&](const SystemConfig& c,
                       std::vector<BumpEffect>* effects) {
            ScriptedRankPredictor pred;
            pred.set(scores({.1, .2, .3, .4, .5, .6}));
            RunContext ctx(c);
            for (const auto& inst : ctx.cluster().getInstances())
                inst->setPredictor(&pred, false);
            ctx.submit(trace);
            const cluster::Instance& inst =
                *ctx.cluster().getInstances()[0];
            std::vector<BumpEffect> seen(bumps.size());
            std::vector<BumpEffect> base(bumps.size());
            std::vector<std::size_t> pending(bumps.size());
            for (std::size_t b = 0; b < bumps.size(); ++b) {
                const Time at = first + gap * static_cast<double>(b);
                ctx.simulator().at(at, [&, b] {
                    pending[b] = inst.numPendingSteps();
                    seen[b].midStretch = pending[b] > 0;
                    base[b] = {false, inst.numPlanBuilds(),
                               inst.numCatchUps(),
                               inst.numPlanDeclines(
                                   core::PlanDecline::PredictorMoved),
                               false};
                    pred.set(bumps[b].scores);
                });
                ctx.simulator().at(at + probe, [&, b] {
                    seen[b].builds = inst.numPlanBuilds() - base[b].builds;
                    seen[b].catchups =
                        inst.numCatchUps() - base[b].catchups;
                    seen[b].predictorMoved =
                        inst.numPlanDeclines(
                            core::PlanDecline::PredictorMoved) -
                        base[b].predictorMoved;
                    seen[b].stretchGrew =
                        inst.numPendingSteps() > pending[b];
                });
            }
            ctx.run();
            if (effects != nullptr)
                *effects = seen;
            swap_outs = inst.numSwapOuts();
            return ctx.result();
        };

        std::vector<BumpEffect> effects;
        RunResult lazy = run(cfg, &effects);
        EXPECT_GT(swap_outs, 0u);
        SystemConfig eager = cfg;
        eager.limits.forceStep = true;
        test::expectIdentical(lazy, run(eager, nullptr));
        SystemConfig forced = eager;
        forced.limits.forcePerArrivalKick = true;
        forced.forceViewRebuild = true;
        forced.limits.forceResort = true;
        forced.limits.forceAccrue = true;
        forced.limits.forcePlanRepair = true;
        test::expectIdentical(lazy, run(forced, nullptr));

        for (std::size_t b = 0; b < bumps.size(); ++b) {
            SCOPED_TRACE(bumps[b].what);
            const BumpEffect& e = effects[b];
            EXPECT_TRUE(e.midStretch);
            if (bumps[b].reorders) {
                // Requeued: the next boundary repairs and settles the
                // stretch.
                EXPECT_EQ(e.predictorMoved, 1u);
                EXPECT_GE(e.builds, 1u);
            } else {
                // The lineage reuses and the stretch runs on.
                EXPECT_EQ(e.predictorMoved, 0u);
                EXPECT_EQ(e.builds, 0u);
                EXPECT_EQ(e.catchups, 0u);
                EXPECT_TRUE(e.stretchGrew);
            }
        }
    }
}

/** What the lazy run's at-risk probes saw (expectProbeGridIdentical). */
struct ProbeTally
{
    /** Probes that found a stretch open and settled it. */
    std::uint64_t catchups = 0;
    /** Probes that found a stretch open with an answering member in
     *  its batch. */
    std::uint64_t answeringLazy = 0;
    /** Those of answeringLazy during which another answering request
     *  sat swapped out. */
    std::uint64_t answeringLazySwapped = 0;
};

/**
 * Probe instance 0's t_i verdict every 0.9 s of [@p from, @p to), each
 * time over a 4 s look-ahead grid, in the lazy run and its forceStep
 * twin. The grids must straddle verdict flips and agree, and the runs
 * must be byte-identical. The monitor's exact check reads answering
 * progress, so a lagging batch would flip a verdict early.
 */
ProbeTally
expectProbeGridIdentical(const SystemConfig& cfg,
                         const workload::Trace& trace, Time from, Time to)
{
    std::vector<std::vector<int>> verdicts[2];
    ProbeTally tally;
    auto script = [&](RunContext& ctx, bool eager) {
        cluster::Cluster& cl = ctx.cluster();
        for (Time t = from; t < to; t += 0.9) {
            ctx.simulator().at(t, [&, eager, t] {
                cluster::Instance& inst = *cl.getInstances()[0];
                std::size_t pending = inst.numPendingSteps();
                if (!eager && pending > 0) {
                    // Batch members are the GPU residents stamped
                    // Executed (the accrual audit's rule).
                    bool batched = false;
                    bool swapped = false;
                    for (const auto* r : inst.scheduler().hosted()) {
                        if (r->phase() != workload::Phase::Answering)
                            continue;
                        if (r->exec == workload::ExecState::SwappedCpu)
                            swapped = true;
                        else if (r->exec ==
                                     workload::ExecState::ResidentGpu &&
                                 r->accrualKind ==
                                     workload::BucketKind::Executed)
                            batched = true;
                    }
                    if (batched)
                        ++tally.answeringLazy;
                    if (batched && swapped)
                        ++tally.answeringLazySwapped;
                }
                std::vector<int> row;
                for (Time d = 0.0; d < 4.0; d += 0.02) {
                    Time risk = 0.0;
                    bool ok = inst.snapshot(t + d, &risk).answeringSloOk;
                    row.push_back(ok ? 1 : 0);
                }
                verdicts[eager ? 1 : 0].push_back(row);
                if (!eager && pending > 0 && inst.numPendingSteps() == 0)
                    ++tally.catchups;
            });
        }
    };
    RunResult lazy = runWith(cfg, trace, false, script);
    RunResult eager = runWith(cfg, trace, true, script);
    int flips = 0;
    for (const auto& row : verdicts[1]) {
        for (std::size_t i = 1; i < row.size(); ++i)
            flips += row[i] != row[i - 1] ? 1 : 0;
    }
    EXPECT_GT(flips, 10) << "the grid never straddles a verdict flip";
    EXPECT_EQ(verdicts[0], verdicts[1]);
    test::expectIdentical(lazy, eager);
    return tally;
}

/** SLO classes on with mixed per-class TPOT targets and no deadline
 *  or admission control, over a trace that cycles the three classes. */
void
mixedClassTargets(SystemConfig& cfg, workload::Trace& trace,
                  double scale = 1.0)
{
    cfg.sloClasses.enabled = true;
    cfg.sloClasses.enforceDeadlines = false;
    cfg.sloClasses.overloadControl = false;
    const Time tpot[] = {0.03, 0.04, 0.05};
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c)
        cfg.sloClasses.classes[c].tpotTarget = scale * tpot[c];
    const workload::SloClass order[] = {workload::SloClass::Interactive,
                                        workload::SloClass::Standard,
                                        workload::SloClass::Batch};
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace.requests[i].sloClass = order[i % 3];
}

TEST_F(LazyStep, AtRiskSnapshotCatchesUp)
{
    // Answering members pace close to a tight global TPOT target.
    SystemConfig cfg = steadyConfig();
    cfg.slo.tpotTarget = 0.03;
    cfg.slo.monitorBufferMarginTokens = 4;
    auto trace = steadyTrace(6, 0.2, 300, 900);
    ProbeTally tally = expectProbeGridIdentical(cfg, trace, 5.0, 36.0);
    EXPECT_GT(tally.catchups, 10u) << "probes missed the stretches";
    EXPECT_GT(tally.answeringLazy, 0u);
}

TEST_F(LazyStep, AtRiskSnapshotUnderSloClasses)
{
    // Per-class TPOT targets differ, so SLO-heap keys advance at
    // different rates; stretches still run with answering members
    // because steady emissions never re-key.
    SystemConfig cfg = steadyConfig();
    cfg.slo.monitorBufferMarginTokens = 4;
    auto trace = steadyTrace(6, 0.2, 300, 900);
    mixedClassTargets(cfg, trace);
    ProbeTally tally = expectProbeGridIdentical(cfg, trace, 5.0, 36.0);
    EXPECT_GT(tally.catchups, 10u) << "probes missed the stretches";
    EXPECT_GT(tally.answeringLazy, 0u)
        << "no stretch ran with an answering member";
}

/** KV pressure that swaps answering requests out, under mixed class
 *  targets loose enough that a swapped request can recover its pace
 *  (so the verdict flips both ways). */
SystemConfig
swappedAnsweringConfig(workload::Trace& trace)
{
    SystemConfig cfg = steadyConfig();
    cfg.gpuKvCapacityTokens = 3072;
    cfg.slo.monitorBufferMarginTokens = 4;
    trace = steadyTrace(6, 0.2, 200, 900);
    mixedClassTargets(cfg, trace, 3.0);
    return cfg;
}

TEST_F(LazyStep, AtRiskSnapshotWithSwappedAnswering)
{
    // Answering requests wait swapped out while the batch's answering
    // members run a stretch: the heap holds members that do not
    // advance, and the verdict must still match the eager twin.
    workload::Trace trace;
    SystemConfig cfg = swappedAnsweringConfig(trace);
    ProbeTally tally = expectProbeGridIdentical(cfg, trace, 5.0, 60.0);
    EXPECT_GT(tally.answeringLazySwapped, 0u)
        << "no stretch ran beside a swapped answering request";
}

TEST_F(LazyStep, SloRekeysStayBelowIterations)
{
    // Steady emissions leave SLO-heap keys behind as lower bounds, so
    // keys are computed per membership change, formula switch or due
    // key, not per member per iteration: even with answering requests
    // swapped out (heap members that do not advance) the count stays
    // below the iteration count. Global targets, so the swaps are the
    // only mixed-advance source.
    workload::Trace trace;
    SystemConfig cfg = swappedAnsweringConfig(trace);
    cfg.sloClasses.enabled = false;
    RunResult r = runWith(cfg, trace, false, nullptr);
    const obs::StatValue* rekeys =
        obs::findStat(r.statsDump, "instance.0.slo.rekeys");
    const obs::StatValue* iterations =
        obs::findStat(r.statsDump, "instance.0.engine.iterations");
    const obs::StatValue* swaps =
        obs::findStat(r.statsDump, "instance.0.engine.swap_outs");
    ASSERT_NE(rekeys, nullptr);
    ASSERT_NE(iterations, nullptr);
    ASSERT_NE(swaps, nullptr);
    EXPECT_GT(swaps->value, 0.0);
    EXPECT_LT(rekeys->value, iterations->value);
}

TEST_F(LazyStep, PredictiveSnapshotCatchesUp)
{
    // Predictive placement walks every hosted request's predicted
    // remaining work in each snapshot; PASCAL itself keys nothing on
    // the predictor, so its plans are reused and its stretches lazy.
    SystemConfig cfg = steadyConfig(2);
    cfg.placement = PlacementType::PascalPredictive;
    cfg.predictor.type = predict::PredictorType::Oracle;
    auto trace = steadyTrace(20, 0.9);
    std::vector<TokenCount> footprints[2];
    std::uint64_t probe_catchups = 0;
    auto script = [&](RunContext& ctx, bool eager) {
        cluster::Cluster& cl = ctx.cluster();
        for (Time t = 3.05; t < 40.0; t += 0.7) {
            ctx.simulator().at(t, [&, eager, t] {
                for (const auto& inst : cl.getInstances()) {
                    std::size_t pending = inst->numPendingSteps();
                    footprints[eager ? 1 : 0].push_back(
                        inst->snapshot(t).predictedKvFootprintTokens);
                    if (!eager && pending > 0 &&
                        inst->numPendingSteps() == 0)
                        ++probe_catchups;
                }
            });
        }
    };
    RunResult lazy = runWith(cfg, trace, false, script);
    RunResult eager = runWith(cfg, trace, true, script);
    EXPECT_GT(probe_catchups, 10u) << "probes missed the stretches";
    EXPECT_EQ(footprints[0], footprints[1]);
    test::expectIdentical(lazy, eager);
}

TEST_F(LazyStep, CrashMidStretch)
{
    // The crash detaches every GPU member; the abandoned lazy step's
    // start must be applied (its wall time stays booked as executed)
    // before the orphans leave.
    SystemConfig cfg = steadyConfig(2);
    cfg.fault.enabled = true;
    cfg.fault.retryBudget = 8;
    cfg.fault.backoffBase = 0.1;
    cfg.fault.backoffCap = 0.4;
    auto trace = steadyTrace(12, 0.25);
    expectTriggerIdentical(cfg, trace, 20.013, 0,
                           [](cluster::Cluster& cl) {
                               cl.crashInstance(0);
                           });
}

TEST_F(LazyStep, DeadlineExpiryMidStretch)
{
    // A deadline that fires while a lazy step is in flight is parked
    // and enforced at the boundary, through detach (fail) or
    // demoteBestEffort (demote) — both settle the stretch first.
    // Classes on leave stretches free to batch answering members.
    for (bool demote : {false, true}) {
        SCOPED_TRACE(demote ? "demote" : "fail");
        SystemConfig cfg = steadyConfig();
        cfg.sloClasses.enabled = true;
        cfg.sloClasses.overloadControl = false;
        for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
            cfg.sloClasses.classes[c].relativeDeadline = 0.0;
            cfg.sloClasses.classes[c].demoteOnExpiry = demote;
        }
        auto& batch = cfg.sloClasses.classes[workload::sloClassIndex(
            workload::SloClass::Batch)];
        batch.relativeDeadline = 9.0;
        auto trace = steadyTrace(8, 0.1, 3000, 200);
        for (std::size_t i = 0; i < trace.size(); i += 3)
            trace.requests[i].sloClass = workload::SloClass::Batch;
        std::uint64_t lazy_steps = 0;
        RunResult lazy = runWith(cfg, trace, false, nullptr, &lazy_steps);
        RunResult eager = runWith(cfg, trace, true, nullptr);
        EXPECT_GT(lazy_steps, 0u);
        const auto& row =
            lazy.perClass[workload::sloClassIndex(workload::SloClass::Batch)];
        EXPECT_GT(demote ? row.demoted : row.deadlineFailed, 0u);
        test::expectIdentical(lazy, eager);
    }
}

TEST_F(LazyStep, MigrationsInAndOutOfStretches)
{
    // Answering requests migrate at </think> (always an eager step on
    // the source) and land on a destination whose stretch runs on: a
    // landing reads no member state, and the next boundary repairs.
    SystemConfig cfg = steadyConfig(2);
    cfg.placement = PlacementType::PascalNonAdaptive;
    auto trace = steadyTrace(16, 0.6, 400, 500);
    std::uint64_t lazy_steps = 0;
    RunResult lazy = runWith(cfg, trace, false, nullptr, &lazy_steps);
    RunResult eager = runWith(cfg, trace, true, nullptr);
    EXPECT_GT(lazy.totalMigrations, 0u);
    EXPECT_GT(lazy_steps, 0u);
    test::expectIdentical(lazy, eager);
}

TEST_F(LazyStep, StragglerScaleChangeMidStretch)
{
    // A straggler window scales every later step's latency; a lazy
    // step reads the scale when it starts, so the stretch runs on
    // across the change.
    SystemConfig cfg = steadyConfig(2);
    cfg.fault.enabled = true;
    auto trace = steadyTrace(12, 0.25);
    for (double scale : {3.0, 1.0}) {
        expectTriggerIdentical(
            cfg, trace, scale > 1.0 ? 15.007 : 25.011, 1,
            [scale](cluster::Cluster& cl) { cl.setStraggler(1, scale); },
            false);
    }
}

/** Every hosted request's engine-visible state, in hosted order. */
struct HostedState
{
    RequestId id;
    TokenCount generated;
    TokenCount slotTokens;
    TokenCount quantumTokens;
    double reasoningExecuted;
    double answeringExecuted;
    std::vector<Time> emits;

    bool
    operator==(const HostedState& o) const
    {
        return id == o.id && generated == o.generated &&
               slotTokens == o.slotTokens &&
               quantumTokens == o.quantumTokens &&
               reasoningExecuted == o.reasoningExecuted &&
               answeringExecuted == o.answeringExecuted &&
               emits == o.emits;
    }
};

/** HostedState of every request hosted anywhere in @p ctx. */
std::vector<HostedState>
hostedStates(const RunContext& ctx)
{
    std::vector<HostedState> rows;
    for (const auto& inst : ctx.cluster().getInstances()) {
        for (const auto* r : inst->scheduler().hosted()) {
            rows.push_back({r->id(), r->generated(),
                            inst->pool().tokensOf(r->kvSlot),
                            r->quantumTokens, r->reasoningBuckets.executed,
                            r->answeringBuckets.executed,
                            r->answerEmitTimes});
        }
    }
    return rows;
}

TEST_F(LazyStep, HorizonCutScoresSettledRequests)
{
    // The horizon stops the run mid-stretch. Drive the simulator
    // directly (as a per-event harness does) so no run() chunk settles
    // it: scoring itself must see every hosted request settled.
    SystemConfig cfg = steadyConfig(2);
    cfg.maxSimTime = 23.017;
    auto trace = steadyTrace(12, 0.25);
    RunResult results[2];
    std::vector<HostedState> hosted[2];
    std::size_t pending_at_cut = 0;
    for (bool force_step : {false, true}) {
        cfg.limits.forceStep = force_step;
        RunContext ctx(cfg);
        ctx.submit(trace);
        ctx.simulator().run(cfg.maxSimTime);
        if (!force_step) {
            for (const auto& inst : ctx.cluster().getInstances())
                pending_at_cut += inst->numPendingSteps();
        }
        results[force_step ? 1 : 0] = ctx.result();
        hosted[force_step ? 1 : 0] = hostedStates(ctx);
    }
    EXPECT_GT(pending_at_cut, 0u) << "the cut missed every stretch";
    EXPECT_GT(results[0].numUnfinished, 0u);
    test::expectIdentical(results[0], results[1]);
    EXPECT_TRUE(hosted[0] == hosted[1]);
}

TEST_F(LazyStep, SteppedRunMatchesEagerAfterEveryChunk)
{
    // RunContext::run(t) ends every chunk with a catch-up, so between
    // chunks each hosted request — tokens, KV slot, quantum, buckets,
    // emission times — reads exactly as under eager steps.
    for (SchedulerType sched :
         {SchedulerType::Fcfs, SchedulerType::Rr, SchedulerType::Pascal}) {
        SCOPED_TRACE("scheduler " +
                     std::to_string(static_cast<int>(sched)));
        SystemConfig cfg = steadyConfig(2);
        cfg.scheduler = sched;
        auto trace = steadyTrace(14, 0.4);
        std::vector<std::vector<HostedState>> chunks[2];
        std::uint64_t lazy_steps = 0;
        for (bool force_step : {false, true}) {
            cfg.limits.forceStep = force_step;
            RunContext ctx(cfg);
            ctx.submit(trace);
            for (Time t = 0.713; ctx.simulator().pendingEvents() > 0;
                 t += 0.713) {
                ctx.run(t);
                chunks[force_step ? 1 : 0].push_back(hostedStates(ctx));
            }
            if (!force_step) {
                lazy_steps = sumOver(ctx.cluster(), [](const auto& i) {
                    return i.numLazySteps();
                });
            }
        }
        EXPECT_GT(lazy_steps, 0u);
        ASSERT_EQ(chunks[0].size(), chunks[1].size());
        for (std::size_t i = 0; i < chunks[0].size(); ++i) {
            ASSERT_TRUE(chunks[0][i] == chunks[1][i])
                << "hosted state diverged after chunk " << i;
        }
    }
}

} // namespace
