/**
 * @file
 * perfbench: the simulator's outside-in benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--git-sha SHA] [--trace-out FILE]
 *
 * Generates the named workload's trace from the seed and runs it,
 * single-threaded, through the public cluster::RunContext API for S
 * seconds of host time (whole runs, at least kMinRuns of them). With
 * --trace 0 it reports the end-to-end metrics; with --trace 1 it
 * alternates untraced runs with event-stepped traced runs
 * (traced_run.hh) and reports the per-layer metrics. Every run's
 * output is checked (checks.hh); the last stdout line is one JSON
 * object {correct, attempted, failed, metrics}, and the exit code is
 * nonzero if any check failed. README.md defines every metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/stats.hh"
#include "src/predict/predictor.hh"
#include "src/workload/request.hh"

#include "checks.hh"
#include "traced_run.hh"
#include "workloads.hh"

namespace
{

using namespace pascal;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/** Whole untraced runs made even when one run outlasts --seconds. */
constexpr int kMinRuns = 3;
/** Untraced + traced pairs made even when they outlast --seconds. */
constexpr int kMinTracedPairs = 2;
/** Set-up repetitions behind the reported setup_s median. */
constexpr int kSetupSamples = 21;

/** Keeps the predictor probe's results observable. */
volatile double probeSink = 0.0;

struct Args
{
    WorkloadId workload = WorkloadId::ReasoningSteady;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string gitSha = "unknown";
    std::string traceOut;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "reasoning-steady|chat-burst|spec-faults --seed N "
                 "--seconds S --trace 0|1 [--git-sha SHA] "
                 "[--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string val = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            if (!parseWorkload(val, &a.workload))
                usage(("unknown workload " + val).c_str());
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || val[0] == '-' || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(a.seconds > 0.0) ||
                a.seconds > 600.0)
                usage("--seconds takes a number in (0, 600]");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (key == "--git-sha") {
            a.gitSha = val;
        } else if (key == "--trace-out") {
            a.traceOut = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> xs)
{
    return stats::percentile(std::move(xs), 50.0);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The simulated (virtual-time) end-to-end outcome of one run. */
struct SimOutcome
{
    double ttftP50 = 0.0;
    double ttftP99 = 0.0;
    double tpotP99Ms = 0.0;
    double sloAttainment = 0.0;
    double qoeMean = 0.0;
    std::size_t completed = 0;
};

/** Computed from the per-request rows over every *submitted*
 *  request: shed, failed and unfinished requests miss the SLO and
 *  score zero QoE. */
SimOutcome
simOutcome(const cluster::RunResult& r)
{
    SimOutcome o;
    std::vector<double> ttft, tpot;
    double met = 0.0, qoe = 0.0;
    for (const auto& m : r.perRequest) {
        if (!m.finished)
            continue;
        ttft.push_back(m.ttft);
        tpot.push_back(m.meanTpot * 1e3);
        met += m.sloViolated ? 0.0 : 1.0;
        qoe += m.qoe;
    }
    const double submitted = static_cast<double>(r.perRequest.size());
    o.completed = ttft.size();
    o.ttftP50 = stats::percentile(ttft, 50.0);
    o.ttftP99 = stats::percentile(ttft, 99.0);
    o.tpotP99Ms = stats::percentile(tpot, 99.0);
    o.sloAttainment = submitted > 0 ? met / submitted : 0.0;
    o.qoeMean = submitted > 0 ? qoe / submitted : 0.0;
    return o;
}

/** Requests that neither completed nor ended in a failure the
 *  workload injects on purpose (spec-faults' shed, deadline and
 *  retry-budget failures are the fault and class layers working). */
std::uint64_t
failedRequests(WorkloadId w, const cluster::RunResult& r)
{
    std::uint64_t n = 0;
    for (const auto& m : r.perRequest) {
        if (!m.finished && !(w == WorkloadId::SpecFaults && m.failed))
            ++n;
    }
    return n;
}

TokenCount
inputTokens(const workload::Trace& t)
{
    TokenCount n = 0;
    for (const auto& s : t.requests)
        n += s.promptTokens;
    return n;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** The all-force recompute twin: the five debug flags that turn off
 *  every incremental fast path (bench/bench_cluster_path.cc). */
cluster::SystemConfig
forceTwin(cluster::SystemConfig cfg)
{
    cfg.limits.forceResort = true;
    cfg.limits.forceAccrue = true;
    cfg.forceViewRebuild = true;
    cfg.limits.forcePerArrivalKick = true;
    cfg.limits.forcePlanRepair = true;
    return cfg;
}

/** Replay a prefix of the trace on the fast path and on the force
 *  twin; their RunResults must digest identically. */
void
checkForceTwin(const Args& a, CheckLog& log)
{
    auto trace = workloadTrace(a.workload, a.seed);
    trace.requests.resize(
        std::min(trace.size(), twinPrefixRequests(a.workload)));
    const auto cfg = workloadConfig(a.workload, a.seed);
    const auto fast = cluster::RunContext::execute(cfg, trace);
    const auto twin = cluster::RunContext::execute(forceTwin(cfg), trace);
    log.require(resultDigest(fast) == resultDigest(twin),
                "force-recompute twin matches the fast path on a " +
                    std::to_string(trace.size()) + "-request prefix");
}

/** Standalone probe of the rank predictor's public API over the
 *  trace: score each request, then feed back its completion.
 *  @return Mean ns per call (score or observe). */
double
rankNsPerCall(const workload::Trace& trace)
{
    predict::PredictorConfig cfg;
    cfg.type = predict::PredictorType::Rank;
    auto predictor = predict::makePredictor(cfg);
    std::deque<workload::Request> reqs;
    for (const auto& spec : trace.requests)
        reqs.emplace_back(spec);
    double sink = 0.0;
    const auto t0 = Clock::now();
    for (auto& r : reqs) {
        sink += predictor->rankScore(r);
        predictor->observeCompletion(r);
    }
    const auto t1 = Clock::now();
    probeSink = sink;
    return secondsBetween(t0, t1) * 1e9 /
           static_cast<double>(2 * std::max<std::size_t>(1, reqs.size()));
}

/** Everything one benchmark invocation hands to the JSON printer. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

void
printProvenance(const Args& a, const workload::Trace& trace,
                const cluster::RunResult& r)
{
    const char* compiler =
#if defined(__clang__)
        "clang " __clang_version__;
#elif defined(__GNUC__)
        "gcc " __VERSION__;
#else
        "unknown";
#endif
    std::printf("provenance: {\"git_sha\": \"%s\", \"build_type\": "
                "\"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
                "\"workload\": \"%s\", \"seed\": %llu, \"requests\": "
                "%zu, \"input_tokens\": %lld, \"simulated_tokens\": "
                "%lld, \"sim_makespan_s\": %.6f, \"scheduler\": \"%s\", "
                "\"placement\": \"%s\", \"predictor\": \"%s\"}\n",
                a.gitSha.c_str(), PERFBENCH_BUILD_TYPE, compiler,
                std::thread::hardware_concurrency(),
                workloadName(a.workload),
                static_cast<unsigned long long>(a.seed), trace.size(),
                static_cast<long long>(inputTokens(trace)),
                static_cast<long long>(trace.totalGeneratedTokens()),
                r.aggregate.makespan, r.schedulerName.c_str(),
                r.placementName.c_str(), r.predictorName.c_str());
}

/** --trace 0: set-up repetitions, then whole untraced runs for the
 *  end-to-end metrics. */
Report
endToEnd(const Args& a, CheckLog& log)
{
    Report rep;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupSamples; ++i) {
        const auto t0 = Clock::now();
        auto trace = workloadTrace(a.workload, a.seed);
        cluster::RunContext ctx(workloadConfig(a.workload, a.seed));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }

    std::vector<double> run_ns;
    cluster::RunResult first;
    std::uint64_t digest = 0;
    TokenCount tokens = 0;
    const auto start = Clock::now();
    for (int i = 0;; ++i) {
        auto trace = workloadTrace(a.workload, a.seed);
        cluster::RunContext ctx(workloadConfig(a.workload, a.seed));
        const auto t0 = Clock::now();
        ctx.submit(trace);
        ctx.run();
        auto result = ctx.result();
        run_ns.push_back(secondsBetween(t0, Clock::now()) * 1e9);
        rep.attempted += trace.size();
        rep.failed += failedRequests(a.workload, result);
        if (i == 0) {
            checkOutputs(a.workload, trace, ctx, result, log);
            checkRegime(a.workload, trace, ctx, result, log);
            printProvenance(a, trace, result);
            digest = resultDigest(result);
            tokens = trace.totalGeneratedTokens();
            first = std::move(result);
        } else {
            log.require(resultDigest(result) == digest,
                        "repeated runs give identical RunResults");
        }
        if (i + 1 >= kMinRuns &&
            secondsBetween(start, Clock::now()) >= a.seconds)
            break;
    }
    const double rss_mb = peakRssMb();
    checkForceTwin(a, log);

    const SimOutcome o = simOutcome(first);
    std::printf("runs: %zu; completed requests (TTFT/TPOT samples): "
                "%zu of %zu\n",
                run_ns.size(), o.completed, first.perRequest.size());
    rep.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"ns_per_token", median(run_ns) / static_cast<double>(tokens),
         "ns"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_ttft_p50_s", o.ttftP50, "s"},
        {"sim_ttft_p99_s", o.ttftP99, "s"},
        {"sim_tpot_p99_ms", o.tpotP99Ms, "ms"},
        {"sim_slo_attainment", o.sloAttainment, "fraction"},
        {"sim_qoe_mean", o.qoeMean, "score"},
    };
    return rep;
}

/** Event-span durations of one kind, pooled over traced runs. */
struct KindStats
{
    std::uint64_t count = 0; //!< Per traced run (deterministic).
    double totalNs = 0.0;    //!< Summed over traced runs.
    std::vector<double> durNs;
};

/** --trace 1: alternate untraced and traced runs; per-layer metrics
 *  come from the traced runs, their overhead from the pair. */
Report
perLayer(const Args& a, CheckLog& log)
{
    Report rep;
    std::vector<double> untraced_ns, traced_ns, run_only_ns;
    std::vector<double> gen_ms, construct_ms, submit_ms, score_ms;
    std::array<KindStats, kNumEventKinds> kinds;
    double sim_run_ns = 0.0;
    TracedRun last;
    workload::Trace trace;
    const auto start = Clock::now();
    for (int i = 0;; ++i) {
        trace = workloadTrace(a.workload, a.seed);
        std::uint64_t digest = 0;
        {
            cluster::RunContext ctx(workloadConfig(a.workload, a.seed));
            const auto t0 = Clock::now();
            ctx.submit(trace);
            const auto t1 = Clock::now();
            ctx.run();
            const auto t2 = Clock::now();
            auto result = ctx.result();
            const auto t3 = Clock::now();
            untraced_ns.push_back(secondsBetween(t0, t3) * 1e9);
            run_only_ns.push_back(secondsBetween(t1, t2) * 1e9);
            digest = resultDigest(result);
            rep.attempted += trace.size();
            rep.failed += failedRequests(a.workload, result);
            if (i == 0) {
                checkOutputs(a.workload, trace, ctx, result, log);
                checkRegime(a.workload, trace, ctx, result, log);
                printProvenance(a, trace, result);
            }
        }

        last = tracedRun(a.workload, a.seed);
        log.require(resultDigest(last.result) == digest,
                    "traced and untraced runs give identical RunResults");
        traced_ns.push_back(static_cast<double>(
            last.topNs("cluster.submit") + last.topNs("sim.run") +
            last.topNs("qoe.score")));
        gen_ms.push_back(last.topNs("workload.generate") / 1e6);
        construct_ms.push_back(last.topNs("cluster.construct") / 1e6);
        submit_ms.push_back(last.topNs("cluster.submit") / 1e6);
        score_ms.push_back(last.topNs("qoe.score") / 1e6);
        sim_run_ns += static_cast<double>(last.topNs("sim.run"));
        for (auto& k : kinds)
            k.count = 0;
        for (const auto& e : last.events) {
            auto& k = kinds[static_cast<std::size_t>(e.kind)];
            ++k.count;
            k.totalNs += static_cast<double>(e.durNs);
            k.durNs.push_back(static_cast<double>(e.durNs));
        }
        if (i + 1 >= kMinTracedPairs &&
            secondsBetween(start, Clock::now()) >= a.seconds)
            break;
    }
    if (!a.traceOut.empty()) {
        log.require(writeChromeTrace(last, a.traceOut),
                    "trace written to " + a.traceOut);
    }
    checkForceTwin(a, log);

    const cluster::RunResult& r = last.result;
    const ClusterCounters& k = last.counters;
    const double tokens = static_cast<double>(trace.totalGeneratedTokens());
    const double events = static_cast<double>(last.events.size());
    auto kindMetrics = [&](const std::string& prefix, EventKind kind) {
        auto& s = kinds[static_cast<std::size_t>(kind)];
        std::sort(s.durNs.begin(), s.durNs.end());
        rep.metrics.push_back(
            {prefix + ".count", static_cast<double>(s.count), "count"});
        rep.metrics.push_back(
            {prefix + ".share", s.totalNs / sim_run_ns, "fraction"});
        rep.metrics.push_back({prefix + ".self_ns_p50",
                               stats::percentileOfSorted(s.durNs, 50.0),
                               "ns"});
        rep.metrics.push_back({prefix + ".self_ns_p99",
                               stats::percentileOfSorted(s.durNs, 99.0),
                               "ns"});
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    std::uint64_t shed = 0, deadline_failed = 0, demoted = 0;
    for (const auto& c : r.perClass) {
        shed += c.shed;
        deadline_failed += c.deadlineFailed;
        demoted += c.demoted;
    }

    rep.metrics.push_back({"workload.generate_ms", median(gen_ms), "ms"});
    rep.metrics.push_back({"sim.events", events, "count"});
    rep.metrics.push_back(
        {"sim.events_per_token", ratio(events, tokens), "1/token"});
    rep.metrics.push_back(
        {"sim.ns_per_event", ratio(median(run_only_ns), events), "ns"});
    kindMetrics("core.plan.reuse", EventKind::IterReuse);
    kindMetrics("core.plan.repair", EventKind::IterRepair);
    kindMetrics("core.plan.full_walk", EventKind::IterFullWalk);
    rep.metrics.push_back(
        {"core.plan.reuse_ratio",
         ratio(static_cast<double>(k.planReuses + k.planRepairs),
               static_cast<double>(k.planReuses + k.planBuilds)),
         "fraction"});
    kindMetrics("cluster.place", EventKind::Place);
    const double instances = static_cast<double>(
        workloadConfig(a.workload, a.seed).numInstances);
    rep.metrics.push_back(
        {"cluster.view_refresh_ratio",
         ratio(static_cast<double>(k.viewRefreshes),
               static_cast<double>(k.viewBuilds) * instances),
         "fraction"});
    rep.metrics.push_back(
        {"cluster.batch_mean",
         ratio(static_cast<double>(k.decodeTokens),
               static_cast<double>(k.iterations)),
         "requests"});
    rep.metrics.push_back(
        {"cluster.slo_rekeys_per_iter",
         ratio(static_cast<double>(k.sloRekeys),
               static_cast<double>(k.iterations)),
         "1/iter"});
    rep.metrics.push_back({"cluster.migrations",
                           static_cast<double>(r.totalMigrations),
                           "count"});
    rep.metrics.push_back({"cluster.submit_ms", median(submit_ms), "ms"});
    rep.metrics.push_back(
        {"cluster.construct_ms", median(construct_ms), "ms"});
    rep.metrics.push_back(
        {"model.kv_peak_frac",
         ratio(static_cast<double>(r.peakGpuKvTokens),
               static_cast<double>(r.kvCapacityTokens)),
         "fraction"});
    rep.metrics.push_back(
        {"model.swap_outs", static_cast<double>(k.swapOuts), "count"});
    rep.metrics.push_back(
        {"model.swap_ins", static_cast<double>(k.swapIns), "count"});
    rep.metrics.push_back(
        {"model.kv_transfer_p99_s",
         stats::percentile(r.kvTransferLatencies, 99.0), "s"});
    rep.metrics.push_back({"qoe.score_ms", median(score_ms), "ms"});
    rep.metrics.push_back(
        {"qoe.class.shed", static_cast<double>(shed), "count"});
    rep.metrics.push_back({"qoe.class.deadline_failed",
                           static_cast<double>(deadline_failed), "count"});
    rep.metrics.push_back(
        {"qoe.class.demoted", static_cast<double>(demoted), "count"});
    rep.metrics.push_back(
        {"predict.rank_ns_per_call", rankNsPerCall(trace), "ns"});
    rep.metrics.push_back(
        {"fault.crashes", static_cast<double>(r.numCrashes), "count"});
    rep.metrics.push_back(
        {"fault.retries", static_cast<double>(r.numRetries), "count"});
    rep.metrics.push_back(
        {"fault.shed", static_cast<double>(r.numShed), "count"});
    rep.metrics.push_back({"fault.terminal_failures",
                           static_cast<double>(r.numTerminalFailures),
                           "count"});
    rep.metrics.push_back(
        {"fault.event_share",
         kinds[static_cast<std::size_t>(EventKind::Fault)].totalNs /
             sim_run_ns,
         "fraction"});
    rep.metrics.push_back({"bench.trace_overhead",
                           ratio(median(traced_ns), median(untraced_ns)),
                           "ratio"});
    std::printf("traced runs: %zu; events per run: %.0f\n",
                traced_ns.size(), events);
    return rep;
}

void
printResult(bool correct, const Report& rep)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const auto& m = rep.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    CheckLog log;
    Report rep;
    try {
        rep = args.trace ? perLayer(args, log) : endToEnd(args, log);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    bool finite = true;
    for (const auto& m : rep.metrics)
        finite = finite && std::isfinite(m.value);
    log.require(finite, "every metric is finite");
    for (const auto& msg : log.messages())
        std::fprintf(stderr, "perfbench: check failed: %s\n", msg.c_str());
    std::fflush(stderr);
    printResult(log.passed(), rep);
    return log.passed() ? 0 : 1;
}
