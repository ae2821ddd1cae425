/**
 * @file
 * Cluster-path benchmark: the incremental fast-path stack (plan
 * reuse + O(delta) plan repair + burst-coalesced arrival planning +
 * min-deadline SLO heap + skip-list queues + lazy accrual +
 * incremental cluster view) vs the all-force recompute twin — the
 * all-ones corner of the force-mode matrix the invariance tests pin
 * (SchedLimits::forcePlanRepair + forcePerArrivalKick + forceResort
 * + forceAccrue + forceStep and SystemConfig::forceViewRebuild), i.e.
 * the seed's per-boundary recompute-everything cost model.
 *
 * Where bench_scheduler_iteration measures the intra-instance
 * scheduling path in isolation, this bench runs whole simulations and
 * measures the cluster-level loops PRs 3-6 made O(dirty) / O(1):
 *
 *  - arrival-storm:    arrivals pour into a multi-instance deployment
 *                      with deep admission backlogs; the greedy
 *                      walk's waiting-dead exit and the SLO heap keep
 *                      per-decision work independent of backlog
 *                      depth.
 *  - transition-storm: short phases fire placement decisions and
 *                      migrations at a high rate (PR 5 re-centered
 *                      the lengths so transitions, not bulk decode,
 *                      dominate — the regime the shape is named for).
 *  - keyed-steady:     the Section V-D reasoning mix below the KV
 *                      knee under PASCAL-Spec keyed by the rank
 *                      predictor: long steady decode whose order comes
 *                      from predictions, so plan reuse and lazy steps
 *                      run between the predictor's version bumps.
 *  - sweep-throughput: a SweepRunner grid over large tiny-request
 *                      traces (the million-request regime scaled for
 *                      CI; --big restores the full size), measuring
 *                      end-to-end sweep throughput in requests/s with
 *                      the shared-trace registry and per-run request
 *                      arenas.
 *
 * Both modes run identical workloads and must agree on a checksum of
 * every RunResult field the byte-identity tests compare (per-request
 * rows and phase buckets, TTFT/QoE aggregates, the per-class ledger)
 * — a divergence aborts the bench, so the speedups can only come
 * from doing the same work faster.
 *
 * Output: human table + JSON (argv[1], default BENCH_cluster_path.json)
 * with a provenance `meta` block (bench_util.hh) and, per storm
 * shape, the full stat-registry dump (bench_util.hh jsonStats) — the
 * generic superset of the old hand-wired engagement counters (plan
 * builds/repairs/full walks, SLO-heap re-keys, view refreshes, plus
 * everything registered since). With --check-fastpath the process
 * exits nonzero if the fast path is not at least as fast as recompute
 * on any shape — CI runs it this way, and ci/check_perf_ratchet.py
 * additionally ratchets each shape against the committed JSON so a
 * regression that deoptimizes the cluster path fails the perf job.
 *
 * Telemetry hooks: the sweep-throughput shape is re-run with Perfetto
 * tracing enabled and the elapsed-time ratio lands under
 * "telemetry_overhead" (ci/check_perf_ratchet.py gates it at 5%);
 * --trace-out FILE additionally runs a traced arrival storm and
 * writes its Chrome trace-event JSON for ci/validate_trace.py.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/sweep_runner.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/workload/generator.hh"

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using cluster::PlacementType;
using cluster::SchedulerType;
using cluster::SystemConfig;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct ShapeResult
{
    std::string shape;
    std::string mode;
    std::uint64_t requests = 0;
    double seconds = 0.0;
    std::uint64_t checksum = 0;
    std::string traceLabel;
    /** Storm shapes harvest the full stat-registry dump from their
     *  single RunContext; the sweep shape's clusters live inside
     *  SweepRunner and are not harvested, so its JSON rows omit the
     *  "stats" key. */
    obs::StatDump stats;

    double
    requestsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(requests) / seconds
                             : 0.0;
    }
};

/** Force the cluster-path debug modes. The recompute twin is the
 *  all-ones corner of the force-mode matrix the invariance tests pin
 *  (REPAIR x KICK x VIEW x RESORT x ACCRUE x STEP): per-boundary queue
 *  re-sorts, the eager accrual walk, per-decision view rebuilds,
 *  per-arrival plan boundaries, full greedy walks at every non-reused
 *  boundary, and eager batch walks at every step — the seed's cost
 *  model with every incremental fast path disabled, so the pair
 *  measures the whole fast-path stack and stays byte-identical by
 *  construction. */
void
applyMode(SystemConfig& cfg, bool recompute)
{
    cfg.limits.forceResort = recompute;
    cfg.limits.forceAccrue = recompute;
    cfg.forceViewRebuild = recompute;
    cfg.limits.forcePerArrivalKick = recompute;
    cfg.limits.forcePlanRepair = recompute;
    cfg.limits.forceStep = recompute;
}

/** FNV-1a over the bit patterns of every value fed in. */
class Digest
{
  public:
    void
    bytes(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }

    template <typename T>
    void
    add(const T& v)
    {
        static_assert(std::is_arithmetic<T>::value || std::is_enum<T>::value,
                      "digest scalars only");
        bytes(&v, sizeof(v));
    }

    void
    add(const std::string& s)
    {
        add(s.size());
        bytes(s.data(), s.size());
    }

    void
    add(const std::vector<double>& v)
    {
        add(v.size());
        for (double x : v)
            add(x);
    }

    void
    add(const workload::PhaseBuckets& b)
    {
        add(b.executed);
        add(b.blocked);
        add(b.preempted);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 1469598103934665603ull;
};

/** Digest of every field tests/run_result_util.hh expectIdentical
 *  compares, so a fast-path bug that moves a latency, a bucket or a
 *  class ledger row (not just a count) fails the mode cross-check. */
std::uint64_t
resultChecksum(const cluster::RunResult& r)
{
    Digest d;
    d.add(r.perRequest.size());
    for (const auto& m : r.perRequest) {
        d.add(m.id);
        d.add(m.dataset);
        d.add(m.arrival);
        d.add(m.finished);
        d.add(m.failed);
        d.add(m.failReason);
        d.add(m.sloClass);
        d.add(m.deadlineExpired);
        d.add(m.bestEffort);
        for (double x : {m.ttft, m.ttfat, m.reasoningLatency,
                         m.e2eLatency, m.answeringLatency,
                         m.blockingLatency, m.queueingDelay, m.meanTpot,
                         m.qoe})
            d.add(x);
        d.add(m.sloViolated);
        d.add(m.migrationCount);
        d.add(m.kvTransferLatencies);
        d.add(m.reasoningBuckets);
        d.add(m.answeringBuckets);
    }
    const auto& a = r.aggregate;
    d.add(a.numRequests);
    d.add(a.numFinished);
    for (double x :
         {a.makespan, a.throughputTokensPerSec, a.meanTtft, a.p50Ttft,
          a.p99Ttft, a.maxTtft, a.meanQoe, a.sloViolationRate,
          a.meanE2eLatency, a.p50E2eLatency, a.p99E2eLatency,
          a.meanAnsweringLatency, a.p99BlockingLatency,
          a.p99KvTransferLatency})
        d.add(x);
    d.add(a.totalMigrations);
    d.add(r.peakGpuKvTokens);
    d.add(r.kvCapacityTokens);
    d.add(r.totalIterations);
    d.add(r.numUnfinished);
    d.add(r.totalMigrations);
    d.add(r.numCrashes);
    d.add(r.numRetries);
    d.add(r.numShed);
    d.add(r.numTerminalFailures);
    d.add(r.goodputFraction);
    for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
        const auto& o = r.perClass[c];
        d.add(o.submitted);
        d.add(o.completed);
        d.add(o.shed);
        d.add(o.deadlineFailed);
        d.add(o.retryFailed);
        d.add(o.demoted);
        d.add(o.goodputFraction);
        const auto& ca = r.classAggregates[c];
        d.add(ca.numRequests);
        d.add(ca.numFinished);
        d.add(ca.meanTtft);
        d.add(ca.p99Ttft);
        d.add(ca.meanQoe);
    }
    d.add(r.kvTransferLatencies);
    d.add(r.schedulerName);
    d.add(r.placementName);
    d.add(r.predictorName);
    return d.value();
}

/** arrival-storm: deep backlogs on a constrained 8-instance cluster. */
ShapeResult
arrivalStorm(bool recompute)
{
    // A burst far beyond the cluster's admission rate: the backlog
    // grows to thousands of hosted-but-waiting requests, the regime
    // where the eager per-iteration accrual walk and the per-arrival
    // full view rebuild are pure O(hosted) overhead.
    Rng rng(1);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {96.0, 0.5, 32, 256};
    profile.reasoning = {220.0, 0.7, 32, 900};
    profile.answering = {90.0, 0.6, 16, 400};
    auto trace = workload::generateTrace(profile, 10000, 4000.0, rng);

    SystemConfig cfg = SystemConfig::pascal(8);
    cfg.gpuKvCapacityTokens = 49152;
    applyMode(cfg, recompute);

    auto start = std::chrono::steady_clock::now();
    cluster::RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    double elapsed = secondsSince(start);
    return {"arrival-storm",        recompute ? "recompute" : "fast",
            trace.size(),           elapsed,
            resultChecksum(result), trace.describe(),
            result.statsDump};
}

/** transition-storm: short phases fire placement decisions and
 *  adaptive migrations at token rate. Both generation phases are
 *  short, so the measured regime is the decision machinery (view
 *  refreshes, SLO verdicts, migration bookkeeping) rather than bulk
 *  decode — the path this shape is named for. */
ShapeResult
transitionStorm(bool recompute)
{
    Rng rng(2);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {64.0, 0.4, 32, 128};
    profile.reasoning = {25.0, 0.5, 16, 60};
    profile.answering = {45.0, 0.5, 16, 120};
    auto trace = workload::generateTrace(profile, 10000, 1500.0, rng);

    SystemConfig cfg = SystemConfig::pascal(6);
    cfg.gpuKvCapacityTokens = 65536;
    applyMode(cfg, recompute);

    auto start = std::chrono::steady_clock::now();
    cluster::RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    double elapsed = secondsSince(start);
    return {"transition-storm",    recompute ? "recompute" : "fast",
            trace.size(),           elapsed,
            resultChecksum(result), trace.describe(),
            result.statsDump};
}

/** keyed-steady: PASCAL-Spec under the rank predictor on the
 *  reasoning mix at a rate below the KV knee. The rank score moves
 *  only when a completion teaches the predictor, so between
 *  completions the keyed plans are reused and stepped lazily. */
ShapeResult
keyedSteady(bool recompute)
{
    Rng rng(3);
    auto trace = workload::generateMixedTrace(
        {{workload::DatasetProfile::math500(), 1.0},
         {workload::DatasetProfile::gpqa(), 1.0},
         {workload::DatasetProfile::liveCodeBench(), 1.0}},
        4000, 3.0, rng);

    predict::PredictorConfig rank;
    rank.type = predict::PredictorType::Rank;
    SystemConfig cfg =
        SystemConfig::speculative(SchedulerType::PascalSpec, rank, 8);
    applyMode(cfg, recompute);

    auto start = std::chrono::steady_clock::now();
    cluster::RunContext ctx(cfg);
    ctx.submit(trace);
    ctx.run();
    auto result = ctx.result();
    double elapsed = secondsSince(start);
    return {"keyed-steady",         recompute ? "recompute" : "fast",
            trace.size(),           elapsed,
            resultChecksum(result), trace.describe(),
            result.statsDump};
}

/** sweep-throughput: a grid over large tiny-request traces. @p traced
 *  additionally enables the Perfetto trace ring on every grid point
 *  (the telemetry-overhead probe). */
ShapeResult
sweepThroughput(bool recompute, bool big, bool traced = false)
{
    // Tiny generations keep the token work per request small, so the
    // measured regime is the per-request machinery (arena
    // construction, arrival placement, admission) — the cost that
    // scales with million-request grids.
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {32.0, 0.4, 16, 64};
    profile.reasoning = {20.0, 0.5, 8, 48};
    profile.answering = {10.0, 0.4, 4, 24};

    const int per_trace = big ? 250'000 : 60'000;
    cluster::SweepRunner runner;
    auto t0 = runner.addGeneratedTrace(profile, per_trace, 2000.0, 11);
    auto t1 = runner.addGeneratedTrace(profile, per_trace, 2500.0, 12);

    SystemConfig pascal_cfg = SystemConfig::pascal(4);
    pascal_cfg.gpuKvCapacityTokens = 65536;
    SystemConfig fcfs_cfg =
        SystemConfig::baseline(SchedulerType::Fcfs, 4);
    fcfs_cfg.gpuKvCapacityTokens = 65536;
    applyMode(pascal_cfg, recompute);
    applyMode(fcfs_cfg, recompute);
    if (traced) {
        // A bounded ring sized for steady-state soak recording: every
        // event still pays the recording cost (the per-event overhead
        // under test), while the export stays O(capacity) — the
        // configuration a long soak would actually run with.
        pascal_cfg.telemetry.traceEnabled = true;
        pascal_cfg.telemetry.traceCapacity = 1u << 12;
        fcfs_cfg.telemetry.traceEnabled = true;
        fcfs_cfg.telemetry.traceCapacity = 1u << 12;
    }
    runner.addGrid({pascal_cfg, fcfs_cfg}, {t0, t1});

    auto start = std::chrono::steady_clock::now();
    auto result = runner.run(2);
    double elapsed = secondsSince(start);

    std::uint64_t checksum = 0;
    std::uint64_t simulated = 0;
    for (const auto& outcome : result.outcomes) {
        checksum = checksum * 31ull + resultChecksum(outcome.result);
        simulated += outcome.result.perRequest.size();
    }
    return {"sweep-throughput",
            recompute ? "recompute" : (traced ? "fast+trace" : "fast"),
            simulated,
            elapsed,
            checksum,
            runner.trace(t0).describe() + " x2 configs x2 traces",
            {}};
}

/** Run a traced arrival storm and write its Chrome trace-event JSON
 *  (the nightly ci/validate_trace.py artifact). */
void
writeTraceArtifact(const std::string& path)
{
    Rng rng(1);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.prompt = {96.0, 0.5, 32, 256};
    profile.reasoning = {220.0, 0.7, 32, 900};
    profile.answering = {90.0, 0.6, 16, 400};
    auto trace = workload::generateTrace(profile, 2000, 2000.0, rng);

    SystemConfig cfg = SystemConfig::pascal(8);
    cfg.gpuKvCapacityTokens = 49152;
    cfg.telemetry.traceEnabled = true;
    auto result = cluster::RunContext::execute(cfg, trace);

    std::ofstream out(path);
    if (!out)
        fatal("cannot open '" + path + "' for writing");
    out << result.traceJson;
    out.close();
    std::printf("trace artifact written to %s (%zu bytes)\n",
                path.c_str(), result.traceJson.size());
}

void
print(const ShapeResult& r)
{
    std::printf("%-16s %-9s %9llu reqs  %8.3f s  %10.0f reqs/s\n",
                r.shape.c_str(), r.mode.c_str(),
                static_cast<unsigned long long>(r.requests), r.seconds,
                r.requestsPerSec());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
try {
    std::string json_path = "BENCH_cluster_path.json";
    std::string trace_out;
    bool check_fastpath = false;
    bool big = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check-fastpath") == 0)
            check_fastpath = true;
        else if (std::strcmp(argv[i], "--big") == 0)
            big = true;
        else if (std::strcmp(argv[i], "--trace-out") == 0 &&
                 i + 1 < argc)
            trace_out = argv[++i];
        else
            json_path = argv[i];
    }
    setQuiet(true);

    std::printf("== cluster path (fast vs recompute) ==\n");
    std::vector<ShapeResult> results;
    auto run_pair = [&](auto&& fn) {
        ShapeResult fast = fn(false);
        ShapeResult recompute = fn(true);
        if (fast.checksum != recompute.checksum) {
            fatal("mode divergence on shape '" + fast.shape +
                  "': fast checksum " + std::to_string(fast.checksum) +
                  " vs recompute " +
                  std::to_string(recompute.checksum));
        }
        print(fast);
        print(recompute);
        results.push_back(fast);
        results.push_back(recompute);
    };
    run_pair(arrivalStorm);
    run_pair(transitionStorm);
    run_pair(keyedSteady);
    run_pair([big](bool recompute) {
        return sweepThroughput(recompute, big);
    });

    // Telemetry-overhead probe: the fast mode again, with the
    // Perfetto ring recording every event. Must stay within the 5%
    // budget ci/check_perf_ratchet.py gates. Single ~2 s sweeps are
    // far noisier than 5% on shared CI machines, so each rep times a
    // traced/untraced pair back-to-back (slow load drift cancels
    // within a pair), alternates which leg runs first (cancels any
    // residual drift across the pair boundary), and the reported
    // overhead is the median per-pair ratio (a contention spike
    // lands in one pair and is discarded as an outlier).
    std::vector<double> probe_ratios;
    for (int rep = 0; rep < 10; ++rep) {
        const bool traced_first = (rep % 2 == 0);
        double telem_s = 0.0;
        double fast_s = 0.0;
        for (int leg = 0; leg < 2; ++leg) {
            const bool traced = traced_first == (leg == 0);
            ShapeResult r = sweepThroughput(false, big, traced);
            if (r.checksum != results.back().checksum) {
                fatal("telemetry probe diverged on the "
                      "sweep-throughput shape: checksum " +
                      std::to_string(r.checksum) + " vs " +
                      std::to_string(results.back().checksum));
            }
            print(r);
            (traced ? telem_s : fast_s) = r.seconds;
        }
        if (fast_s > 0.0)
            probe_ratios.push_back(telem_s / fast_s);
    }
    std::sort(probe_ratios.begin(), probe_ratios.end());
    const std::size_t mid = probe_ratios.size() / 2;
    const double telemetry_overhead =
        probe_ratios.empty()
            ? 1.0
            : (probe_ratios.size() % 2 == 0
                   ? 0.5 * (probe_ratios[mid - 1] + probe_ratios[mid])
                   : probe_ratios[mid]);

    std::printf("\n== cluster-path speedup ==\n");
    std::ofstream json(json_path);
    if (!json)
        fatal("cannot open '" + json_path + "' for writing");
    json << "{\n  \"bench\": \"bench_cluster_path\",\n"
         << "  " << bench::jsonMeta() << ",\n"
         << "  \"big\": " << (big ? "true" : "false") << ",\n"
         << "  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        json << "    {\"shape\": \"" << r.shape << "\", \"mode\": \""
             << r.mode << "\", \"trace\": \"" << r.traceLabel
             << "\", \"requests\": " << r.requests
             << ", \"seconds\": " << r.seconds
             << ", \"requests_per_sec\": " << r.requestsPerSec();
        if (!r.stats.empty())
            json << ",\n     \"stats\": " << bench::jsonStats(r.stats);
        json << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"speedup\": {";
    // --check-fastpath gates every shape: the first one slower than
    // its recompute twin fails the run.
    const ShapeResult* slow = nullptr;
    double slow_speedup = 1.0;
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        double speedup = results[i + 1].seconds / results[i].seconds;
        if (slow == nullptr && speedup < 1.0) {
            slow = &results[i];
            slow_speedup = speedup;
        }
        std::printf("%-16s %5.2fx\n", results[i].shape.c_str(),
                    speedup);
        json << (i ? ", " : "") << "\"" << results[i].shape
             << "\": " << speedup;
    }
    json << "},\n  \"telemetry_overhead\": {\"sweep-throughput\": "
         << telemetry_overhead << "}\n}\n";
    json.close();
    std::printf("telemetry overhead   %5.3fx\n", telemetry_overhead);
    std::printf("\nJSON written to %s\n", json_path.c_str());

    if (!trace_out.empty())
        writeTraceArtifact(trace_out);

    if (check_fastpath && slow != nullptr) {
        std::fprintf(stderr,
                     "FAIL: cluster fast path slower than recompute on "
                     "the %s shape (%.2fx)\n",
                     slow->shape.c_str(), slow_speedup);
        return 1;
    }
    return 0;
} catch (const pascal::FatalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
