/**
 * @file
 * Event-engine performance benchmark with a machine-readable trail.
 *
 * Measures events/sec of the slotted d-ary EventQueue on three
 * workload shapes:
 *
 *  - uniform-churn:  the original microbenchmark shape — bulk
 *    schedule at clustered timestamps, then drain. Trivial callbacks.
 *  - steady-state:   what a serving simulation actually does — a
 *    fixed-width set of in-flight continuations, each firing and
 *    rescheduling itself with a closure capturing real state.
 *  - cancel-heavy:   steady-state plus a watchdog per continuation
 *    that is cancelled and re-armed on every fire (the token-pacer /
 *    timeout pattern). Exercises true cancellation.
 *
 * Also times one end-to-end cluster simulation for the perf
 * trajectory. Results are printed as a table and written as JSON
 * (default bench_simulator_perf.json, override with argv[1]) so CI
 * can track the trend.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/cluster/sweep_runner.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/sim/event_queue.hh"
#include "src/workload/generator.hh"

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Original microbenchmark shape: bulk schedule, then drain. */
std::uint64_t
uniformChurn(std::uint64_t rounds)
{
    std::uint64_t fired = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        sim::EventQueue q;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Time>(i % 97), [] {});
        while (!q.empty()) {
            auto ev = q.pop();
            fired += ev.when >= 0.0; // Defeat dead-code elimination.
        }
    }
    return fired;
}

/** Shared state for the continuation workloads. */
struct SimLoop
{
    sim::EventQueue q;
    Time clock = 0.0;
    std::uint64_t fired = 0;
    std::uint64_t budget = 0;
    std::uint64_t rngState = 0x9e3779b97f4a7c15ull;
    std::uint64_t accumulator = 0;

    double
    nextDelay()
    {
        // xorshift64: cheap deterministic jitter so the heap churns.
        rngState ^= rngState << 13;
        rngState ^= rngState >> 7;
        rngState ^= rngState << 17;
        return 1e-3 * (1.0 + static_cast<double>(rngState % 97) / 97.0);
    }
};

/**
 * A serving-shaped continuation: captures its loop, a start
 * timestamp, and a sequence number (24 bytes — inside EventCallback's
 * inline budget).
 */
struct Continuation
{
    SimLoop* loop;
    Time t0;
    std::uint64_t seq;

    void
    operator()() const
    {
        auto* l = loop;
        l->accumulator += seq + static_cast<std::uint64_t>(t0);
        if (l->fired + 1 < l->budget) {
            l->q.schedule(l->clock + l->nextDelay(),
                          Continuation{l, l->clock, seq + 1});
        }
    }
};

/** Steady-state serving loop: @p width concurrent continuations. */
std::uint64_t
steadyState(int width, std::uint64_t budget)
{
    SimLoop loop;
    loop.budget = budget;
    for (int i = 0; i < width; ++i) {
        loop.q.schedule(loop.nextDelay(),
                        Continuation{&loop, 0.0,
                                     static_cast<std::uint64_t>(i)});
    }
    while (!loop.q.empty() && loop.fired < budget) {
        auto ev = loop.q.pop();
        loop.clock = ev.when;
        ev.callback();
        ++loop.fired;
    }
    return loop.fired;
}

/** Steady-state plus a re-armed watchdog timeout per fire. */
std::uint64_t
cancelHeavy(int width, std::uint64_t budget)
{
    SimLoop loop;
    loop.budget = budget;
    std::vector<sim::EventId> watchdogs;

    for (int i = 0; i < width; ++i) {
        loop.q.schedule(loop.nextDelay(),
                        Continuation{&loop, 0.0,
                                     static_cast<std::uint64_t>(i)});
        watchdogs.push_back(
            loop.q.schedule(1e6 + i, [] {})); // Never meant to fire.
    }
    std::size_t arm = 0;
    while (!loop.q.empty() && loop.fired < budget) {
        auto ev = loop.q.pop();
        loop.clock = ev.when;
        ev.callback();
        ++loop.fired;
        // Re-arm one watchdog per fire: cancel + fresh schedule.
        loop.q.cancel(watchdogs[arm]);
        watchdogs[arm] = loop.q.schedule(1e6 + loop.clock, [] {});
        arm = (arm + 1) % watchdogs.size();
    }
    return loop.fired;
}

struct Measurement
{
    std::string workload;
    std::uint64_t events;
    double seconds;

    double
    eventsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds
                             : 0.0;
    }
};

template <typename Fn>
Measurement
measure(const std::string& workload, Fn&& fn)
{
    // One warmup, then timed.
    fn();
    auto start = std::chrono::steady_clock::now();
    std::uint64_t events = fn();
    double elapsed = secondsSince(start);
    std::printf("%-14s %12llu events  %8.3f s  %12.0f ev/s\n",
                workload.c_str(), static_cast<unsigned long long>(events),
                elapsed, static_cast<double>(events) / elapsed);
    std::fflush(stdout);
    return {workload, events, elapsed};
}

} // namespace

int
main(int argc, char** argv)
try {
    const std::string json_path =
        argc > 1 ? argv[1] : "bench_simulator_perf.json";
    setQuiet(true);

    constexpr std::uint64_t kChurnRounds = 2000;
    constexpr int kWidth = 256; // Concurrent in-flight continuations.
    constexpr std::uint64_t kBudget = 2000000;

    std::printf("== event-queue workloads ==\n");
    std::vector<Measurement> results;
    results.push_back(measure("uniform-churn", [] {
        return uniformChurn(kChurnRounds);
    }));
    results.push_back(measure("steady-state", [] {
        return steadyState(kWidth, kBudget);
    }));
    results.push_back(measure("cancel-heavy", [] {
        return cancelHeavy(kWidth, kBudget);
    }));

    // End-to-end trajectory point: one full cluster simulation.
    std::printf("\n== end-to-end simulation ==\n");
    Rng rng(77);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {200.0, 0.8, 16, 1000};
    profile.answering = {150.0, 0.8, 16, 1000};
    auto trace = workload::generateTrace(profile, 400, 20.0, rng);
    cluster::SystemConfig cfg = cluster::SystemConfig::pascal(4);

    auto e2e_start = std::chrono::steady_clock::now();
    cluster::RunContext ctx(cfg);
    ctx.submit(trace);
    std::uint64_t e2e_events = ctx.run();
    auto e2e_result = ctx.result();
    double e2e_seconds = secondsSince(e2e_start);
    double sim_tokens_per_sec =
        static_cast<double>(trace.totalGeneratedTokens()) / e2e_seconds;
    std::printf("%llu events in %.3f s  (%.0f ev/s, %.0f simulated "
                "tok/s, mean TTFT %.2f s)\n",
                static_cast<unsigned long long>(e2e_events), e2e_seconds,
                static_cast<double>(e2e_events) / e2e_seconds,
                sim_tokens_per_sec, e2e_result.aggregate.meanTtft);

    // Sweep throughput: the multi-instance grid workload the
    // iteration fast path targets (every simulated instance spends
    // most of its iterations in the reusable decode-only regime).
    std::printf("\n== sweep throughput ==\n");
    cluster::SweepRunner sweep;
    auto sweep_profile = workload::DatasetProfile::alpacaEval();
    sweep_profile.reasoning = {400.0, 0.6, 64, 2000};
    sweep_profile.answering = {150.0, 0.6, 16, 800};
    auto sweep_trace =
        sweep.addGeneratedTrace(sweep_profile, 400, 25.0, 3);
    sweep.addGrid(
        {cluster::SystemConfig::baseline(cluster::SchedulerType::Fcfs, 2),
         cluster::SystemConfig::pascal(2),
         cluster::SystemConfig::pascal(4)},
        {sweep_trace}, {1, 2});
    auto sweep_start = std::chrono::steady_clock::now();
    auto sweep_result = sweep.run(2);
    double sweep_seconds = secondsSince(sweep_start);
    std::uint64_t sweep_iters = 0;
    for (const auto& outcome : sweep_result.outcomes)
        sweep_iters += outcome.result.totalIterations;
    double sweep_points_per_sec =
        static_cast<double>(sweep_result.size()) / sweep_seconds;
    double sweep_iters_per_sec =
        static_cast<double>(sweep_iters) / sweep_seconds;
    std::printf("%zu grid points in %.3f s  (%.2f points/s, %.0f "
                "simulated iterations/s)\n",
                sweep_result.size(), sweep_seconds,
                sweep_points_per_sec, sweep_iters_per_sec);

    // JSON trail.
    std::ofstream json(json_path);
    if (!json)
        fatal("cannot open '" + json_path + "' for writing");
    json << "{\n  \"bench\": \"bench_simulator_perf\",\n"
         << "  " << bench::jsonMeta() << ",\n"
         << "  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& m = results[i];
        json << "    {\"workload\": \"" << m.workload
             << "\", \"events\": " << m.events
             << ", \"seconds\": " << m.seconds
             << ", \"events_per_sec\": " << m.eventsPerSec() << "}"
             << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"end_to_end\": {\"requests\": "
         << trace.size() << ", \"events\": " << e2e_events
         << ", \"seconds\": " << e2e_seconds
         << ", \"events_per_sec\": "
         << static_cast<double>(e2e_events) / e2e_seconds
         << ", \"sim_tokens_per_sec\": " << sim_tokens_per_sec
         << "},\n  \"sweep\": {\"points\": " << sweep_result.size()
         << ", \"seconds\": " << sweep_seconds
         << ", \"points_per_sec\": " << sweep_points_per_sec
         << ", \"sim_iterations_per_sec\": " << sweep_iters_per_sec
         << "}\n}\n";
    json.close();
    std::printf("\nJSON written to %s\n", json_path.c_str());
    return 0;
} catch (const pascal::FatalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
