/**
 * @file
 * Scheduler iteration-path benchmark: incremental fast path vs the
 * recompute-from-scratch path (SchedLimits::forceResort behaviour).
 *
 * Drives a scheduler through a faithful miniature of the Instance
 * engine loop — plan (reuse, repair, or walk), apply
 * swaps/prefills/decodes against a real KvPool, report every exec
 * flip and emitted token through the dirty-set notification
 * contract, retire completions — with the simulator, performance
 * model, and accrual bookkeeping stripped away so the measured cost
 * is the scheduling path itself. Three workload shapes:
 *
 *  - steady-state:    a fixed decode-only batch (the dominant serving
 *                     regime); the fast path reuses the previous plan
 *                     verbatim almost every iteration.
 *  - churn:           arrivals and completions every few iterations
 *                     plus quantum rollovers; measures dirty-set
 *                     repair against the full re-sort.
 *  - demotion-storm:  reasoning requests crossing the demotion
 *                     threshold in waves on a constrained pool, with
 *                     swaps and queue migrations throughout.
 *
 * Both modes run identical request streams and must agree on a
 * checksum (iterations, decode slots, completions) — a divergence
 * aborts the bench, so the speedup numbers can only come from doing
 * the same work faster.
 *
 * Output: human table + JSON (argv[1], default
 * bench_scheduler_iteration.json). With --check-fastpath the process
 * exits nonzero if the fast path is not at least as fast as the
 * recompute path on the steady-state shape — CI runs it this way so
 * a regression that deoptimizes the hot path fails the perf job.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/core/pascal_scheduler.hh"
#include "src/core/rr_scheduler.hh"
#include "src/model/kv_pool.hh"
#include "src/workload/generator.hh"
#include "src/workload/request.hh"

#include "bench/bench_util.hh"

namespace
{

using namespace pascal;
using workload::ExecState;
using workload::Request;
using workload::RequestSpec;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Instance-engine miniature: plan, apply, emit, retire. */
class MicroEngine
{
  public:
    MicroEngine(std::unique_ptr<core::IntraScheduler> sched,
                TokenCount capacity, TokenCount block)
        : pool(capacity, block), sched(std::move(sched))
    {
        this->sched->enableIncremental(); // No-op under forceResort.
    }

    /** Host a fresh request (arrival). */
    void
    admit(RequestSpec spec)
    {
        owned.push_back(std::make_unique<Request>(spec));
        Request* r = owned.back().get();
        r->exec = ExecState::WaitingNew;
        sched->add(r);
    }

    /** One engine iteration; returns false when idle. */
    bool
    step()
    {
        switch (sched->patchPlan(plan, pool)) {
          case core::PlanRung::Reuse:
            ++reuses;
            break;
          case core::PlanRung::Repair:
            ++repairs;
            break;
          case core::PlanRung::Walk:
            sched->buildPlan(pool, plan);
            break;
        }
        if (plan.idle())
            return false;
        ++iterations;
        clock += 1e-3;
        TokenCount quantum = sched->schedLimits().quantum;

        for (auto* r : plan.swapOut) {
            pool.moveToCpu(r->kvSlot);
            r->exec = ExecState::SwappedCpu;
            sched->noteResidency(r);
            ++swaps;
        }
        for (auto* r : plan.swapIn) {
            pool.moveToGpu(r->kvSlot);
            r->exec = ExecState::ResidentGpu;
            sched->noteResidency(r);
            ++swaps;
        }
        for (auto* r : plan.prefill) {
            r->kvSlot =
                pool.allocGpu(r->id(), r->spec().promptTokens + 1);
            r->exec = ExecState::ResidentGpu;
            sched->noteResidency(r);
        }
        for (auto* r : plan.decode)
            pool.growGpu(r->kvSlot, 1);

        for (auto* r : plan.prefill) {
            r->completePrefill(clock, quantum);
            sched->noteExecuted(r);
        }
        for (auto* r : plan.decode) {
            r->emitToken(clock, quantum);
            ++decodeSlots;
            sched->noteExecuted(r);
        }

        auto retire = [&](Request* r) {
            if (r->finished()) {
                pool.release(r->kvSlot);
                r->kvSlot = model::kNoKvSlot;
                r->exec = ExecState::Done;
                sched->remove(r);
                ++completions;
            } else if (r->reasoningEnd == clock &&
                       !r->spec().startInAnswering &&
                       r->phase() == workload::Phase::Answering) {
                sched->onPhaseTransition(r);
            }
        };
        for (auto* r : plan.prefill)
            retire(r);
        for (auto* r : plan.decode)
            retire(r);
        return true;
    }

    std::size_t hostedCount() const { return sched->hosted().size(); }

    /** Workload-agreement checksum across the two modes. */
    std::uint64_t
    checksum() const
    {
        return iterations * 1000003ull + decodeSlots * 10007ull +
               completions * 101ull + swaps;
    }

    model::KvPool pool;
    std::unique_ptr<core::IntraScheduler> sched;
    core::IterationPlan plan;
    std::vector<std::unique_ptr<Request>> owned;
    Time clock = 0.0;
    std::uint64_t iterations = 0;
    std::uint64_t reuses = 0;
    std::uint64_t repairs = 0;
    std::uint64_t decodeSlots = 0;
    std::uint64_t completions = 0;
    std::uint64_t swaps = 0;
};

struct ShapeResult
{
    std::string shape;
    std::string mode;
    std::uint64_t iterations;
    std::uint64_t reuses;
    std::uint64_t repairs;
    double seconds;
    std::uint64_t checksum;

    double
    itersPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(iterations) / seconds
                             : 0.0;
    }
};

core::SchedLimits
baseLimits(bool force_resort)
{
    core::SchedLimits l;
    l.forceResort = force_resort;
    return l;
}

/** steady-state: fixed decode-only batch, no key changes. */
ShapeResult
steadyState(bool force_resort)
{
    core::SchedLimits l = baseLimits(force_resort);
    l.quantum = 1 << 30; // No rollover inside the window.
    l.maxBatchSize = 8192;
    MicroEngine eng(std::make_unique<core::PascalScheduler>(l),
                    /*capacity=*/32'000'000, /*block=*/16);
    constexpr int kRequests = 4096;
    constexpr std::uint64_t kIters = 2000;
    for (int i = 0; i < kRequests; ++i) {
        RequestSpec s;
        s.id = i;
        s.arrival = 0.0;
        s.promptTokens = 64;
        s.reasoningTokens = 1 << 20; // Never finishes in-window.
        s.answerTokens = 16;
        eng.admit(s);
    }
    // Admission warmup outside the timed window: prefill waves are
    // paced by maxPrefillSeqs and are identically slow in both modes;
    // the shape under test is the decode-only steady state.
    while (eng.iterations < 300)
        eng.step();
    std::uint64_t warmup_reuses = eng.reuses;
    std::uint64_t warmup_repairs = eng.repairs;
    auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i)
        eng.step();
    double elapsed = secondsSince(start);
    return {"steady-state", force_resort ? "recompute" : "fast",
            kIters, eng.reuses - warmup_reuses,
            eng.repairs - warmup_repairs, elapsed, eng.checksum()};
}

/** churn: completions + arrivals + quantum rollovers every round. */
ShapeResult
churn(bool force_resort)
{
    core::SchedLimits l = baseLimits(force_resort);
    l.quantum = 64; // Frequent rollovers.
    l.maxBatchSize = 4096;
    MicroEngine eng(std::make_unique<core::PascalScheduler>(l),
                    /*capacity=*/4'000'000, /*block=*/16);
    constexpr int kPopulation = 512;
    constexpr std::uint64_t kIters = 4000;
    RequestId next_id = 0;
    Rng rng(42);
    auto admit_one = [&] {
        RequestSpec s;
        s.id = next_id++;
        s.arrival = eng.clock;
        s.promptTokens = 32 + static_cast<TokenCount>(rng.uniformReal(0.0, 96.0));
        s.reasoningTokens =
            100 + static_cast<TokenCount>(rng.uniformReal(0.0, 400.0));
        s.answerTokens =
            20 + static_cast<TokenCount>(rng.uniformReal(0.0, 100.0));
        eng.admit(s);
    };
    for (int i = 0; i < kPopulation; ++i)
        admit_one();
    auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
        eng.step();
        while (eng.hostedCount() < kPopulation)
            admit_one();
    }
    double elapsed = secondsSince(start);
    return {"churn", force_resort ? "recompute" : "fast",
            eng.iterations, eng.reuses, eng.repairs, elapsed,
            eng.checksum()};
}

/** demotion-storm: everyone crosses the threshold on a tight pool. */
ShapeResult
demotionStorm(bool force_resort)
{
    core::SchedLimits l = baseLimits(force_resort);
    l.quantum = 500;
    l.demoteThresholdTokens = 256;
    l.maxBatchSize = 4096;
    MicroEngine eng(std::make_unique<core::PascalScheduler>(l),
                    /*capacity=*/160'000, /*block=*/16);
    constexpr int kPopulation = 256;
    constexpr std::uint64_t kIters = 4000;
    RequestId next_id = 0;
    Rng rng(7);
    auto admit_one = [&] {
        RequestSpec s;
        s.id = next_id++;
        s.arrival = eng.clock;
        s.promptTokens = 64;
        s.reasoningTokens =
            400 + static_cast<TokenCount>(rng.uniformReal(0.0, 800.0));
        s.answerTokens = 50;
        eng.admit(s);
    };
    for (int i = 0; i < kPopulation; ++i)
        admit_one();
    auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
        eng.step();
        while (eng.hostedCount() < kPopulation)
            admit_one();
    }
    double elapsed = secondsSince(start);
    return {"demotion-storm", force_resort ? "recompute" : "fast",
            eng.iterations, eng.reuses, eng.repairs, elapsed,
            eng.checksum()};
}

void
print(const ShapeResult& r)
{
    std::printf("%-15s %-9s %9llu iters  %8.3f s  %10.0f iters/s  "
                "(%llu reused, %llu repaired)\n",
                r.shape.c_str(), r.mode.c_str(),
                static_cast<unsigned long long>(r.iterations), r.seconds,
                r.itersPerSec(),
                static_cast<unsigned long long>(r.reuses),
                static_cast<unsigned long long>(r.repairs));
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
try {
    std::string json_path = "bench_scheduler_iteration.json";
    bool check_fastpath = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check-fastpath") == 0)
            check_fastpath = true;
        else
            json_path = argv[i];
    }
    setQuiet(true);

    std::printf("== scheduler iteration path (fast vs recompute) ==\n");
    std::vector<ShapeResult> results;
    using ShapeFn = ShapeResult (*)(bool);
    const ShapeFn shapes[] = {steadyState, churn, demotionStorm};
    for (ShapeFn fn : shapes) {
        fn(false); // Warmup.
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
    }

    // End-to-end cross-check: one full simulation in each mode must
    // produce the same metrics; report the wall-clock difference.
    std::printf("\n== end-to-end simulation (both modes) ==\n");
    Rng rng(77);
    auto profile = workload::DatasetProfile::alpacaEval();
    profile.reasoning = {400.0, 0.6, 64, 2000};
    profile.answering = {150.0, 0.6, 16, 800};
    auto trace = workload::generateTrace(profile, 600, 30.0, rng);
    cluster::SystemConfig cfg = cluster::SystemConfig::pascal(4);

    double e2e_seconds[2];
    double mean_ttft[2];
    std::uint64_t e2e_iters[2];
    for (int mode = 0; mode < 2; ++mode) {
        cfg.limits.forceResort = mode == 1;
        auto start = std::chrono::steady_clock::now();
        auto result = cluster::RunContext::execute(cfg, trace);
        e2e_seconds[mode] = secondsSince(start);
        mean_ttft[mode] = result.aggregate.meanTtft;
        e2e_iters[mode] = result.totalIterations;
        std::printf("%-9s %8.3f s  (%llu iterations, mean TTFT %.3f)\n",
                    mode == 0 ? "fast" : "recompute", e2e_seconds[mode],
                    static_cast<unsigned long long>(e2e_iters[mode]),
                    mean_ttft[mode]);
    }
    if (mean_ttft[0] != mean_ttft[1] || e2e_iters[0] != e2e_iters[1])
        fatal("end-to-end mode divergence: fast and recompute runs "
              "disagree");

    std::printf("\n== fast-path speedup ==\n");
    std::ofstream json(json_path);
    if (!json)
        fatal("cannot open '" + json_path + "' for writing");
    json << "{\n  \"bench\": \"bench_scheduler_iteration\",\n"
         << "  " << bench::jsonMeta() << ",\n"
         << "  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        json << "    {\"shape\": \"" << r.shape << "\", \"mode\": \""
             << r.mode << "\", \"iterations\": " << r.iterations
             << ", \"plan_reuses\": " << r.reuses
             << ", \"plan_repairs\": " << r.repairs
             << ", \"seconds\": " << r.seconds
             << ", \"iters_per_sec\": " << r.itersPerSec() << "}"
             << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"speedup\": {";
    double steady_speedup = 0.0;
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        double speedup =
            results[i].itersPerSec() / results[i + 1].itersPerSec();
        if (results[i].shape == "steady-state")
            steady_speedup = speedup;
        std::printf("%-15s %5.2fx\n", results[i].shape.c_str(),
                    speedup);
        json << (i ? ", " : "") << "\"" << results[i].shape
             << "\": " << speedup;
    }
    json << "},\n  \"end_to_end\": {\"fast_seconds\": "
         << e2e_seconds[0]
         << ", \"recompute_seconds\": " << e2e_seconds[1]
         << ", \"speedup\": " << e2e_seconds[1] / e2e_seconds[0]
         << "}\n}\n";
    json.close();
    std::printf("end-to-end      %5.2fx\n",
                e2e_seconds[1] / e2e_seconds[0]);
    std::printf("\nJSON written to %s\n", json_path.c_str());

    if (check_fastpath && steady_speedup < 1.0) {
        std::fprintf(stderr,
                     "FAIL: fast path slower than recompute on the "
                     "steady-state shape (%.2fx)\n",
                     steady_speedup);
        return 1;
    }
    return 0;
} catch (const pascal::FatalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
