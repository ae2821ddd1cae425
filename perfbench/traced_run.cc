#include "traced_run.hh"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>

namespace perfbench
{

using namespace pascal;

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

EventKind
classify(const ClusterCounters& a, const ClusterCounters& b)
{
    if (b.fullWalks() != a.fullWalks())
        return EventKind::IterFullWalk;
    if (b.planRepairs != a.planRepairs)
        return EventKind::IterRepair;
    if (b.planReuses != a.planReuses)
        return EventKind::IterReuse;
    if (b.viewBuilds != a.viewBuilds)
        return EventKind::Place;
    if (b.migrations != a.migrations)
        return EventKind::Migrate;
    if (b.faults != a.faults)
        return EventKind::Fault;
    return EventKind::Other;
}

} // namespace

ClusterCounters
readCounters(const cluster::Cluster& c)
{
    ClusterCounters k;
    for (const auto& inst : c.getInstances()) {
        k.planReuses += inst->numPlanReuses();
        k.planBuilds += inst->numPlanBuilds();
        k.planRepairs += inst->numPlanRepairs();
        k.iterations += inst->numIterations();
        k.decodeTokens += inst->numDecodeTokens();
        k.swapOuts += inst->numSwapOuts();
        k.swapIns += inst->numSwapIns();
        k.sloRekeys += inst->numSloHeapRekeys();
    }
    k.viewBuilds = c.numViewBuilds();
    k.viewRefreshes = c.numViewRefreshes();
    k.migrations = static_cast<std::uint64_t>(c.totalMigrations());
    k.faults = c.numCrashes() + c.numDrains() + c.numStragglerWindows() +
               c.numLinkFailures() + c.numRetries() +
               c.numTerminalFailures();
    return k;
}

const char*
eventSpanName(EventKind k)
{
    switch (k) {
      case EventKind::IterReuse:
        return "event.iter.reuse";
      case EventKind::IterRepair:
        return "event.iter.repair";
      case EventKind::IterFullWalk:
        return "event.iter.full_walk";
      case EventKind::Place:
        return "event.place";
      case EventKind::Migrate:
        return "event.migrate";
      case EventKind::Fault:
        return "event.fault";
      case EventKind::Other:
        return "event.other";
    }
    return "event.other";
}

std::uint64_t
TracedRun::topNs(const std::string& name) const
{
    for (const auto& s : top) {
        if (name == s.name)
            return s.durNs;
    }
    return 0;
}

TracedRun
tracedRun(WorkloadId w, std::uint64_t seed)
{
    TracedRun run;
    auto span = [&run](const char* name, std::uint64_t start) {
        run.top.push_back({name, start, nowNs() - start});
    };

    std::uint64_t t = nowNs();
    auto trace = workloadTrace(w, seed);
    span("workload.generate", t);

    t = nowNs();
    auto ctx = std::make_unique<cluster::RunContext>(
        workloadConfig(w, seed));
    span("cluster.construct", t);

    t = nowNs();
    ctx->submit(trace);
    span("cluster.submit", t);

    sim::Simulator& sim = ctx->simulator();
    const Time horizon = ctx->config().maxSimTime;
    const cluster::Cluster& cl = ctx->cluster();
    ClusterCounters before = readCounters(cl);
    t = nowNs();
    for (;;) {
        const std::uint64_t e0 = nowNs();
        const std::uint64_t fired = sim.run(horizon, 1);
        const std::uint64_t e1 = nowNs();
        if (fired == 0)
            break;
        ClusterCounters after = readCounters(cl);
        run.events.push_back(
            {e0, e1 - e0,
             static_cast<std::uint32_t>(after.viewBuilds -
                                        before.viewBuilds),
             classify(before, after)});
        before = after;
    }
    span("sim.run", t);

    t = nowNs();
    run.result = ctx->result();
    span("qoe.score", t);
    run.counters = readCounters(cl);
    return run;
}

bool
writeChromeTrace(const TracedRun& run, const std::string& path)
{
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f)
        return false;
    const std::uint64_t origin = run.top.empty() ? 0 : run.top[0].startNs;
    auto us = [origin](std::uint64_t ns) {
        return static_cast<double>(ns - origin) / 1000.0;
    };
    std::fputs("{\"traceEvents\": [\n", f.get());
    bool first = true;
    auto emit = [&](const char* name, std::uint64_t start,
                    std::uint64_t dur, std::uint32_t placements) {
        std::fprintf(f.get(),
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                     first ? "" : ",\n", name, us(start),
                     static_cast<double>(dur) / 1000.0);
        if (placements > 0)
            std::fprintf(f.get(), ",\"args\":{\"placements\":%" PRIu32 "}",
                         placements);
        std::fputc('}', f.get());
        first = false;
    };
    for (const auto& s : run.top)
        emit(s.name, s.startNs, s.durNs, 0);
    for (const auto& e : run.events)
        emit(eventSpanName(e.kind), e.startNs, e.durNs, e.placements);
    std::fputs("\n]}\n", f.get());
    return std::fflush(f.get()) == 0 && std::ferror(f.get()) == 0;
}

} // namespace perfbench
