#include "checks.hh"

#include <cmath>
#include <cstring>

#include "src/common/stats.hh"

#include "traced_run.hh"

namespace perfbench
{

using namespace pascal;

namespace
{

/** FNV-1a over the bytes of each value fed to it. */
class Digest
{
  public:
    template <typename T>
    void
    add(const T& v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
    }

    void
    add(const std::string& s)
    {
        add(s.size());
        for (char c : s)
            add(c);
    }

    void
    add(const std::vector<double>& xs)
    {
        add(xs.size());
        for (double x : xs)
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

bool
finite(double x)
{
    return std::isfinite(x);
}

/** Same-timestamp neighbours in @p trace (coalesced arrivals). */
std::size_t
sameTimestampArrivals(const workload::Trace& trace)
{
    std::size_t n = 0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        if (trace.requests[i].arrival == trace.requests[i - 1].arrival)
            ++n;
    }
    return n;
}

} // namespace

std::uint64_t
resultDigest(const cluster::RunResult& r)
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
        d.add(m.ttft);
        d.add(m.ttfat);
        d.add(m.reasoningLatency);
        d.add(m.e2eLatency);
        d.add(m.answeringLatency);
        d.add(m.blockingLatency);
        d.add(m.queueingDelay);
        d.add(m.meanTpot);
        d.add(m.qoe);
        d.add(m.sloViolated);
        d.add(m.migrationCount);
        d.add(m.kvTransferLatencies);
        d.add(m.reasoningBuckets);
        d.add(m.answeringBuckets);
    }
    const auto& a = r.aggregate;
    for (double x :
         {a.makespan, a.throughputTokensPerSec, a.meanTtft, a.p50Ttft,
          a.p99Ttft, a.maxTtft, a.meanQoe, a.sloViolationRate,
          a.meanE2eLatency, a.p50E2eLatency, a.p99E2eLatency,
          a.meanAnsweringLatency, a.p99BlockingLatency,
          a.p99KvTransferLatency}) {
        d.add(x);
    }
    d.add(a.numRequests);
    d.add(a.numFinished);
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

void
CheckLog::require(bool ok, const std::string& what)
{
    if (!ok)
        failures.push_back(what);
}

void
checkOutputs(WorkloadId w, const workload::Trace& trace,
             const cluster::RunContext& ctx, const cluster::RunResult& r,
             CheckLog& log)
{
    const std::size_t submitted = trace.size();
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t finite_rows = 0;
    for (const auto& m : r.perRequest) {
        completed += m.finished ? 1 : 0;
        failed += m.failed ? 1 : 0;
        bool ok = finite(m.arrival) && finite(m.ttft) &&
                  finite(m.ttfat) && finite(m.reasoningLatency) &&
                  finite(m.e2eLatency) && finite(m.answeringLatency) &&
                  finite(m.blockingLatency) && finite(m.queueingDelay) &&
                  finite(m.meanTpot) && finite(m.qoe);
        for (const auto* b : {&m.reasoningBuckets, &m.answeringBuckets})
            ok = ok && finite(b->executed) && finite(b->blocked) &&
                 finite(b->preempted);
        for (double x : m.kvTransferLatencies)
            ok = ok && finite(x);
        finite_rows += ok ? 1 : 0;
    }
    const std::size_t unfinished = r.perRequest.size() - completed - failed;
    log.require(r.perRequest.size() == submitted,
                "one metrics row per submitted request");
    log.require(r.aggregate.numRequests == submitted &&
                    r.aggregate.numFinished == completed,
                "aggregate counts match the rows");
    log.require(completed + failed + unfinished == submitted &&
                    r.numUnfinished == failed + unfinished,
                "totality: completed + failed + unfinished == submitted");
    log.require(failed == r.numTerminalFailures,
                "failed rows match the accounted terminal failures");
    log.require(unfinished == 0,
                "no request left unfinished at the end of the run");
    if (w != WorkloadId::SpecFaults) {
        log.require(failed == 0 && r.numShed == 0,
                    "no failed or shed request on a fault-free workload");
    }
    log.require(finite_rows == r.perRequest.size(),
                "no NaN or inf in any per-request row");
    const auto& a = r.aggregate;
    bool agg_ok = finite(r.goodputFraction);
    for (double x :
         {a.makespan, a.throughputTokensPerSec, a.meanTtft, a.p50Ttft,
          a.p99Ttft, a.maxTtft, a.meanQoe, a.sloViolationRate,
          a.meanE2eLatency, a.p50E2eLatency, a.p99E2eLatency,
          a.meanAnsweringLatency, a.p99BlockingLatency,
          a.p99KvTransferLatency}) {
        agg_ok = agg_ok && finite(x);
    }
    log.require(agg_ok, "no NaN or inf in the aggregate metrics");

    if (ctx.config().sloClasses.enabled) {
        std::uint64_t class_submitted = 0;
        for (std::size_t c = 0; c < workload::kNumSloClasses; ++c) {
            const auto& o = r.perClass[c];
            std::uint64_t live = 0;
            for (const auto& m : r.perRequest) {
                if (workload::sloClassIndex(m.sloClass) == c &&
                    !m.finished && !m.failed)
                    ++live;
            }
            class_submitted += o.submitted;
            log.require(o.submitted == o.completed + o.shed +
                                           o.deadlineFailed +
                                           o.retryFailed + live,
                        std::string("per-class totality for ") +
                            workload::sloClassName(
                                static_cast<workload::SloClass>(c)));
        }
        log.require(class_submitted == submitted,
                    "per-class submissions cover the trace");
    }

    for (const auto& inst : ctx.cluster().getInstances()) {
        const auto& pool = inst->pool();
        log.require(pool.gpuUsed() == 0 && pool.cpuUsed() == 0 &&
                        pool.numTracked() == 0,
                    "instance " + std::to_string(inst->id()) +
                        " KV pool empty at the end");
    }
}

void
checkRegime(WorkloadId w, const workload::Trace& trace,
            const cluster::RunContext& ctx, const cluster::RunResult& r,
            CheckLog& log)
{
    const ClusterCounters k = readCounters(ctx.cluster());
    switch (w) {
      case WorkloadId::ReasoningSteady: {
        log.require(k.planReuses > k.planRepairs &&
                        k.planReuses > k.fullWalks(),
                    "reasoning-steady: plan reuse is the most common "
                    "plan outcome");
        // Rows follow trace order, which is arrival order. Below the
        // knee the backlog is bounded, so the last third waits no
        // longer than the first; above it the median TTFT of the
        // last third is many times that of the first.
        const std::size_t third = r.perRequest.size() / 3;
        std::vector<double> first, last;
        for (std::size_t i = 0; i < third; ++i) {
            first.push_back(r.perRequest[i].ttft);
            last.push_back(
                r.perRequest[r.perRequest.size() - 1 - i].ttft);
        }
        const double p50_first = stats::percentile(first, 50.0);
        const double p50_last = stats::percentile(last, 50.0);
        log.require(p50_last <= 1.5 * p50_first,
                    "reasoning-steady: median TTFT does not grow from "
                    "the first third of the trace to the last");
        break;
      }
      case WorkloadId::ChatBurst:
        log.require(k.fullWalks() > k.planReuses,
                    "chat-burst: full walks exceed plan reuses");
        log.require(k.swapOuts > 0, "chat-burst: KV swap-outs occur");
        log.require(sameTimestampArrivals(trace) > 0,
                    "chat-burst: same-timestamp arrivals are present");
        break;
      case WorkloadId::SpecFaults:
        log.require(r.numCrashes > 0 && r.numRetries > 0 &&
                        r.numShed > 0,
                    "spec-faults: crashes, retries and sheds occur");
        log.require(r.predictorName != "none",
                    "spec-faults: a length predictor is active");
        break;
    }
}

} // namespace perfbench
