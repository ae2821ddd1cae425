#include "workloads.hh"

#include <cmath>
#include <vector>

#include "src/common/rng.hh"
#include "src/workload/generator.hh"

namespace perfbench
{

using namespace pascal;

namespace
{

// reasoning-steady: below the knee, so every plan boundary of a long
// chain of thought is a steady decode step. At 4 req/s this mix
// already fills the KV pool and long traces drift (p99 TTFT up to
// 800 s at 9000 requests); at 10 req/s the backlog grows without
// bound. TTFT p99 follows the sampled reasoning-length tail, so the
// trace is long enough to hold 150 requests beyond it.
constexpr int kReasoningRequests = 15000;
constexpr double kReasoningRate = 3.0;

// chat-burst: on/off phases straddling AlpacaEval's ~28 req/s KV
// knee (bench_util.hh alpacaBench): each burst builds a backlog that
// swaps KV out, and the following lull drains most of it. Demoted
// long requests still carry over, so the TPOT tail grows with the
// cycle count (about 475 ms at 8 cycles, 750 ms at 12): the count is
// part of the workload. Harder bursts (40 req/s) or near-knee
// alternation (32/20) made the TTFT and TPOT tails vary 15-30%
// across seeds.
constexpr int kBurstCycles = 8;
constexpr double kBurstSeconds = 45.0;
constexpr double kBurstRate = 34.0;
constexpr double kLullSeconds = 45.0;
constexpr double kLullRate = 12.0;
// Arrivals land on a 10 ms grid, as in a logged trace, so
// same-timestamp bursts reach the coalesced-arrival path.
constexpr double kArrivalGridSeconds = 0.01;

// spec-faults: the Fig. 16 mix at a moderate rate under PASCAL-Spec,
// SLO classes and seeded faults. TPOT's tail follows the straggler
// windows, so frequent mild windows (x2) keep it steady across seeds
// where rare x4 windows do not.
constexpr int kSpecRequests = 7500;
constexpr double kSpecRate = 5.0;

std::vector<workload::MixComponent>
reasoningMix()
{
    return {
        {workload::DatasetProfile::math500(), 1.0},
        {workload::DatasetProfile::gpqa(), 1.0},
        {workload::DatasetProfile::liveCodeBench(), 1.0},
    };
}

std::vector<workload::MixComponent>
fig16Mix()
{
    return {
        {workload::DatasetProfile::arenaHard(), 3.0},
        {workload::DatasetProfile::math500(), 1.0},
        {workload::DatasetProfile::gpqa(), 1.0},
        {workload::DatasetProfile::liveCodeBench(), 1.0},
    };
}

/** One Poisson phase of the on/off schedule, clipped to its window
 *  so phases never overlap. */
void
appendPhase(workload::Trace& out, Rng& rng, double start,
            double seconds, double rate)
{
    const int n = static_cast<int>(std::ceil(seconds * rate * 1.25));
    auto phase = workload::generateTrace(
        workload::DatasetProfile::alpacaEval(), n, rate, rng, start,
        static_cast<RequestId>(out.requests.size()));
    for (auto& spec : phase.requests) {
        if (spec.arrival >= start + seconds)
            break;
        spec.id = static_cast<RequestId>(out.requests.size());
        out.requests.push_back(spec);
    }
}

workload::Trace
chatBurstTrace(std::uint64_t seed)
{
    Rng rng(seed);
    workload::Trace trace;
    double t = 0.0;
    for (int c = 0; c < kBurstCycles; ++c) {
        appendPhase(trace, rng, t, kBurstSeconds, kBurstRate);
        t += kBurstSeconds;
        appendPhase(trace, rng, t, kLullSeconds, kLullRate);
        t += kLullSeconds;
    }
    // Rounding is monotone, so arrival order survives; ties become
    // exact duplicates.
    for (auto& spec : trace.requests) {
        spec.arrival = std::round(spec.arrival / kArrivalGridSeconds) *
                       kArrivalGridSeconds;
    }
    trace.provenance.generated = true;
    trace.provenance.profile = "AlpacaEval2.0 on/off";
    trace.provenance.n = static_cast<int>(trace.size());
    trace.provenance.seed = seed;
    trace.provenance.seedKnown = true;
    trace.validate();
    return trace;
}

} // namespace

bool
parseWorkload(const std::string& name, WorkloadId* out)
{
    for (auto w : {WorkloadId::ReasoningSteady, WorkloadId::ChatBurst,
                   WorkloadId::SpecFaults}) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

const char*
workloadName(WorkloadId w)
{
    switch (w) {
      case WorkloadId::ReasoningSteady:
        return "reasoning-steady";
      case WorkloadId::ChatBurst:
        return "chat-burst";
      case WorkloadId::SpecFaults:
        return "spec-faults";
    }
    return "?";
}

cluster::SystemConfig
workloadConfig(WorkloadId w, std::uint64_t seed)
{
    if (w != WorkloadId::SpecFaults)
        return cluster::SystemConfig::pascal(8);

    predict::PredictorConfig rank;
    rank.type = predict::PredictorType::Rank;
    auto cfg = cluster::SystemConfig::speculative(
        cluster::SchedulerType::PascalSpec, rank, 8);
    cfg.sloClasses.enabled = true;
    cfg.fault.enabled = true;
    cfg.fault.seed = seed;
    cfg.fault.crashRate = 0.001;
    cfg.fault.mttr = 30.0;
    cfg.fault.stragglerRate = 0.002;
    cfg.fault.stragglerFactor = 2.0;
    cfg.fault.decommissionRate = 0.0005;
    cfg.fault.linkFailureProb = 0.05;
    return cfg;
}

workload::Trace
workloadTrace(WorkloadId w, std::uint64_t seed)
{
    switch (w) {
      case WorkloadId::ReasoningSteady: {
        Rng rng(seed);
        return workload::generateMixedTrace(
            reasoningMix(), kReasoningRequests, kReasoningRate, rng);
      }
      case WorkloadId::ChatBurst:
        return chatBurstTrace(seed);
      case WorkloadId::SpecFaults: {
        Rng rng(seed);
        auto trace = workload::generateMixedTrace(
            fig16Mix(), kSpecRequests, kSpecRate, rng);
        workload::assignSloClasses(trace);
        return trace;
      }
    }
    return {};
}

std::size_t
twinPrefixRequests(WorkloadId w)
{
    switch (w) {
      case WorkloadId::ReasoningSteady:
        return 600;
      case WorkloadId::ChatBurst:
        return 1500;
      case WorkloadId::SpecFaults:
        return 600;
    }
    return 0;
}

} // namespace perfbench
