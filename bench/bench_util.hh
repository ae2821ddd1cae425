/**
 * @file
 * Shared harness utilities for the per-figure benchmark binaries.
 *
 * Each bench regenerates one table/figure of the paper (see DESIGN.md
 * "Experiment index"). The utilities here pin down the common
 * experimental recipe: the 8-instance H100 cluster of Section V-A,
 * per-dataset low/medium/high arrival rates calibrated against the
 * simulated cluster's saturation throughput, and the Section III
 * oracle-then-50 % capacity recipe.
 */

#ifndef PASCAL_BENCH_BENCH_UTIL_HH
#define PASCAL_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/run_context.hh"
#include "src/common/rng.hh"
#include "src/common/stats.hh"
#include "src/obs/stat_registry.hh"
#include "src/workload/generator.hh"

namespace pascal
{
namespace bench
{

/** A dataset plus the arrival rates used by the cluster experiments. */
struct DatasetBench
{
    workload::DatasetProfile profile;
    double lowRate;    //!< Requests/s, comfortably below saturation.
    double mediumRate; //!< Requests/s, moderate pressure.
    double highRate;   //!< Requests/s, at/over saturation.
    int numRequests;   //!< Trace length for cluster runs.
};

/**
 * AlpacaEval 2.0 cluster recipe. Rates were calibrated against the
 * simulated cluster: ~20 req/s leaves KV headroom, ~28 req/s starts
 * saturating the KV pool (blocking/preemption appear), ~34 req/s runs
 * at the memory cliff where the paper's "high" phenomena live.
 */
inline DatasetBench
alpacaBench()
{
    return {workload::DatasetProfile::alpacaEval(), 20.0, 28.0, 32.0,
            2400};
}

/** Arena-Hard cluster recipe (longer requests saturate the KV pool at
 *  lower rates: ~6/9/12 req/s for low/medium/high). */
inline DatasetBench
arenaBench()
{
    return {workload::DatasetProfile::arenaHard(), 6.0, 9.0, 12.0,
            1500};
}

/** Scheduler/placement combos the paper compares. */
struct PolicyUnderTest
{
    std::string label;
    cluster::SchedulerType scheduler;
    cluster::PlacementType placement;
};

inline std::vector<PolicyUnderTest>
mainPolicies()
{
    using cluster::PlacementType;
    using cluster::SchedulerType;
    return {
        {"FCFS", SchedulerType::Fcfs, PlacementType::Baseline},
        {"RR", SchedulerType::Rr, PlacementType::Baseline},
        {"PASCAL", SchedulerType::Pascal, PlacementType::Pascal},
    };
}

/** Cluster config of Section V-A (8 instances, derived capacity). */
inline cluster::SystemConfig
clusterConfig(const PolicyUnderTest& policy, int num_instances = 8)
{
    cluster::SystemConfig cfg;
    cfg.scheduler = policy.scheduler;
    cfg.placement = policy.placement;
    cfg.numInstances = num_instances;
    return cfg;
}

/** Generate a dataset trace at one of the calibrated rates. */
inline workload::Trace
makeTrace(const DatasetBench& bench, double rate, std::uint64_t seed)
{
    Rng rng(seed);
    return workload::generateTrace(bench.profile, bench.numRequests,
                                   rate, rng);
}

/**
 * The Section III memory recipe: run the trace on an oracle-capacity
 * single instance, then return 50 % of the peak KV usage observed,
 * rounded up to the oracle config's paged-KV block size (explicit
 * capacities must be block multiples per SystemConfig::validate).
 */
inline TokenCount
constrainedCapacityFromOracle(const workload::Trace& trace,
                              const cluster::SystemConfig& oracle_cfg)
{
    auto result = cluster::RunContext::execute(oracle_cfg, trace);
    return cluster::SystemConfig::alignKvCapacity(
        std::max<TokenCount>(1, result.peakGpuKvTokens / 2),
        oracle_cfg.kvBlockSizeTokens);
}

/**
 * HEAD's commit, read from the source checkout's .git at run time (a
 * configure-time stamp goes stale when benches are rebuilt without
 * re-running CMake). Reads files only; "unknown" outside a checkout.
 */
inline std::string
gitSha()
{
#ifdef PASCAL_SOURCE_DIR
    const std::string git = std::string(PASCAL_SOURCE_DIR) + "/.git/";
    auto readLine = [](const std::string& path) {
        std::ifstream in(path);
        std::string line;
        std::getline(in, line);
        return line;
    };
    std::string head = readLine(git + "HEAD");
    if (head.rfind("ref: ", 0) != 0)
        return head.empty() ? "unknown" : head;
    const std::string ref = head.substr(5);
    std::string sha = readLine(git + ref);
    if (!sha.empty())
        return sha;
    std::ifstream packed(git + "packed-refs");
    std::string line;
    while (std::getline(packed, line)) {
        auto space = line.find(' ');
        if (space != std::string::npos && line.substr(space + 1) == ref)
            return line.substr(0, space);
    }
#endif
    return "unknown";
}

/**
 * Provenance block every JSON-emitting bench embeds under the "meta"
 * key, so a committed result file records which build produced it:
 * git SHA (read at run time, see gitSha()), CMake build type,
 * compiler, the host's hardware_concurrency, and whether the binary
 * was built under PASCAL_SANITIZE. Returned as a complete
 * `"meta": {...}` fragment ready to splice into an object.
 */
inline std::string
jsonMeta()
{
    const std::string build_type =
#ifdef PASCAL_BUILD_TYPE
        PASCAL_BUILD_TYPE;
#else
        "";
#endif
    const std::string compiler =
#if defined(__clang__)
        "clang " __clang_version__;
#elif defined(__GNUC__)
        "gcc " __VERSION__;
#else
        "unknown";
#endif
    const std::string sanitizer =
#ifdef PASCAL_SANITIZE_ENABLED
        "address,undefined";
#else
        "none";
#endif
    return std::string("\"meta\": {\"git_sha\": \"") + gitSha() +
           "\", \"build_type\": \"" +
           (build_type.empty() ? "unknown" : build_type) +
           "\", \"compiler\": \"" + compiler +
           "\", \"hardware_concurrency\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"sanitizer\": \"" + sanitizer + "\"}";
}

/** Shortest round-trippable rendering of @p v (deterministic for a
 *  deterministic value stream, so dumped stats diff cleanly). */
inline std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    for (int precision = 1; precision < 17; ++precision) {
        char shorter[32];
        std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
        std::sscanf(shorter, "%lf", &parsed);
        if (parsed == v)
            return shorter;
    }
    return buf;
}

/**
 * Render a StatRegistry dump as a JSON array, one object per stat in
 * registration order: counters/gauges carry {name, kind, value},
 * distributions {name, kind, count, mean, min, max, stddev}. This is
 * the generic emitter every bench uses instead of hand-wiring counter
 * keys — any stat a component registers shows up in the artifact
 * without touching the bench.
 */
inline std::string
jsonStats(const obs::StatDump& dump, const std::string& indent = "    ")
{
    std::string out = "[";
    for (std::size_t i = 0; i < dump.size(); ++i) {
        const auto& s = dump[i];
        out += i ? ",\n" : "\n";
        out += indent;
        out += "  {\"name\": \"" + s.name + "\", \"kind\": \"" +
               statKindName(s.kind) + "\", ";
        if (s.kind == obs::StatKind::Distribution) {
            out += "\"count\": " + std::to_string(s.count) +
                   ", \"mean\": " + jsonNumber(s.mean) +
                   ", \"min\": " + jsonNumber(s.min) +
                   ", \"max\": " + jsonNumber(s.max) +
                   ", \"stddev\": " + jsonNumber(s.stddev);
        } else {
            out += "\"value\": " + jsonNumber(s.value);
        }
        out += "}";
    }
    out += "\n" + indent + "]";
    return out;
}

/** Print a horizontal rule sized for our tables. */
inline void
rule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::fputc('-', stdout);
    std::fputc('\n', stdout);
}

/** Print the standard bench header. */
inline void
header(const std::string& id, const std::string& title)
{
    std::printf("\n");
    rule();
    std::printf("%s  --  %s\n", id.c_str(), title.c_str());
    rule();
}

/** Mean of a vector (0 when empty). */
inline double
meanOf(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

} // namespace bench
} // namespace pascal

#endif // PASCAL_BENCH_BENCH_UTIL_HH
