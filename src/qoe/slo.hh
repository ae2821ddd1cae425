/**
 * @file
 * Service-level-objective configuration.
 *
 * Two modes mirror the paper:
 *  - Characterization (Section III / Fig. 5): the answering phase must
 *    start within the TTFAT target (0.25 s) of reasoning completion and
 *    then sustain the TPOT target (100 ms/token); QoE is measured
 *    against an expected curve anchored at reasoningEnd + ttfatTarget.
 *  - Main evaluation (Section V-A): reasoning lengths are too variable
 *    for a fixed TTFT target, so QoE is computed from TPOT starting at
 *    the first answering token and TTFT is reported separately.
 */

#ifndef PASCAL_QOE_SLO_HH
#define PASCAL_QOE_SLO_HH

#include <array>

#include "src/common/types.hh"
#include "src/workload/slo_class.hh"

namespace pascal
{
namespace qoe
{

/** SLO targets used for both online decisions and offline scoring. */
struct SloConfig
{
    /** Target steady-state seconds per answering token (100 ms,
     *  aligned with human reading speed; Section III footnote). */
    Time tpotTarget = 0.100;

    /** Target latency from reasoning completion to the first
     *  answering token (0.25 s, following DistServe). */
    Time ttfatTarget = 0.25;

    /** A request violates its SLO when QoE falls below this. */
    double qoeThreshold = 0.95;

    /**
     * True (main evaluation): the expected-consumption curve starts at
     * the first answering token. False (Fig. 5 characterization): it
     * starts at reasoningEnd + ttfatTarget, so a late first token
     * already costs QoE.
     */
    bool qoeFromFirstToken = true;

    /**
     * Early-warning margin for the instance monitor's t_i condition
     * (Section IV-B: "the token pacer reports insufficient remaining
     * tokens"): an answering request is considered at risk when its
     * pacer buffer holds fewer than this many tokens ahead of the
     * user's pace. Affects placement decisions only, never QoE
     * scoring. 0 flags a request only once it is already behind
     * (empirically the more stable setting: larger margins flag whole
     * clusters at once and trigger migration churn).
     */
    TokenCount monitorBufferMarginTokens = 0;

    /** Validate; calls fatal() on nonsense values. */
    void validate() const;
};

/**
 * Per-class SLO targets and overload-control knobs (ROADMAP item 4).
 *
 * tpot/ttfat override the global SloConfig targets for online
 * decisions (the instance SLO monitor) and offline scoring when the
 * class subsystem is enabled. The shed floors and the relative deadline implement the
 * degradation order: Batch is shed/expired first, Interactive last.
 */
struct SloClassParams
{
    /** Class TPOT target (replaces SloConfig::tpotTarget). */
    Time tpotTarget = 0.100;

    /** Class TTFAT target (replaces SloConfig::ttfatTarget). */
    Time ttfatTarget = 0.25;

    /**
     * Relative deadline in seconds from arrival: an admitted request
     * still unfinished this long after arrival either terminally
     * fails with FailReason::DeadlineExceeded or (demoteOnExpiry) is
     * demoted to best-effort. <= 0 disables the deadline.
     */
    Time relativeDeadline = 0.0;

    /** On deadline expiry, demote to best-effort (scheduled behind
     *  every class, scored against Batch targets) instead of failing
     *  terminally. */
    bool demoteOnExpiry = false;

    /**
     * Class admission floor on the fraction of up instances: while
     * fewer are up, new arrivals of this class are shed. Composes
     * with FaultConfig::shedFloor (which sheds every class); setting
     * it higher for Batch sheds Batch before Standard before
     * Interactive as crashes erode capacity. 0 disables.
     */
    double shedUpFloor = 0.0;

    /** Class admission floor on the cluster-wide free GPU KV
     *  fraction: below it, new arrivals of this class are shed.
     *  0 disables. */
    double shedKvFloor = 0.0;
};

/**
 * The class subsystem's master config, carried in SystemConfig.
 *
 * With `enabled == false` (the default) every class code path is
 * dormant — no deadline events are armed, no class sheds happen,
 * every schedClassRank stays 0 — and runs are byte-identical to a
 * build without the subsystem, exactly like FaultConfig.
 */
struct SloClassConfig
{
    /** Master switch; false leaves the whole layer dormant. */
    bool enabled = false;

    /** Arm per-request deadline events and enforce expiry. Off gives
     *  a classes-on/deadlines-off baseline for benches. */
    bool enforceDeadlines = true;

    /** Apply the per-class admission floors and the negative-slack
     *  shed (an arrival whose optimistic service-time lower bound
     *  already exceeds its class deadline cannot meet it, so
     *  admitting it only steals capacity from feasible work). Off
     *  gives a classes-on/shed-off baseline. */
    bool overloadControl = true;

    /** Per-class knobs, indexed by workload::SloClass. */
    std::array<SloClassParams, workload::kNumSloClasses> classes = {{
        // Interactive: tight targets, short deadline, never shed by
        // class floors (only the global fault floor sheds it), fails
        // hard on expiry.
        {0.050, 0.25, 60.0, false, 0.0, 0.0},
        // Standard: the global defaults, generous deadline, shed once
        // fewer than half the instances are up or GPU KV is nearly
        // exhausted.
        {0.100, 0.25, 300.0, false, 0.5, 0.10},
        // Batch: loose targets, no deadline pressure (expiry demotes
        // to best-effort), shed first as capacity degrades.
        {0.200, 1.00, 0.0, true, 0.75, 0.25},
    }};

    const SloClassParams&
    of(workload::SloClass c) const
    {
        return classes[workload::sloClassIndex(c)];
    }

    /**
     * Effective params for a live request: a best-effort (demoted)
     * request is scored and paced against Batch targets regardless of
     * its nominal class.
     */
    const SloClassParams&
    effective(workload::SloClass c, bool best_effort) const
    {
        return best_effort ? of(workload::SloClass::Batch) : of(c);
    }

    /** Validate; calls fatal() on nonsense values. */
    void validate() const;
};

} // namespace qoe
} // namespace pascal

#endif // PASCAL_QOE_SLO_HH
