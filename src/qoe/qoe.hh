/**
 * @file
 * Quality-of-Experience metric (Fig. 3, following Andes).
 *
 * QoE is the ratio between the area under the user-digested token
 * curve and the area under the user-expected token curve. The expected
 * curve rises one token per tpot starting at expected_start; the
 * digested curve is the pacer release schedule. A request served at or
 * ahead of pace scores exactly 1; pauses that drain the pacer buffer
 * push digestion behind schedule and lower the score.
 */

#ifndef PASCAL_QOE_QOE_HH
#define PASCAL_QOE_QOE_HH

#include <cstddef>
#include <vector>

#include "src/common/types.hh"

namespace pascal
{
namespace qoe
{

/**
 * Compute QoE in [0, 1] from token generation times.
 *
 * @param emit_times Generation time of each user-visible token,
 *        non-decreasing.
 * @param expected_start Time the user expects digestion to begin
 *        (first answering token time in the main evaluation;
 *        reasoningEnd + ttfatTarget in the Fig. 5 characterization).
 * @param tpot Expected seconds between digested tokens.
 * @return 1.0 for perfect alignment (also for empty input: no tokens,
 *         no expectation); lower when digestion lags expectation.
 */
double computeQoe(const std::vector<Time>& emit_times,
                  Time expected_start, Time tpot);

/**
 * The three curves of Fig. 3, sampled at each token index: expected
 * digestion time, actual digestion (pacer release) time, and raw
 * generation time. `digested` is the pacer: token k is released as
 * soon as it exists, never before expected_start and never sooner
 * than tpot after token k-1. Used by the Fig. 3 bench to print the
 * scenario.
 */
struct QoeCurves
{
    std::vector<Time> expected;  //!< expected_start + k * tpot.
    std::vector<Time> digested;  //!< Pacer release schedule.
    std::vector<Time> generated; //!< Raw emission times.
    Time expectedStart = 0.0;
    Time tpot = 0.0;
    double qoe = 1.0;

    /** Tokens generated by time @p t. */
    std::size_t generatedBy(Time t) const;

    /** Tokens digested (released to the user) by time @p t. */
    std::size_t digestedBy(Time t) const;

    /** Tokens in the pacer buffer at @p t: generated, not digested. */
    std::size_t
    bufferedAt(Time t) const
    {
        return generatedBy(t) - digestedBy(t);
    }

    /**
     * True if the user starves at @p t: every token generated by t
     * has been digested, and the next pace slot (last digest + tpot,
     * or expected_start before the first digest) is at or before t.
     * Past the last token the pace still calls for one, so the end of
     * the stream reads as starved too.
     */
    bool starvedAt(Time t) const;
};

/** Build the Fig. 3 curves for a given emission timeline. */
QoeCurves buildQoeCurves(const std::vector<Time>& emit_times,
                         Time expected_start, Time tpot);

} // namespace qoe
} // namespace pascal

#endif // PASCAL_QOE_QOE_HH
