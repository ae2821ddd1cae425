/**
 * @file
 * Token pacer (Section II-C, following Andes).
 *
 * The pacer buffers tokens generated in bursts and releases them to the
 * user at the target reading pace, so that preemption gaps are hidden
 * as long as the buffer holds out. The user-digested curve of Fig. 3 is
 * exactly the release schedule: the user consumes a released token
 * immediately (release never outpaces the expected reading rate).
 */

#ifndef PASCAL_QOE_TOKEN_PACER_HH
#define PASCAL_QOE_TOKEN_PACER_HH

#include <cstddef>
#include <vector>

#include "src/common/types.hh"

namespace pascal
{
namespace qoe
{

/** Online token-release smoother for one request. */
class TokenPacer
{
  public:
    /**
     * @param pace Seconds between releases (the TPOT target).
     * @param release_start Releases never happen before this time
     *        (used by Fig. 5 scoring: reasoningEnd + ttfatTarget).
     *        Pass 0 to release from the first generation onwards.
     */
    explicit TokenPacer(Time pace, Time release_start = 0.0);

    /**
     * Record that one token was generated at @p t. Times must be
     * non-decreasing.
     */
    void onTokenGenerated(Time t);

    /** Release (user-digestion) time of token @p k (0-based). */
    Time releaseTime(std::size_t k) const;

    /** All release times. */
    const std::vector<Time>& releaseTimes() const { return releases; }

    /** Tokens released (digested) by time @p t. */
    std::size_t releasedBy(Time t) const;

    /** Tokens generated but not yet released at @p t. */
    std::size_t bufferedAt(Time t) const;

    /**
     * True if the user is starved at @p t: the pace calls for another
     * token but none has been generated yet.
     */
    bool starvedAt(Time t) const;

  private:
    Time pace;
    Time releaseStart;
    std::vector<Time> generateTimes;
    std::vector<Time> releases;
};

} // namespace qoe
} // namespace pascal

#endif // PASCAL_QOE_TOKEN_PACER_HH
