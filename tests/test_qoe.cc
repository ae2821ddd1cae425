/**
 * @file
 * Unit tests for the QoE area-ratio metric (Fig. 3 semantics).
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/common/log.hh"
#include "src/qoe/qoe.hh"

namespace
{

using pascal::Time;
using pascal::qoe::buildQoeCurves;
using pascal::qoe::computeQoe;

std::vector<Time>
pacedEmissions(int n, Time start, Time gap)
{
    std::vector<Time> out;
    for (int i = 0; i < n; ++i)
        out.push_back(start + i * gap);
    return out;
}

TEST(Qoe, PerfectPaceScoresOne)
{
    auto emits = pacedEmissions(10, 0.0, 0.1);
    EXPECT_DOUBLE_EQ(computeQoe(emits, 0.0, 0.1), 1.0);
}

TEST(Qoe, FasterThanPaceStillOne)
{
    // Generation faster than the user's reading pace is buffered by
    // the pacer; the user experience is exactly on schedule.
    auto emits = pacedEmissions(10, 0.0, 0.01);
    EXPECT_DOUBLE_EQ(computeQoe(emits, 0.0, 0.1), 1.0);
}

TEST(Qoe, EmptyEmissionsScoreOne)
{
    EXPECT_DOUBLE_EQ(computeQoe({}, 0.0, 0.1), 1.0);
}

TEST(Qoe, PauseLowersScore)
{
    // Fig. 3 scenario: fast burst, long pause, resume. The pause
    // drains the buffer and starves the user.
    std::vector<Time> emits;
    for (int i = 0; i < 5; ++i)
        emits.push_back(0.0); // Burst.
    for (int i = 0; i < 5; ++i)
        emits.push_back(5.0 + i * 0.1); // Resume after a pause.
    double qoe = computeQoe(emits, 0.0, 0.1);
    EXPECT_LT(qoe, 0.95);
    EXPECT_GT(qoe, 0.0);
}

TEST(Qoe, LongerPauseScoresWorse)
{
    auto make = [](Time pause) {
        std::vector<Time> emits{0.0, 0.0};
        emits.push_back(pause);
        emits.push_back(pause + 0.1);
        return emits;
    };
    EXPECT_GT(computeQoe(make(1.0), 0.0, 0.1),
              computeQoe(make(5.0), 0.0, 0.1));
}

TEST(Qoe, LateStartPenalizedWhenExpectedEarlier)
{
    // Expected start at 0 but generation begins at 2: digestion lags.
    auto emits = pacedEmissions(20, 2.0, 0.1);
    double qoe = computeQoe(emits, 0.0, 0.1);
    EXPECT_LT(qoe, 0.95);
}

TEST(Qoe, ExpectedStartAtFirstTokenIgnoresTtft)
{
    // Main-evaluation mode: the expected curve starts at the first
    // answering token, so a late start alone does not hurt QoE.
    auto emits = pacedEmissions(20, 100.0, 0.1);
    EXPECT_DOUBLE_EQ(computeQoe(emits, emits.front(), 0.1), 1.0);
}

TEST(Qoe, ScoreAlwaysInUnitInterval)
{
    std::vector<Time> emits{0.0, 50.0, 100.0};
    double qoe = computeQoe(emits, 0.0, 0.1);
    EXPECT_GE(qoe, 0.0);
    EXPECT_LE(qoe, 1.0);
}

TEST(Qoe, CurvesExposeFig3Series)
{
    std::vector<Time> emits{0.0, 0.0, 1.0};
    auto curves = buildQoeCurves(emits, 0.0, 0.5);
    ASSERT_EQ(curves.expected.size(), 3u);
    ASSERT_EQ(curves.digested.size(), 3u);
    EXPECT_DOUBLE_EQ(curves.expected[1], 0.5);
    EXPECT_DOUBLE_EQ(curves.digested[0], 0.0);
    EXPECT_DOUBLE_EQ(curves.digested[1], 0.5);
    EXPECT_DOUBLE_EQ(curves.digested[2], 1.0);
    EXPECT_DOUBLE_EQ(curves.qoe, 1.0);
}

TEST(Qoe, DigestedNeverBeforeExpected)
{
    std::vector<Time> emits{0.0, 0.0, 0.0, 3.0, 3.0};
    auto curves = buildQoeCurves(emits, 0.5, 0.25);
    for (std::size_t k = 0; k < emits.size(); ++k)
        EXPECT_GE(curves.digested[k], curves.expected[k]);
}

TEST(Qoe, RejectsBadInput)
{
    EXPECT_THROW(computeQoe({1.0, 0.5}, 0.0, 0.1), pascal::FatalError);
    EXPECT_THROW(computeQoe({1.0}, 0.0, 0.0), pascal::FatalError);
    EXPECT_THROW(buildQoeCurves({1.0, 0.5}, 0.0, 0.1),
                 pascal::FatalError);
    EXPECT_THROW(buildQoeCurves({1.0}, 0.0, 0.0), pascal::FatalError);
    EXPECT_THROW(buildQoeCurves({1.0}, 0.0, -0.1), pascal::FatalError);
}

} // namespace
