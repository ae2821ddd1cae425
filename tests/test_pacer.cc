/**
 * @file
 * Unit tests for the token pacer as read from QoeCurves: burst
 * buffering, steady release, and starvation detection (Fig. 3
 * scenario phases).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/qoe/qoe.hh"

namespace
{

using pascal::Time;
using pascal::qoe::buildQoeCurves;

TEST(QoeCurves, DigestedByCountsReleasesUpToAndIncludingT)
{
    // A burst of 4 at t=0 is released at 0, 0.1, 0.2, 0.3.
    auto curves = buildQoeCurves({0.0, 0.0, 0.0, 0.0}, 0.0, 0.1);
    EXPECT_EQ(curves.digestedBy(-0.01), 0u);
    EXPECT_EQ(curves.digestedBy(0.0), 1u);
    EXPECT_EQ(curves.digestedBy(curves.digested[1]), 2u);
    EXPECT_EQ(curves.digestedBy(0.29), 3u);
    EXPECT_EQ(curves.digestedBy(1.0), 4u);
}

TEST(QoeCurves, StarvationInsideAPauseWithTheWholeTimelineKnown)
{
    // Burst of 3 at t=0 is released at 0, 0.1, 0.2; the next pace
    // slot is 0.3 but generation pauses until 0.5. Later tokens are
    // already on the curve, and a query inside the pause must still
    // see the drained buffer.
    auto curves = buildQoeCurves({0.0, 0.0, 0.0, 0.5, 0.6}, 0.0, 0.1);
    EXPECT_FALSE(curves.starvedAt(0.25));
    EXPECT_TRUE(curves.starvedAt(0.35));
    EXPECT_TRUE(curves.starvedAt(0.45));
    EXPECT_FALSE(curves.starvedAt(0.55)); // Resumed at pace.
}

TEST(QoeCurves, StarvedBeforeFirstTokenOnlyFromExpectedStart)
{
    auto curves = buildQoeCurves({2.0}, 1.0, 0.1);
    EXPECT_FALSE(curves.starvedAt(0.5)); // Nothing expected yet.
    EXPECT_TRUE(curves.starvedAt(1.5));  // Expected, not generated.
    EXPECT_FALSE(curves.starvedAt(2.0)); // Released at generation.
}

/** The pacer invariants of buildQoeCurves over a sweep of paces. */
class QoePacerSweep : public testing::TestWithParam<double>
{
};

TEST_P(QoePacerSweep, ReleasesAreMonotoneAndPaced)
{
    double pace = GetParam();
    // Bursty generation: clumps of 4 tokens every 10 paces.
    std::vector<Time> emits;
    for (int clump = 0; clump < 5; ++clump) {
        for (int i = 0; i < 4; ++i)
            emits.push_back(clump * 10.0 * pace);
    }
    auto curves = buildQoeCurves(emits, 0.0, pace);

    const auto& releases = curves.digested;
    ASSERT_EQ(releases.size(), 20u);
    for (std::size_t k = 1; k < releases.size(); ++k) {
        // Monotone, and never faster than the pace.
        EXPECT_GE(releases[k], releases[k - 1] + pace - 1e-12);
    }
    // No token is digested before it is generated.
    for (std::size_t k = 0; k < releases.size(); ++k)
        EXPECT_GE(releases[k], emits[k]);
}

TEST_P(QoePacerSweep, BurstReleasesAtPace)
{
    double pace = GetParam();
    auto curves = buildQoeCurves(std::vector<Time>(5, 0.0), 0.0, pace);
    for (std::size_t k = 0; k < 5; ++k)
        EXPECT_NEAR(curves.digested[k], k * pace, 1e-12);
}

TEST_P(QoePacerSweep, SlowGenerationReleasesAtOnce)
{
    double pace = GetParam();
    auto curves = buildQoeCurves({0.0, 10.0 * pace}, 0.0, pace);
    EXPECT_DOUBLE_EQ(curves.digested[1], 10.0 * pace);
}

TEST_P(QoePacerSweep, ExpectedStartDelaysFirstDigest)
{
    double pace = GetParam();
    auto curves = buildQoeCurves({0.0, 0.0}, 5.0 * pace, pace);
    EXPECT_DOUBLE_EQ(curves.digested[0], 5.0 * pace);
    EXPECT_DOUBLE_EQ(curves.digested[1], 6.0 * pace);
}

TEST_P(QoePacerSweep, BufferConservation)
{
    double pace = GetParam();
    auto curves = buildQoeCurves(std::vector<Time>(10, 0.0), 0.0, pace);

    // At any probe time: generated == digested + buffered.
    for (double probe : {0.0, 0.5 * pace, 3.5 * pace, 100.0 * pace}) {
        EXPECT_EQ(curves.generatedBy(probe), 10u);
        EXPECT_EQ(curves.digestedBy(probe) + curves.bufferedAt(probe),
                  curves.generatedBy(probe));
    }
    EXPECT_EQ(curves.bufferedAt(0.5 * pace), 9u);
    EXPECT_EQ(curves.bufferedAt(3.5 * pace), 6u);
    EXPECT_EQ(curves.bufferedAt(100.0 * pace), 0u);
}

INSTANTIATE_TEST_SUITE_P(Paces, QoePacerSweep,
                         testing::Values(0.01, 0.05, 0.1, 0.5, 2.0),
                         [](const testing::TestParamInfo<double>& info) {
                             return "pace_" +
                                    std::to_string(static_cast<int>(
                                        info.param * 1000));
                         });

} // namespace
