/**
 * @file
 * Unit tests for the request state machine: phase progression, the
 * </think> transition, quantum accounting, and time buckets.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/common/log.hh"
#include "src/workload/request.hh"

namespace
{

using namespace pascal;
using workload::BucketKind;
using workload::Phase;
using workload::Request;
using workload::RequestSpec;

RequestSpec
makeSpec(TokenCount reasoning = 3, TokenCount answer = 2)
{
    RequestSpec s;
    s.id = 1;
    s.arrival = 0.0;
    s.promptTokens = 128;
    s.reasoningTokens = reasoning;
    s.answerTokens = answer;
    return s;
}

TEST(RequestSpec, ValidatesFields)
{
    auto s = makeSpec();
    s.validate();

    s.promptTokens = 0;
    EXPECT_THROW(s.validate(), FatalError);

    s = makeSpec();
    s.answerTokens = 0;
    EXPECT_THROW(s.validate(), FatalError);

    s = makeSpec();
    s.reasoningTokens = 0;
    EXPECT_THROW(s.validate(), FatalError);

    s = makeSpec();
    s.startInAnswering = true;
    EXPECT_THROW(s.validate(), FatalError); // reasoningTokens != 0.
    s.reasoningTokens = 0;
    s.validate();

    s = makeSpec();
    s.arrival = -1.0;
    EXPECT_THROW(s.validate(), FatalError);

    // Non-finite arrivals are rejected with a message naming the
    // request: NaN slips past a plain `arrival < 0` test, and +inf
    // would run the simulation to its horizon.
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
        s = makeSpec();
        s.id = 17;
        s.arrival = bad;
        try {
            s.validate();
            FAIL() << "accepted arrival " << bad;
        } catch (const FatalError& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("RequestSpec 17"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("non-finite arrival"), std::string::npos)
                << msg;
        }
    }
}

TEST(Request, PhaseProgression)
{
    Request r(makeSpec(3, 2));
    EXPECT_EQ(r.phase(), Phase::Reasoning);
    EXPECT_EQ(r.totalToGenerate(), 5);
    EXPECT_EQ(r.kvTokens(), 128);

    r.completePrefill(1.0, 0); // Emits r1.
    EXPECT_EQ(r.generated(), 1);
    EXPECT_EQ(r.phase(), Phase::Reasoning);
    EXPECT_EQ(r.kvTokens(), 129);
    EXPECT_DOUBLE_EQ(r.prefillEnd, 1.0);

    r.emitToken(2.0, 0); // r2.
    r.emitToken(3.0, 0); // r3 = </think>: transition observed.
    EXPECT_EQ(r.phase(), Phase::Answering);
    EXPECT_DOUBLE_EQ(r.reasoningEnd, 3.0);
    EXPECT_EQ(r.reasoningGenerated(), 3);
    EXPECT_EQ(r.answerGenerated(), 0);
    EXPECT_LT(r.firstAnswer, 0.0);

    r.emitToken(4.0, 0); // t1: first answering token.
    EXPECT_DOUBLE_EQ(r.firstAnswer, 4.0);
    EXPECT_EQ(r.answerGenerated(), 1);
    EXPECT_FALSE(r.finished());

    r.emitToken(5.0, 0); // t2: done.
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.phase(), Phase::Finished);
    EXPECT_DOUBLE_EQ(r.finish, 5.0);
    ASSERT_EQ(r.answerEmitTimes.size(), 2u);
    EXPECT_DOUBLE_EQ(r.answerEmitTimes[0], 4.0);
    EXPECT_DOUBLE_EQ(r.answerEmitTimes[1], 5.0);
}

TEST(Request, StartInAnsweringSkipsReasoning)
{
    auto spec = makeSpec(0, 2);
    spec.startInAnswering = true;
    Request r(spec);
    EXPECT_EQ(r.phase(), Phase::Answering);
    EXPECT_DOUBLE_EQ(r.reasoningEnd, 0.0); // Conceptually at arrival.

    r.emitToken(1.0, 0);
    EXPECT_DOUBLE_EQ(r.firstAnswer, 1.0);
    r.emitToken(2.0, 0);
    EXPECT_TRUE(r.finished());
}

TEST(Request, QuantumAccounting)
{
    Request r(makeSpec(10, 5));
    r.completePrefill(0.1, 4);
    EXPECT_EQ(r.quantaConsumed, 0);
    EXPECT_EQ(r.quantumTokens, 1);

    r.emitToken(0.2, 4);
    r.emitToken(0.3, 4);
    r.emitToken(0.4, 4); // Fourth token: quantum exhausted.
    EXPECT_EQ(r.quantaConsumed, 1);
    EXPECT_EQ(r.quantumTokens, 0);

    r.resetQuantum();
    EXPECT_EQ(r.quantaConsumed, 0);
}

TEST(Request, QuantumDisabledForFcfs)
{
    Request r(makeSpec(10, 5));
    r.completePrefill(0.1, 0);
    for (int i = 0; i < 8; ++i)
        r.emitToken(0.2 + i * 0.1, 0);
    EXPECT_EQ(r.quantaConsumed, 0);
}

TEST(Request, AccrualSplitsByPhase)
{
    Request r(makeSpec(2, 2));
    r.accrue(1.0, BucketKind::Blocked); // Reasoning-phase wait.
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.blocked, 1.0);

    r.completePrefill(1.0, 0);
    r.accrue(2.0, BucketKind::Executed);
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.executed, 1.0);

    r.emitToken(2.0, 0); // </think>: now answering.
    r.accrue(3.5, BucketKind::Preempted);
    EXPECT_DOUBLE_EQ(r.answeringBuckets.preempted, 1.5);
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.total(), 2.0);
}

TEST(Request, AccrualIgnoresNonPositiveIntervals)
{
    Request r(makeSpec());
    r.accrue(1.0, BucketKind::Blocked);
    r.accrue(1.0, BucketKind::Executed); // dt = 0.
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.executed, 0.0);
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.total(), 1.0);
}

TEST(Request, ResetAccrualSkipsInterval)
{
    Request r(makeSpec());
    r.resetAccrual(5.0);
    r.accrue(6.0, BucketKind::Blocked);
    EXPECT_DOUBLE_EQ(r.reasoningBuckets.blocked, 1.0);
}

TEST(RequestDeath, EmitPastEndPanics)
{
    Request r(makeSpec(1, 1));
    r.completePrefill(0.1, 0); // </think> immediately (1 reasoning tok).
    r.emitToken(0.2, 0);       // Final answer token.
    ASSERT_TRUE(r.finished());
    EXPECT_DEATH(r.emitToken(0.3, 0), "finished");
}

TEST(RequestDeath, DoublePrefillPanics)
{
    Request r(makeSpec());
    r.completePrefill(0.1, 0);
    EXPECT_DEATH(r.completePrefill(0.2, 0), "double prefill");
}

} // namespace
