/**
 * @file
 * Contention-focused tests: the Section V-C mechanism, simultaneous
 * KV migrations queueing on one node's fabric ingress.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/model/link.hh"
#include "src/sim/simulator.hh"

namespace
{

using namespace pascal;
using model::Link;
using sim::Simulator;

TEST(FabricContention, SimultaneousTransfersSerialize)
{
    Simulator sim;
    Link ingress(sim, 1000.0, "ingress"); // 1000 B/s.

    // Five 1000-byte migrations submitted at t=0 into one node.
    std::vector<Time> completions;
    for (int i = 0; i < 5; ++i)
        completions.push_back(ingress.submit(1000, nullptr));

    // Strict FIFO serialization: k-th completes at (k+1) seconds.
    for (int i = 0; i < 5; ++i)
        EXPECT_DOUBLE_EQ(completions[i], static_cast<double>(i + 1));

    // End-to-end latency (the paper's reported metric) grows linearly
    // with queue position.
    const auto& lat = ingress.transferLatencies();
    for (int i = 1; i < 5; ++i)
        EXPECT_GT(lat[i], lat[i - 1]);
}

TEST(FabricContention, IndependentIngressLinksDoNotInterfere)
{
    Simulator sim;
    Link a(sim, 1000.0, "ingress-a");
    Link b(sim, 1000.0, "ingress-b");

    Time ta = a.submit(1000, nullptr);
    Time tb = b.submit(1000, nullptr);
    // Different targets: both finish in one second.
    EXPECT_DOUBLE_EQ(ta, 1.0);
    EXPECT_DOUBLE_EQ(tb, 1.0);
}

TEST(FabricContention, LatencyScalesWithKvSize)
{
    Simulator sim;
    Link ingress(sim, 1000.0, "ingress");
    Time small = ingress.submit(500, [] {});
    sim.run(); // Advances the clock to the completion at t=0.5.
    Time big = ingress.submit(5000, nullptr) - sim.now();
    EXPECT_DOUBLE_EQ(small, 0.5);
    EXPECT_DOUBLE_EQ(big, 5.0);
}

} // namespace
