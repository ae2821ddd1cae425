/**
 * @file
 * Direct tests of OrderedQueue, the skip list behind the incremental
 * scheduler: after every repair() its full walk, its material walk,
 * and the high-then-low concatenation of two queues' material walks
 * must equal what std::sort produces for the same members, keys and
 * materiality — the last one is the greedy walk's eviction order
 * (ResidentEvictOrder) that the early-exit settle pass reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "src/core/intra_scheduler.hh"
#include "src/core/ordered_queue.hh"
#include "src/workload/request.hh"

namespace
{

using namespace pascal;
using core::OrderedQueue;
using core::ResidentEvictOrder;
using core::SchedOrder;
using workload::Request;

constexpr std::uint8_t kHigh = 1;
constexpr std::uint8_t kLow = 2;

/** A pool of requests plus a high and a low queue, and a model of
 *  which queue each request sits in. */
class QueuePair
{
  public:
    explicit QueuePair(int n)
    {
        for (int i = 0; i < n; ++i) {
            workload::RequestSpec s;
            s.id = static_cast<RequestId>(i + 1);
            // Few distinct arrivals so the id tie-break is exercised.
            s.arrival = static_cast<double>(i % 7);
            s.promptTokens = 16;
            s.reasoningTokens = 16;
            s.answerTokens = 16;
            reqs.push_back(std::make_unique<Request>(s));
        }
    }

    OrderedQueue<SchedOrder>&
    queue(std::uint8_t tag)
    {
        return tag == kHigh ? high : low;
    }

    /** Give @p r a fresh key drawn from a small range (collisions
     *  fall through to the later key levels). */
    static void
    rekey(Request* r, std::mt19937_64& rng)
    {
        r->schedClassRank = static_cast<std::uint8_t>(rng() % 2);
        r->quantaConsumed = static_cast<int>(rng() % 3);
        r->schedScore = static_cast<double>(rng() % 4);
    }

    /** One random mutation of the kinds the scheduler makes. */
    void
    step(std::mt19937_64& rng)
    {
        Request* r = reqs[rng() % reqs.size()].get();
        const std::uint8_t tag = r->schedQueueTag;
        switch (rng() % 5) {
          case 0: // Join a queue, or leave the one it is in.
            if (tag == 0) {
                rekey(r, rng);
                r->schedInResidentList = rng() % 2 == 0;
                queue(rng() % 2 == 0 ? kHigh : kLow).insert(r);
            } else {
                queue(tag).erase(r);
            }
            break;
          case 1: // Key moved.
            if (tag != 0) {
                rekey(r, rng);
                queue(tag).markDirty(r);
            }
            break;
          case 2: // Materiality flipped without a key change.
            if (tag != 0) {
                r->schedInResidentList = !r->schedInResidentList;
                queue(tag).noteMaterialized(r);
            }
            break;
          case 3: // Transfer to the other queue.
            if (tag != 0) {
                queue(tag).erase(r);
                rekey(r, rng);
                queue(tag == kHigh ? kLow : kHigh).insert(r);
            }
            break;
          default: // Dirty mark without a key move.
            if (tag != 0)
                queue(tag).markDirty(r);
            break;
        }
    }

    void
    repair()
    {
        high.repair();
        low.repair();
    }

    /** Members tagged @p tag (material only if @p material_only). */
    std::vector<Request*>
    members(std::uint8_t tag, bool material_only) const
    {
        std::vector<Request*> out;
        for (const auto& r : reqs) {
            if (r->schedQueueTag == tag &&
                (!material_only || r->schedInResidentList))
                out.push_back(r.get());
        }
        return out;
    }

    static std::vector<Request*>
    walk(OrderedQueue<SchedOrder>::iterator it,
         OrderedQueue<SchedOrder>::iterator end)
    {
        std::vector<Request*> out;
        for (; it != end; ++it)
            out.push_back(*it);
        return out;
    }

    /** Every post-repair ordering property, against std::sort. */
    void
    check() const
    {
        std::vector<Request*> evict_walk;
        for (std::uint8_t tag : {kHigh, kLow}) {
            const auto& q = tag == kHigh ? high : low;
            auto all = members(tag, false);
            std::sort(all.begin(), all.end(), SchedOrder{});
            ASSERT_EQ(walk(q.begin(), q.end()), all);

            auto mat = members(tag, true);
            std::sort(mat.begin(), mat.end(), SchedOrder{});
            auto mat_walk = walk(q.materialBegin(), q.end());
            ASSERT_EQ(mat_walk, mat);
            evict_walk.insert(evict_walk.end(), mat_walk.begin(),
                              mat_walk.end());
        }
        auto evict = members(kHigh, true);
        auto low_mat = members(kLow, true);
        evict.insert(evict.end(), low_mat.begin(), low_mat.end());
        std::sort(evict.begin(), evict.end(), ResidentEvictOrder{});
        ASSERT_EQ(evict_walk, evict);
    }

    std::vector<std::unique_ptr<Request>> reqs;
    OrderedQueue<SchedOrder> high{kHigh};
    OrderedQueue<SchedOrder> low{kLow};
};

TEST(OrderedQueue, RandomMutationsMatchStdSort)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        QueuePair qp(120);
        for (int round = 0; round < 300; ++round) {
            const int ops = 1 + static_cast<int>(rng() % 12);
            for (int i = 0; i < ops; ++i)
                qp.step(rng);
            qp.repair();
            ASSERT_NO_FATAL_FAILURE(qp.check());
        }
        EXPECT_FALSE(qp.members(kHigh, true).empty());
        EXPECT_FALSE(qp.members(kLow, false).empty());
    }
}

TEST(OrderedQueue, ArenaCompactionKeepsOrder)
{
    std::mt19937_64 rng(7);
    QueuePair qp(64);
    for (const auto& r : qp.reqs) {
        QueuePair::rekey(r.get(), rng);
        r->schedInResidentList = rng() % 2 == 0;
        qp.queue(r->id() % 3 == 0 ? kHigh : kLow).insert(r.get());
    }
    qp.repair();
    ASSERT_NO_FATAL_FAILURE(qp.check());
    const auto before_high =
        QueuePair::walk(qp.high.begin(), qp.high.end());
    const auto before_low = QueuePair::walk(qp.low.begin(), qp.low.end());

    // Every dirty mark recycles one node; 200 rounds take each queue
    // (about 21 and 43 members) past the 4096-recycle compaction
    // floor.
    for (int round = 0; round < 200; ++round) {
        for (const auto& r : qp.reqs)
            qp.queue(r->schedQueueTag).markDirty(r.get());
        qp.repair();
        ASSERT_NO_FATAL_FAILURE(qp.check());
    }
    EXPECT_GT(qp.high.numCompactions(), 0u);
    EXPECT_GT(qp.low.numCompactions(), 0u);
    EXPECT_EQ(QueuePair::walk(qp.high.begin(), qp.high.end()),
              before_high);
    EXPECT_EQ(QueuePair::walk(qp.low.begin(), qp.low.end()), before_low);
}

} // namespace
