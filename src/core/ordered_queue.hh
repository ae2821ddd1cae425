/**
 * @file
 * OrderedQueue: the incrementally maintained priority queue behind the
 * iteration fast path.
 *
 * A scheduler queue spends thousands of consecutive decode iterations
 * with an unchanged membership and unchanged ordering keys, so sorting
 * it from scratch every iteration (the pre-optimization behaviour) is
 * almost always wasted work. Earlier revisions kept a sorted vector
 * with lazy tombstones, but its repair still paid an O(n) compaction
 * pass per dirty batch — the last super-linear term on churn-heavy
 * million-request sweeps. The queue is now a deterministic
 * doubly-linked skip list:
 *
 *  - steady state (no mutations):      repair() is O(1) (a no-op),
 *  - erase / markDirty:                O(log n) — the node unlinks
 *    itself through its per-level prev/next pointers, so no search
 *    (and therefore no still-valid key) is needed,
 *  - repair() with d pending inserts:  strictly O(d log n), no
 *    compaction or merge pass ever walks the clean majority,
 *  - comparator invariant:             iteration yields exactly the
 *    order std::sort produces with the same strict total order,
 *    which is what the force-resort invariance tests pin down.
 *
 * Material split: members are stored in TWO sibling skip lists under
 * the same order — requests holding KV ("material": GPU-resident or
 * swapped) and requests still waiting for admission. Iteration is a
 * two-way merge, so consumers see the usual total order; but when the
 * greedy selection walk proves that no waiting request can be
 * admitted anymore, it drops the waiting stream (iterator::
 * skipWaiting()) and finishes over the material members alone —
 * turning the saturated arrival-storm walk from O(hosted) into
 * O(batch + material) no matter how deep the admission backlog grows.
 * A waiting member that gains KV without a key change (prefill /
 * prewarm allocation) moves sublists in O(log n) via
 * noteMaterialized().
 *
 * Determinism: tower heights are a pure function of the request id
 * (splitmix64 bit mix), so the structure — and every operation count —
 * is identical across runs, threads, and debug modes. The comparator
 * must be a strict TOTAL order (the schedulers tie-break by request
 * id), so the sorted order is unique and independent of how it was
 * produced.
 *
 * Intrusive fields: a request belongs to at most one queue at a time,
 * so the queue keeps its per-request node pointer, dirty flag and
 * queue tag directly in Request::schedNode / schedDirtyPending /
 * schedQueueTag. The material sublist doubles as the scheduler's
 * resident priority order: materialBegin() walks it alone, which is
 * how the greedy walk's early-exit settle pass reads the unreached
 * residents pre-sorted.
 *
 * Generation-segregated arena compaction: node recycling through the
 * per-height free lists keeps memory bounded but slowly randomizes
 * node addresses, so a long-run level-0 walk stops being
 * prefetch-sequential. repair() tracks recycle churn and, past a
 * deterministic threshold, relinks every surviving node into fresh
 * arenas in level-0 order (O(linked), amortized O(1) per unlink) —
 * the next generation's walk is address-sequential again. Ordering
 * and operation results are unchanged; only addresses move.
 *
 * Contract notes (unchanged from the sorted-vector revision):
 * insert()/markDirty() defer to the next repair(), which reads the
 * request's ordering key at repair time — callers may mutate keys
 * freely between the notification and the repair. erase() and
 * noteMaterialized() take effect immediately (noteMaterialized
 * additionally requires the key to be valid when called; the engine
 * calls it at KV allocation, which never moves a key).
 */

#ifndef PASCAL_CORE_ORDERED_QUEUE_HH
#define PASCAL_CORE_ORDERED_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/log.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace core
{

/** Skip-list request queue with dirty-set repair and a material /
 *  waiting split. @tparam Cmp strict total order over Request
 *  pointers (stateless functor). */
template <typename Cmp>
class OrderedQueue
{
    /** Tower height cap: p = 1/2 levels support ~2^kMaxHeight
     *  members; 20 covers the million-request regime. */
    static constexpr int kMaxHeight = 20;

    struct Node;

    /** One level of a node's tower. */
    struct Link
    {
        Node* next;
        Node* prev;
    };

    /**
     * Exact-height node: the tower links live immediately behind the
     * 16-byte header, so a typical (height 1-2) node occupies 32-48
     * bytes instead of a fixed-height 336 — the level-0 walk that
     * greedy selection runs every plan touches 7x less memory.
     * Nodes are bump-allocated from arenas and recycled through
     * per-height free lists.
     */
    struct Node
    {
        workload::Request* req;
        std::int32_t height;
        bool mat; //!< Which sublist the node lives in.

        Link*
        links()
        {
            return reinterpret_cast<Link*>(
                reinterpret_cast<char*>(this) + sizeof(Node));
        }
        Node* next(int l) { return links()[l].next; }
        Node* prev(int l) { return links()[l].prev; }
    };
    static_assert(sizeof(Node) % alignof(Link) == 0,
                  "tower links must start aligned");

    /** One skip list (sentinel head + level bound + size). */
    struct SubList
    {
        Node* head = nullptr; //!< kMaxHeight sentinel (arena-owned).
        int maxLevel = 1;
        std::size_t linked = 0;
    };

  public:
    /** @param tag Nonzero queue id stamped into schedQueueTag so a
     *  request knows which queue holds it. */
    explicit OrderedQueue(std::uint8_t tag) : tag(tag)
    {
        if (tag == 0)
            panic("OrderedQueue tag must be nonzero");
        for (SubList* s : {&material, &waiting})
            s->head = allocSentinel();
    }

    /**
     * Merged walk over both sublists in key order (valid right after
     * repair()). skipWaiting() drops the waiting stream mid-walk —
     * every not-yet-yielded waiting member is skipped, the material
     * members keep coming in order.
     */
    class iterator
    {
      public:
        iterator(Node* m, Node* w) : m(m), w(w) { cur = pick(); }

        workload::Request* operator*() const { return cur->req; }

        iterator&
        operator++()
        {
            if (cur == m) {
                m = m->next(0);
                if (m != nullptr) {
                    // The walk is a dependent pointer chain; telling
                    // the prefetcher about the successor (and its
                    // request) hides most of the per-hop latency.
                    __builtin_prefetch(m->links()[0].next);
                    __builtin_prefetch(m->req);
                }
            } else if (w != nullptr) {
                w = w->next(0);
                if (w != nullptr) {
                    __builtin_prefetch(w->links()[0].next);
                    __builtin_prefetch(w->req);
                }
            }
            cur = pick();
            return *this;
        }

        /**
         * Drop every not-yet-yielded waiting member. The current
         * position is left untouched (the caller may have consumed
         * it already); the next increment lands on the next material
         * member.
         */
        void skipWaiting() { w = nullptr; }

        bool
        operator==(const iterator& o) const
        {
            return m == o.m && w == o.w;
        }
        bool operator!=(const iterator& o) const { return !(*this == o); }

      private:
        Node*
        pick() const
        {
            if (m == nullptr)
                return w;
            if (w == nullptr)
                return m;
            return Cmp{}(m->req, w->req) ? m : w;
        }

        Node* m;
        Node* w;
        Node* cur;
    };

    iterator
    begin() const
    {
        return iterator(material.head->next(0), waiting.head->next(0));
    }
    iterator end() const { return iterator(nullptr, nullptr); }

    /** Walk over the material members alone, in key order (valid
     *  right after repair()); ends at end(). */
    iterator
    materialBegin() const
    {
        return iterator(material.head->next(0), nullptr);
    }

    /** Add a request (takes effect at the next repair()). */
    void
    insert(workload::Request* r)
    {
        r->schedQueueTag = tag;
        r->schedDirtyPending = true;
        pending.push_back(r);
    }

    /**
     * Remove a request that currently belongs to this queue. A linked
     * node unlinks in O(log n) through its own level pointers; a
     * pending re-insertion is cancelled instead.
     */
    void
    erase(workload::Request* r)
    {
        r->schedQueueTag = 0;
        if (r->schedDirtyPending) {
            r->schedDirtyPending = false;
            auto it = std::find(pending.begin(), pending.end(), r);
            if (it == pending.end())
                panic("OrderedQueue::erase: pending entry missing");
            pending.erase(it);
            return;
        }
        unlink(r);
    }

    /** The request's ordering key changed: unlink its node now (the
     *  stale key is never consulted) and queue it for re-insertion at
     *  the next repair(). */
    void
    markDirty(workload::Request* r)
    {
        if (r->schedDirtyPending)
            return; // Already queued for re-insertion.
        unlink(r);
        r->schedDirtyPending = true;
        pending.push_back(r);
    }

    /**
     * A linked member's materiality flipped (KV allocated without a
     * key change): move its node to the other sublist in O(log n).
     * Pending members need nothing — link() reads the flag.
     */
    void
    noteMaterialized(workload::Request* r)
    {
        if (r->schedDirtyPending)
            return;
        Node* node = static_cast<Node*>(r->schedNode);
        if (node == nullptr || node->mat == r->schedInResidentList)
            return;
        unlink(r);
        link(r);
    }

    /**
     * Re-establish the sorted invariant: every pending request is
     * inserted at its key's unique position — O(pending x log n),
     * with no pass over the clean members. Past the churn threshold
     * this also compacts the arenas first, so the pending nodes land
     * in the fresh generation too.
     */
    void
    repair()
    {
        if (recycleChurn >= kCompactMinChurn &&
            recycleChurn >= 4 * (material.linked + waiting.linked))
            compact();
        for (auto* r : pending) {
            r->schedDirtyPending = false;
            link(r);
        }
        pending.clear();
    }

    /** Arena compactions performed so far (diagnostic). */
    std::uint64_t numCompactions() const { return compactions; }

  private:
    /** Deterministic tower height: a pure bit mix of the request id
     *  (geometric, p = 1/2), identical across runs and modes. */
    static int
    heightFor(RequestId id)
    {
        std::uint64_t x =
            static_cast<std::uint64_t>(id) + 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        x ^= x >> 31;
        int h = 1;
        while ((x & 1ull) != 0ull && h < kMaxHeight) {
            x >>= 1;
            ++h;
        }
        return h;
    }

    /** Bump-allocate an exact-height node (16-byte header + height
     *  tower links) or pop a recycled one. */
    Node*
    allocNode(int height)
    {
        auto& free = freeNodes[height];
        if (!free.empty()) {
            Node* n = free.back();
            free.pop_back();
            return n;
        }
        std::size_t bytes =
            sizeof(Node) +
            static_cast<std::size_t>(height) * sizeof(Link);
        if (arenas.empty() || arenaUsed + bytes > kArenaBytes) {
            arenas.emplace_back(new char[kArenaBytes]);
            arenaUsed = 0;
        }
        char* p = arenas.back().get() + arenaUsed;
        arenaUsed += (bytes + 15) & ~std::size_t{15};
        return reinterpret_cast<Node*>(p);
    }

    /** Allocate and zero-link a kMaxHeight sentinel head. */
    Node*
    allocSentinel()
    {
        Node* head = allocNode(kMaxHeight);
        head->req = nullptr;
        head->height = kMaxHeight;
        head->mat = false;
        for (int l = 0; l < kMaxHeight; ++l)
            head->links()[l] = Link{nullptr, nullptr};
        return head;
    }

    /**
     * Generation-segregated compaction: relink every surviving node
     * (both sublists, level-0 order) into fresh arenas via a
     * per-level last-node spine, drop the old arenas and free lists.
     * O(linked); ordering untouched — only node addresses change, so
     * the next generation's level-0 walk is address-sequential.
     */
    void
    compact()
    {
        ++compactions;
        recycleChurn = 0;
        std::vector<std::unique_ptr<char[]>> retired =
            std::move(arenas);
        arenas.clear();
        arenaUsed = 0;
        for (auto& free : freeNodes)
            free.clear();
        for (SubList* s : {&material, &waiting}) {
            Node* old = s->head;
            Node* head = allocSentinel();
            Node* last[kMaxHeight];
            for (int l = 0; l < kMaxHeight; ++l)
                last[l] = head;
            for (Node* n = old->next(0); n != nullptr; n = n->next(0)) {
                Node* copy = allocNode(n->height);
                copy->req = n->req;
                copy->height = n->height;
                copy->mat = n->mat;
                copy->req->schedNode = copy;
                for (int l = 0; l < copy->height; ++l) {
                    copy->links()[l] = Link{nullptr, last[l]};
                    last[l]->links()[l].next = copy;
                    last[l] = copy;
                }
            }
            s->head = head;
        }
        // `retired` keeps the old generation alive until the walk
        // above has copied every node out of it.
    }

    /** Insert @p r's node (sublist per its current materiality) at
     *  the position its current key dictates. */
    void
    link(workload::Request* r)
    {
        SubList& s = r->schedInResidentList ? material : waiting;
        int height = heightFor(r->id());
        Node* node = allocNode(height);
        node->req = r;
        node->height = height;
        node->mat = r->schedInResidentList;
        r->schedNode = node;
        s.maxLevel = std::max(s.maxLevel, height);

        Cmp less{};
        Node* pred = s.head;
        for (int l = s.maxLevel - 1; l >= 0; --l) {
            while (pred->next(l) != nullptr &&
                   less(pred->next(l)->req, r)) {
                pred = pred->next(l);
            }
            if (l < height) {
                Node* succ = pred->next(l);
                node->links()[l] = Link{succ, pred};
                pred->links()[l].next = node;
                if (succ != nullptr)
                    succ->links()[l].prev = node;
            }
        }
        ++s.linked;
    }

    /** Unlink @p r's node in O(height) via its own level pointers. */
    void
    unlink(workload::Request* r)
    {
        Node* node = static_cast<Node*>(r->schedNode);
        if (node == nullptr || node->req != r)
            panic("OrderedQueue: request " + std::to_string(r->id()) +
                  " has no linked node in this queue");
        for (int l = 0; l < node->height; ++l) {
            Link& link = node->links()[l];
            link.prev->links()[l].next = link.next;
            if (link.next != nullptr)
                link.next->links()[l].prev = link.prev;
        }
        SubList& s = node->mat ? material : waiting;
        --s.linked;
        r->schedNode = nullptr;
        node->req = nullptr;
        freeNodes[node->height].push_back(node);
        ++recycleChurn;
    }

    static constexpr std::size_t kArenaBytes = 1 << 16;

    /** Compaction trigger floor: below this many recycles the level-0
     *  walk is still mostly generation-ordered, so don't bother. */
    static constexpr std::size_t kCompactMinChurn = 4096;

    std::uint8_t tag;
    std::vector<workload::Request*> pending;
    /** Bump arenas backing the exact-height nodes. */
    std::vector<std::unique_ptr<char[]>> arenas;
    std::size_t arenaUsed = 0;
    /** Recycled nodes, by height. */
    std::vector<Node*> freeNodes[kMaxHeight + 1];
    SubList material;
    SubList waiting;
    /** Nodes recycled since the last compaction. */
    std::size_t recycleChurn = 0;
    std::uint64_t compactions = 0;
};

} // namespace core
} // namespace pascal

#endif // PASCAL_CORE_ORDERED_QUEUE_HH
