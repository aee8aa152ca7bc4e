/**
 * @file
 * The full tree scan `serve::PrefixCache` once ran on every eviction,
 * kept as the oracle for the ordered evictor that replaced it. Over
 * every scope's tree, the scan picks the least recently used leaf
 * (ties by creation id), other than `exclude`, whose blocks are all
 * cache-only.
 *
 * While a `PrefixCacheTestPeer` is alive, every `lruVictim` answer of
 * every cache in the process, null answers included, is compared with
 * the scan before the victim is evicted. Single-threaded use only: the
 * seam is one process-wide pointer.
 */

#ifndef CLLM_TESTS_PREFIX_VICTIM_REF_HH
#define CLLM_TESTS_PREFIX_VICTIM_REF_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "serve/prefix_cache.hh"

namespace cllm::serve {

struct PrefixCacheTestPeer
{
    using Node = PrefixCache::Node;

    std::uint64_t calls = 0;      //!< lruVictim answers seen
    std::uint64_t victims = 0;    //!< of which non-null
    std::uint64_t excluding = 0;  //!< calls whose `exclude` changed
                                  //!< the scan's answer
    std::uint64_t mismatches = 0; //!< answers the scan disagrees with

    PrefixCacheTestPeer()
    {
        active() = this;
        PrefixCache::victimProbe_ = &check;
    }

    ~PrefixCacheTestPeer()
    {
        PrefixCache::victimProbe_ = nullptr;
        active() = nullptr;
    }

    PrefixCacheTestPeer(const PrefixCacheTestPeer &) = delete;
    PrefixCacheTestPeer &operator=(const PrefixCacheTestPeer &) = delete;

    /** The scan: a depth-first walk of every tree. */
    static const Node *
    scanVictim(const PrefixCache &c, const Node *exclude)
    {
        const Node *victim = nullptr;
        std::vector<const Node *> stack;
        for (const auto &[key, root] : c.roots_) {
            (void)key;
            stack.assign(1, root.get());
            while (!stack.empty()) {
                const Node *n = stack.back();
                stack.pop_back();
                for (const auto &[tok, child] : n->children) {
                    (void)tok;
                    stack.push_back(child.get());
                }
                if (n == exclude || n->parent == nullptr ||
                    !n->children.empty())
                    continue;
                const bool evictable = std::all_of(
                    n->blocks.begin(), n->blocks.end(),
                    [&c](std::uint32_t b) {
                        return c.pool_->cacheOnly(b);
                    });
                if (!evictable)
                    continue;
                if (!victim || n->lastUsed < victim->lastUsed ||
                    (n->lastUsed == victim->lastUsed &&
                     n->id < victim->id))
                    victim = n;
            }
        }
        return victim;
    }

  private:
    static PrefixCacheTestPeer *&
    active()
    {
        static PrefixCacheTestPeer *peer = nullptr;
        return peer;
    }

    static void
    check(const PrefixCache &c, const Node *victim, const Node *exclude)
    {
        PrefixCacheTestPeer &p = *active();
        ++p.calls;
        p.victims += victim != nullptr;
        const Node *want = scanVictim(c, exclude);
        p.excluding += exclude && want != scanVictim(c, nullptr);
        p.mismatches += want != victim;
    }
};

} // namespace cllm::serve

#endif // CLLM_TESTS_PREFIX_VICTIM_REF_HH
