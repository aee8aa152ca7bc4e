/**
 * @file
 * Automatic prefix KV caching, in the style of SGLang's RadixAttention
 * and vLLM's automatic prefix caching: a radix tree keyed by prompt
 * token IDs whose nodes own block-granular spans of KV already
 * resident in the paged pool. Admission walks the tree for the longest
 * cached prefix and charges prefill only for the uncached suffix —
 * which is where the paper's TTFT story bites, because prefill compute
 * *and* the TEE memory-encryption tax both scale with the tokens
 * actually computed.
 *
 * Retention is by external pins on `mem::PagedKvCache` blocks: a
 * cached node holds one pin per block, sequences admitted through a
 * hit add their own table references on top, and eviction (LRU over
 * leaves) may only reclaim blocks whose every reference is a pin —
 * live sequences are never yanked.
 *
 * Sharing scope is a first-class policy: PerTenant keys the forest by
 * tenant id so cached KV never crosses a tenant boundary inside the
 * enclave; Global shares one tree. See `serve::PrefixMode` for the
 * TEE isolation rationale.
 *
 * Eviction is vLLM's evictor: leaves are kept in (last use, creation
 * id) order, and the victim is the first of them, other than the node
 * an insert is growing, whose blocks are all cache-only. No running
 * sequence signal is needed, because the cache-only check stays at
 * the front of that order.
 *
 * Sequential state driven by the single-threaded simulation loop;
 * determinism follows from never consulting anything but the call
 * sequence (ties in eviction break by node creation order).
 */

#ifndef CLLM_SERVE_PREFIX_CACHE_HH
#define CLLM_SERVE_PREFIX_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "mem/kv_paged.hh"
#include "serve/serving.hh"

namespace cllm::serve {

/** Longest cached prefix found for a prompt. */
struct PrefixMatch
{
    unsigned tokens = 0; //!< cached tokens (multiple of blockTokens)
    std::vector<std::uint32_t> blocks; //!< pool blocks, token order
};

/** Lifetime accounting (monotonic). */
struct PrefixCacheStats
{
    std::uint64_t hits = 0;     //!< committed matches with tokens > 0
    std::uint64_t misses = 0;   //!< committed matches finding nothing
    std::uint64_t hitTokens = 0;       //!< prefill tokens skipped
    std::uint64_t insertedBlocks = 0;  //!< blocks ever pinned
    std::uint64_t evictions = 0;       //!< leaves evicted
    std::uint64_t evictedBlocks = 0;   //!< blocks unpinned by eviction
};

/**
 * Tenant-scoped radix tree over cached KV prefixes. Only whole blocks
 * are ever cached or matched: a prompt's trailing partial block is
 * always recomputed, which keeps cached blocks immutable (decode
 * appends and COW never touch a full block, so a pinned block's
 * contents are stable for the lifetime of the pin). Lookups compare
 * a whole block of token IDs at a time.
 */
class PrefixCache
{
  public:
    /**
     * `pool` must outlive the cache and is where pins land.
     * `maxBlocks` caps total pinned blocks (0 = uncapped).
     */
    PrefixCache(PrefixMode mode, mem::PagedKvCache *pool,
                std::uint64_t maxBlocks = 0);

    /**
     * Longest cached prefix for a prompt, without touching LRU order
     * or hit/miss counters — the admission-probe path, safe to call
     * repeatedly while an admission retries around eviction.
     */
    PrefixMatch peek(std::uint32_t tenant,
                     const std::vector<std::int32_t> &tokens);

    /**
     * Longest cached prefix, counting the hit or miss and touching
     * every matched node's LRU stamp. Call exactly once per
     * successful admission.
     */
    PrefixMatch commitMatch(std::uint32_t tenant,
                            const std::vector<std::int32_t> &tokens,
                            double now);

    /**
     * Cache a freshly prefilled prompt: walk the tree and pin the
     * prompt's not-yet-cached full blocks out of `table` (the
     * sequence's block table, token order). Splits nodes as needed.
     * Idempotent for an already-cached prompt (just touches LRU).
     */
    void insert(std::uint32_t tenant,
                const std::vector<std::int32_t> &tokens,
                const std::vector<std::uint32_t> &table, double now);

    /**
     * Evict least-recently-used leaves until at least `want` blocks
     * went back to the pool's free list or nothing evictable remains.
     * Only leaves whose every block is cache-only (refcount equals
     * pin count) qualify — blocks still referenced by running
     * sequences are skipped. Returns blocks actually freed.
     */
    std::uint64_t evictToFree(std::uint64_t want, double now);

    std::uint64_t pinnedBlocks() const { return pinnedBlocks_; }
    std::size_t nodeCount() const { return nodes_; }
    const PrefixCacheStats &stats() const { return stats_; }

    /**
     * Structural invariants: node token spans are block-aligned,
     * children are keyed by their first token, every cached block is
     * pinned in the pool, per-node block counts sum to pinnedBlocks(),
     * and the LRU order holds exactly the leaves. Test hook.
     */
    bool consistent() const;

  private:
    friend struct PrefixCacheTestPeer;

    struct Node
    {
        Node *parent = nullptr;
        /** Token span (empty for roots; else blocks * blockTokens). */
        std::vector<std::int32_t> tokens;
        std::vector<std::uint32_t> blocks;
        std::map<std::int32_t, std::unique_ptr<Node>> children;
        double lastUsed = 0.0;
        std::uint64_t id = 0; //!< creation order, the LRU tie-break
    };

    /** LRU order: least recently used first, ties by creation. */
    struct ByLru
    {
        using is_transparent = void; //!< look up by const Node *

        bool
        operator()(const Node *a, const Node *b) const
        {
            return a->lastUsed != b->lastUsed ? a->lastUsed < b->lastUsed
                                              : a->id < b->id;
        }
    };

    static bool
    isLeaf(const Node *n)
    {
        return n->parent && n->children.empty();
    }

    Node *rootFor(std::uint32_t tenant);
    PrefixMatch matchImpl(Node *root,
                          const std::vector<std::int32_t> &tokens,
                          double now, bool touch);
    /** Set a node's LRU stamp, keeping the leaf order sorted. */
    void stamp(Node *n, double now);
    void evictLeaf(Node *leaf);
    Node *lruVictim(const Node *exclude);

    PrefixMode mode_;
    mem::PagedKvCache *pool_;
    std::uint64_t maxBlocks_;
    unsigned blockTokens_;
    /** Scope key → tree root. PerTenant keys by tenant, Global by 0. */
    std::map<std::uint64_t, std::unique_ptr<Node>> roots_;
    std::uint64_t pinnedBlocks_ = 0;
    std::size_t nodes_ = 0;   //!< non-root nodes
    std::uint64_t nextId_ = 0;
    PrefixCacheStats stats_{};
    /** Every leaf (non-root, childless node), in LRU order. */
    std::set<Node *, ByLru> leaves_;
    /**
     * Test seam: when set, sees each lruVictim answer (null when
     * nothing is evictable) before the victim is evicted.
     */
    static inline void (*victimProbe_)(const PrefixCache &,
                                       const Node *victim,
                                       const Node *exclude) = nullptr;
};

} // namespace cllm::serve

#endif // CLLM_SERVE_PREFIX_CACHE_HH
