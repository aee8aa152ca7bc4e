/**
 * @file
 * Paged KV cache, in the style of vLLM's PagedAttention allocator:
 * KV memory is carved into fixed-size blocks of tokens; sequences own
 * block tables that grow one block at a time and can share full
 * blocks (prefix sharing) with copy-on-write reference counts.
 *
 * Inside a TEE the whole pool is the encrypted enclave/TD memory the
 * operator sized (Gramine's enclave_size, the TD's memory), so the
 * block count is the hard capacity that SGX EPC paging and the TDX
 * encryption tax are charged against. The serving scheduler admits by
 * free-block headroom instead of whole-request reservation, which is
 * exactly the memory-pressure interplay the paper measures: bigger
 * effective batches until the working set spills, then paging.
 *
 * Everything here is sequential state driven by the single-threaded
 * simulation loops; determinism across `CLLM_THREADS` follows from
 * never consulting anything but the call sequence.
 */

#ifndef CLLM_MEM_KV_PAGED_HH
#define CLLM_MEM_KV_PAGED_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cllm::mem {

/** Sequence handle (the serving layer uses request ids). */
using KvSeqId = std::uint32_t;

/** Pool geometry. */
struct PagedKvConfig
{
    std::uint64_t totalBlocks = 1024;
    unsigned blockTokens = 16; //!< tokens per block
};

/** Lifetime accounting (monotonic; never reset by release). */
struct PagedKvStats
{
    std::uint64_t blockAllocs = 0;   //!< blocks handed out
    std::uint64_t blockFrees = 0;    //!< blocks returned to the list
    std::uint64_t cowCopies = 0;     //!< shared blocks copied on write
    std::uint64_t peakUsedBlocks = 0;
};

/**
 * Reference-counted paged KV block allocator with per-sequence block
 * tables. All mutators are all-or-nothing: a call that returns false
 * (pool exhausted) has allocated nothing and left every table intact,
 * so callers can preempt or queue and retry.
 */
class PagedKvCache
{
  public:
    explicit PagedKvCache(PagedKvConfig cfg = {});

    /**
     * Register a new sequence holding `tokens` of prefilled KV.
     * Returns false (allocating nothing) when the pool cannot hold it.
     */
    bool addSequence(KvSeqId id, unsigned tokens);

    /**
     * Append one token to a sequence; may allocate one block, and
     * copies the trailing block first when it is shared (COW).
     * Returns false on pool exhaustion, leaving the sequence intact.
     */
    bool appendToken(KvSeqId id);

    /**
     * Register a new sequence of `tokens` tokens whose leading
     * `shared_tokens` (a multiple of blockTokens) are already resident
     * in `shared` — the prefix-cache admission path. The shared blocks
     * gain a reference each and only the remainder is allocated;
     * all-or-nothing like addSequence. Fatal on a malformed prefix
     * (wrong granularity, wrong block count, or a free block).
     */
    bool addSequenceWithPrefix(KvSeqId id, unsigned tokens,
                               const std::vector<std::uint32_t> &shared,
                               unsigned shared_tokens);

    /**
     * Add one external (prefix-cache) pin to each block: the block
     * gains a reference that outlives any sequence table, so releasing
     * every sequence leaves it allocated. Fatal on a free block — a
     * pin can only retain live KV, never resurrect freed KV.
     */
    void pin(const std::vector<std::uint32_t> &blocks);

    /**
     * Drop one external pin from each block, returning how many
     * blocks that sent back to the free list (blocks still referenced
     * by live tables stay allocated). Fatal on an unpinned block.
     */
    std::uint64_t unpin(const std::vector<std::uint32_t> &blocks);

    /**
     * Trim a sequence's tail back to `tokens` (<= its current count)
     * — the speculative-decoding rollback path, dropping the KV of
     * rejected draft tokens. Blocks that fall wholly past the new
     * length lose this table's reference; a trimmed block that is
     * shared or externally pinned stays alive for its other holders,
     * so refcounts, pins, and `consistent()` are preserved. Fatal on
     * an unknown sequence or a target beyond the current length.
     */
    void trimTokens(KvSeqId id, unsigned tokens);

    /** Release a sequence's table (decrement shared refcounts). */
    void release(KvSeqId id);

    /** Tokens currently stored for a sequence (0 when unknown). */
    unsigned tokens(KvSeqId id) const;

    /** Blocks currently referenced by a sequence's table. */
    std::size_t blocksOf(KvSeqId id) const;

    /** A sequence's block table, in token order (fatal if unknown). */
    const std::vector<std::uint32_t> &blockTable(KvSeqId id) const;

    /** Total references on a block (tables + external pins). */
    std::uint32_t refCount(std::uint32_t block) const;

    /** External (prefix-cache) pins on a block. */
    std::uint32_t pinCount(std::uint32_t block) const;

    /**
     * True when a block is alive but referenced only by external
     * pins — the prefix cache's eviction predicate: unpinning such a
     * block actually frees it.
     */
    bool cacheOnly(std::uint32_t block) const;

    /** Number of distinct blocks holding at least one external pin. */
    std::uint64_t pinnedBlocks() const { return pinned_; }

    /** Blocks needed to hold `tokens` tokens. */
    std::uint64_t
    blocksFor(unsigned tokens) const
    {
        return (static_cast<std::uint64_t>(tokens) + cfg_.blockTokens -
                1) /
               cfg_.blockTokens;
    }

    std::uint64_t freeBlocks() const { return freeList_.size(); }
    std::uint64_t usedBlocks() const
    {
        return cfg_.totalBlocks - freeList_.size();
    }
    std::uint64_t totalBlocks() const { return cfg_.totalBlocks; }
    std::size_t sequences() const { return seqs_.size(); }

    /** Fraction of the pool in use. */
    double utilization() const;

    /**
     * Internal fragmentation: the fraction of allocated token slots
     * not holding a token (trailing partial blocks; shared blocks
     * count once). 0 when nothing is allocated.
     */
    double fragmentation() const;

    /** Whether a sequence of `tokens` tokens could be admitted now. */
    bool canAdmit(unsigned tokens) const;

    /**
     * Block conservation: every block is either on the free list or
     * carries exactly refcount references, where the refcount must
     * equal live-table references plus external prefix pins — so
     * prefix pins, per-sequence tables, and the free list sum to the
     * pool size across arbitrary share/trim/release/pin chains. The
     * property tests call this after every mutation; a violation is a
     * scheduler bug.
     */
    bool consistent() const;

    const PagedKvStats &stats() const { return stats_; }
    const PagedKvConfig &config() const { return cfg_; }

  private:
    struct Seq
    {
        std::vector<std::uint32_t> blocks;
        unsigned tokens = 0;
    };

    std::uint32_t allocBlock(); //!< returns index or kNoBlock
    void unref(std::uint32_t block);

    static constexpr std::uint32_t kNoBlock = 0xffffffffu;

    PagedKvConfig cfg_;
    std::vector<std::uint32_t> refCounts_;
    std::vector<std::uint32_t> extPins_; //!< prefix-cache pins per block
    std::vector<std::uint32_t> freeList_;
    std::uint64_t pinned_ = 0; //!< blocks with at least one pin
    std::unordered_map<KvSeqId, Seq> seqs_;
    PagedKvStats stats_{};
};

} // namespace cllm::mem

#endif // CLLM_MEM_KV_PAGED_HH
