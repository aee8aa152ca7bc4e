#include "mem/kv_paged.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cllm::mem {

PagedKvCache::PagedKvCache(PagedKvConfig cfg) : cfg_(cfg)
{
    if (cfg_.totalBlocks == 0 || cfg_.blockTokens == 0)
        cllm_fatal("PagedKvCache: degenerate configuration");
    refCounts_.assign(cfg_.totalBlocks, 0);
    extPins_.assign(cfg_.totalBlocks, 0);
    freeList_.reserve(cfg_.totalBlocks);
    for (std::uint32_t b = 0; b < cfg_.totalBlocks; ++b)
        freeList_.push_back(
            static_cast<std::uint32_t>(cfg_.totalBlocks - 1 - b));
}

std::uint32_t
PagedKvCache::allocBlock()
{
    if (freeList_.empty())
        return kNoBlock;
    const std::uint32_t b = freeList_.back();
    freeList_.pop_back();
    refCounts_[b] = 1;
    ++stats_.blockAllocs;
    stats_.peakUsedBlocks =
        std::max(stats_.peakUsedBlocks, usedBlocks());
    return b;
}

void
PagedKvCache::unref(std::uint32_t block)
{
    if (refCounts_[block] == 0)
        cllm_panic("PagedKvCache: unref of free block ", block);
    if (--refCounts_[block] == 0) {
        freeList_.push_back(block);
        ++stats_.blockFrees;
    }
}

bool
PagedKvCache::addSequence(KvSeqId id, unsigned tokens)
{
    if (seqs_.count(id))
        cllm_fatal("PagedKvCache: duplicate sequence ", id);
    const std::uint64_t need = blocksFor(tokens);
    if (need > freeList_.size())
        return false;
    Seq s;
    s.tokens = tokens;
    s.blocks.reserve(need);
    for (std::uint64_t i = 0; i < need; ++i)
        s.blocks.push_back(allocBlock());
    seqs_.emplace(id, std::move(s));
    return true;
}

bool
PagedKvCache::addSequenceWithPrefix(
    KvSeqId id, unsigned tokens,
    const std::vector<std::uint32_t> &shared, unsigned shared_tokens)
{
    if (seqs_.count(id))
        cllm_fatal("PagedKvCache: duplicate sequence ", id);
    if (shared_tokens % cfg_.blockTokens != 0 ||
        shared.size() != shared_tokens / cfg_.blockTokens ||
        shared_tokens > tokens)
        cllm_fatal("PagedKvCache: malformed shared prefix for "
                   "sequence ",
                   id);
    for (std::uint32_t b : shared)
        if (b >= cfg_.totalBlocks || refCounts_[b] == 0)
            cllm_fatal("PagedKvCache: shared prefix references a "
                       "free block");
    const std::uint64_t need = blocksFor(tokens) - shared.size();
    if (need > freeList_.size())
        return false;
    Seq s;
    s.tokens = tokens;
    s.blocks = shared;
    for (std::uint32_t b : shared)
        ++refCounts_[b];
    for (std::uint64_t i = 0; i < need; ++i)
        s.blocks.push_back(allocBlock());
    seqs_.emplace(id, std::move(s));
    return true;
}

void
PagedKvCache::pin(const std::vector<std::uint32_t> &blocks)
{
    for (std::uint32_t b : blocks) {
        if (b >= cfg_.totalBlocks || refCounts_[b] == 0)
            cllm_panic("PagedKvCache: pin of free block ", b);
        ++refCounts_[b];
        if (extPins_[b]++ == 0)
            ++pinned_;
    }
}

std::uint64_t
PagedKvCache::unpin(const std::vector<std::uint32_t> &blocks)
{
    std::uint64_t freed = 0;
    for (std::uint32_t b : blocks) {
        if (b >= cfg_.totalBlocks || extPins_[b] == 0)
            cllm_panic("PagedKvCache: unpin of unpinned block ", b);
        if (--extPins_[b] == 0)
            --pinned_;
        const std::size_t before = freeList_.size();
        unref(b);
        freed += freeList_.size() - before;
    }
    return freed;
}

bool
PagedKvCache::appendToken(KvSeqId id)
{
    auto it = seqs_.find(id);
    if (it == seqs_.end())
        cllm_fatal("PagedKvCache: unknown sequence ", id);
    Seq &s = it->second;

    const bool needs_block = s.tokens % cfg_.blockTokens == 0;
    // Appending into a shared block requires copy-on-write.
    if (!needs_block && !s.blocks.empty() &&
        refCounts_[s.blocks.back()] > 1) {
        const std::uint32_t fresh = allocBlock();
        if (fresh == kNoBlock)
            return false;
        unref(s.blocks.back());
        s.blocks.back() = fresh;
        ++stats_.cowCopies;
    }
    if (needs_block) {
        const std::uint32_t fresh = allocBlock();
        if (fresh == kNoBlock)
            return false;
        s.blocks.push_back(fresh);
    }
    ++s.tokens;
    return true;
}

void
PagedKvCache::trimTokens(KvSeqId id, unsigned tokens)
{
    auto it = seqs_.find(id);
    if (it == seqs_.end())
        cllm_fatal("PagedKvCache: trim of unknown sequence ", id);
    Seq &s = it->second;
    if (tokens > s.tokens)
        cllm_fatal("PagedKvCache: trim target ", tokens,
                   " beyond sequence length ", s.tokens);
    const std::uint64_t keep = blocksFor(tokens);
    while (s.blocks.size() > keep) {
        unref(s.blocks.back());
        s.blocks.pop_back();
    }
    s.tokens = tokens;
}

void
PagedKvCache::release(KvSeqId id)
{
    auto it = seqs_.find(id);
    if (it == seqs_.end())
        cllm_fatal("PagedKvCache: release of unknown sequence ", id);
    for (std::uint32_t b : it->second.blocks)
        unref(b);
    seqs_.erase(it);
}

unsigned
PagedKvCache::tokens(KvSeqId id) const
{
    auto it = seqs_.find(id);
    return it == seqs_.end() ? 0 : it->second.tokens;
}

std::size_t
PagedKvCache::blocksOf(KvSeqId id) const
{
    auto it = seqs_.find(id);
    return it == seqs_.end() ? 0 : it->second.blocks.size();
}

const std::vector<std::uint32_t> &
PagedKvCache::blockTable(KvSeqId id) const
{
    auto it = seqs_.find(id);
    if (it == seqs_.end())
        cllm_fatal("PagedKvCache: blockTable of unknown sequence ",
                   id);
    return it->second.blocks;
}

std::uint32_t
PagedKvCache::refCount(std::uint32_t block) const
{
    return block < cfg_.totalBlocks ? refCounts_[block] : 0;
}

std::uint32_t
PagedKvCache::pinCount(std::uint32_t block) const
{
    return block < cfg_.totalBlocks ? extPins_[block] : 0;
}

bool
PagedKvCache::cacheOnly(std::uint32_t block) const
{
    return block < cfg_.totalBlocks && refCounts_[block] != 0 &&
           refCounts_[block] == extPins_[block];
}

double
PagedKvCache::utilization() const
{
    return 1.0 - static_cast<double>(freeList_.size()) /
                     static_cast<double>(cfg_.totalBlocks);
}

double
PagedKvCache::fragmentation() const
{
    const std::uint64_t used = usedBlocks();
    if (used == 0)
        return 0.0;
    // Each distinct allocated block provides blockTokens slots; a
    // sequence's trailing partial block wastes the slots past its
    // token count. Shared full blocks waste nothing; a COW-copied
    // trailing block is owned by exactly one table.
    const double slots =
        static_cast<double>(used) * cfg_.blockTokens;
    double stored = 0.0;
    for (const auto &[id, s] : seqs_) {
        (void)id;
        // Tokens in blocks this table shares with an earlier table
        // would double-count; count each block's storage once by
        // crediting a shared block only 1/refcount of its tokens.
        const unsigned partial = s.tokens % cfg_.blockTokens;
        for (std::size_t i = 0; i < s.blocks.size(); ++i) {
            const unsigned in_block =
                (i + 1 == s.blocks.size() && partial != 0)
                    ? partial
                    : cfg_.blockTokens;
            stored += static_cast<double>(in_block) /
                      refCounts_[s.blocks[i]];
        }
    }
    return std::max(0.0, 1.0 - stored / slots);
}

bool
PagedKvCache::canAdmit(unsigned tokens) const
{
    return blocksFor(tokens) <= freeList_.size();
}

bool
PagedKvCache::consistent() const
{
    if (usedBlocks() + freeBlocks() != cfg_.totalBlocks)
        return false;
    // Recount references from the live tables and compare.
    std::vector<std::uint32_t> refs(cfg_.totalBlocks, 0);
    for (const auto &[id, s] : seqs_) {
        (void)id;
        for (std::uint32_t b : s.blocks) {
            if (b >= cfg_.totalBlocks)
                return false;
            ++refs[b];
        }
    }
    std::vector<bool> free(cfg_.totalBlocks, false);
    for (std::uint32_t b : freeList_) {
        if (b >= cfg_.totalBlocks || free[b])
            return false; // duplicate free-list entry = double free
        free[b] = true;
    }
    std::uint64_t pinned = 0;
    for (std::uint32_t b = 0; b < cfg_.totalBlocks; ++b) {
        if (refs[b] + extPins_[b] != refCounts_[b])
            return false;
        if (free[b] == (refCounts_[b] != 0))
            return false;
        if (free[b] && extPins_[b] != 0)
            return false; // a pin must keep its block off the free list
        if (extPins_[b] != 0)
            ++pinned;
    }
    return pinned == pinned_;
}

} // namespace cllm::mem
