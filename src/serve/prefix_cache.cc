#include "serve/prefix_cache.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace cllm::serve {

namespace {

/**
 * Leading whole blocks, at most `limit`, on which a node's token span
 * equals `tokens` from `pos` on. The caller keeps `limit` within both
 * the span and the prompt. A block matches whole or not at all, and
 * both callers only ever use whole blocks, so comparing a block at a
 * time gives what a token-by-token count divided by `block_tokens`
 * gives.
 */
std::uint64_t
matchingBlocks(const std::vector<std::int32_t> &span,
               const std::vector<std::int32_t> &tokens, std::size_t pos,
               std::uint64_t limit, unsigned block_tokens)
{
    const std::size_t bytes = block_tokens * sizeof(std::int32_t);
    const std::int32_t *a = span.data();
    const std::int32_t *b = tokens.data() + pos;
    std::uint64_t n = 0;
    while (n < limit && std::memcmp(a, b, bytes) == 0) {
        ++n;
        a += block_tokens;
        b += block_tokens;
    }
    return n;
}

} // namespace

PrefixCache::PrefixCache(PrefixMode mode, mem::PagedKvCache *pool,
                         std::uint64_t maxBlocks)
    : mode_(mode), pool_(pool), maxBlocks_(maxBlocks)
{
    if (mode_ == PrefixMode::Off)
        cllm_fatal("PrefixCache constructed with prefix mode off");
    if (!pool_)
        cllm_fatal("PrefixCache requires a paged pool");
    blockTokens_ = pool_->config().blockTokens;
}

PrefixCache::Node *
PrefixCache::rootFor(std::uint32_t tenant)
{
    const std::uint64_t key =
        mode_ == PrefixMode::Global ? 0 : tenant;
    auto it = roots_.find(key);
    if (it == roots_.end()) {
        auto root = std::make_unique<Node>();
        root->id = nextId_++;
        it = roots_.emplace(key, std::move(root)).first;
    }
    return it->second.get();
}

PrefixMatch
PrefixCache::matchImpl(Node *root,
                       const std::vector<std::int32_t> &tokens,
                       double now, bool touch)
{
    PrefixMatch m;
    if (tokens.empty())
        return m;
    // Always leave at least one prompt token to compute: a request
    // whose whole prompt is cached would otherwise have nothing to
    // prefill, and the engine's first-token accounting assumes the
    // prefill step exists.
    const std::uint64_t max_blocks =
        (tokens.size() - 1) / blockTokens_;
    Node *cur = root;
    std::size_t pos = 0;
    while (m.blocks.size() < max_blocks) {
        auto it = cur->children.find(tokens[pos]);
        if (it == cur->children.end())
            break;
        Node *child = it->second.get();
        // Count whole matching blocks inside the child's span, within
        // the prompt and the leave-one-token cap.
        const std::uint64_t mb = matchingBlocks(
            child->tokens, tokens, pos,
            std::min<std::uint64_t>(
                {child->blocks.size(),
                 (tokens.size() - pos) / blockTokens_,
                 max_blocks - m.blocks.size()}),
            blockTokens_);
        if (mb == 0)
            break;
        m.blocks.insert(m.blocks.end(), child->blocks.begin(),
                        child->blocks.begin() +
                            static_cast<std::ptrdiff_t>(mb));
        if (touch)
            stamp(child, now);
        pos += static_cast<std::size_t>(mb) * blockTokens_;
        if (mb < child->blocks.size())
            break; // diverged inside this node
        cur = child;
    }
    m.tokens = static_cast<unsigned>(pos);
    return m;
}

PrefixMatch
PrefixCache::peek(std::uint32_t tenant,
                  const std::vector<std::int32_t> &tokens)
{
    return matchImpl(rootFor(tenant), tokens, 0.0, false);
}

PrefixMatch
PrefixCache::commitMatch(std::uint32_t tenant,
                         const std::vector<std::int32_t> &tokens,
                         double now)
{
    PrefixMatch m = matchImpl(rootFor(tenant), tokens, now, true);
    if (m.tokens > 0) {
        ++stats_.hits;
        stats_.hitTokens += m.tokens;
    } else {
        ++stats_.misses;
    }
    return m;
}

void
PrefixCache::insert(std::uint32_t tenant,
                    const std::vector<std::int32_t> &tokens,
                    const std::vector<std::uint32_t> &table,
                    double now)
{
    // Only whole blocks are cacheable; the trailing partial block is
    // mutable (decode appends into it) and is never pinned.
    const std::uint64_t nblocks = std::min<std::uint64_t>(
        tokens.size() / blockTokens_, table.size());
    if (nblocks == 0)
        return;
    Node *cur = rootFor(tenant);
    std::uint64_t pos = 0; // blocks consumed so far
    while (pos < nblocks) {
        auto it = cur->children.find(
            tokens[static_cast<std::size_t>(pos) * blockTokens_]);
        if (it == cur->children.end()) {
            // Append a fresh leaf holding the remaining blocks.
            // Budget pressure first LRU-evicts cold leaves (the node
            // we are appending under is protected — we are inserting
            // into its subtree, so it is hot by definition); whatever
            // room remains truncates the take.
            std::uint64_t take = nblocks - pos;
            if (maxBlocks_ != 0) {
                while (pinnedBlocks_ + take > maxBlocks_) {
                    Node *victim = lruVictim(cur);
                    if (!victim)
                        break;
                    evictLeaf(victim);
                }
                if (pinnedBlocks_ >= maxBlocks_)
                    return;
                take = std::min(take, maxBlocks_ - pinnedBlocks_);
            }
            auto leaf = std::make_unique<Node>();
            leaf->parent = cur;
            leaf->lastUsed = now;
            leaf->id = nextId_++;
            const std::size_t t0 =
                static_cast<std::size_t>(pos) * blockTokens_;
            leaf->tokens.assign(
                tokens.begin() + static_cast<std::ptrdiff_t>(t0),
                tokens.begin() +
                    static_cast<std::ptrdiff_t>(t0 + take *
                                                         blockTokens_));
            leaf->blocks.assign(
                table.begin() + static_cast<std::ptrdiff_t>(pos),
                table.begin() +
                    static_cast<std::ptrdiff_t>(pos + take));
            pool_->pin(leaf->blocks);
            pinnedBlocks_ += take;
            stats_.insertedBlocks += take;
            ++nodes_;
            if (isLeaf(cur))
                leaves_.erase(cur);
            leaves_.insert(leaf.get());
            cur->children.emplace(leaf->tokens.front(),
                                  std::move(leaf));
            return;
        }
        Node *child = it->second.get();
        const std::uint64_t mb = matchingBlocks(
            child->tokens, tokens,
            static_cast<std::size_t>(pos) * blockTokens_,
            std::min<std::uint64_t>(child->blocks.size(),
                                    nblocks - pos),
            blockTokens_);
        if (mb == child->blocks.size()) {
            // Full node match: descend.
            stamp(child, now);
            cur = child;
            pos += mb;
            continue;
        }
        if (mb == 0) {
            // Divergence inside the node's first block. Splitting at
            // sub-block granularity would share a partial block,
            // which block-granular KV cannot express — leave the
            // remainder uncached. (Same first token, different block:
            // rare under realistic tokenizations.)
            return;
        }
        // Partial node match: split so the shared head becomes an
        // interior node the new suffix can hang off next time.
        auto mid = std::make_unique<Node>();
        mid->parent = cur;
        mid->lastUsed = child->lastUsed;
        mid->id = nextId_++;
        mid->tokens.assign(child->tokens.begin(),
                           child->tokens.begin() +
                               static_cast<std::ptrdiff_t>(
                                   mb * blockTokens_));
        mid->blocks.assign(child->blocks.begin(),
                           child->blocks.begin() +
                               static_cast<std::ptrdiff_t>(mb));
        // Re-home the child under mid with its head trimmed; pins
        // move with the blocks, so no pool traffic here. Its stamp,
        // id and leafhood do not change, nor does the LRU order; mid
        // is interior, so it never enters it.
        std::unique_ptr<Node> owned = std::move(it->second);
        cur->children.erase(it);
        owned->tokens.erase(owned->tokens.begin(),
                            owned->tokens.begin() +
                                static_cast<std::ptrdiff_t>(
                                    mb * blockTokens_));
        owned->blocks.erase(owned->blocks.begin(),
                            owned->blocks.begin() +
                                static_cast<std::ptrdiff_t>(mb));
        owned->parent = mid.get();
        mid->children.emplace(owned->tokens.front(),
                              std::move(owned));
        ++nodes_;
        Node *mid_raw = mid.get();
        cur->children.emplace(mid_raw->tokens.front(),
                              std::move(mid));
        mid_raw->lastUsed = now;
        cur = mid_raw;
        pos += mb;
    }
}

void
PrefixCache::stamp(Node *n, double now)
{
    if (!isLeaf(n)) {
        n->lastUsed = now;
        return;
    }
    auto leaf = leaves_.extract(n);
    n->lastUsed = now;
    leaves_.insert(std::move(leaf));
}

void
PrefixCache::evictLeaf(Node *leaf)
{
    stats_.evictedBlocks += leaf->blocks.size();
    ++stats_.evictions;
    pinnedBlocks_ -= leaf->blocks.size();
    pool_->unpin(leaf->blocks);
    --nodes_;
    leaves_.erase(leaf);
    Node *parent = leaf->parent;
    parent->children.erase(leaf->tokens.front());
    if (isLeaf(parent))
        leaves_.insert(parent);
}

PrefixCache::Node *
PrefixCache::lruVictim(const Node *exclude)
{
    // The first leaf in LRU order, other than `exclude`, that no
    // running sequence still reads.
    Node *victim = nullptr;
    for (Node *n : leaves_) {
        if (n != exclude &&
            std::all_of(n->blocks.begin(), n->blocks.end(),
                        [this](std::uint32_t b) {
                            return pool_->cacheOnly(b);
                        })) {
            victim = n;
            break;
        }
    }
    if (victimProbe_)
        victimProbe_(*this, victim, exclude);
    return victim;
}

std::uint64_t
PrefixCache::evictToFree(std::uint64_t want, double now)
{
    (void)now;
    std::uint64_t freed = 0;
    while (freed < want) {
        Node *victim = lruVictim(nullptr);
        if (!victim)
            break;
        const std::uint64_t before = pool_->freeBlocks();
        evictLeaf(victim);
        freed += pool_->freeBlocks() - before;
    }
    return freed;
}

bool
PrefixCache::consistent() const
{
    std::uint64_t blocks = 0;
    std::size_t nodes = 0, leaves = 0;
    for (const auto &[key, root] : roots_) {
        (void)key;
        std::vector<const Node *> stack{root.get()};
        while (!stack.empty()) {
            const Node *n = stack.back();
            stack.pop_back();
            for (const auto &[tok, child] : n->children) {
                if (child->tokens.empty() ||
                    child->tokens.front() != tok)
                    return false;
                if (child->parent != n)
                    return false;
                stack.push_back(child.get());
            }
            if (n->parent == nullptr) {
                if (!n->tokens.empty() || !n->blocks.empty())
                    return false;
                continue;
            }
            ++nodes;
            if (isLeaf(n)) {
                if (!leaves_.contains(n))
                    return false;
                ++leaves;
            }
            if (n->tokens.size() !=
                n->blocks.size() * blockTokens_)
                return false;
            if (n->blocks.empty())
                return false;
            for (std::uint32_t b : n->blocks)
                if (pool_->pinCount(b) == 0)
                    return false;
            blocks += n->blocks.size();
        }
    }
    if (nodes != nodes_ || leaves != leaves_.size())
        return false;
    if (maxBlocks_ != 0 && blocks > maxBlocks_)
        return false;
    return blocks == pinnedBlocks_;
}

} // namespace cllm::serve
