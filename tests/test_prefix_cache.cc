/**
 * @file
 * Unit, property, and differential harness for radix-tree prefix
 * caching. Four layers:
 *
 *  1. PagedKvCache pin plumbing — external pins keep blocks allocated
 *     past release, addSequenceWithPrefix re-references shared
 *     blocks, and the extended consistent() conservation law holds.
 *  2. PrefixCache structure — insert/match round trips, the
 *     always-compute-one-token match cap, node splits on divergence,
 *     tenant scoping, LRU eviction order, live-refcount safety,
 *     budget-pressure eviction, and block-at-a-time matching checked
 *     against a token-by-token reference.
 *  3. Engine differential — the same shared-prompt trace with caching
 *     off and on must complete the identical request set with
 *     identical output tokens while the cached run computes strictly
 *     fewer prefill tokens and improves TTFT.
 *  4. Regression pins — double-run byte identity of the metrics
 *     JSON, off-mode emitting no prefix keys, a golden seeded run,
 *     and fatal-path checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "golden_util.hh"
#include "mem/kv_paged.hh"
#include "prefix_victim_ref.hh"
#include "serve/engine.hh"
#include "serve/prefix_cache.hh"
#include "serve/serving.hh"
#include "util/json.hh"

using namespace cllm;
using namespace cllm::serve;

namespace {

std::shared_ptr<const tee::TeeBackend>
shared(std::unique_ptr<tee::TeeBackend> p)
{
    return std::shared_ptr<const tee::TeeBackend>(std::move(p));
}

std::unique_ptr<StepModel>
cpuModel()
{
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return makeCpuStepModel(cpu, shared(tee::makeTdx()),
                            llm::llama2_7b(), p);
}

ServerConfig
pagedConfig(std::uint64_t blocks, PrefixMode mode)
{
    ServerConfig cfg;
    cfg.policy = BatchPolicy::Continuous;
    cfg.kvBlocks = blocks;
    cfg.kvBlockTokens = 16;
    cfg.kvMode = KvMode::Paged;
    cfg.paged.kvBytesPerToken =
        llm::llama2_7b().kvBytesPerToken(hw::Dtype::Bf16);
    cfg.prefixMode = mode;
    return cfg;
}

/** The shared-prompt trace the differential tests replay. */
std::vector<Request>
sharedPromptTrace()
{
    WorkloadConfig load;
    load.arrivalRate = 0.45;
    load.numRequests = 120;
    load.meanInLen = 512;
    load.meanOutLen = 128;
    load.seed = 99;
    std::vector<Request> trace = generateWorkload(load);
    applySharedPrefixMix(trace, SharedPrefixMix{});
    return trace;
}

/** Token IDs 0..n-1 offset by `base` — distinct bases never share a
 *  block. */
std::vector<std::int32_t>
seqTokens(std::size_t n, std::int32_t base)
{
    std::vector<std::int32_t> t(n);
    for (std::size_t i = 0; i < n; ++i)
        t[i] = base + static_cast<std::int32_t>(i);
    return t;
}

std::string
metricsJson(const ServeMetrics &m)
{
    std::ostringstream os;
    JsonWriter json(os);
    writeMetrics(json, m);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// 1. PagedKvCache pin plumbing
// ---------------------------------------------------------------------

TEST(PagedKvPins, PinsKeepBlocksAllocatedPastRelease)
{
    mem::PagedKvCache kv({8, 4});
    ASSERT_TRUE(kv.addSequence(1, 8)); // two full blocks
    std::vector<std::uint32_t> blocks = kv.blockTable(1);
    ASSERT_EQ(blocks.size(), 2u);

    kv.pin(blocks);
    EXPECT_EQ(kv.pinnedBlocks(), 2u);
    EXPECT_FALSE(kv.cacheOnly(blocks[0])); // table ref still live
    EXPECT_TRUE(kv.consistent());

    kv.release(1);
    // Pinned blocks survive the table; now cache-only.
    EXPECT_EQ(kv.usedBlocks(), 2u);
    EXPECT_TRUE(kv.cacheOnly(blocks[0]));
    EXPECT_TRUE(kv.cacheOnly(blocks[1]));
    EXPECT_TRUE(kv.consistent());

    EXPECT_EQ(kv.unpin(blocks), 2u); // frees both
    EXPECT_EQ(kv.usedBlocks(), 0u);
    EXPECT_EQ(kv.pinnedBlocks(), 0u);
    EXPECT_TRUE(kv.consistent());
}

TEST(PagedKvPins, AddSequenceWithPrefixSharesPinnedBlocks)
{
    mem::PagedKvCache kv({8, 4});
    ASSERT_TRUE(kv.addSequence(1, 10)); // 2 full + 1 partial block
    const std::vector<std::uint32_t> table = kv.blockTable(1);
    const std::vector<std::uint32_t> prefix{table[0], table[1]};
    kv.pin(prefix);
    kv.release(1);
    EXPECT_EQ(kv.usedBlocks(), 2u); // partial tail freed, pins stay

    // A new sequence over the same 8-token prefix re-references the
    // pinned blocks and allocates only its own tail.
    ASSERT_TRUE(kv.addSequenceWithPrefix(2, 10, prefix, 8));
    EXPECT_EQ(kv.usedBlocks(), 3u);
    EXPECT_EQ(kv.blockTable(2)[0], prefix[0]);
    EXPECT_EQ(kv.blockTable(2)[1], prefix[1]);
    EXPECT_EQ(kv.refCount(prefix[0]), 2u); // pin + table
    EXPECT_FALSE(kv.cacheOnly(prefix[0]));
    EXPECT_TRUE(kv.consistent());

    // The sharer grows and releases without disturbing the pins.
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(kv.appendToken(2));
    kv.release(2);
    EXPECT_EQ(kv.usedBlocks(), 2u);
    EXPECT_TRUE(kv.cacheOnly(prefix[0]));
    EXPECT_EQ(kv.unpin(prefix), 2u);
    EXPECT_EQ(kv.freeBlocks(), 8u);
    EXPECT_TRUE(kv.consistent());
}

TEST(PagedKvPins, InsufficientBlocksFailAtomicallyWithPrefix)
{
    mem::PagedKvCache kv({4, 4});
    ASSERT_TRUE(kv.addSequence(1, 8));
    const std::vector<std::uint32_t> prefix = kv.blockTable(1);
    kv.pin(prefix);
    kv.release(1);
    // Prefix covers 8 of 20 tokens: needs 3 more blocks, only 2 free.
    EXPECT_FALSE(kv.addSequenceWithPrefix(2, 20, prefix, 8));
    EXPECT_EQ(kv.usedBlocks(), 2u);
    EXPECT_EQ(kv.refCount(prefix[0]), 1u); // nothing leaked
    EXPECT_TRUE(kv.consistent());
    kv.unpin(prefix);
}

// ---------------------------------------------------------------------
// 2. PrefixCache structure
// ---------------------------------------------------------------------

TEST(PrefixCacheTree, InsertMatchRoundTrip)
{
    mem::PagedKvCache kv({32, 4});
    PrefixCache cache(PrefixMode::PerTenant, &kv);

    const auto tokens = seqTokens(16, 1000); // 4 full blocks
    ASSERT_TRUE(kv.addSequence(1, 16));
    cache.insert(0, tokens, kv.blockTable(1), 1.0);
    EXPECT_EQ(cache.pinnedBlocks(), 4u);
    EXPECT_EQ(cache.nodeCount(), 1u);
    EXPECT_TRUE(cache.consistent());

    // Match caps at (16-1)/4 = 3 blocks: one token always computes.
    const PrefixMatch m = cache.peek(0, tokens);
    EXPECT_EQ(m.tokens, 12u);
    ASSERT_EQ(m.blocks.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(m.blocks[i], kv.blockTable(1)[i]);

    // A longer prompt sharing the whole inserted span matches all of
    // it.
    const auto longer = seqTokens(24, 1000);
    EXPECT_EQ(cache.peek(0, longer).tokens, 16u);

    // A disjoint prompt matches nothing.
    EXPECT_EQ(cache.peek(0, seqTokens(16, 5000)).tokens, 0u);
}

TEST(PrefixCacheTree, SplitOnBlockBoundaryDivergence)
{
    mem::PagedKvCache kv({32, 4});
    PrefixCache cache(PrefixMode::PerTenant, &kv);

    // A and B share their first 8 tokens (2 blocks), then diverge.
    auto a = seqTokens(16, 1000);
    auto b = a;
    for (std::size_t i = 8; i < 16; ++i)
        b[i] = 7000 + static_cast<std::int32_t>(i);

    ASSERT_TRUE(kv.addSequence(1, 16));
    cache.insert(0, a, kv.blockTable(1), 1.0);

    // B admits over the shared 2-block prefix, then inserts its own
    // tail — splitting A's leaf into [shared 2 | A-tail 2] and
    // hanging B's tail off the shared node.
    const PrefixMatch m = cache.commitMatch(0, b, 2.0);
    EXPECT_EQ(m.tokens, 8u);
    ASSERT_TRUE(kv.addSequenceWithPrefix(2, 16, m.blocks, m.tokens));
    cache.insert(0, b, kv.blockTable(2), 2.0);

    EXPECT_EQ(cache.nodeCount(), 3u); // shared head + two tails
    EXPECT_EQ(cache.pinnedBlocks(), 6u);
    EXPECT_TRUE(cache.consistent());
    EXPECT_TRUE(kv.consistent());

    // Both prompts now fully match (minus the always-compute cap).
    EXPECT_EQ(cache.peek(0, a).tokens, 12u);
    EXPECT_EQ(cache.peek(0, b).tokens, 12u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PrefixCacheTree, TenantScopesIsolateAndGlobalShares)
{
    mem::PagedKvCache kv({32, 4});
    const auto tokens = seqTokens(16, 1000);

    {
        PrefixCache cache(PrefixMode::PerTenant, &kv);
        ASSERT_TRUE(kv.addSequence(1, 16));
        cache.insert(7, tokens, kv.blockTable(1), 1.0);
        EXPECT_GT(cache.peek(7, tokens).tokens, 0u);
        // Another tenant with the identical prompt must see nothing:
        // cross-tenant KV sharing would leak prompt reuse timing.
        EXPECT_EQ(cache.peek(8, tokens).tokens, 0u);
        kv.release(1);
        cache.evictToFree(64, 2.0);
    }
    EXPECT_EQ(kv.usedBlocks(), 0u);
    {
        PrefixCache cache(PrefixMode::Global, &kv);
        ASSERT_TRUE(kv.addSequence(2, 16));
        cache.insert(7, tokens, kv.blockTable(2), 1.0);
        EXPECT_GT(cache.peek(8, tokens).tokens, 0u);
    }
}

TEST(PrefixCacheTree, LruEvictionOrderAndStats)
{
    mem::PagedKvCache kv({16, 4});
    PrefixCache cache(PrefixMode::PerTenant, &kv);

    ASSERT_TRUE(kv.addSequence(1, 8));
    cache.insert(0, seqTokens(8, 1000), kv.blockTable(1), 1.0);
    ASSERT_TRUE(kv.addSequence(2, 8));
    cache.insert(0, seqTokens(8, 5000), kv.blockTable(2), 2.0);
    kv.release(1);
    kv.release(2);

    // Touch the older prompt: the *other* one becomes LRU.
    cache.commitMatch(0, seqTokens(8, 1000), 3.0);

    const std::uint64_t freed = cache.evictToFree(1, 4.0);
    EXPECT_EQ(freed, 2u); // leaf granularity: both blocks go
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().evictedBlocks, 2u);
    // The touched prompt survived.
    EXPECT_GT(cache.peek(0, seqTokens(8, 1000)).tokens, 0u);
    EXPECT_EQ(cache.peek(0, seqTokens(8, 5000)).tokens, 0u);
    EXPECT_TRUE(cache.consistent());
    EXPECT_TRUE(kv.consistent());
}

TEST(PrefixCacheTree, EvictionSkipsBlocksLiveSequencesStillRead)
{
    mem::PagedKvCache kv({16, 4});
    PrefixCache cache(PrefixMode::PerTenant, &kv);

    ASSERT_TRUE(kv.addSequence(1, 8));
    cache.insert(0, seqTokens(8, 1000), kv.blockTable(1), 1.0);

    // Sequence 1 still reads those blocks: nothing is evictable.
    EXPECT_EQ(cache.evictToFree(1, 2.0), 0u);
    EXPECT_EQ(cache.pinnedBlocks(), 2u);

    kv.release(1);
    EXPECT_EQ(cache.evictToFree(1, 3.0), 2u);
    EXPECT_EQ(kv.usedBlocks(), 0u);
    EXPECT_TRUE(cache.consistent());
}

TEST(PrefixCacheTree, BudgetPressureEvictsLruBeforeTruncating)
{
    mem::PagedKvCache kv({32, 4});
    PrefixCache cache(PrefixMode::PerTenant, &kv, /*maxBlocks=*/2);

    ASSERT_TRUE(kv.addSequence(1, 8));
    cache.insert(0, seqTokens(8, 1000), kv.blockTable(1), 1.0);
    EXPECT_EQ(cache.pinnedBlocks(), 2u);
    kv.release(1);

    // The second prompt does not fit beside the first; the cold
    // first prompt is evicted to make room.
    ASSERT_TRUE(kv.addSequence(2, 8));
    cache.insert(0, seqTokens(8, 5000), kv.blockTable(2), 2.0);
    kv.release(2);
    EXPECT_LE(cache.pinnedBlocks(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.peek(0, seqTokens(8, 1000)).tokens, 0u);
    EXPECT_GT(cache.peek(0, seqTokens(8, 5000)).tokens, 0u);
    EXPECT_TRUE(cache.consistent());
    EXPECT_TRUE(kv.consistent());
}

namespace {

/**
 * Token-by-token reference for PrefixCache lookups and inserts
 * (uncapped, no eviction): the cached prefixes as flat token paths
 * with their pool blocks, matched one token at a time and rounded
 * down to whole blocks.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(unsigned block_tokens) : bt_(block_tokens) {}

    PrefixMatch
    match(const std::vector<std::int32_t> &tokens) const
    {
        PrefixMatch m;
        if (tokens.empty())
            return m;
        // Leave one prompt token to compute.
        const auto [path, blocks] =
            longest(tokens, (tokens.size() - 1) / bt_);
        m.tokens = static_cast<unsigned>(blocks * bt_);
        if (path)
            m.blocks.assign(path->blocks.begin(),
                            path->blocks.begin() +
                                static_cast<std::ptrdiff_t>(blocks));
        return m;
    }

    void
    insert(const std::vector<std::int32_t> &tokens,
           const std::vector<std::uint32_t> &table)
    {
        const std::size_t nblocks =
            std::min(tokens.size() / bt_, table.size());
        const auto [path, shared] = longest(tokens, nblocks);
        if (shared == nblocks)
            return;
        // A cached block opening with the same token as the prompt's
        // next block but differing inside it blocks the insert: the
        // tree keys children by first token.
        const std::size_t at = shared * bt_;
        for (const Path &p : paths_)
            if (p.tokens.size() > at && p.tokens[at] == tokens[at] &&
                std::equal(tokens.begin(),
                           tokens.begin() +
                               static_cast<std::ptrdiff_t>(at),
                           p.tokens.begin()))
                return;
        Path fresh;
        fresh.tokens.assign(tokens.begin(),
                            tokens.begin() + static_cast<std::ptrdiff_t>(
                                                 nblocks * bt_));
        if (path)
            fresh.blocks.assign(path->blocks.begin(),
                                path->blocks.begin() +
                                    static_cast<std::ptrdiff_t>(shared));
        fresh.blocks.insert(fresh.blocks.end(),
                            table.begin() +
                                static_cast<std::ptrdiff_t>(shared),
                            table.begin() +
                                static_cast<std::ptrdiff_t>(nblocks));
        paths_.push_back(std::move(fresh));
    }

  private:
    struct Path
    {
        std::vector<std::int32_t> tokens; //!< whole blocks
        std::vector<std::uint32_t> blocks;
    };

    /** The path sharing the most whole leading blocks with `tokens`,
     *  at most `limit` of them, and that block count. */
    std::pair<const Path *, std::size_t>
    longest(const std::vector<std::int32_t> &tokens,
            std::size_t limit) const
    {
        const Path *best = nullptr;
        std::size_t best_blocks = 0;
        for (const Path &p : paths_) {
            std::size_t k = 0;
            while (k < p.tokens.size() && k < tokens.size() &&
                   p.tokens[k] == tokens[k])
                ++k;
            const std::size_t b = std::min(k / bt_, limit);
            if (b > best_blocks) {
                best = &p;
                best_blocks = b;
            }
        }
        return {best, best_blocks};
    }

    unsigned bt_;
    std::vector<Path> paths_;
};

} // namespace

// Block-at-a-time matching must agree with a token-by-token count on
// every prompt shape: divergence at each offset of the first, a middle
// and the last block, lengths on and one off a block boundary, and
// prompts shorter than one block.
TEST(PrefixCacheTree, BlockMatchAgreesWithTokenByTokenReference)
{
    constexpr unsigned kBt = 4;
    constexpr std::size_t kBlocks = 5;
    for (const std::size_t len :
         {std::size_t{1}, std::size_t{kBt - 1}, std::size_t{kBt},
          std::size_t{kBt + 1}, kBlocks * kBt - 1, kBlocks * kBt,
          kBlocks * kBt + 1}) {
        SCOPED_TRACE("prompt length " + std::to_string(len));
        mem::PagedKvCache kv({512, kBt});
        PrefixCache cache(PrefixMode::PerTenant, &kv);
        ReferenceCache ref(kBt);
        std::uint64_t seq = 0, hits = 0, misses = 0;

        // The base prompt, then one variant per divergence offset in
        // the first, a middle and the last (possibly partial) block.
        const std::vector<std::int32_t> base = seqTokens(len, 1000);
        std::vector<std::vector<std::int32_t>> prompts{base};
        const std::size_t last = (len - 1) / kBt;
        for (const std::size_t block : {std::size_t{0}, last / 2, last})
            for (std::size_t d = block * kBt;
                 d < std::min<std::size_t>((block + 1) * kBt, len); ++d) {
                std::vector<std::int32_t> v = base;
                v[d] = 90000 + static_cast<std::int32_t>(d);
                prompts.push_back(std::move(v));
            }
        // Prefixes and an extension of the base probe the caps.
        std::vector<std::vector<std::int32_t>> probes = prompts;
        probes.push_back(seqTokens(len + kBt, 1000));
        probes.push_back(seqTokens(len / 2, 1000));
        probes.push_back({});

        auto expectSame = [&](const PrefixMatch &got,
                              const PrefixMatch &want) {
            EXPECT_EQ(got.tokens, want.tokens);
            EXPECT_EQ(got.blocks, want.blocks);
        };
        auto checkProbes = [&] {
            for (const auto &p : probes)
                expectSame(cache.peek(0, p), ref.match(p));
        };

        double now = 1.0;
        for (const auto &p : prompts) {
            checkProbes();
            const PrefixMatch want = ref.match(p);
            expectSame(cache.commitMatch(0, p, now), want);
            ++(want.tokens > 0 ? hits : misses);
            EXPECT_TRUE(cache.consistent());

            ASSERT_TRUE(kv.addSequence(++seq, p.size()));
            const std::vector<std::uint32_t> table = kv.blockTable(seq);
            cache.insert(0, p, table, now);
            ref.insert(p, table);
            kv.release(seq);
            EXPECT_TRUE(cache.consistent());
            EXPECT_TRUE(kv.consistent());
            now += 1.0;
        }
        checkProbes();
        EXPECT_EQ(cache.stats().hits, hits);
        EXPECT_EQ(cache.stats().misses, misses);
    }
}

// Every eviction the ordered evictor makes, under pool pressure and
// under the pinned-block budget, is the one the full tree scan picks
// (tests/prefix_victim_ref.hh). Prompts come from a few shared
// families, so inserts split nodes and leaves gain and lose children;
// clocks repeat, so LRU stamps tie and the creation id decides.
TEST(PrefixEvictorOracle, RandomizedGridMatchesTreeScan)
{
    PrefixCacheTestPeer oracle;
    std::uint64_t evictions = 0;
    for (PrefixMode mode : {PrefixMode::PerTenant, PrefixMode::Global})
        for (std::uint64_t budget : {0u, 10u, 40u})
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                SCOPED_TRACE(::testing::Message()
                             << "mode " << static_cast<int>(mode)
                             << " budget " << budget << " seed " << seed);
                std::mt19937_64 rng(seed * 7919 + budget);
                const auto pick = [&rng](std::uint64_t n) {
                    return static_cast<std::uint64_t>(rng() % n);
                };
                mem::PagedKvCache kv({96, 4});
                PrefixCache cache(mode, &kv, budget);
                std::vector<std::pair<std::uint32_t,
                                      std::vector<std::int32_t>>>
                    seen;
                std::vector<mem::KvSeqId> live;
                mem::KvSeqId next = 1;
                for (int op = 0; op < 500; ++op) {
                    const double now = static_cast<double>(op / 4);
                    const std::uint64_t what = pick(10);
                    if (what < 5) {
                        // Admit: a family prefix of 0-5 blocks, then
                        // fresh tokens.
                        const auto tenant =
                            static_cast<std::uint32_t>(pick(3));
                        const auto family =
                            static_cast<std::int32_t>(pick(4));
                        std::vector<std::int32_t> tokens;
                        const std::uint64_t head = 4 * pick(6);
                        for (std::uint64_t i = 0; i < head; ++i)
                            tokens.push_back(family * 1000 +
                                             static_cast<std::int32_t>(i));
                        const std::uint64_t tail = 1 + pick(14);
                        for (std::uint64_t i = 0; i < tail; ++i)
                            tokens.push_back(
                                100000 + static_cast<std::int32_t>(pick(3)));
                        const auto len =
                            static_cast<unsigned>(tokens.size());
                        // One admission in three ignores the cache,
                        // like a request admitted before an identical
                        // one inserted: its insert then descends into
                        // nodes whose blocks it does not hold.
                        const bool use_cache = pick(3) != 0;
                        const auto admit = [&] {
                            const PrefixMatch m =
                                use_cache ? cache.peek(tenant, tokens)
                                          : PrefixMatch{};
                            return kv.addSequenceWithPrefix(
                                next, len, m.blocks, m.tokens);
                        };
                        if (!admit()) {
                            cache.evictToFree(kv.blocksFor(len), now);
                            if (!admit())
                                continue;
                        }
                        if (use_cache)
                            cache.commitMatch(tenant, tokens, now);
                        cache.insert(tenant, tokens, kv.blockTable(next),
                                     now);
                        live.push_back(next++);
                        seen.emplace_back(tenant, tokens);
                    } else if (what < 8 && !live.empty()) {
                        const std::size_t i = pick(live.size());
                        kv.release(live[i]);
                        live.erase(live.begin() +
                                   static_cast<std::ptrdiff_t>(i));
                    } else if (what < 9 && !seen.empty()) {
                        const auto &[tenant, tokens] = seen[pick(seen.size())];
                        cache.commitMatch(tenant, tokens, now);
                    } else {
                        cache.evictToFree(1 + pick(8), now);
                    }
                    ASSERT_TRUE(cache.consistent()) << "op " << op;
                    ASSERT_TRUE(kv.consistent()) << "op " << op;
                }
                evictions += cache.stats().evictions;
            }
    EXPECT_EQ(oracle.mismatches, 0u);
    EXPECT_EQ(oracle.victims, evictions);
    // Both callers, answers where the insert's own node was the LRU
    // candidate, and answers with nothing evictable were covered.
    EXPECT_GT(oracle.excluding, 0u);
    EXPECT_GT(oracle.calls, oracle.victims);
    EXPECT_GT(evictions, 500u);
}

// ---------------------------------------------------------------------
// 3. Engine differential: caching must not change what is served
// ---------------------------------------------------------------------

TEST(PrefixDifferential, IdenticalCompletionsStrictlyFewerPrefillTokens)
{
    const std::vector<Request> trace = sharedPromptTrace();

    std::vector<Request> off_out;
    const ServeMetrics off =
        Server(cpuModel(), pagedConfig(4096, PrefixMode::Off))
            .run(trace, off_out);

    std::vector<Request> on_out;
    const ServeMetrics on =
        Server(cpuModel(), pagedConfig(4096, PrefixMode::PerTenant))
            .run(trace, on_out);

    // Token-for-token identical completions: the same request set
    // finishes and every request emits the same number of tokens
    // (cached prefill skips compute, never output).
    EXPECT_EQ(on.completed, off.completed);
    EXPECT_EQ(on.outputTokens, off.outputTokens);
    EXPECT_EQ(on.shed, off.shed);
    ASSERT_EQ(on_out.size(), off_out.size());
    for (std::size_t i = 0; i < off_out.size(); ++i) {
        EXPECT_EQ(off_out[i].id, on_out[i].id);
        EXPECT_EQ(off_out[i].finish >= 0.0, on_out[i].finish >= 0.0)
            << "request " << off_out[i].id;
    }

    // ...while computing strictly less prefill under the enclave.
    EXPECT_TRUE(on.prefixEnabled);
    EXPECT_GT(on.prefixHits, 0u);
    EXPECT_GT(on.prefixCachedTokens, 0u);
    EXPECT_LT(on.prefillTokensComputed, off.prefillTokensComputed);
    EXPECT_EQ(on.prefillTokensComputed + on.prefixCachedTokens,
              off.prefillTokensComputed);
    EXPECT_LT(on.ttft.p50, off.ttft.p50);
}

TEST(PrefixDifferential, PerTenantNeverSharesAcrossTenants)
{
    // Two tenants submit the identical prompt. Per-tenant scope must
    // treat the second as a cold miss; global scope may share.
    auto makeTrace = [] {
        std::vector<Request> t;
        for (unsigned i = 0; i < 2; ++i) {
            Request r;
            r.id = i;
            r.arrival = static_cast<double>(i) * 30.0;
            r.inLen = 64;
            r.outLen = 16;
            r.tenant = i;
            r.promptTokens = seqTokens(64, 1234);
            t.push_back(r);
        }
        return t;
    };

    std::vector<Request> out;
    const ServeMetrics per_tenant =
        Server(cpuModel(), pagedConfig(1024, PrefixMode::PerTenant))
            .run(makeTrace(), out);
    EXPECT_EQ(per_tenant.prefixHits, 0u);
    EXPECT_EQ(per_tenant.prefixMisses, 2u);
    EXPECT_EQ(per_tenant.prefixCachedTokens, 0u);

    const ServeMetrics global =
        Server(cpuModel(), pagedConfig(1024, PrefixMode::Global))
            .run(makeTrace(), out);
    EXPECT_EQ(global.prefixHits, 1u);
    EXPECT_GT(global.prefixCachedTokens, 0u);
}

TEST(PrefixDifferential, ComposesWithSpeculativeDecoding)
{
    // Prefix caching trims prefill, speculation trims decode; their
    // savings must stack without disturbing each other's accounting
    // or the completion stream.
    const std::vector<Request> trace = sharedPromptTrace();

    std::vector<Request> prefix_out;
    const ServeMetrics prefix_only =
        Server(cpuModel(), pagedConfig(4096, PrefixMode::PerTenant))
            .run(trace, prefix_out);

    ServerConfig both_cfg = pagedConfig(4096, PrefixMode::PerTenant);
    both_cfg.specDecode.enabled = true;
    both_cfg.specDecode.draftTokens = 4;
    std::vector<Request> both_out;
    const ServeMetrics both =
        Server(cpuModel(), both_cfg).run(trace, both_out);

    EXPECT_EQ(both.completed, prefix_only.completed);
    EXPECT_EQ(both.outputTokens, prefix_only.outputTokens);
    ASSERT_EQ(both_out.size(), prefix_out.size());
    for (std::size_t i = 0; i < prefix_out.size(); ++i) {
        EXPECT_EQ(both_out[i].id, prefix_out[i].id);
        EXPECT_EQ(both_out[i].outLen, prefix_out[i].outLen);
    }

    // Prefill-side accounting is untouched by speculation: the same
    // prompts hit the same cached prefixes.
    EXPECT_EQ(both.prefixHits, prefix_only.prefixHits);
    EXPECT_EQ(both.prefixCachedTokens, prefix_only.prefixCachedTokens);
    EXPECT_EQ(both.prefillTokensComputed,
              prefix_only.prefillTokensComputed);

    // Decode-side accounting closes, in fewer target passes.
    EXPECT_TRUE(both.specEnabled);
    EXPECT_EQ(both.specAccepted + both.specRejected + both.specBonus,
              both.outputTokens);
    EXPECT_LT(both.decodeSteps, prefix_only.decodeSteps);
}

// ---------------------------------------------------------------------
// 4. Regression pins
// ---------------------------------------------------------------------

TEST(PrefixRegression, DoubleRunMetricsJsonByteIdentical)
{
    const std::vector<Request> trace = sharedPromptTrace();
    const ServeMetrics a =
        Server(cpuModel(), pagedConfig(2560, PrefixMode::PerTenant))
            .run(trace);
    const ServeMetrics b =
        Server(cpuModel(), pagedConfig(2560, PrefixMode::PerTenant))
            .run(trace);
    EXPECT_EQ(metricsJson(a), metricsJson(b));
}

TEST(PrefixRegression, OffModeEmitsNoPrefixKeys)
{
    const std::vector<Request> trace = sharedPromptTrace();
    const ServeMetrics off =
        Server(cpuModel(), pagedConfig(2560, PrefixMode::Off))
            .run(trace);
    const std::string json = metricsJson(off);
    EXPECT_EQ(json.find("prefix_"), std::string::npos)
        << "off-mode metrics JSON must stay byte-identical to the "
           "pre-prefix format";
    EXPECT_EQ(off.prefixHits + off.prefixMisses, 0u);
}

TEST(PrefixRegression, GoldenSeededRun)
{
    const std::vector<Request> trace = sharedPromptTrace();
    const ServeMetrics m =
        Server(cpuModel(), pagedConfig(2560, PrefixMode::PerTenant))
            .run(trace);
    std::map<std::string, double> actual;
    actual["completed"] = static_cast<double>(m.completed);
    actual["output_tokens"] = static_cast<double>(m.outputTokens);
    actual["prefix_hits"] = static_cast<double>(m.prefixHits);
    actual["prefix_misses"] = static_cast<double>(m.prefixMisses);
    actual["prefix_cached_tokens"] =
        static_cast<double>(m.prefixCachedTokens);
    actual["prefill_tokens_computed"] =
        static_cast<double>(m.prefillTokensComputed);
    actual["prefix_evictions"] =
        static_cast<double>(m.prefixEvictions);
    actual["prefix_pinned_peak_blocks"] =
        static_cast<double>(m.prefixPinnedPeak);
    actual["ttft_p50_s"] = m.ttft.p50;
    actual["ttft_p95_s"] = m.ttft.p95;
    actual["makespan_s"] = m.makespan;
    cllm::testing::checkAgainstGolden("prefix_small.json",
                                      actual);
}

TEST(PrefixDeath, PrefixRequiresPagedKv)
{
    ServerConfig cfg;
    cfg.policy = BatchPolicy::Continuous;
    cfg.kvBlocks = 1024;
    cfg.prefixMode = PrefixMode::PerTenant; // kvMode left Reserved
    EXPECT_DEATH(Server(cpuModel(), cfg), "paged");
}

TEST(PrefixDeath, PromptTokenCountMismatchIsFatal)
{
    std::vector<Request> trace;
    Request r;
    r.id = 0;
    r.arrival = 0.0;
    r.inLen = 64;
    r.outLen = 16;
    r.promptTokens = seqTokens(32, 0); // wrong: 32 != inLen
    trace.push_back(r);
    EXPECT_DEATH(
        Server(cpuModel(), pagedConfig(1024, PrefixMode::PerTenant))
            .run(trace),
        "prompt token");
}
