/**
 * @file
 * Tests for the functional transformer runtime: determinism, KV-cache
 * consistency, decoding algorithms, GQA, and the numeric modes.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "llm/runtime.hh"
#include "llm/tokenizer.hh"
#include "par/pool.hh"
#include "util/rng.hh"

using namespace cllm;
using namespace cllm::llm;

namespace {

ModelConfig
tinyConfig()
{
    ModelConfig m;
    m.name = "tiny";
    m.layers = 2;
    m.hidden = 32;
    m.heads = 4;
    m.kvHeads = 4;
    m.ffn = 64;
    m.vocab = ByteTokenizer::kVocabSize;
    return m;
}

std::vector<TokenId>
prompt()
{
    return ByteTokenizer().encode("hello world");
}

/**
 * Death tests re-execute the binary instead of forking it: the par
 * pool's workers outlive the cases that started them, and a fork()ed
 * child of a multithreaded parent can hang on a lock a worker held.
 */
class ThreadsafeDeathTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }
};

using RuntimeDeath = ThreadsafeDeathTest;
using KvCacheDeath = ThreadsafeDeathTest;
using RuntimeBatchDeath = ThreadsafeDeathTest;
using GemmTransBDeath = ThreadsafeDeathTest;

} // namespace

TEST(Runtime, ForwardIsDeterministic)
{
    const TinyLlama a(tinyConfig(), hw::Dtype::Fp32, 42);
    const TinyLlama b(tinyConfig(), hw::Dtype::Fp32, 42);
    KvCache ca = a.makeCache(), cb = b.makeCache();
    const auto la = a.forward(65, ca);
    const auto lb = b.forward(65, cb);
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t i = 0; i < la.size(); ++i)
        EXPECT_EQ(la[i], lb[i]);
}

TEST(Runtime, DifferentSeedsDifferentModels)
{
    const TinyLlama a(tinyConfig(), hw::Dtype::Fp32, 1);
    const TinyLlama b(tinyConfig(), hw::Dtype::Fp32, 2);
    KvCache ca = a.makeCache(), cb = b.makeCache();
    EXPECT_NE(a.forward(65, ca), b.forward(65, cb));
}

TEST(Runtime, CacheGrowsPerToken)
{
    const TinyLlama m(tinyConfig(), hw::Dtype::Fp32, 7);
    KvCache c = m.makeCache();
    EXPECT_EQ(c.length(), 0u);
    m.forward(1, c);
    EXPECT_EQ(c.length(), 1u);
    m.forward(2, c);
    m.forward(3, c);
    EXPECT_EQ(c.length(), 3u);
}

TEST(Runtime, ContextChangesPrediction)
{
    // Same final token, different prefix -> different logits (the
    // attention over the KV cache is real).
    const TinyLlama m(tinyConfig(), hw::Dtype::Fp32, 7);
    KvCache c1 = m.makeCache(), c2 = m.makeCache();
    m.forward(10, c1);
    m.forward(99, c2);
    const auto l1 = m.forward(50, c1);
    const auto l2 = m.forward(50, c2);
    EXPECT_NE(l1, l2);
}

TEST(Runtime, GreedyIsDeterministic)
{
    const TinyLlama m(tinyConfig(), hw::Dtype::Fp32, 9);
    const auto g1 = m.generateGreedy(prompt(), 16);
    const auto g2 = m.generateGreedy(prompt(), 16);
    EXPECT_EQ(g1, g2);
    EXPECT_LE(g1.size(), 16u);
    EXPECT_GE(g1.size(), 1u);
}

TEST(Runtime, GreedyTokensInVocab)
{
    const TinyLlama m(tinyConfig(), hw::Dtype::Fp32, 11);
    for (TokenId t : m.generateGreedy(prompt(), 12))
        EXPECT_LT(t, tinyConfig().vocab);
}

TEST(Runtime, GqaConfigRuns)
{
    ModelConfig cfg = tinyConfig();
    cfg.kvHeads = 2; // grouped-query attention
    const TinyLlama m(cfg, hw::Dtype::Fp32, 29);
    const auto out = m.generateGreedy(prompt(), 8);
    EXPECT_GE(out.size(), 1u);
}

TEST(Runtime, MqaConfigRuns)
{
    ModelConfig cfg = tinyConfig();
    cfg.kvHeads = 1;
    const TinyLlama m(cfg, hw::Dtype::Fp32, 31);
    EXPECT_GE(m.generateGreedy(prompt(), 4).size(), 1u);
}

TEST(Runtime, Bf16CloseToFp32)
{
    const TinyLlama f(tinyConfig(), hw::Dtype::Fp32, 37);
    const TinyLlama b(tinyConfig(), hw::Dtype::Bf16, 37);
    KvCache cf = f.makeCache(), cb = b.makeCache();
    const auto lf = f.forward(65, cf);
    const auto lb = b.forward(65, cb);
    double max_rel = 0.0;
    for (std::size_t i = 0; i < lf.size(); ++i) {
        max_rel = std::max(
            max_rel, std::abs(lf[i] - lb[i]) /
                         (std::abs(lf[i]) + 1.0));
    }
    EXPECT_LT(max_rel, 0.15);
}

TEST(Runtime, Int8ProducesReasonableLogits)
{
    const TinyLlama f(tinyConfig(), hw::Dtype::Fp32, 41);
    const TinyLlama q(tinyConfig(), hw::Dtype::Int8, 41);
    KvCache cf = f.makeCache(), cq = q.makeCache();
    const auto lf = f.forward(65, cf);
    const auto lq = q.forward(65, cq);
    // Quantization noise compounds across layers; require correlation
    // rather than closeness: the top-8 fp32 tokens should overlap the
    // top-8 int8 tokens.
    auto topk = [](const std::vector<float> &l) {
        std::vector<std::size_t> idx(l.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::partial_sort(idx.begin(), idx.begin() + 8, idx.end(),
                          [&](std::size_t a, std::size_t b) {
                              return l[a] > l[b];
                          });
        idx.resize(8);
        return idx;
    };
    const auto tf = topk(lf), tq = topk(lq);
    int overlap = 0;
    for (auto a : tf)
        for (auto b : tq)
            overlap += a == b;
    EXPECT_GE(overlap, 3);
}

TEST(Runtime, LogitsCoverVocab)
{
    const TinyLlama m(tinyConfig(), hw::Dtype::Fp32, 43);
    KvCache c = m.makeCache();
    EXPECT_EQ(m.forward(0, c).size(), tinyConfig().vocab);
}

TEST_F(RuntimeDeath, TokenOutOfVocabFatal)
{
    const TinyLlama m(tinyConfig(), hw::Dtype::Fp32, 47);
    KvCache c = m.makeCache();
    EXPECT_DEATH(m.forward(100000, c), "vocab");
}

TEST_F(RuntimeDeath, EmptyPromptFatal)
{
    const TinyLlama m(tinyConfig(), hw::Dtype::Fp32, 53);
    EXPECT_DEATH(m.generateGreedy({}, 4), "empty prompt");
}

TEST_F(RuntimeDeath, MisalignedHeadsFatal)
{
    ModelConfig bad = tinyConfig();
    bad.kvHeads = 3; // 4 heads not divisible by 3
    EXPECT_DEATH(TinyLlama(bad, hw::Dtype::Fp32, 1), "multiple");
}

TEST(Tokenizer, RoundtripsText)
{
    ByteTokenizer tok;
    const std::string text = "Confidential LLMs in TEEs!";
    EXPECT_EQ(tok.decode(tok.encode(text)), text);
}

TEST(Tokenizer, BosPrepended)
{
    ByteTokenizer tok;
    const auto ids = tok.encode("a");
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], ByteTokenizer::kBos);
    EXPECT_EQ(ids[1], static_cast<TokenId>('a'));
    EXPECT_EQ(tok.encode("a", false).size(), 1u);
}

TEST(Tokenizer, SpecialsSkippedInDecode)
{
    ByteTokenizer tok;
    EXPECT_EQ(tok.decode({ByteTokenizer::kBos, 'h', 'i',
                          ByteTokenizer::kEos}),
              "hi");
}

TEST_F(KvCacheDeath, WrongLayerPanics)
{
    KvCache c(2, 16);
    std::vector<float> k(16), v(16);
    EXPECT_DEATH(c.append(5, k, v), "layer");
}

TEST_F(KvCacheDeath, WrongWidthPanics)
{
    KvCache c(2, 16);
    std::vector<float> k(8), v(16);
    EXPECT_DEATH(c.append(0, k, v), "width");
}

TEST(RuntimeBatch, MatchesSequentialForwardExactly)
{
    // The batched GEMM path accumulates in the same per-row order as
    // matvec, so fp32 results are bit-identical.
    const TinyLlama m(tinyConfig(), hw::Dtype::Fp32, 71);
    const std::vector<TokenId> toks = {10, 200, 57};

    std::vector<KvCache> seq_caches(3, m.makeCache());
    std::vector<std::vector<float>> expect;
    for (int i = 0; i < 3; ++i)
        expect.push_back(m.forward(toks[i], seq_caches[i]));

    std::vector<KvCache> bat_caches(3, m.makeCache());
    std::vector<KvCache *> ptrs = {&bat_caches[0], &bat_caches[1],
                                   &bat_caches[2]};
    const auto got = m.forwardBatch(toks, ptrs);
    ASSERT_EQ(got.size(), 3u);
    for (int b = 0; b < 3; ++b)
        EXPECT_EQ(got[b], expect[b]) << "sequence " << b;
}

TEST(RuntimeBatch, WorksAcrossModes)
{
    for (hw::Dtype mode :
         {hw::Dtype::Fp32, hw::Dtype::Bf16, hw::Dtype::Int8}) {
        const TinyLlama m(tinyConfig(), mode, 73);
        const std::vector<TokenId> toks = {1, 2};
        std::vector<KvCache> caches(2, m.makeCache());
        std::vector<KvCache *> ptrs = {&caches[0], &caches[1]};
        const auto got = m.forwardBatch(toks, ptrs);
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got[0].size(), tinyConfig().vocab);
        EXPECT_EQ(caches[0].length(), 1u);
        EXPECT_EQ(caches[1].length(), 1u);
    }
}

TEST(RuntimeBatch, MixedPositionsSupported)
{
    // Sequences at different cache depths decode together, as in
    // continuous batching.
    const TinyLlama m(tinyConfig(), hw::Dtype::Fp32, 79);
    KvCache deep = m.makeCache(), shallow = m.makeCache();
    m.forward(5, deep);
    m.forward(6, deep); // depth 2
    std::vector<KvCache *> ptrs = {&deep, &shallow};
    const auto got = m.forwardBatch({7, 8}, ptrs);
    EXPECT_EQ(deep.length(), 3u);
    EXPECT_EQ(shallow.length(), 1u);

    // The deep sequence's result must equal a sequential forward with
    // the same history.
    KvCache replay = m.makeCache();
    m.forward(5, replay);
    m.forward(6, replay);
    EXPECT_EQ(got[0], m.forward(7, replay));
}

TEST_F(RuntimeBatchDeath, MismatchedSizesFatal)
{
    const TinyLlama m(tinyConfig(), hw::Dtype::Fp32, 83);
    KvCache c = m.makeCache();
    std::vector<KvCache *> ptrs = {&c};
    EXPECT_DEATH(m.forwardBatch({1, 2}, ptrs), "mismatch");
}

TEST(GemmTransB, MatchesMatvecPerRow)
{
    // gemmTransB(A, W) row i must equal matvec(W, A.row(i)).
    Tensor a(3, 16), w(8, 16);
    Rng rng(91);
    for (std::size_t i = 0; i < a.size(); ++i)
        a.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    for (std::size_t i = 0; i < w.size(); ++i)
        w.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    Tensor c(3, 8);
    gemmTransB(a, w, c);
    for (std::size_t r = 0; r < 3; ++r) {
        std::vector<float> y(8);
        matvec(w, a.row(r), y.data());
        for (std::size_t j = 0; j < 8; ++j)
            EXPECT_EQ(c.at(r, j), y[j]);
    }
}

TEST_F(GemmTransBDeath, ShapeMismatchPanics)
{
    Tensor a(2, 4), b(3, 5), c(2, 3);
    EXPECT_DEATH(gemmTransB(a, b, c), "shape mismatch");
}

// ------------------------------------------------- thread determinism

namespace {

/** Widths that are not multiples of the dot kernel's 16 lanes, so
 *  every projection and attention score has a tail: head_dim 18,
 *  hidden 72, ffn 136, grouped-query attention. */
ModelConfig
raggedConfig()
{
    ModelConfig m = tinyConfig();
    m.hidden = 72;
    m.heads = 4;
    m.kvHeads = 2;
    m.ffn = 136;
    return m;
}

constexpr hw::Dtype kModes[] = {hw::Dtype::Fp32, hw::Dtype::Bf16,
                                hw::Dtype::Int8};

/** Run `fn` under 1, 2, 4 and 8 threads and require bit-identical
 *  logits. */
template <typename Fn>
void
expectBitIdenticalAcrossThreads(Fn &&fn)
{
    par::setThreadCount(1);
    const std::vector<std::vector<float>> serial = fn();
    for (unsigned threads : {2u, 4u, 8u}) {
        par::setThreadCount(threads);
        EXPECT_EQ(fn(), serial) << threads << " threads";
    }
    par::setThreadCount(0);
}

} // namespace

TEST(RuntimeThreadDeterminism, ForwardBitIdentical)
{
    for (hw::Dtype mode : kModes) {
        SCOPED_TRACE(hw::kDtypeNames.name(mode));
        const TinyLlama m(raggedConfig(), mode, 97);
        expectBitIdenticalAcrossThreads([&] {
            KvCache c = m.makeCache();
            std::vector<std::vector<float>> logits;
            for (TokenId t : prompt())
                logits.push_back(m.forward(t, c));
            return logits;
        });
    }
}

TEST(RuntimeThreadDeterminism, ForwardBatchBitIdentical)
{
    // Three sequences at depths 0, 1 and 2 decode four batched steps;
    // at every thread count each row also equals a sequential
    // forward() over the same history.
    for (hw::Dtype mode : kModes) {
        SCOPED_TRACE(hw::kDtypeNames.name(mode));
        const TinyLlama m(raggedConfig(), mode, 101);
        expectBitIdenticalAcrossThreads([&] {
            std::vector<KvCache> bat(3, m.makeCache());
            std::vector<KvCache> seq(3, m.makeCache());
            for (std::size_t b = 0; b < 3; ++b) {
                for (std::size_t p = 0; p < b; ++p) {
                    const TokenId t = static_cast<TokenId>(20 + b + p);
                    m.forward(t, bat[b]);
                    m.forward(t, seq[b]);
                }
            }
            std::vector<KvCache *> ptrs = {&bat[0], &bat[1], &bat[2]};
            std::vector<std::vector<float>> logits;
            for (TokenId step = 0; step < 4; ++step) {
                const std::vector<TokenId> toks = {
                    static_cast<TokenId>(65 + step),
                    static_cast<TokenId>(150 + step),
                    static_cast<TokenId>(7 * step)};
                const auto got = m.forwardBatch(toks, ptrs);
                for (std::size_t b = 0; b < 3; ++b) {
                    EXPECT_EQ(got[b], m.forward(toks[b], seq[b]))
                        << "sequence " << b << " step " << step;
                    logits.push_back(got[b]);
                }
            }
            return logits;
        });
    }
}
