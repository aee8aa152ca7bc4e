/**
 * @file
 * Tests for the end-to-end RAG pipelines and their TEE pricing
 * (Section VI / Figure 14).
 */

#include <gtest/gtest.h>

#include "rag/rag_pipeline.hh"
#include "util/units.hh"

using namespace cllm;
using namespace cllm::rag;

namespace {

const BeirDataset &
dataset()
{
    static const BeirDataset ds = [] {
        BeirConfig cfg;
        cfg.numDocs = 800;
        cfg.numQueries = 30;
        cfg.seed = 77;
        return generateBeir(cfg);
    }();
    return ds;
}

const RagPipeline &
pipeline()
{
    static const RagPipeline p(dataset());
    return p;
}

} // namespace

TEST(RagPipeline, RetrievalQualityAboveChance)
{
    for (auto m : {RagMethod::Bm25, RagMethod::RerankedBm25,
                   RagMethod::Sbert}) {
        const auto r = pipeline().evaluate(m);
        EXPECT_GT(r.ndcg10, 0.3) << ragMethodName(m);
        EXPECT_GT(r.mrr, 0.3) << ragMethodName(m);
        EXPECT_EQ(r.queries, 30u);
    }
}

TEST(RagPipeline, Bm25BeatsRandomBaselineByALot)
{
    const auto r = pipeline().evaluate(RagMethod::Bm25);
    // With ~80 relevant of 800 docs, random nDCG@10 ~ 0.1.
    EXPECT_GT(r.ndcg10, 0.5);
}

TEST(RagPipeline, RetrieveReturnsKResults)
{
    const auto hits = pipeline().retrieve(
        RagMethod::Bm25, dataset().queries[0].text, 5);
    EXPECT_LE(hits.size(), 5u);
    EXPECT_FALSE(hits.empty());
}

TEST(RagPipeline, RerankedChangesHeadOrdering)
{
    // Reranking should actually do something on at least one query.
    bool changed = false;
    for (std::size_t q = 0; q < 10; ++q) {
        const auto plain = pipeline().retrieve(
            RagMethod::Bm25, dataset().queries[q].text, 10);
        const auto rr = pipeline().retrieve(
            RagMethod::RerankedBm25, dataset().queries[q].text, 10);
        if (!plain.empty() && !rr.empty() &&
            plain.front().id != rr.front().id)
            changed = true;
    }
    EXPECT_TRUE(changed);
}

TEST(RagPipeline, WorkCountersPopulated)
{
    const auto bm = pipeline().evaluate(RagMethod::Bm25);
    EXPECT_GT(bm.totalBytes, 0u);
    EXPECT_EQ(bm.pairsScored, 0u);
    EXPECT_EQ(bm.queriesEmbedded, 0u);

    const auto rr = pipeline().evaluate(RagMethod::RerankedBm25);
    EXPECT_GT(rr.pairsScored, 0u);

    const auto sb = pipeline().evaluate(RagMethod::Sbert);
    EXPECT_EQ(sb.queriesEmbedded, 30u);
}

TEST(RagPipeline, MethodNames)
{
    EXPECT_STREQ(ragMethodName(RagMethod::Bm25), "BM25");
    EXPECT_STREQ(ragMethodName(RagMethod::RerankedBm25),
                 "Reranked BM25");
    EXPECT_STREQ(ragMethodName(RagMethod::Sbert), "SBERT");
}

TEST(RagTiming, VmCheaperThanTdx)
{
    const auto cpu = hw::emr2();
    const auto vm = tee::makeVm();
    const auto tdx = tee::makeTdx();
    const auto eval = pipeline().evaluate(RagMethod::Bm25);
    const auto tv = priceRagRun(cpu, *vm, eval, 20ULL * GiB, 16);
    const auto tt = priceRagRun(cpu, *tdx, eval, 20ULL * GiB, 16);
    EXPECT_LT(tv.meanQuerySeconds, tt.meanQuerySeconds);
}

TEST(RagTiming, RerankedIsSlowest)
{
    const auto cpu = hw::emr2();
    const auto bare = tee::makeBareMetal();
    const auto idx = pipeline().store().indexBytes();
    const auto bm =
        priceRagRun(cpu, *bare, pipeline().evaluate(RagMethod::Bm25),
                    idx, 16);
    const auto rr = priceRagRun(
        cpu, *bare, pipeline().evaluate(RagMethod::RerankedBm25), idx,
        16);
    const auto sb =
        priceRagRun(cpu, *bare, pipeline().evaluate(RagMethod::Sbert),
                    idx, 16);
    EXPECT_GT(rr.meanQuerySeconds, sb.meanQuerySeconds);
    EXPECT_GT(sb.meanQuerySeconds, bm.meanQuerySeconds);
}

TEST(RagTiming, TotalsScaleWithQueries)
{
    const auto cpu = hw::emr2();
    const auto bare = tee::makeBareMetal();
    const auto eval = pipeline().evaluate(RagMethod::Bm25);
    const auto t = priceRagRun(cpu, *bare, eval, 1ULL * GiB, 16);
    EXPECT_NEAR(t.totalSeconds, t.meanQuerySeconds * eval.queries,
                1e-12);
}

TEST(RagTimingDeath, NoQueriesFatal)
{
    const auto cpu = hw::emr2();
    const auto bare = tee::makeBareMetal();
    RagEvalResult empty;
    EXPECT_DEATH(priceRagRun(cpu, *bare, empty, 1, 1), "no queries");
}
