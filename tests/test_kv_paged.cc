/**
 * @file
 * Differential and property harness for the paged KV cache and the
 * continuous-batching scheduler built on it. Three layers:
 *
 *  1. PagedKvCache unit properties — fragmentation accounting, block
 *     sharing and copy-on-write, lifetime stats, block conservation.
 *  2. Differential tests — the paged engine replayed against the
 *     reserved engine on the same seeded trace: with an ample pool
 *     the per-request timelines must match token for token; with a
 *     tight pool both must complete the same request set while paged
 *     runs a strictly denser batch.
 *  3. Scheduler invariants — preemption never re-emits a token
 *     (occupancySum == outputTokens), swap accounting balances
 *     (swap-ins == swap-outs), never-fitting requests shed
 *     identically in both modes, and a seeded small-pool timeline is
 *     pinned against a golden file.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "golden_util.hh"
#include "kv_share.hh"
#include "mem/kv_paged.hh"
#include "serve/engine.hh"
#include "serve/serving.hh"
#include "util/json.hh"

using namespace cllm;
using namespace cllm::serve;

namespace {

Request
request(unsigned id, double arrival, unsigned in_len, unsigned out_len)
{
    Request r;
    r.id = id;
    r.arrival = arrival;
    r.inLen = in_len;
    r.outLen = out_len;
    return r;
}

std::shared_ptr<const tee::TeeBackend>
shared(std::unique_ptr<tee::TeeBackend> p)
{
    return std::shared_ptr<const tee::TeeBackend>(std::move(p));
}

std::unique_ptr<StepModel>
cpuModel(std::unique_ptr<tee::TeeBackend> be)
{
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return makeCpuStepModel(cpu, shared(std::move(be)),
                            llm::llama2_7b(), p);
}

/** Short prompts, long answers: the regime where reserved admission
 *  pins far more blocks than the running batch actually holds. */
WorkloadConfig
generationHeavyLoad()
{
    WorkloadConfig w;
    w.arrivalRate = 0.6;
    w.numRequests = 120;
    w.meanInLen = 128;
    w.meanOutLen = 384;
    w.seed = 33;
    return w;
}

ServerConfig
pagedConfig(std::uint64_t blocks,
            KvPreemptPolicy preempt = KvPreemptPolicy::Recompute)
{
    ServerConfig cfg;
    cfg.policy = BatchPolicy::Continuous;
    cfg.kvBlocks = blocks;
    cfg.kvBlockTokens = 16;
    cfg.kvMode = KvMode::Paged;
    cfg.paged.preempt = preempt;
    cfg.paged.kvBytesPerToken =
        llm::llama2_7b().kvBytesPerToken(hw::Dtype::Bf16);
    return cfg;
}

ServerConfig
reservedConfig(std::uint64_t blocks)
{
    ServerConfig cfg;
    cfg.policy = BatchPolicy::Continuous;
    cfg.kvBlocks = blocks;
    cfg.kvBlockTokens = 16;
    return cfg;
}

/** A same-instant burst that outgrows the pool: 8 sequences of 64+192
 *  tokens want 128 blocks at full length against a 96-block pool, so
 *  the paged engine must preempt to drain it. */
std::vector<Request>
burstTrace()
{
    std::vector<Request> trace;
    for (unsigned i = 0; i < 8; ++i) {
        Request r;
        r.id = i;
        r.arrival = 0.0;
        r.inLen = 64;
        r.outLen = 192;
        trace.push_back(r);
    }
    return trace;
}

/** Drive a ContinuousEngine over `trace` to quiescence. */
void
drain(ContinuousEngine &eng, std::vector<Request> &trace)
{
    for (auto &r : trace)
        eng.submit(&r, r.arrival);
    while (!eng.idle())
        eng.iterate();
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
// 1. PagedKvCache unit properties
// ---------------------------------------------------------------------

TEST(PagedKv, FragmentationCountsPartialTails)
{
    mem::PagedKvCache kv({8, 4});
    ASSERT_TRUE(kv.addSequence(1, 6)); // 2 blocks, 8 slots, 6 tokens
    EXPECT_NEAR(kv.fragmentation(), 0.25, 1e-12);
    ASSERT_TRUE(kv.appendToken(1));    // 7/8 slots
    EXPECT_NEAR(kv.fragmentation(), 0.125, 1e-12);
    ASSERT_TRUE(kv.appendToken(1));    // block-aligned: no waste
    EXPECT_NEAR(kv.fragmentation(), 0.0, 1e-12);
    EXPECT_TRUE(kv.consistent());
}

TEST(PagedKv, ForkSharesFullBlocksAndCopiesTheTail)
{
    mem::PagedKvCache kv({16, 4});
    ASSERT_TRUE(kv.addSequence(1, 6)); // one full + one partial block
    const std::uint64_t before = kv.usedBlocks();
    ASSERT_TRUE(cllm::testing::shareFullBlocks(kv, 1, 2));
    // The full block is shared; only the partial tail is new.
    const std::uint32_t shared = kv.blockTable(1)[0];
    EXPECT_EQ(kv.blockTable(2)[0], shared);
    EXPECT_EQ(kv.refCount(shared), 2u);
    EXPECT_EQ(kv.usedBlocks(), before + 1);
    EXPECT_EQ(kv.tokens(2), 6u);
    EXPECT_EQ(kv.blocksOf(1), 2u);
    EXPECT_EQ(kv.blocksOf(2), 2u);
    EXPECT_TRUE(kv.consistent());

    // The sequences diverge independently after the share.
    ASSERT_TRUE(kv.appendToken(1));
    ASSERT_TRUE(kv.appendToken(2));
    EXPECT_EQ(kv.tokens(1), 7u);
    EXPECT_EQ(kv.tokens(2), 7u);
    EXPECT_EQ(kv.stats().cowCopies, 0u);
    EXPECT_TRUE(kv.consistent());

    // Trimming back into the shared block and appending writes into
    // a block the parent still reads: copy-on-write.
    kv.trimTokens(2, 3);
    EXPECT_EQ(kv.blockTable(2), std::vector<std::uint32_t>{shared});
    ASSERT_TRUE(kv.appendToken(2));
    EXPECT_EQ(kv.stats().cowCopies, 1u);
    EXPECT_NE(kv.blockTable(2)[0], shared);
    EXPECT_EQ(kv.refCount(shared), 1u);
    EXPECT_EQ(kv.tokens(2), 4u);
    EXPECT_TRUE(kv.consistent());

    // Releasing the parent must not strand the shared block.
    kv.release(1);
    EXPECT_TRUE(kv.consistent());
    kv.release(2);
    EXPECT_EQ(kv.usedBlocks(), 0u);
    EXPECT_EQ(kv.freeBlocks(), 16u);
}

TEST(PagedKv, StatsStayMonotonicAndPoolDrainsClean)
{
    mem::PagedKvCache kv({8, 4});
    ASSERT_TRUE(kv.addSequence(1, 8));
    ASSERT_TRUE(kv.addSequence(2, 8));
    EXPECT_EQ(kv.stats().peakUsedBlocks, 4u);
    kv.release(1);
    ASSERT_TRUE(kv.addSequence(3, 12));
    EXPECT_EQ(kv.stats().peakUsedBlocks, 5u);
    kv.release(2);
    kv.release(3);
    EXPECT_EQ(kv.usedBlocks(), 0u);
    EXPECT_EQ(kv.sequences(), 0u);
    EXPECT_EQ(kv.stats().blockAllocs, kv.stats().blockFrees);
    EXPECT_TRUE(kv.consistent());
}

TEST(PagedKv, ExhaustionLeavesEveryTableIntact)
{
    mem::PagedKvCache kv({4, 4});
    ASSERT_TRUE(kv.addSequence(1, 12)); // 3 of 4 blocks
    EXPECT_FALSE(kv.addSequence(2, 8)); // needs 2, only 1 free
    EXPECT_EQ(kv.sequences(), 1u);
    EXPECT_EQ(kv.freeBlocks(), 1u);
    EXPECT_EQ(kv.tokens(1), 12u);
    EXPECT_TRUE(kv.consistent());
    // The failed admission allocated nothing, so the last block is
    // still there for the survivor to grow into.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(kv.appendToken(1));
    EXPECT_FALSE(kv.appendToken(1)); // 17th token needs a 5th block
    EXPECT_EQ(kv.tokens(1), 16u);
    EXPECT_TRUE(kv.consistent());
}

// ---------------------------------------------------------------------
// 2. Differential: paged vs reserved on the same trace
// ---------------------------------------------------------------------

// With a pool large enough that neither discipline ever waits on
// blocks, admission decisions collapse to the same sequence and the
// two engines must produce token-for-token identical timelines.
TEST(KvDifferential, AmplePoolTimelinesMatchExactly)
{
    const auto trace = generateWorkload(generationHeavyLoad());

    std::vector<Request> reserved_out;
    const ServeMetrics rm =
        Server(cpuModel(tee::makeTdx()), reservedConfig(65536))
            .run(trace, reserved_out);

    std::vector<Request> paged_out;
    const ServeMetrics pm =
        Server(cpuModel(tee::makeTdx()), pagedConfig(65536))
            .run(trace, paged_out);

    EXPECT_EQ(rm.completed, pm.completed);
    EXPECT_EQ(rm.outputTokens, pm.outputTokens);
    EXPECT_EQ(rm.makespan, pm.makespan);
    EXPECT_EQ(pm.kvPreemptions, 0u);
    ASSERT_EQ(reserved_out.size(), paged_out.size());
    for (std::size_t i = 0; i < reserved_out.size(); ++i) {
        EXPECT_EQ(reserved_out[i].firstToken, paged_out[i].firstToken)
            << "request " << reserved_out[i].id;
        EXPECT_EQ(reserved_out[i].finish, paged_out[i].finish)
            << "request " << reserved_out[i].id;
    }
}

// At a pool size where reserved admission is the bottleneck, both
// disciplines must still complete the identical request set, but
// paged packs a strictly larger batch and drains the trace sooner.
TEST(KvDifferential, TightPoolPagedRunsDenserAndFinishesSooner)
{
    const auto trace = generateWorkload(generationHeavyLoad());

    ServerConfig rcfg = reservedConfig(1024);
    std::vector<Request> reserved_out;
    const ServeMetrics rm = Server(cpuModel(tee::makeTdx()), rcfg)
                                .run(trace, reserved_out);

    ServerConfig pcfg = pagedConfig(1024);
    pcfg.paged.minFreeBlocks = 8;
    std::vector<Request> paged_out;
    const ServeMetrics pm = Server(cpuModel(tee::makeTdx()), pcfg)
                                .run(trace, paged_out);

    // Identical completion sets: every request either finishes in
    // both runs or in neither.
    ASSERT_EQ(reserved_out.size(), paged_out.size());
    for (std::size_t i = 0; i < reserved_out.size(); ++i)
        EXPECT_EQ(reserved_out[i].finish >= 0.0,
                  paged_out[i].finish >= 0.0)
            << "request " << reserved_out[i].id;
    EXPECT_EQ(rm.completed, pm.completed);
    EXPECT_EQ(rm.outputTokens, pm.outputTokens);
    EXPECT_EQ(rm.shed, pm.shed);

    // The paged discipline's whole point: strictly denser batches
    // from the same pool, hence a shorter makespan.
    EXPECT_GT(pm.peakBatchOccupancy, rm.peakBatchOccupancy);
    EXPECT_LT(pm.makespan, rm.makespan);
    EXPECT_LE(pm.kvUtilizationPeak, 1.0);
}

// A request that could never fit even into an empty pool (inLen +
// outLen + watermark exceeds capacity) is shed at admission by both
// disciplines, not deadlocked on.
TEST(KvDifferential, NeverFittingRequestsShedIdentically)
{
    std::vector<Request> trace(3);
    trace[0] = request(0, 0.0, 100, 50);
    trace[1] = request(1, 0.1, 400, 200); // 600 tokens vs 512-token pool
    trace[2] = request(2, 0.2, 64, 32);

    for (const bool paged : {false, true}) {
        ServerConfig cfg =
            paged ? pagedConfig(32) : reservedConfig(32);
        std::vector<Request> out;
        const ServeMetrics m =
            Server(cpuModel(tee::makeTdx()), cfg).run(trace, out);
        EXPECT_EQ(m.completed, 2u) << "paged=" << paged;
        EXPECT_EQ(m.shed, 1u) << "paged=" << paged;
        EXPECT_LT(out[1].finish, 0.0) << "paged=" << paged;
        EXPECT_GE(out[0].finish, 0.0) << "paged=" << paged;
        EXPECT_GE(out[2].finish, 0.0) << "paged=" << paged;
        EXPECT_EQ(m.completed + m.shed, m.submitted)
            << "paged=" << paged;
    }
}

// The admission watermark counts against the never-fits bound: a
// request whose full length plus headroom exceeds the pool is shed
// even though the raw pool could hold it.
TEST(KvDifferential, WatermarkTightensTheAdmissibleSet)
{
    std::vector<Request> trace(2);
    trace[0] = request(0, 0.0, 20, 10); // 2 blocks + 4 headroom: fits
    trace[1] = request(1, 0.1, 40, 30); // 5 blocks + 4 headroom: never fits

    ServerConfig cfg = pagedConfig(8);
    cfg.paged.minFreeBlocks = 4;
    std::vector<Request> out;
    const ServeMetrics m =
        Server(cpuModel(tee::makeTdx()), cfg).run(trace, out);
    EXPECT_EQ(m.completed, 1u);
    EXPECT_EQ(m.shed, 1u);
    EXPECT_GE(out[0].finish, 0.0);
    EXPECT_LT(out[1].finish, 0.0);
}

// ---------------------------------------------------------------------
// 3. Scheduler invariants under forced preemption
// ---------------------------------------------------------------------

// Preemption requeues a sequence with its produced-token count
// intact; the decode loop therefore never re-emits a token, which
// shows up as occupancySum (batch-slot steps) exactly equaling the
// output token total.
TEST(KvPreemption, RecomputeNeverRepeatsAToken)
{
    auto step = cpuModel(tee::makeTdx());
    ServerConfig cfg = pagedConfig(96);
    cfg.maxBatch = 8;

    auto trace = burstTrace();
    ContinuousEngine eng(*step, cfg);
    drain(eng, trace);

    EXPECT_GT(eng.tally().kvPreemptions, 0u);
    EXPECT_EQ(eng.tally().kvSwapOuts, 0u);
    EXPECT_EQ(eng.tally().kvSwapIns, 0u);
    std::uint64_t out_tokens = 0;
    for (const auto &r : trace) {
        EXPECT_GE(r.finish, 0.0) << "request " << r.id;
        out_tokens += r.outLen;
    }
    EXPECT_EQ(out_tokens, 8u * 192u);
    EXPECT_DOUBLE_EQ(eng.occupancySum(),
                     static_cast<double>(out_tokens));
    // The drained pool holds nothing: block conservation end-to-end.
    EXPECT_EQ(eng.kvUsedBlocks(), 0u);
    EXPECT_EQ(eng.kvFreeBlocks(), 96u);
}

TEST(KvPreemption, SwapAccountingBalances)
{
    auto step = cpuModel(tee::makeTdx());
    ServerConfig cfg = pagedConfig(96, KvPreemptPolicy::SwapToEpc);
    cfg.maxBatch = 8;

    auto trace = burstTrace();
    ContinuousEngine eng(*step, cfg);
    drain(eng, trace);

    const ServeTally &t = eng.tally();
    EXPECT_GT(t.kvPreemptions, 0u);
    // Every preemption under SwapToEpc swaps out, and every swapped
    // sequence is eventually readmitted (and completes), so the
    // traffic balances and its time cost is strictly positive.
    EXPECT_EQ(t.kvSwapOuts, t.kvPreemptions);
    EXPECT_EQ(t.kvSwapIns, t.kvSwapOuts);
    EXPECT_GT(t.kvSwapSeconds, 0.0);
    std::uint64_t out_tokens = 0;
    for (const auto &r : trace) {
        EXPECT_GE(r.finish, 0.0) << "request " << r.id;
        out_tokens += r.outLen;
    }
    EXPECT_DOUBLE_EQ(eng.occupancySum(),
                     static_cast<double>(out_tokens));
}

// Recompute and swap are different resume *costs*, not different
// schedules: both preempt the same victims and emit the same tokens.
TEST(KvPreemption, PoliciesAgreeOnTokensAndVictims)
{
    auto recompute = burstTrace();
    auto swap = burstTrace();

    auto step1 = cpuModel(tee::makeTdx());
    ServerConfig c1 = pagedConfig(96);
    c1.maxBatch = 8;
    ContinuousEngine e1(*step1, c1);
    drain(e1, recompute);

    auto step2 = cpuModel(tee::makeTdx());
    ServerConfig c2 = pagedConfig(96, KvPreemptPolicy::SwapToEpc);
    c2.maxBatch = 8;
    ContinuousEngine e2(*step2, c2);
    drain(e2, swap);

    EXPECT_EQ(e1.tally().kvPreemptions, e2.tally().kvPreemptions);
    EXPECT_DOUBLE_EQ(e1.occupancySum(), e2.occupancySum());
    EXPECT_EQ(e1.peakBatch(), e2.peakBatch());
}

TEST(KvPreemption, GaugesTrackThePool)
{
    auto step = cpuModel(tee::makeTdx());
    ServerConfig cfg = pagedConfig(96);
    cfg.maxBatch = 8;

    auto trace = burstTrace();
    ContinuousEngine eng(*step, cfg);
    for (auto &r : trace)
        eng.submit(&r, r.arrival);
    while (!eng.idle()) {
        eng.iterate();
        EXPECT_EQ(eng.kvUsedBlocks() + eng.kvFreeBlocks(),
                  eng.kvTotalBlocks());
        EXPECT_GE(eng.kvUtilization(), 0.0);
        EXPECT_LE(eng.kvUtilization(), 1.0);
    }
    EXPECT_GT(eng.kvUtilizationMean(), 0.0);
    EXPECT_LE(eng.kvUtilizationMean(), 1.0);
    EXPECT_GE(eng.kvPeak(), eng.kvUtilizationMean());
}

// ---------------------------------------------------------------------
// Determinism, validation, and the pinned golden timeline
// ---------------------------------------------------------------------

TEST(KvDeterminism, RepeatRunsAreByteIdentical)
{
    const auto trace = generateWorkload(generationHeavyLoad());
    ServerConfig cfg = pagedConfig(1024);
    cfg.paged.minFreeBlocks = 8;

    const ServeMetrics a =
        Server(cpuModel(tee::makeTdx()), cfg).run(trace);
    const ServeMetrics b =
        Server(cpuModel(tee::makeTdx()), cfg).run(trace);
    EXPECT_EQ(metricsJson(a), metricsJson(b));
}

TEST(KvValidation, PagedConfigIsValidatedUpFront)
{
    {
        ServerConfig cfg = pagedConfig(0);
        EXPECT_DEATH(Server(cpuModel(tee::makeTdx()), cfg),
                     "bounded");
    }
    {
        ServerConfig cfg = pagedConfig(64);
        cfg.paged.minFreeBlocks = 64;
        EXPECT_DEATH(Server(cpuModel(tee::makeTdx()), cfg),
                     "watermark");
    }
    {
        ServerConfig cfg = pagedConfig(64, KvPreemptPolicy::SwapToEpc);
        cfg.paged.kvBytesPerToken = 0.0;
        EXPECT_DEATH(Server(cpuModel(tee::makeTdx()), cfg), "bytes");
    }
}

// Pins the preemption-heavy burst timeline. Regenerate (only after
// an intentional scheduler change) with CLLM_REGEN_GOLDEN=1.
TEST(KvGolden, SmallPagedTimelinePinned)
{
    auto step = cpuModel(tee::makeTdx());
    ServerConfig cfg = pagedConfig(96, KvPreemptPolicy::SwapToEpc);
    cfg.maxBatch = 8;

    auto trace = burstTrace();
    ContinuousEngine eng(*step, cfg);
    drain(eng, trace);

    std::vector<const Request *> reqs;
    for (const auto &r : trace)
        reqs.push_back(&r);
    const ServeMetrics m = finalizeRequests(
        reqs, eng.clock(), eng.occupancySum(), eng.steps(),
        eng.tally(), cfg.ttftSlo, cfg.tpotSlo);

    std::map<std::string, double> got;
    got["completed"] = static_cast<double>(m.completed);
    got["makespan_s"] = m.makespan;
    got["output_tokens"] = static_cast<double>(m.outputTokens);
    got["steps"] = static_cast<double>(eng.steps());
    got["peak_batch"] = static_cast<double>(eng.peakBatch());
    got["kv_util_peak"] = eng.kvPeak();
    got["kv_util_mean"] = eng.kvUtilizationMean();
    got["kv_preemptions"] =
        static_cast<double>(eng.tally().kvPreemptions);
    got["kv_swap_outs"] = static_cast<double>(eng.tally().kvSwapOuts);
    got["kv_swap_ins"] = static_cast<double>(eng.tally().kvSwapIns);
    got["kv_swap_s"] = eng.tally().kvSwapSeconds;
    got["ttft_p95_s"] = m.ttft.p95;
    got["tpot_p95_s"] = m.tpot.p95;
    cllm::testing::checkAgainstGolden("kv_paged_small.json", got);
}
