/**
 * @file
 * Differential and regression harness for speculative decoding. Four
 * layers:
 *
 *  1. Step-model identity — verifyStep(n, 0, pos) must price exactly
 *     like the decode step it degenerates to (CPU, GPU, and the base
 *     default), and a fused k-token verify must undercut k+1
 *     sequential decode steps, more so under a TEE (that asymmetry
 *     is the whole point of speculating inside an enclave).
 *  2. Engine differential — the same trace replayed with speculation
 *     off and on (across k, KV disciplines, chunking, and prefix
 *     caching) must complete the identical request set with
 *     identical per-request output counts, in strictly fewer target
 *     passes.
 *  3. Acceptance accounting — accepted + rejected + bonus tokens
 *     close exactly on the output token count, drafts are bounded by
 *     k per cycle, and the per-sequence acceptance walk is a pure
 *     function of (seed, id, position) — independent of batch
 *     composition and replay.
 *  4. Regression pins — double-run byte identity of the metrics
 *     JSON, off-mode emitting no spec keys, a golden seeded run, and
 *     fatal-path checks on config validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "golden_util.hh"
#include "serve/engine.hh"
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
cpuModel(bool tdx = true)
{
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return makeCpuStepModel(
        cpu, shared(tdx ? tee::makeTdx() : tee::makeBareMetal()),
        llm::llama2_7b(), p);
}

/** Paged config with an ample pool, so speculative runs differ from
 *  the baseline only in how tokens are produced, never in shedding. */
ServerConfig
specConfig(unsigned draft_k, KvMode kv = KvMode::Paged)
{
    ServerConfig cfg;
    cfg.policy = BatchPolicy::Continuous;
    cfg.kvBlocks = 4096;
    cfg.kvBlockTokens = 16;
    cfg.kvMode = kv;
    cfg.paged.kvBytesPerToken =
        llm::llama2_7b().kvBytesPerToken(hw::Dtype::Bf16);
    if (draft_k) {
        cfg.specDecode.enabled = true;
        cfg.specDecode.draftTokens = draft_k;
    }
    return cfg;
}

/** Decode-heavy seeded trace: generations long enough that every
 *  draft depth under test runs many verify cycles per request. */
std::vector<Request>
chatTrace()
{
    WorkloadConfig load;
    load.arrivalRate = 0.4;
    load.numRequests = 80;
    load.meanInLen = 256;
    load.meanOutLen = 160;
    load.seed = 53;
    return generateWorkload(load);
}

std::string
metricsJson(const ServeMetrics &m)
{
    std::ostringstream os;
    JsonWriter json(os);
    writeMetrics(json, m);
    return os.str();
}

/** Same request ids finishing with the same output token counts —
 *  the simulator's notion of an identical completion stream. */
void
expectIdenticalCompletions(const std::vector<Request> &a,
                           const std::vector<Request> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << "request " << i;
        EXPECT_EQ(a[i].outLen, b[i].outLen) << "request " << i;
    }
}

} // namespace

// ---------------------------------------------------------------------
// 1. Step-model identity
// ---------------------------------------------------------------------

TEST(SpecStepModel, ZeroDraftVerifyEqualsDecodeStep)
{
    const auto tdx = cpuModel(true);
    const auto gpu = makeGpuStepModel(hw::h100Nvl(), true,
                                      llm::llama2_7b(),
                                      hw::Dtype::Bf16);
    for (double n : {1.0, 8.0, 32.0}) {
        for (double pos : {128.0, 512.0, 2048.0}) {
            EXPECT_EQ(tdx->verifyStep(n, 0.0, pos),
                      tdx->decodeStep(n, pos))
                << "cpu n=" << n << " pos=" << pos;
            EXPECT_EQ(gpu->verifyStep(n, 0.0, pos),
                      gpu->decodeStep(n, pos))
                << "gpu n=" << n << " pos=" << pos;
        }
    }
}

TEST(SpecStepModel, FusedVerifyUndercutsSequentialDecodes)
{
    // One k-token verify streams the weights once and pays the
    // per-step fixed costs once; k+1 sequential decode steps pay
    // both k+1 times.
    const auto tdx = cpuModel(true);
    for (double k : {1.0, 4.0, 8.0}) {
        const double fused = tdx->verifyStep(32.0, k, 512.0);
        const double sequential =
            (k + 1.0) * tdx->decodeStep(32.0, 512.0 + k / 2.0);
        EXPECT_LT(fused, sequential) << "k=" << k;
    }
}

TEST(SpecStepModel, TeeWidensTheAmortizationGap)
{
    // The TEE taxes (MEE byte overheads, per-op fixed costs) are
    // per-step, so the relative saving of fusing k+1 positions into
    // one pass must be at least as large under TDX as bare-metal.
    const auto tdx = cpuModel(true);
    const auto bare = cpuModel(false);
    const double k = 4.0;
    const double tdx_ratio =
        tdx->verifyStep(32.0, k, 512.0) /
        ((k + 1.0) * tdx->decodeStep(32.0, 512.0 + k / 2.0));
    const double bare_ratio =
        bare->verifyStep(32.0, k, 512.0) /
        ((k + 1.0) * bare->decodeStep(32.0, 512.0 + k / 2.0));
    EXPECT_LE(tdx_ratio, bare_ratio + 1e-12);
}

// ---------------------------------------------------------------------
// 2. Engine differential
// ---------------------------------------------------------------------

TEST(SpecDifferential, IdenticalCompletionsStrictlyFewerSteps)
{
    const std::vector<Request> trace = chatTrace();

    for (KvMode kv : {KvMode::Paged, KvMode::Reserved}) {
        std::vector<Request> off_out;
        const ServeMetrics off =
            Server(cpuModel(), specConfig(0, kv)).run(trace, off_out);
        ASSERT_GT(off.decodeSteps, 0u);

        std::size_t prev_steps = off.decodeSteps;
        for (unsigned k : {1u, 2u, 4u, 8u}) {
            std::vector<Request> on_out;
            const ServeMetrics on =
                Server(cpuModel(), specConfig(k, kv))
                    .run(trace, on_out);

            EXPECT_EQ(on.completed, off.completed) << "k=" << k;
            EXPECT_EQ(on.outputTokens, off.outputTokens) << "k=" << k;
            EXPECT_EQ(on.shed, off.shed);
            EXPECT_EQ(on.timedOut, off.timedOut);
            expectIdenticalCompletions(off_out, on_out);

            EXPECT_TRUE(on.specEnabled);
            EXPECT_LT(on.decodeSteps, off.decodeSteps) << "k=" << k;
            // Deeper drafts weakly reduce the pass count further.
            EXPECT_LE(on.decodeSteps, prev_steps) << "k=" << k;
            prev_steps = on.decodeSteps;
            EXPECT_EQ(on.decodeSteps, on.specVerifySteps);
        }
    }
}

TEST(SpecDifferential, ComposesWithChunkedPrefill)
{
    const std::vector<Request> trace = chatTrace();
    ServerConfig off_cfg = specConfig(0);
    off_cfg.chunkedPrefill.mode = ChunkMode::DecodePriority;
    off_cfg.chunkedPrefill.chunkTokens = 128;
    std::vector<Request> off_out;
    const ServeMetrics off =
        Server(cpuModel(), off_cfg).run(trace, off_out);
    ASSERT_GT(off.chunkSlices, 0u);

    ServerConfig on_cfg = specConfig(4);
    on_cfg.chunkedPrefill.mode = ChunkMode::DecodePriority;
    on_cfg.chunkedPrefill.chunkTokens = 128;
    std::vector<Request> on_out;
    const ServeMetrics on =
        Server(cpuModel(), on_cfg).run(trace, on_out);

    EXPECT_EQ(on.completed, off.completed);
    EXPECT_EQ(on.outputTokens, off.outputTokens);
    expectIdenticalCompletions(off_out, on_out);
    EXPECT_LT(on.decodeSteps, off.decodeSteps);
    // Chunked slice accounting is untouched by speculation.
    EXPECT_EQ(on.chunkPrefillTokens, off.chunkPrefillTokens);
    EXPECT_EQ(on.specAccepted + on.specRejected + on.specBonus,
              on.outputTokens);
}

TEST(SpecDifferential, SurvivesPagedPreemptionPressure)
{
    // A pool tight enough to preempt mid-decode: victims of a
    // mid-verify eviction recompute their prefix, and the closure
    // and completion guarantees must hold regardless.
    WorkloadConfig load;
    load.arrivalRate = 1.2;
    load.numRequests = 60;
    load.meanInLen = 384;
    load.meanOutLen = 128;
    load.seed = 11;
    const std::vector<Request> trace = generateWorkload(load);

    ServerConfig off_cfg = specConfig(0);
    off_cfg.kvBlocks = 640;
    std::vector<Request> off_out;
    const ServeMetrics off =
        Server(cpuModel(), off_cfg).run(trace, off_out);

    ServerConfig on_cfg = specConfig(6);
    on_cfg.kvBlocks = 640;
    std::vector<Request> on_out;
    const ServeMetrics on =
        Server(cpuModel(), on_cfg).run(trace, on_out);
    ASSERT_GT(on.kvPreemptions, 0u)
        << "pool must be tight enough to preempt";

    EXPECT_EQ(on.completed, off.completed);
    EXPECT_EQ(on.outputTokens, off.outputTokens);
    expectIdenticalCompletions(off_out, on_out);
    EXPECT_EQ(on.specAccepted + on.specRejected + on.specBonus,
              on.outputTokens);
}

// ---------------------------------------------------------------------
// 3. Acceptance accounting
// ---------------------------------------------------------------------

TEST(SpecAccounting, ClosureOverAcceptedRejectedBonus)
{
    const std::vector<Request> trace = chatTrace();
    for (unsigned k : {1u, 3u, 5u}) {
        const ServeMetrics m =
            Server(cpuModel(), specConfig(k)).run(trace);
        EXPECT_EQ(m.specAccepted + m.specRejected + m.specBonus,
                  m.outputTokens)
            << "k=" << k;
        // Every cycle proposes at most k drafts and accepts a prefix
        // of them.
        EXPECT_LE(m.specAccepted, m.specDraftTokens) << "k=" << k;
        const std::uint64_t cycles = m.specBonus + m.specRejected;
        EXPECT_LE(m.specDraftTokens, cycles * k) << "k=" << k;
        EXPECT_GT(m.specVerifySteps, 0u);
    }
}

TEST(SpecAccounting, AcceptProbExtremesPinTheCycleShape)
{
    const std::vector<Request> trace = chatTrace();

    // acceptProb = 1: every cycle accepts all drafts and lands the
    // bonus token — nothing is ever rejected.
    ServerConfig all = specConfig(4);
    all.specDecode.acceptProb = 1.0;
    const ServeMetrics ma = Server(cpuModel(), all).run(trace);
    EXPECT_EQ(ma.specRejected, 0u);
    EXPECT_EQ(ma.specAccepted + ma.specBonus, ma.outputTokens);

    // acceptProb = 0: every cycle rejects its first draft and emits
    // only the correction — one token per sequence per verify pass,
    // so speculation degenerates to (more expensive) autoregression.
    // The sole exception is each sequence's final cycle: the draft
    // depth is clamped to the remaining budget, a one-token tail
    // drafts nothing, and its k=0 verify lands as the bonus token.
    ServerConfig none = specConfig(4);
    none.specDecode.acceptProb = 0.0;
    const ServeMetrics mn = Server(cpuModel(), none).run(trace);
    EXPECT_EQ(mn.specAccepted, 0u);
    EXPECT_EQ(mn.specBonus, mn.completed);
    EXPECT_EQ(mn.specRejected + mn.specBonus, mn.outputTokens);
    EXPECT_EQ(mn.decodeSteps, mn.specVerifySteps);
}

TEST(SpecAccounting, MeanEmittedLengthTracksTheGeometricModel)
{
    // With acceptance probability a, a k-draft cycle emits
    // (1 - a^(k+1)) / (1 - a) tokens in expectation; over tens of
    // thousands of cycles the sample mean should sit within a few
    // percent of it.
    const std::vector<Request> trace = chatTrace();
    const double a = 0.7;
    const unsigned k = 4;
    const ServeMetrics m =
        Server(cpuModel(), specConfig(k)).run(trace);
    const double cycles =
        static_cast<double>(m.specBonus + m.specRejected);
    ASSERT_GT(cycles, 1000.0);
    const double mean_emit =
        static_cast<double>(m.outputTokens) / cycles;
    const double expected =
        (1.0 - std::pow(a, k + 1.0)) / (1.0 - a);
    EXPECT_NEAR(mean_emit, expected, 0.05 * expected);
}

// ---------------------------------------------------------------------
// 4. Regression pins
// ---------------------------------------------------------------------

TEST(SpecRegression, DoubleRunMetricsJsonByteIdentical)
{
    const std::vector<Request> trace = chatTrace();
    const ServeMetrics a =
        Server(cpuModel(), specConfig(4)).run(trace);
    const ServeMetrics b =
        Server(cpuModel(), specConfig(4)).run(trace);
    EXPECT_EQ(metricsJson(a), metricsJson(b));
}

TEST(SpecRegression, OffModeEmitsNoSpecKeys)
{
    const std::vector<Request> trace = chatTrace();
    const ServeMetrics off =
        Server(cpuModel(), specConfig(0)).run(trace);
    const std::string json = metricsJson(off);
    EXPECT_EQ(json.find("spec_"), std::string::npos)
        << "off-mode metrics JSON must stay byte-identical to the "
           "pre-speculation format";
    EXPECT_FALSE(off.specEnabled);
    EXPECT_EQ(off.specVerifySteps, 0u);
    EXPECT_EQ(off.specDraftTokens, 0u);
}

TEST(SpecRegression, GoldenSeededRun)
{
    const std::vector<Request> trace = chatTrace();
    const ServeMetrics m =
        Server(cpuModel(), specConfig(4)).run(trace);
    std::map<std::string, double> actual;
    actual["completed"] = static_cast<double>(m.completed);
    actual["output_tokens"] = static_cast<double>(m.outputTokens);
    actual["decode_steps"] = static_cast<double>(m.decodeSteps);
    actual["spec_verify_steps"] =
        static_cast<double>(m.specVerifySteps);
    actual["spec_draft_tokens"] =
        static_cast<double>(m.specDraftTokens);
    actual["spec_accepted_tokens"] =
        static_cast<double>(m.specAccepted);
    actual["spec_rejected_tokens"] =
        static_cast<double>(m.specRejected);
    actual["spec_bonus_tokens"] = static_cast<double>(m.specBonus);
    actual["ttft_p50_s"] = m.ttft.p50;
    actual["ttft_p99_s"] = m.ttft.p99;
    actual["itl_p50_s"] = m.itl.p50;
    actual["itl_p99_s"] = m.itl.p99;
    actual["makespan_s"] = m.makespan;
    cllm::testing::checkAgainstGolden("spec_small.json", actual);
}

TEST(SpecRegression, TimeoutAccountingKeepsOccupancyClosed)
{
    // Timed-out requests never deliver tokens past their deadline,
    // and their partial production is backed out of the occupancy
    // sum, so meanBatchOccupancy * decodeSteps == outputTokens in
    // any restart-free run — with and without speculation.
    WorkloadConfig load;
    load.arrivalRate = 1.5;
    load.numRequests = 80;
    load.meanInLen = 512;
    load.meanOutLen = 128;
    load.seed = 7;
    const std::vector<Request> trace = generateWorkload(load);

    for (unsigned k : {0u, 4u}) {
        ServerConfig cfg = specConfig(k);
        cfg.resilience.requestTimeout = 60.0;
        std::vector<Request> out;
        const ServeMetrics m =
            Server(cpuModel(), cfg).run(trace, out);
        ASSERT_GT(m.timedOut, 0u)
            << "trace must actually hit the timeout (k=" << k << ")";
        const double occupancy_sum =
            m.meanBatchOccupancy * static_cast<double>(m.decodeSteps);
        EXPECT_NEAR(occupancy_sum,
                    static_cast<double>(m.outputTokens),
                    1e-6 * static_cast<double>(m.outputTokens))
            << "k=" << k;
        for (const Request &r : out)
            EXPECT_LE(r.finish, r.arrival +
                                    cfg.resilience.requestTimeout)
                << "request " << r.id
                << " delivered tokens past its deadline";
    }
}

TEST(SpecDeath, ZeroDraftTokensIsFatal)
{
    ServerConfig cfg = specConfig(4);
    cfg.specDecode.draftTokens = 0;
    EXPECT_DEATH(Server(cpuModel(), cfg), "zero draft");
}

TEST(SpecDeath, DraftCostRatioOutsideUnitIntervalIsFatal)
{
    ServerConfig high = specConfig(4);
    high.specDecode.draftCostRatio = 1.0;
    EXPECT_DEATH(Server(cpuModel(), high), "draft cost ratio");
    ServerConfig zero = specConfig(4);
    zero.specDecode.draftCostRatio = 0.0;
    EXPECT_DEATH(Server(cpuModel(), zero), "draft cost ratio");
}

TEST(SpecDeath, AcceptProbOutsideUnitIntervalIsFatal)
{
    ServerConfig cfg = specConfig(4);
    cfg.specDecode.acceptProb = 1.5;
    EXPECT_DEATH(Server(cpuModel(), cfg), "acceptance probability");
}
