/**
 * @file
 * Property-style parameterized sweeps over the whole model surface:
 * invariants that must hold for EVERY (backend x dtype x batch)
 * combination, every page-size/translation regime, every message
 * size, rather than the single points the unit tests pin down.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hh"
#include "kv_share.hh"
#include "util/stats.hh"
#include "crypto/sha256.hh"
#include "llm/perf_cpu.hh"
#include "mem/kv_paged.hh"
#include "mem/tlb.hh"
#include "serve/engine.hh"
#include "serve/serving.hh"
#include "tee/session.hh"
#include "util/rng.hh"
#include "util/units.hh"

using namespace cllm;

// ---- CPU timing-model invariants over the configuration grid ----------

using PerfCase = std::tuple<core::Backend, hw::Dtype, unsigned>;

class PerfGrid : public ::testing::TestWithParam<PerfCase>
{
};

TEST_P(PerfGrid, RunInvariantsHold)
{
    const auto [backend, dtype, batch] = GetParam();
    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr1();
    llm::RunParams p;
    p.batch = batch;
    p.dtype = dtype;
    p.inLen = 256;
    p.outLen = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;

    const auto r = exp.runCpu(cpu, backend, llm::llama2_7b(), p);

    // Structural invariants.
    EXPECT_EQ(r.timing.tokenLatencies.size(), p.outLen);
    EXPECT_GT(r.timing.prefillSeconds, 0.0);
    EXPECT_GT(r.timing.decodeTput, 0.0);
    EXPECT_GT(r.timing.e2eTput, 0.0);
    EXPECT_LT(r.timing.e2eTput, r.timing.decodeTput * 1.0001);
    for (double t : r.timing.tokenLatencies)
        EXPECT_GT(t, 0.0);

    // Consistency: mean latency matches the filtered sample mean and
    // throughput is its inverse scaled by batch.
    EXPECT_NEAR(r.timing.decodeTput * r.timing.meanTokenLatency,
                p.batch, 1e-6);

    // No protected backend may be faster than bare metal.
    const auto bare =
        exp.runCpu(cpu, core::Backend::Bare, llm::llama2_7b(), p);
    EXPECT_LE(r.timing.decodeTput, bare.timing.decodeTput * 1.001);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PerfGrid,
    ::testing::Combine(::testing::Values(core::Backend::Bare,
                                         core::Backend::Vm,
                                         core::Backend::VmTh,
                                         core::Backend::Sgx,
                                         core::Backend::Tdx),
                       ::testing::Values(hw::Dtype::Fp32,
                                         hw::Dtype::Bf16,
                                         hw::Dtype::Int8),
                       ::testing::Values(1u, 8u, 64u)),
    [](const ::testing::TestParamInfo<PerfCase> &info) {
        std::string name =
            std::string(core::backendName(std::get<0>(info.param))) +
            "_" + hw::kDtypeNames.name(std::get<1>(info.param)) + "_b" +
            std::to_string(std::get<2>(info.param));
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---- Throughput monotonicity in cores, for every backend --------------

class CoreSweep : public ::testing::TestWithParam<core::Backend>
{
};

TEST_P(CoreSweep, MoreCoresNeverSlower)
{
    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.batch = 8;
    p.inLen = 128;
    p.outLen = 16;
    p.sockets = 1;
    double prev = 0.0;
    for (unsigned cores : {4u, 8u, 16u, 32u, 60u}) {
        p.cores = cores;
        const auto r = exp.runCpu(cpu, GetParam(), llm::llama2_7b(), p);
        EXPECT_GE(r.timing.decodeTput, prev * 0.999) << cores;
        prev = r.timing.decodeTput;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CoreSweep,
    ::testing::Values(core::Backend::Bare, core::Backend::Vm,
                      core::Backend::Sgx, core::Backend::Tdx),
    [](const ::testing::TestParamInfo<core::Backend> &info) {
        std::string n = core::backendName(info.param);
        for (auto &c : n)
            if (c == ' ')
                c = '_';
        return n;
    });

// ---- TLB model monotonicity over regimes -------------------------------

using TlbCase = std::tuple<mem::PageSize, mem::TranslationMode>;

class TlbGrid : public ::testing::TestWithParam<TlbCase>
{
};

TEST_P(TlbGrid, FactorMonotoneInWorkingSet)
{
    const auto [page, mode] = GetParam();
    mem::TlbModel m;
    double prev = 1.0;
    for (std::uint64_t ws_gb : {1ULL, 4ULL, 16ULL, 64ULL, 256ULL}) {
        mem::AccessPattern p;
        p.workingSetBytes = ws_gb * GiB;
        const double f = m.bandwidthFactor(300e9, page, mode, p);
        EXPECT_GT(f, 0.0);
        EXPECT_LE(f, prev + 1e-12) << ws_gb << " GiB";
        prev = f;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, TlbGrid,
    ::testing::Combine(::testing::Values(mem::PageSize::Page4K,
                                         mem::PageSize::Page2M,
                                         mem::PageSize::Page1G),
                       ::testing::Values(mem::TranslationMode::Native,
                                         mem::TranslationMode::Nested,
                                         mem::TranslationMode::NestedTdx)),
    [](const ::testing::TestParamInfo<TlbCase> &info) {
        const char *pages =
            std::get<0>(info.param) == mem::PageSize::Page4K   ? "p4k"
            : std::get<0>(info.param) == mem::PageSize::Page2M ? "p2m"
                                                               : "p1g";
        const char *mode =
            std::get<1>(info.param) == mem::TranslationMode::Native
                ? "native"
            : std::get<1>(info.param) == mem::TranslationMode::Nested
                ? "nested"
                : "tdx";
        return std::string(pages) + "_" + mode;
    });

// ---- SHA-256 incremental == one-shot across lengths --------------------

class ShaLengths : public ::testing::TestWithParam<int>
{
};

TEST_P(ShaLengths, IncrementalMatchesOneShot)
{
    const int len = GetParam();
    std::string msg(len, '\0');
    for (int i = 0; i < len; ++i)
        msg[i] = static_cast<char>('a' + i % 26);

    crypto::Sha256 h;
    // Absorb in awkward chunk sizes.
    std::size_t off = 0;
    std::size_t chunk = 1;
    while (off < msg.size()) {
        const std::size_t take =
            std::min(chunk, msg.size() - off);
        h.update(msg.data() + off, take);
        off += take;
        chunk = chunk * 2 + 1;
    }
    EXPECT_EQ(h.finish(), crypto::sha256(msg));
}

INSTANTIATE_TEST_SUITE_P(Lengths, ShaLengths,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65,
                                           127, 128, 1000));

// ---- Secure channel across message sizes -------------------------------

class ChannelSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(ChannelSizes, SealOpenRoundtrip)
{
    const auto key = crypto::sha256(std::string("sweep"));
    tee::SecureChannel tx(key), rx(key);
    std::vector<std::uint8_t> msg(GetParam());
    for (std::size_t i = 0; i < msg.size(); ++i)
        msg[i] = static_cast<std::uint8_t>(i * 17);
    const auto out = rx.open(tx.seal(msg));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChannelSizes,
                         ::testing::Values(0, 1, 15, 16, 17, 255, 4096,
                                           65536));

// ---- GPU overhead band across the full figure-11 grid ------------------

using GpuCase = std::tuple<unsigned, unsigned>; // batch, input

class GpuGrid : public ::testing::TestWithParam<GpuCase>
{
};

TEST_P(GpuGrid, ConfidentialOverheadBounded)
{
    const auto [batch, input] = GetParam();
    llm::GpuPerfModel m;
    llm::GpuRunParams p;
    p.batch = batch;
    p.inLen = input;
    p.outLen = 64;
    const auto raw = m.run(hw::h100Nvl(), llm::llama2_7b(), p);
    p.confidential = true;
    const auto cc = m.run(hw::h100Nvl(), llm::llama2_7b(), p);
    const double ov = overheadPct(raw.decodeTput, cc.decodeTput);
    EXPECT_GT(ov, 1.0);
    EXPECT_LT(ov, 10.0);
    EXPECT_GT(cc.prefillSeconds, raw.prefillSeconds * 0.999);
}

INSTANTIATE_TEST_SUITE_P(
    Fig11Grid, GpuGrid,
    ::testing::Combine(::testing::Values(1u, 8u, 32u),
                       ::testing::Values(128u, 1024u, 4096u)),
    [](const ::testing::TestParamInfo<GpuCase> &info) {
        return "b" + std::to_string(std::get<0>(info.param)) + "_in" +
               std::to_string(std::get<1>(info.param));
    });

// ---- Paged-KV allocator: conservation under random op storms -----------

using KvStormCase = std::tuple<unsigned, unsigned, unsigned>;
// (totalBlocks, blockTokens, seed)

class KvStormGrid : public ::testing::TestWithParam<KvStormCase>
{
};

// Block conservation (used + free == total, refcounts match tables)
// must survive any interleaving of add / append / share / release,
// including calls that fail on exhaustion — and a full drain must
// return every block to the free list.
TEST_P(KvStormGrid, ConservationHoldsThroughRandomOps)
{
    const auto [blocks, block_tokens, seed] = GetParam();
    mem::PagedKvCache kv({blocks, block_tokens});
    Rng rng(seed);

    std::vector<mem::KvSeqId> live;
    mem::KvSeqId next_id = 1;
    for (int op = 0; op < 400; ++op) {
        const double roll = rng.uniform();
        if (roll < 0.35 || live.empty()) {
            const unsigned toks = static_cast<unsigned>(
                rng.uniformInt(1, 3ULL * block_tokens));
            if (kv.addSequence(next_id, toks))
                live.push_back(next_id);
            ++next_id;
        } else if (roll < 0.70) {
            const std::size_t i = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            kv.appendToken(live[i]); // may fail; must not corrupt
        } else if (roll < 0.85) {
            const std::size_t i = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            if (cllm::testing::shareFullBlocks(kv, live[i], next_id))
                live.push_back(next_id);
            ++next_id;
        } else {
            const std::size_t i = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            kv.release(live[i]);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(i));
        }
        ASSERT_TRUE(kv.consistent()) << "op " << op;
        ASSERT_EQ(kv.usedBlocks() + kv.freeBlocks(),
                  kv.totalBlocks());
    }

    // Drain: no leaked blocks, alloc/free ledger balances.
    for (mem::KvSeqId id : live)
        kv.release(id);
    EXPECT_EQ(kv.usedBlocks(), 0u);
    EXPECT_EQ(kv.freeBlocks(), kv.totalBlocks());
    EXPECT_EQ(kv.sequences(), 0u);
    EXPECT_EQ(kv.stats().blockAllocs, kv.stats().blockFrees);
    EXPECT_TRUE(kv.consistent());
}

// The same storm with the prefix cache's pin plumbing in the mix:
// external pins on full-block prefixes, admissions that re-reference
// pinned blocks (addSequenceWithPrefix), and unpins, interleaved with
// the add/append/release churn. The extended conservation law —
// table refs + pins equal refcounts, pinned blocks never on the free
// list — must hold after every op, and a full drain (release all,
// unpin all) must return every block.
TEST_P(KvStormGrid, ConservationHoldsWithPinsAndPrefixSharing)
{
    const auto [blocks, block_tokens, seed] = GetParam();
    mem::PagedKvCache kv({blocks, block_tokens});
    Rng rng(seed + 1000);

    std::vector<mem::KvSeqId> live;
    // Each entry: pinned full-block prefix + the tokens it covers.
    std::vector<std::pair<std::vector<std::uint32_t>, unsigned>> pins;
    mem::KvSeqId next_id = 1;
    for (int op = 0; op < 400; ++op) {
        const double roll = rng.uniform();
        if (roll < 0.30 || (live.empty() && pins.empty())) {
            const unsigned toks = static_cast<unsigned>(
                rng.uniformInt(1, 3ULL * block_tokens));
            if (kv.addSequence(next_id, toks))
                live.push_back(next_id);
            ++next_id;
        } else if (roll < 0.45 && !live.empty()) {
            const std::size_t i = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            kv.appendToken(live[i]); // may fail; must not corrupt
        } else if (roll < 0.60 && !live.empty()) {
            // Pin a live sequence's full-block prefix (what the
            // radix cache pins on insert; the mutable tail never
            // qualifies).
            const std::size_t i = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            const unsigned full =
                kv.tokens(live[i]) / block_tokens;
            if (full > 0) {
                const auto &table = kv.blockTable(live[i]);
                std::vector<std::uint32_t> prefix(
                    table.begin(), table.begin() + full);
                kv.pin(prefix);
                pins.emplace_back(std::move(prefix),
                                  full * block_tokens);
            }
        } else if (roll < 0.75 && !pins.empty()) {
            // Admit a sharer over a pinned prefix, tail allocated
            // fresh.
            const std::size_t j = static_cast<std::size_t>(
                rng.uniformInt(0, pins.size() - 1));
            const unsigned toks =
                pins[j].second +
                static_cast<unsigned>(
                    rng.uniformInt(1, 2ULL * block_tokens));
            if (kv.addSequenceWithPrefix(next_id, toks,
                                         pins[j].first,
                                         pins[j].second))
                live.push_back(next_id);
            ++next_id;
        } else if (roll < 0.90 && !pins.empty()) {
            const std::size_t j = static_cast<std::size_t>(
                rng.uniformInt(0, pins.size() - 1));
            kv.unpin(pins[j].first);
            pins.erase(pins.begin() +
                       static_cast<std::ptrdiff_t>(j));
        } else if (!live.empty()) {
            const std::size_t i = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            kv.release(live[i]);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(i));
        }
        ASSERT_TRUE(kv.consistent()) << "op " << op;
        ASSERT_EQ(kv.usedBlocks() + kv.freeBlocks(),
                  kv.totalBlocks());
    }

    // Drain both the tables and the pins: nothing may leak.
    for (mem::KvSeqId id : live)
        kv.release(id);
    for (auto &[prefix, toks] : pins) {
        (void)toks;
        kv.unpin(prefix);
    }
    EXPECT_EQ(kv.usedBlocks(), 0u);
    EXPECT_EQ(kv.freeBlocks(), kv.totalBlocks());
    EXPECT_EQ(kv.pinnedBlocks(), 0u);
    EXPECT_EQ(kv.stats().blockAllocs, kv.stats().blockFrees);
    EXPECT_TRUE(kv.consistent());
}

INSTANTIATE_TEST_SUITE_P(
    Storms, KvStormGrid,
    ::testing::Combine(::testing::Values(16u, 64u, 256u),
                       ::testing::Values(4u, 16u),
                       ::testing::Values(1u, 7u, 42u)),
    [](const ::testing::TestParamInfo<KvStormCase> &info) {
        return "blk" + std::to_string(std::get<0>(info.param)) + "_t" +
               std::to_string(std::get<1>(info.param)) + "_s" +
               std::to_string(std::get<2>(info.param));
    });

// ---- Serving-engine accounting across KV modes and pool sizes ----------

using KvEngineCase = std::tuple<serve::KvMode, std::uint64_t, unsigned,
                                serve::ChunkMode, serve::BatchPolicy>;
// (mode, kvBlocks, workload seed, prefill scheduling, batching)

class KvEngineGrid : public ::testing::TestWithParam<KvEngineCase>
{
};

namespace {

std::unique_ptr<serve::StepModel>
kvGridModel()
{
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return serve::makeCpuStepModel(
        cpu,
        std::shared_ptr<const tee::TeeBackend>(tee::makeTdx()),
        llm::llama2_7b(), p);
}

/** The engine grids' seeded trace: ~2 chunk slices per prompt. */
std::vector<serve::Request>
engineGridTrace(unsigned seed)
{
    serve::WorkloadConfig load;
    load.arrivalRate = 1.0;
    load.numRequests = 40;
    load.meanInLen = 96;
    load.meanOutLen = 160;
    load.seed = seed;
    return serve::generateWorkload(load);
}

serve::ServerConfig
engineGridConfig(
    serve::KvMode mode, std::uint64_t blocks, serve::ChunkMode chunk,
    serve::BatchPolicy policy = serve::BatchPolicy::Continuous)
{
    serve::ServerConfig cfg;
    cfg.policy = policy;
    cfg.maxBatch = 16;
    cfg.kvBlocks = blocks;
    cfg.kvBlockTokens = 16;
    cfg.kvMode = mode;
    cfg.paged.kvBytesPerToken = 1.0; // unused by Recompute
    cfg.chunkedPrefill.mode = chunk;
    cfg.chunkedPrefill.chunkTokens = 48;
    return cfg;
}

/** Grid test-name suffix; continuous cases stay unsuffixed. */
std::string
policySuffix(serve::BatchPolicy policy)
{
    return policy == serve::BatchPolicy::Static ? "_static" : "";
}

/**
 * Drive an engine to quiescence from outside, asserting the closure
 * laws after every iteration instead of only at the end of the run.
 * The grids run without deadlines or restarts, so every emitted token
 * is still billed: one ITL sample per token, and in spec mode every
 * token is exactly one of accepted, rejected-correction or bonus.
 */
void
iterateCheckingClosure(serve::ContinuousEngine &eng)
{
    for (std::size_t iter = 1; !eng.idle(); ++iter) {
        eng.iterate();
        const serve::ServeTally &t = eng.tally();
        ASSERT_EQ(static_cast<double>(t.itlSamples.size()),
                  eng.occupancySum())
            << "iteration " << iter;
        if (t.specEnabled) {
            ASSERT_EQ(static_cast<double>(t.specAccepted +
                                          t.specRejected + t.specBonus),
                      eng.occupancySum())
                << "iteration " << iter;
        }
        ASSERT_LE(eng.kvUsedBlocks(), eng.kvTotalBlocks())
            << "iteration " << iter;
        ASSERT_LE(eng.prefixPinnedBlocks(), eng.kvUsedBlocks())
            << "iteration " << iter;
    }
}

} // namespace

// For every (discipline x pool size x trace x batching): request
// accounting sums, output tokens match completed requests exactly,
// and — the paged scheduler's core guarantee — preemption never
// re-emits a token (batch-slot steps == output tokens in a fault-free
// run).
TEST_P(KvEngineGrid, AccountingClosesAndTokensAreEmittedOnce)
{
    const auto [mode, blocks, seed, chunk, policy] = GetParam();
    auto trace = engineGridTrace(seed);
    auto step = kvGridModel();
    serve::ContinuousEngine eng(
        *step, engineGridConfig(mode, blocks, chunk, policy));
    for (auto &r : trace)
        eng.submit(&r, r.arrival);
    while (!eng.idle())
        eng.iterate();

    std::size_t completed = 0;
    std::uint64_t out_tokens = 0;
    for (const auto &r : trace) {
        if (r.finish >= 0.0) {
            ++completed;
            out_tokens += r.outLen;
            EXPECT_GE(r.firstToken, r.arrival);
            EXPECT_GE(r.finish, r.firstToken);
        }
    }
    const serve::ServeTally &t = eng.tally();
    // Fault-free, no deadline: every request completes or is shed.
    EXPECT_EQ(t.timedOut, 0u);
    EXPECT_EQ(t.failed, 0u);
    EXPECT_EQ(completed + t.shed, trace.size());
    EXPECT_DOUBLE_EQ(eng.occupancySum(),
                     static_cast<double>(out_tokens));
    EXPECT_LE(eng.peakBatch(), 16u);
    EXPECT_GE(eng.kvUtilizationMean(), 0.0);
    EXPECT_LE(eng.kvUtilizationMean(), 1.0);
    if (mode == serve::KvMode::Reserved) {
        EXPECT_EQ(t.kvPreemptions, 0u);
        EXPECT_EQ(t.kvSwapOuts, 0u);
    }
    if (chunk != serve::ChunkMode::Off) {
        EXPECT_TRUE(t.chunkedEnabled);
        // Chunked accounting closure: absent recompute (which
        // legitimately re-prefills) and prefix caching (off here),
        // every admitted prompt token is sliced exactly once.
        if (t.kvPreemptions == 0) {
            std::uint64_t prompt_tokens = 0;
            for (const auto &r : trace)
                if (r.finish >= 0.0)
                    prompt_tokens += r.inLen;
            EXPECT_EQ(t.chunkPrefillTokens, prompt_tokens);
        }
    } else {
        EXPECT_EQ(t.chunkSlices, 0u);
        EXPECT_EQ(t.chunkPrefillTokens, 0u);
    }
    // The drained pool must be empty in either discipline.
    EXPECT_EQ(eng.kvUsedBlocks(), 0u);
}

TEST_P(KvEngineGrid, ClosureHoldsAfterEveryIteration)
{
    const auto [mode, blocks, seed, chunk, policy] = GetParam();
    auto trace = engineGridTrace(seed);
    auto step = kvGridModel();
    serve::ContinuousEngine eng(
        *step, engineGridConfig(mode, blocks, chunk, policy));
    for (auto &r : trace)
        eng.submit(&r, r.arrival);
    iterateCheckingClosure(eng);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndPools, KvEngineGrid,
    ::testing::Combine(
        ::testing::Values(serve::KvMode::Reserved,
                          serve::KvMode::Paged),
        ::testing::Values(96ULL, 256ULL, 4096ULL),
        ::testing::Values(5u, 21u),
        ::testing::Values(serve::ChunkMode::Off,
                          serve::ChunkMode::DecodePriority),
        ::testing::Values(serve::BatchPolicy::Continuous,
                          serve::BatchPolicy::Static)),
    [](const ::testing::TestParamInfo<KvEngineCase> &info) {
        return std::string(serve::kKvModeNames.name(
                   std::get<0>(info.param))) +
               "_blk" + std::to_string(std::get<1>(info.param)) +
               "_s" + std::to_string(std::get<2>(info.param)) + "_" +
               serve::kChunkModeNames.name(std::get<3>(info.param)) +
               policySuffix(std::get<4>(info.param));
    });

// Scheduling must never change what gets served: with an ample pool
// the reserved, paged, and chunked engines complete the identical
// request set with identical per-request output token counts.
TEST(KvEngineEquivalence, ReservedPagedChunkedServeTheSameSet)
{
    struct Variant
    {
        serve::KvMode kv;
        serve::ChunkMode chunk;
    };
    const Variant variants[] = {
        {serve::KvMode::Reserved, serve::ChunkMode::Off},
        {serve::KvMode::Paged, serve::ChunkMode::Off},
        {serve::KvMode::Reserved, serve::ChunkMode::DecodePriority},
        {serve::KvMode::Paged, serve::ChunkMode::DecodePriority},
        {serve::KvMode::Paged, serve::ChunkMode::PrefillPriority},
    };

    std::vector<std::vector<serve::Request>> traces;
    for (const Variant &v : variants) {
        auto trace = engineGridTrace(13);
        auto step = kvGridModel();
        serve::ContinuousEngine eng(
            *step, engineGridConfig(v.kv, 4096, v.chunk));
        for (auto &r : trace)
            eng.submit(&r, r.arrival);
        while (!eng.idle())
            eng.iterate();
        traces.push_back(std::move(trace));
    }

    const auto &base = traces.front();
    for (std::size_t v = 1; v < traces.size(); ++v) {
        ASSERT_EQ(traces[v].size(), base.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
            EXPECT_EQ(traces[v][i].finish >= 0.0,
                      base[i].finish >= 0.0)
                << "variant " << v << " request " << base[i].id;
            EXPECT_EQ(traces[v][i].outLen, base[i].outLen);
        }
    }
}

// ---- Speculation never changes what gets served ------------------------

using SpecEngineCase = std::tuple<serve::KvMode, serve::ChunkMode,
                                  unsigned, serve::BatchPolicy>;
// (KV discipline, prefill scheduling, workload seed, batching)

class SpecEngineGrid : public ::testing::TestWithParam<SpecEngineCase>
{
};

// For every (discipline x scheduling x trace x batching): replaying with
// speculation off, k=2, and k=4 completes the identical request set
// with identical per-request output token counts, and the acceptance
// accounting closes on the emitted total. Speculation changes when
// tokens arrive, never which tokens arrive.
TEST_P(SpecEngineGrid, CompletionSetInvariantAcrossDraftDepths)
{
    const auto [mode, chunk, seed, policy] = GetParam();

    std::vector<std::vector<serve::Request>> traces;
    std::vector<serve::ServeTally> tallies;
    for (unsigned k : {0u, 2u, 4u}) {
        serve::ServerConfig cfg =
            engineGridConfig(mode, 4096, chunk, policy);
        if (k) {
            cfg.specDecode.enabled = true;
            cfg.specDecode.draftTokens = k;
        }

        auto trace = engineGridTrace(seed);
        auto step = kvGridModel();
        serve::ContinuousEngine eng(*step, cfg);
        for (auto &r : trace)
            eng.submit(&r, r.arrival);
        while (!eng.idle())
            eng.iterate();
        traces.push_back(std::move(trace));
        tallies.push_back(eng.tally());
    }

    const auto &base = traces.front();
    for (std::size_t v = 1; v < traces.size(); ++v) {
        ASSERT_EQ(traces[v].size(), base.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
            EXPECT_EQ(traces[v][i].finish >= 0.0,
                      base[i].finish >= 0.0)
                << "variant " << v << " request " << base[i].id;
            EXPECT_EQ(traces[v][i].outLen, base[i].outLen);
        }
        std::uint64_t out_tokens = 0;
        for (const auto &r : traces[v])
            if (r.finish >= 0.0)
                out_tokens += r.outLen;
        const serve::ServeTally &t = tallies[v];
        EXPECT_TRUE(t.specEnabled);
        EXPECT_EQ(t.specAccepted + t.specRejected + t.specBonus,
                  out_tokens)
            << "variant " << v;
        EXPECT_LT(t.decodeSteps, tallies.front().decodeSteps)
            << "variant " << v;
    }
}

// The same laws mid-run, with the paged cases also caching shared
// prompt prefixes so the pin bound has pins to bound.
TEST_P(SpecEngineGrid, ClosureHoldsAfterEveryIteration)
{
    const auto [mode, chunk, seed, policy] = GetParam();
    for (unsigned k : {0u, 2u, 4u}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        serve::ServerConfig cfg =
            engineGridConfig(mode, 4096, chunk, policy);
        auto trace = engineGridTrace(seed);
        if (mode == serve::KvMode::Paged) {
            cfg.prefixMode = serve::PrefixMode::Global;
            serve::SharedPrefixMix mix;
            mix.prefixLen = 64;
            serve::applySharedPrefixMix(trace, mix);
        }
        if (k) {
            cfg.specDecode.enabled = true;
            cfg.specDecode.draftTokens = k;
        }
        auto step = kvGridModel();
        serve::ContinuousEngine eng(*step, cfg);
        for (auto &r : trace)
            eng.submit(&r, r.arrival);
        ASSERT_NO_FATAL_FAILURE(iterateCheckingClosure(eng));
        if (mode == serve::KvMode::Paged) {
            EXPECT_GT(eng.tally().prefixHits, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    DraftDepths, SpecEngineGrid,
    ::testing::Combine(
        ::testing::Values(serve::KvMode::Reserved,
                          serve::KvMode::Paged),
        ::testing::Values(serve::ChunkMode::Off,
                          serve::ChunkMode::DecodePriority),
        ::testing::Values(5u, 21u),
        ::testing::Values(serve::BatchPolicy::Continuous,
                          serve::BatchPolicy::Static)),
    [](const ::testing::TestParamInfo<SpecEngineCase> &info) {
        return std::string(serve::kKvModeNames.name(
                   std::get<0>(info.param))) +
               "_" +
               serve::kChunkModeNames.name(std::get<1>(info.param)) +
               "_s" + std::to_string(std::get<2>(info.param)) +
               policySuffix(std::get<3>(info.param));
    });

// ---- Reserved and paged complete the same request set ------------------

class KvEquivalenceSeeds : public ::testing::TestWithParam<unsigned>
{
};

// Both disciplines shed exactly the never-fits requests and complete
// everything else, for any seeded trace: the discipline changes
// timing, never outcomes.
TEST_P(KvEquivalenceSeeds, CompletionSetsMatch)
{
    serve::WorkloadConfig load;
    load.arrivalRate = 0.8;
    load.numRequests = 50;
    load.meanInLen = 128;
    load.meanOutLen = 192;
    load.seed = GetParam();
    auto reserved_trace = serve::generateWorkload(load);
    auto paged_trace = reserved_trace;

    serve::ServerConfig cfg;
    cfg.policy = serve::BatchPolicy::Continuous;
    cfg.maxBatch = 16;
    cfg.kvBlocks = 512;
    cfg.kvBlockTokens = 16;

    {
        auto step = kvGridModel();
        serve::ContinuousEngine eng(*step, cfg);
        for (auto &r : reserved_trace)
            eng.submit(&r, r.arrival);
        while (!eng.idle())
            eng.iterate();
    }
    cfg.kvMode = serve::KvMode::Paged;
    {
        auto step = kvGridModel();
        serve::ContinuousEngine eng(*step, cfg);
        for (auto &r : paged_trace)
            eng.submit(&r, r.arrival);
        while (!eng.idle())
            eng.iterate();
    }

    for (std::size_t i = 0; i < reserved_trace.size(); ++i)
        EXPECT_EQ(reserved_trace[i].finish >= 0.0,
                  paged_trace[i].finish >= 0.0)
            << "request " << reserved_trace[i].id;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvEquivalenceSeeds,
                         ::testing::Values(3u, 17u, 99u, 123u));
