/**
 * @file
 * Differential and regression harness for chunked prefill. Four
 * layers:
 *
 *  1. Step-model identity — a single unshared chunk covering the
 *     whole prompt must price exactly like the monolithic prefill it
 *     replaces, on both the CPU and GPU models, and the slices of a
 *     split prefill must never price above the monolithic whole.
 *  2. Engine differential — the same trace replayed monolithic and
 *     chunked (across chunk sizes and both priority modes) must
 *     complete the identical request set with identical output token
 *     counts, while every chunked run bounds its largest single-step
 *     prefill strictly below the monolithic run's.
 *  3. Scheduling properties — the starvation guard completes every
 *     prompt even when decode monopolises the budget, chunked
 *     accounting closes (slice tokens sum to prompt tokens), and the
 *     prefix cache composes (cached tokens are never re-sliced).
 *  4. Regression pins — double-run byte identity of the metrics
 *     JSON, off-mode emitting no chunk/ITL keys, a golden seeded
 *     run, and fatal-path checks on config validation.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
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

/** Paged config with an ample pool, so runs differ only in how the
 *  prefill is scheduled — never in preemption or shedding. */
ServerConfig
chunkedConfig(ChunkMode mode, unsigned chunk, unsigned budget = 0)
{
    ServerConfig cfg;
    cfg.policy = BatchPolicy::Continuous;
    cfg.kvBlocks = 4096;
    cfg.kvBlockTokens = 16;
    cfg.kvMode = KvMode::Paged;
    cfg.paged.kvBytesPerToken =
        llm::llama2_7b().kvBytesPerToken(hw::Dtype::Bf16);
    cfg.chunkedPrefill.mode = mode;
    cfg.chunkedPrefill.chunkTokens = chunk;
    cfg.chunkedPrefill.stepTokenBudget = budget;
    return cfg;
}

/** Prefill-heavy seeded trace: prompts long enough that every chunk
 *  size under test actually splits them. */
std::vector<Request>
longPromptTrace()
{
    WorkloadConfig load;
    load.arrivalRate = 0.4;
    load.numRequests = 80;
    load.meanInLen = 768;
    load.meanOutLen = 96;
    load.seed = 77;
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

std::uint64_t
totalPromptTokens(const std::vector<Request> &trace)
{
    std::uint64_t sum = 0;
    for (const Request &r : trace)
        sum += r.inLen;
    return sum;
}

} // namespace

// ---------------------------------------------------------------------
// 1. Step-model identity
// ---------------------------------------------------------------------

TEST(ChunkStepModel, SingleUnsharedChunkEqualsMonolithicPrefill)
{
    const auto cpu = cpuModel();
    const auto gpu = makeGpuStepModel(hw::h100Nvl(), true,
                                      llm::llama2_7b(),
                                      hw::Dtype::Bf16);
    for (unsigned n : {32u, 256u, 1024u, 4096u}) {
        EXPECT_EQ(cpu->prefillChunk(0, n, false), cpu->prefill(n))
            << "cpu n=" << n;
        EXPECT_EQ(gpu->prefillChunk(0, n, false), gpu->prefill(n))
            << "gpu n=" << n;
    }
}

TEST(ChunkStepModel, SharedChunksAreCheaperThanUnshared)
{
    // A shared slice rides the weight stream of the step's first
    // phase, so it must never price above the standalone slice.
    const auto cpu = cpuModel();
    for (unsigned done : {0u, 256u, 1024u}) {
        EXPECT_LT(cpu->prefillChunk(done, 256, true),
                  cpu->prefillChunk(done, 256, false))
            << "done=" << done;
    }
}

TEST(ChunkStepModel, SplitPrefillNeverBeatsWholeOnWeightTraffic)
{
    // Splitting re-pays per-op fixed costs but each unshared slice
    // also re-streams the weights; a fully-unshared split must cost
    // at least the monolithic prefill.
    const auto cpu = cpuModel();
    const unsigned total = 1024;
    for (unsigned chunk : {128u, 256u, 512u}) {
        double split = 0.0;
        for (unsigned done = 0; done < total; done += chunk)
            split += cpu->prefillChunk(
                done, std::min(chunk, total - done), false);
        EXPECT_GE(split, cpu->prefill(total)) << "chunk=" << chunk;
    }
}

// ---------------------------------------------------------------------
// 2. Engine differential
// ---------------------------------------------------------------------

TEST(ChunkDifferential, IdenticalCompletionsLowerMaxStepPrefill)
{
    const std::vector<Request> trace = longPromptTrace();

    std::vector<Request> off_out;
    const ServeMetrics off =
        Server(cpuModel(), chunkedConfig(ChunkMode::Off, 256))
            .run(trace, off_out);
    ASSERT_GT(off.maxStepPrefillTokens, 512u)
        << "trace must contain monolithic prefills worth bounding";

    std::uint64_t prev_max = off.maxStepPrefillTokens;
    for (unsigned chunk : {512u, 256u, 128u, 64u}) {
        for (ChunkMode mode : {ChunkMode::DecodePriority,
                               ChunkMode::PrefillPriority}) {
            std::vector<Request> on_out;
            const ServeMetrics on =
                Server(cpuModel(), chunkedConfig(mode, chunk))
                    .run(trace, on_out);

            // Identical completion token streams: same request set,
            // same per-request output counts, nothing shed or lost.
            EXPECT_EQ(on.completed, off.completed);
            EXPECT_EQ(on.outputTokens, off.outputTokens);
            EXPECT_EQ(on.shed, off.shed);
            EXPECT_EQ(on.timedOut, off.timedOut);
            ASSERT_EQ(on_out.size(), off_out.size());
            for (std::size_t i = 0; i < off_out.size(); ++i) {
                EXPECT_EQ(on_out[i].id, off_out[i].id);
                EXPECT_EQ(on_out[i].outLen, off_out[i].outLen);
            }

            // ...under a strictly smaller per-step prefill bound.
            EXPECT_TRUE(on.chunkedEnabled);
            EXPECT_GT(on.chunkSlices, trace.size());
            EXPECT_LT(on.maxStepPrefillTokens,
                      off.maxStepPrefillTokens)
                << "chunk=" << chunk;
            // Default budget is chunk + maxBatch (32 here); one
            // forced slice may ride on top of an exhausted budget.
            EXPECT_LE(on.maxStepPrefillTokens, 2u * chunk + 32u)
                << "budget + forced slice is the hard per-step cap";
        }
        // Decode-priority max step prefill shrinks (weakly) with the
        // chunk size — the monotone knob the sweep reports.
        const ServeMetrics dp =
            Server(cpuModel(),
                   chunkedConfig(ChunkMode::DecodePriority, chunk))
                .run(trace);
        EXPECT_LE(dp.maxStepPrefillTokens, prev_max)
            << "chunk=" << chunk;
        prev_max = dp.maxStepPrefillTokens;
    }
}

TEST(ChunkDifferential, ChunkingCollapsesItlTail)
{
    // The point of the feature: decoding requests no longer stall
    // behind whole-prompt prefills, so the p99 inter-token gap drops.
    const std::vector<Request> trace = longPromptTrace();
    const ServeMetrics off =
        Server(cpuModel(), chunkedConfig(ChunkMode::Off, 256))
            .run(trace);
    const ServeMetrics on =
        Server(cpuModel(),
               chunkedConfig(ChunkMode::DecodePriority, 256))
            .run(trace);
    EXPECT_LT(on.itl.p99, off.itl.p99);
}

// ---------------------------------------------------------------------
// 3. Scheduling properties
// ---------------------------------------------------------------------

TEST(ChunkProperties, AccountingClosesOverSliceTokens)
{
    // With an ample pool (no preemption, no retries) every prompt
    // token is prefilled exactly once, in slices.
    const std::vector<Request> trace = longPromptTrace();
    const ServeMetrics on =
        Server(cpuModel(),
               chunkedConfig(ChunkMode::DecodePriority, 128))
            .run(trace);
    EXPECT_EQ(on.chunkPrefillTokens, totalPromptTokens(trace));
}

TEST(ChunkProperties, StarvationGuardCompletesUnderDecodePressure)
{
    // Budget == chunk: with a full decode batch, decode-priority
    // leaves no slice budget at all, so only the starvation guard
    // moves prefills forward — every request must still finish.
    WorkloadConfig load;
    load.arrivalRate = 2.0;
    load.numRequests = 60;
    load.meanInLen = 512;
    load.meanOutLen = 128;
    load.seed = 5;
    const std::vector<Request> trace = generateWorkload(load);

    ServerConfig cfg =
        chunkedConfig(ChunkMode::DecodePriority, 128, 128);
    cfg.chunkedPrefill.starvationIters = 4;
    std::vector<Request> out;
    const ServeMetrics m = Server(cpuModel(), cfg).run(trace, out);
    EXPECT_EQ(m.completed, trace.size());
    EXPECT_GT(m.starvationKicks, 0u);
    for (const Request &r : out)
        EXPECT_GE(r.finish, 0.0) << "request " << r.id;
}

TEST(ChunkProperties, PrefixCacheComposesWithChunking)
{
    // Shared prompts: cached tokens are admitted from the radix tree
    // and only the tail is sliced, so slice accounting closes on
    // (prompt − cached) and completions still match the plain run.
    WorkloadConfig load;
    load.arrivalRate = 0.45;
    load.numRequests = 120;
    load.meanInLen = 512;
    load.meanOutLen = 128;
    load.seed = 99;
    std::vector<Request> trace = generateWorkload(load);
    applySharedPrefixMix(trace, SharedPrefixMix{});

    ServerConfig plain = chunkedConfig(ChunkMode::Off, 256);
    plain.prefixMode = PrefixMode::PerTenant;
    std::vector<Request> plain_out;
    const ServeMetrics off =
        Server(cpuModel(), plain).run(trace, plain_out);

    ServerConfig cfg =
        chunkedConfig(ChunkMode::DecodePriority, 256);
    cfg.prefixMode = PrefixMode::PerTenant;
    std::vector<Request> out;
    const ServeMetrics on = Server(cpuModel(), cfg).run(trace, out);

    EXPECT_EQ(on.completed, off.completed);
    EXPECT_EQ(on.outputTokens, off.outputTokens);
    EXPECT_GT(on.prefixHits, 0u);
    EXPECT_EQ(on.chunkPrefillTokens,
              totalPromptTokens(trace) - on.prefixCachedTokens);
    EXPECT_EQ(on.chunkPrefillTokens, on.prefillTokensComputed);
}

// ---------------------------------------------------------------------
// 4. Regression pins
// ---------------------------------------------------------------------

TEST(ChunkRegression, DoubleRunMetricsJsonByteIdentical)
{
    const std::vector<Request> trace = longPromptTrace();
    const ServeMetrics a =
        Server(cpuModel(),
               chunkedConfig(ChunkMode::DecodePriority, 256))
            .run(trace);
    const ServeMetrics b =
        Server(cpuModel(),
               chunkedConfig(ChunkMode::DecodePriority, 256))
            .run(trace);
    EXPECT_EQ(metricsJson(a), metricsJson(b));
}

TEST(ChunkRegression, OffModeEmitsNoChunkKeys)
{
    const std::vector<Request> trace = longPromptTrace();
    const ServeMetrics off =
        Server(cpuModel(), chunkedConfig(ChunkMode::Off, 256))
            .run(trace);
    const std::string json = metricsJson(off);
    EXPECT_EQ(json.find("chunk_"), std::string::npos)
        << "off-mode metrics JSON must stay byte-identical to the "
           "pre-chunking format";
    EXPECT_EQ(json.find("itl_"), std::string::npos);
    EXPECT_EQ(json.find("mixed_steps"), std::string::npos);
    EXPECT_FALSE(off.chunkedEnabled);
    EXPECT_EQ(off.chunkSlices, 0u);
}

TEST(ChunkRegression, GoldenSeededRun)
{
    const std::vector<Request> trace = longPromptTrace();
    const ServeMetrics m =
        Server(cpuModel(),
               chunkedConfig(ChunkMode::DecodePriority, 256))
            .run(trace);
    std::map<std::string, double> actual;
    actual["completed"] = static_cast<double>(m.completed);
    actual["output_tokens"] = static_cast<double>(m.outputTokens);
    actual["chunk_slices"] = static_cast<double>(m.chunkSlices);
    actual["chunk_prefill_tokens"] =
        static_cast<double>(m.chunkPrefillTokens);
    actual["mixed_steps"] = static_cast<double>(m.mixedSteps);
    actual["starvation_kicks"] =
        static_cast<double>(m.starvationKicks);
    actual["max_step_prefill_tokens"] =
        static_cast<double>(m.maxStepPrefillTokens);
    actual["ttft_p50_s"] = m.ttft.p50;
    actual["ttft_p99_s"] = m.ttft.p99;
    actual["itl_p50_s"] = m.itl.p50;
    actual["itl_p99_s"] = m.itl.p99;
    actual["makespan_s"] = m.makespan;
    cllm::testing::checkAgainstGolden("chunked_small.json", actual);
}

TEST(ChunkRegression, ModeNamesRoundTrip)
{
    for (ChunkMode mode : {ChunkMode::Off, ChunkMode::DecodePriority,
                           ChunkMode::PrefillPriority})
        EXPECT_EQ(kChunkModeNames.parse(kChunkModeNames.name(mode)), mode);
    EXPECT_DEATH(kChunkModeNames.parse("bogus"), "unknown chunk mode");
}

/** One name table, type-erased so a single TEST_P covers them all. */
struct NameTableCase
{
    std::string label;
    std::string unknown; //!< expected start of the parse fatal
    std::vector<std::string> names;
    /** parse(name) lands on the entry's value and prints back. */
    std::function<bool(std::size_t)> roundTrips;
    std::function<void(const std::string &)> parse;
};

/**
 * Print a case as its label. gtest's default byte dump includes the
 * label's heap pointer, so the listed test names (and the ctest names
 * built from them) would differ from run to run.
 */
void
PrintTo(const NameTableCase &c, std::ostream *os)
{
    *os << c.label;
}

template <typename T, std::size_t N>
NameTableCase
nameCase(std::string label, std::string unknown,
         const NameTable<T, N> &table)
{
    NameTableCase c{std::move(label), std::move(unknown), {}, {}, {}};
    for (const Named<T> &e : table.entries)
        c.names.push_back(e.name);
    c.roundTrips = [&table](std::size_t i) {
        const Named<T> &e = table.entries[i];
        return table.parse(e.name) == e.value &&
               std::string(table.name(e.value)) == e.name;
    };
    c.parse = [&table](const std::string &s) { table.parse(s); };
    return c;
}

class NameTables : public ::testing::TestWithParam<NameTableCase>
{
};

TEST_P(NameTables, RoundTrip)
{
    const NameTableCase &c = GetParam();
    std::string choices;
    for (std::size_t i = 0; i < c.names.size(); ++i) {
        EXPECT_TRUE(c.roundTrips(i)) << c.names[i];
        for (std::size_t j = 0; j < i; ++j)
            EXPECT_NE(c.names[i], c.names[j]);
        choices += (i ? "\\|" : "") + c.names[i];
    }
    EXPECT_DEATH(c.parse("bogus"),
                 c.unknown + " 'bogus' \\(" + choices + "\\)");
}

INSTANTIATE_TEST_SUITE_P(
    Every, NameTables,
    ::testing::Values(
        nameCase("chunk_mode", "unknown chunk mode", kChunkModeNames),
        nameCase("kv_mode", "unknown KV mode", kKvModeNames),
        nameCase("prefix_mode", "unknown prefix mode", kPrefixModeNames),
        nameCase("dtype", "unknown dtype", hw::kDtypeNames),
        nameCase("backend", "unknown backend", core::kBackendNames),
        nameCase("model", "unknown model", llm::kModelPresets),
        nameCase("machine", "unknown machine", hw::kCpuPresets)),
    [](const ::testing::TestParamInfo<NameTableCase> &info) {
        return info.param.label;
    });

TEST(ChunkDeath, ZeroChunkSizeIsFatal)
{
    ServerConfig cfg = chunkedConfig(ChunkMode::DecodePriority, 0);
    EXPECT_DEATH(Server(cpuModel(), cfg), "zero chunk size");
}

TEST(ChunkDeath, BudgetBelowChunkIsFatal)
{
    ServerConfig cfg =
        chunkedConfig(ChunkMode::DecodePriority, 256, 64);
    EXPECT_DEATH(Server(cpuModel(), cfg), "budget below the chunk");
}

TEST(ChunkDeath, ZeroStarvationWindowIsFatal)
{
    ServerConfig cfg = chunkedConfig(ChunkMode::DecodePriority, 256);
    cfg.chunkedPrefill.starvationIters = 0;
    EXPECT_DEATH(Server(cpuModel(), cfg), "starvation");
}
