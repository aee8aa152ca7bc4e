/**
 * @file
 * Step-path fingerprint: pins *how* the continuous-batching engine
 * steps, not just what it reports. Each grid case replays a small
 * seeded trace through a recording `StepModel` decorator and hashes
 *
 *  - every pricing call, in order: its kind, the bit patterns of its
 *    arguments, and the bit pattern of the price it returned;
 *  - the sim-domain Chrome trace export (span and event order);
 *  - the `writeMetrics` JSON;
 *  - the engine's obs counters and gauges;
 *  - every request's first-token and finish time, bit for bit (the
 *    trace and JSON print times at 10 significant digits, which can
 *    hide a changed floating-point accumulation order).
 *
 * The 1e-9-tolerance goldens would absorb a reordered pricing call or
 * a reordered trace span; these hashes do not. Expectations live in
 * `tests/golden/step_path.txt`; CLLM_REGEN_GOLDEN=1 rewrites it.
 *
 * Two more tests check that every case exercises the path it is named
 * for, and, in a fresh process per case, the lazy-registration rule:
 * a run with a feature off never registers that feature's counters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "golden_util.hh"
#include "obs/chrome_export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/serving.hh"
#include "util/json.hh"

using namespace cllm;
using namespace cllm::serve;

namespace {

/** FNV-1a 64 over raw bytes. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    pod(T v)
    {
        bytes(&v, sizeof v);
    }

    void str(const std::string &s) { bytes(s.data(), s.size()); }
};

/** Forwards every pricing virtual and hashes the call stream. */
class RecordingStepModel : public StepModel
{
  public:
    RecordingStepModel(std::unique_ptr<StepModel> inner, Fnv &calls,
                       std::uint64_t &count)
        : inner_(std::move(inner)), calls_(&calls), count_(&count)
    {
    }

    double
    prefill(unsigned in_len) const override
    {
        return record('P', inner_->prefill(in_len), in_len);
    }

    double
    decodeStep(double nseq, double avg_pos) const override
    {
        return record('D', inner_->decodeStep(nseq, avg_pos), nseq,
                      avg_pos);
    }

    double
    prefillFrom(unsigned cached, unsigned total) const override
    {
        return record('F', inner_->prefillFrom(cached, total), cached,
                      total);
    }

    double
    prefillChunk(unsigned done, unsigned chunk,
                 bool shared) const override
    {
        return record('C', inner_->prefillChunk(done, chunk, shared),
                      done, chunk, shared);
    }

    double
    verifyStep(double nseq, double k, double avg_pos) const override
    {
        return record('V', inner_->verifyStep(nseq, k, avg_pos), nseq,
                      k, avg_pos);
    }

  private:
    template <typename... Args>
    double
    record(char kind, double result, Args... args) const
    {
        calls_->pod(kind);
        (calls_->pod(args), ...);
        calls_->pod(result);
        ++*count_;
        return result;
    }

    std::unique_ptr<StepModel> inner_;
    Fnv *calls_;
    std::uint64_t *count_;
};

std::unique_ptr<StepModel>
tdxModel()
{
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return makeCpuStepModel(
        cpu, std::shared_ptr<const tee::TeeBackend>(tee::makeTdx()),
        llm::llama2_7b(), p);
}

/** Every obs instrument the engine writes. */
const char *const kCounters[] = {
    "serve.prefills",
    "serve.decode_steps",
    "serve.output_tokens",
    "serve.kv_preempts",
    "serve.kv_swap_outs",
    "serve.kv_swap_ins",
    "serve.prefix_hits",
    "serve.prefix_misses",
    "serve.prefix_evicted_blocks",
    "serve.chunk_slices",
    "serve.chunk_prefill_tokens",
    "serve.chunk_mixed_steps",
    "serve.chunk_starvation_kicks",
    "serve.spec_verify_steps",
    "serve.spec_draft_tokens",
    "serve.spec_accepted_tokens",
    "serve.spec_rejected_tokens",
    "serve.spec_bonus_tokens",
};
const char *const kGauges[] = {
    "serve.kv_blocks_used",
    "serve.kv_blocks_free",
    "serve.prefix_pinned_blocks",
};

struct StepCase
{
    const char *name;
    std::vector<Request> trace;
    ServerConfig cfg;
};

std::vector<Request>
chatTrace(unsigned n, unsigned seed, double rate = 1.0)
{
    WorkloadConfig load;
    load.arrivalRate = rate;
    load.numRequests = n;
    load.meanInLen = 160;
    load.meanOutLen = 96;
    load.seed = seed;
    return generateWorkload(load);
}

ServerConfig
baseConfig()
{
    ServerConfig cfg;
    cfg.policy = BatchPolicy::Continuous;
    cfg.maxBatch = 12;
    cfg.kvBlockTokens = 16;
    return cfg;
}

ServerConfig
pagedConfig(std::uint64_t blocks)
{
    ServerConfig cfg = baseConfig();
    cfg.kvBlocks = blocks;
    cfg.kvMode = KvMode::Paged;
    cfg.paged.kvBytesPerToken =
        llm::llama2_7b().kvBytesPerToken(hw::Dtype::Bf16);
    return cfg;
}

fault::FaultSchedule
faultSchedule()
{
    fault::FaultScheduleConfig fs;
    fs.seed = 7;
    fs.horizon = 200.0;
    fs.attestFail = {1.0 / 40.0, 2.0, 0.0};
    fs.enclaveRestart = {1.0 / 60.0, 0.0, 0.0};
    fs.epcStorm = {1.0 / 20.0, 6.0, 3.0};
    fs.kvExhaustion = {1.0 / 40.0, 5.0, 0.5};
    return fault::FaultSchedule::generate(fs);
}

void
addFaults(ServerConfig &cfg)
{
    cfg.faults = faultSchedule();
    cfg.weightBytes = 1ULL << 30;
    cfg.resilience.requestTimeout = 40.0;
    cfg.resilience.maxRetries = 3;
    cfg.resilience.retryBackoff = 0.25;
    cfg.resilience.degradedMaxBatch = 6;
}

void
enableSpec(ServerConfig &cfg, unsigned k)
{
    cfg.specDecode.enabled = true;
    cfg.specDecode.draftTokens = k;
}

void
enableChunked(ServerConfig &cfg, ChunkMode mode, unsigned chunk,
              unsigned budget = 0)
{
    cfg.chunkedPrefill.mode = mode;
    cfg.chunkedPrefill.chunkTokens = chunk;
    cfg.chunkedPrefill.stepTokenBudget = budget;
    cfg.chunkedPrefill.starvationIters = 3;
}

std::vector<Request>
sharedPrefixTrace(unsigned n, unsigned seed)
{
    std::vector<Request> t = chatTrace(n, seed);
    SharedPrefixMix mix;
    mix.tenants = 3;
    mix.promptsPerTenant = 2;
    mix.prefixLen = 96;
    mix.sharedFraction = 0.8;
    applySharedPrefixMix(t, mix);
    return t;
}

/** The grid: every engine step path, each feature alone and all on. */
std::vector<StepCase>
stepCases()
{
    std::vector<StepCase> cases;

    cases.push_back({"off", chatTrace(60, 3), baseConfig()});

    ServerConfig faults = baseConfig();
    faults.kvBlocks = 1024;
    addFaults(faults);
    cases.push_back({"reserved_faults", chatTrace(80, 4, 1.5), faults});

    ServerConfig swap = pagedConfig(96);
    swap.paged.preempt = KvPreemptPolicy::SwapToEpc;
    cases.push_back({"paged_swap_epc", chatTrace(60, 5, 2.0), swap});

    ServerConfig prefix = pagedConfig(512);
    prefix.prefixMode = PrefixMode::PerTenant;
    cases.push_back({"prefix", sharedPrefixTrace(60, 6), prefix});

    ServerConfig chunk_d = pagedConfig(1024);
    enableChunked(chunk_d, ChunkMode::DecodePriority, 48);
    cases.push_back({"chunked_decode", chatTrace(60, 7, 1.5), chunk_d});

    ServerConfig chunk_p = baseConfig();
    chunk_p.kvBlocks = 1024;
    enableChunked(chunk_p, ChunkMode::PrefillPriority, 64, 64);
    cases.push_back({"chunked_prefill", chatTrace(60, 8, 1.5), chunk_p});

    ServerConfig spec = pagedConfig(1024);
    enableSpec(spec, 4);
    cases.push_back({"spec", chatTrace(60, 9), spec});

    ServerConfig spec_f = baseConfig();
    spec_f.kvBlocks = 1024;
    enableSpec(spec_f, 3);
    addFaults(spec_f);
    cases.push_back({"spec_faults", chatTrace(80, 10, 1.5), spec_f});

    ServerConfig all = pagedConfig(112);
    all.prefixMode = PrefixMode::Global;
    enableChunked(all, ChunkMode::DecodePriority, 40, 48);
    enableSpec(all, 4);
    all.resilience.requestTimeout = 60.0;
    cases.push_back({"chunked_spec_prefix_paged", sharedPrefixTrace(70, 11),
                     all});

    ServerConfig all_f = pagedConfig(160);
    all_f.prefixMode = PrefixMode::PerTenant;
    enableChunked(all_f, ChunkMode::PrefillPriority, 56);
    enableSpec(all_f, 2);
    addFaults(all_f);
    cases.push_back({"chunked_spec_prefix_faults",
                     sharedPrefixTrace(70, 12), all_f});
    return cases;
}

struct Fingerprint
{
    std::uint64_t calls = 0;
    std::uint64_t pricing = 0;
    std::uint64_t trace = 0;
    std::uint64_t metrics = 0;
    std::uint64_t counters = 0;
    std::uint64_t timing = 0;
    ServeMetrics m;
};

Fingerprint
fingerprint(const StepCase &c)
{
    Fingerprint fp;
    Fnv calls;
    // The registry is process-wide: hash what this run adds to each
    // counter, and the gauges it leaves behind from a zero start.
    obs::Registry &reg = obs::Registry::global();
    std::vector<std::uint64_t> before;
    for (const char *name : kCounters)
        before.push_back(reg.counter(name).total());
    for (const char *name : kGauges)
        reg.gauge(name).set(0.0);
    obs::Tracer tracer(obs::TraceMode::Sim);
    ServerConfig cfg = c.cfg;
    cfg.tracer = &tracer;
    Server server(std::make_unique<RecordingStepModel>(
                      tdxModel(), calls, fp.calls),
                  cfg);
    std::vector<Request> done;
    fp.m = server.run(c.trace, done);
    fp.pricing = calls.h;

    Fnv rh;
    for (const Request &r : done) {
        rh.pod(r.id);
        rh.pod(r.firstToken);
        rh.pod(r.finish);
    }
    fp.timing = rh.h;

    std::ostringstream trace_json;
    obs::writeChromeTrace(trace_json, tracer);
    Fnv th;
    th.str(trace_json.str());
    fp.trace = th.h;

    std::ostringstream metrics_json;
    {
        JsonWriter json(metrics_json);
        writeMetrics(json, fp.m);
    }
    Fnv mh;
    mh.str(metrics_json.str());
    fp.metrics = mh.h;

    Fnv ch;
    for (std::size_t i = 0; i < std::size(kCounters); ++i)
        ch.pod(reg.counter(kCounters[i]).total() - before[i]);
    for (const char *name : kGauges)
        ch.pod(reg.gauge(name).get());
    fp.counters = ch.h;
    return fp;
}

std::string
formatLine(const std::string &name, const Fingerprint &fp)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%llu %016llx %016llx %016llx %016llx %016llx",
                  static_cast<unsigned long long>(fp.calls),
                  static_cast<unsigned long long>(fp.pricing),
                  static_cast<unsigned long long>(fp.trace),
                  static_cast<unsigned long long>(fp.metrics),
                  static_cast<unsigned long long>(fp.counters),
                  static_cast<unsigned long long>(fp.timing));
    return name + " " + buf;
}

const std::string kGoldenPath =
    std::string(CLLM_GOLDEN_DIR) + "/step_path.txt";

} // namespace

// Every case must exercise the path it is named for, or its
// fingerprint guards nothing.
TEST(StepPathFingerprint, GridCoversEveryStepPath)
{
    std::map<std::string, ServeMetrics> m;
    for (const StepCase &c : stepCases())
        m[c.name] = fingerprint(c).m;
    EXPECT_GT(m["reserved_faults"].restarts, 0u);
    EXPECT_GT(m["reserved_faults"].timedOut, 0u);
    EXPECT_GT(m["paged_swap_epc"].kvSwapOuts, 0u);
    EXPECT_GT(m["prefix"].prefixHits, 0u);
    EXPECT_GT(m["chunked_decode"].mixedSteps, 0u);
    EXPECT_GT(m["chunked_prefill"].starvationKicks, 0u);
    EXPECT_GT(m["spec"].specBonus, 0u);
    EXPECT_GT(m["spec_faults"].restarts, 0u);
    EXPECT_GT(m["spec_faults"].timedOut, 0u);
    const ServeMetrics &all = m["chunked_spec_prefix_paged"];
    EXPECT_GT(all.kvPreemptions, 0u);
    EXPECT_GT(all.prefixHits, 0u);
    EXPECT_GT(all.mixedSteps, 0u);
    EXPECT_GT(all.specRejected, 0u);
    EXPECT_GT(m["chunked_spec_prefix_faults"].restarts, 0u);
}

TEST(StepPathFingerprint, MatchesGolden)
{
    std::vector<std::string> lines;
    for (const StepCase &c : stepCases())
        lines.push_back(formatLine(c.name, fingerprint(c)));

    if (cllm::testing::regenRequested()) {
        std::ofstream os(kGoldenPath);
        ASSERT_TRUE(os.good()) << "cannot write " << kGoldenPath;
        os << "# case calls pricing trace metrics counters timing\n";
        for (const std::string &l : lines)
            os << l << "\n";
        GTEST_SKIP() << "regenerated " << kGoldenPath;
    }

    std::ifstream is(kGoldenPath);
    ASSERT_TRUE(is.good()) << "missing golden file " << kGoldenPath;
    std::vector<std::string> expected;
    for (std::string l; std::getline(is, l);)
        if (!l.empty() && l[0] != '#')
            expected.push_back(l);
    ASSERT_EQ(expected.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i], expected[i]);
}

// Each case runs in a fresh process (threadsafe death tests re-exec
// the binary), so the registry holds exactly what that one run
// registered: a feature that is off must leave no trace in it.
TEST(StepPathFingerprint, FeatureCountersRegisterLazily)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const StepCase &c : stepCases()) {
        EXPECT_EXIT(
            {
                Server(tdxModel(), c.cfg).run(c.trace);
                std::ostringstream os;
                {
                    JsonWriter json(os);
                    obs::Registry::global().snapshot(json);
                }
                const std::string snap = os.str();
                const bool prefix = c.cfg.prefixMode != PrefixMode::Off;
                const bool chunk =
                    c.cfg.chunkedPrefill.mode != ChunkMode::Off;
                const bool spec = c.cfg.specDecode.enabled;
                const bool bad =
                    (!prefix &&
                     snap.find("serve.prefix_") != std::string::npos) ||
                    (!chunk &&
                     snap.find("serve.chunk_") != std::string::npos) ||
                    (!spec &&
                     snap.find("serve.spec_") != std::string::npos);
                std::_Exit(bad ? 1 : 0);
            },
            ::testing::ExitedWithCode(0), "")
            << c.name;
    }
}
