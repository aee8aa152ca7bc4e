/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 */

#ifndef CLLM_BENCH_BENCH_UTIL_HH
#define CLLM_BENCH_BENCH_UTIL_HH

#include <cstddef>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "llm/perf_cluster.hh"
#include "obs/metrics.hh"
#include "par/pool.hh"
#include "serve/serving.hh"
#include "util/config.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace cllm::bench {

/**
 * Evaluate `fn(i)` for every grid point i in [0, n) on the cllm::par
 * pool and return the results in index order. The sweep binaries use
 * this to fan their parameter grids out across cores: each grid
 * point's computation is independent and deterministic (any nested
 * parallelFor inside `fn` runs inline on the worker), so the returned
 * vector is identical to a serial sweep — only the wall-clock drops.
 * Print from the returned vector, never from inside `fn`.
 */
template <typename T, typename Fn>
std::vector<T>
runGrid(std::size_t n, Fn &&fn)
{
    std::vector<T> out(n);
    par::parallelFor(0, n, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            out[i] = fn(i);
    });
    return out;
}

/**
 * Observability flags shared by the bench binaries. Both are strictly
 * additive: with neither flag the binaries' stdout stays byte-
 * identical to the untraced build.
 */
struct ObsOptions
{
    bool trace = false;     //!< record a sim trace and export it
    std::string tracePath;  //!< "" = $CLLM_TRACE_OUT, then default
    std::string metricsOut; //!< "" = no registry snapshot
};

/** Usage text for the shared observability flags. */
inline const char *
obsUsage()
{
    return "  --trace [path]      record a sim-time trace and write "
           "Chrome trace-event\n"
           "                      JSON (chrome://tracing / Perfetto); "
           "path defaults to\n"
           "                      $CLLM_TRACE_OUT, then to "
           "<bench>.trace.json\n"
           "  --metrics-out path  write the metrics-registry snapshot "
           "(counters,\n"
           "                      gauges, histograms) as JSON to "
           "path\n"
           "  --help              show this help\n";
}

/**
 * Consume argv[i] (advancing `i` past any operand) when it is one of
 * the shared observability flags; false otherwise.
 */
inline bool
parseObsArg(ObsOptions &opt, int argc, char **argv, int &i)
{
    if (std::strcmp(argv[i], "--trace") == 0) {
        opt.trace = true;
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
            opt.tracePath = argv[++i];
        return true;
    }
    if (std::strcmp(argv[i], "--metrics-out") == 0) {
        if (i + 1 >= argc)
            cllm_fatal("--metrics-out needs a path");
        opt.metricsOut = argv[++i];
        return true;
    }
    return false;
}

/**
 * Dump the global metrics registry as JSON to `path`; no-op when
 * `path` is empty.
 */
inline void
writeMetricsSnapshot(const std::string &path)
{
    if (path.empty())
        return;
    std::ofstream f(path);
    if (!f)
        cllm_fatal("cannot open metrics output: ", path);
    JsonWriter json(f);
    obs::Registry::global().snapshot(json);
    f << "\n";
}

/** Print the standard bench banner. */
inline void
banner(const std::string &artefact, const std::string &what,
       const std::string &paper_band)
{
    std::cout << "=== " << artefact << ": " << what << " ===\n";
    if (!paper_band.empty())
        std::cout << "paper reports: " << paper_band << "\n";
    std::cout << "\n";
}

/** Throughput run parameters used across the CPU figures. */
inline llm::RunParams
throughputParams(const hw::CpuSpec &cpu, unsigned sockets = 1)
{
    llm::RunParams p;
    p.batch = 6;
    p.beam = 4;
    p.inLen = 1024;
    p.outLen = 128;
    p.sockets = sockets;
    p.cores = sockets * cpu.coresPerSocket;
    return p;
}

/** Latency run parameters (batch 1, beam 1). */
inline llm::RunParams
latencyParams(const hw::CpuSpec &cpu, unsigned sockets = 1)
{
    llm::RunParams p = throughputParams(cpu, sockets);
    p.batch = 1;
    p.beam = 1;
    return p;
}

/**
 * Switch a server config to the paged-KV discipline, pricing swap
 * traffic with the model's real per-token KV footprint. The preempt
 * policy stays whatever the caller set (recompute by default).
 */
inline void
applyPagedKv(serve::ServerConfig &cfg, const llm::ModelConfig &model,
             hw::Dtype dtype = hw::Dtype::Bf16)
{
    cfg.kvMode = serve::KvMode::Paged;
    cfg.paged.kvBytesPerToken = model.kvBytesPerToken(dtype);
}

/**
 * Consume a `--<flag> <mode>` pair at argv[i] (advancing `i` past the
 * operand); false when argv[i] is some other flag. One helper behind
 * the `--kv`, `--prefix`, and `--chunk` mode flags instead of three
 * copies of the same bounds-check-then-parse dance: `parse` maps the
 * operand onto the mode enum (and is fatal on junk), `operands` is
 * the usage hint printed when the operand is missing.
 */
template <typename Mode>
inline bool
parseModeArg(const char *flag, Mode (*parse)(const std::string &),
             Mode &mode, int argc, char **argv, int &i,
             const char *operands)
{
    if (std::strcmp(argv[i], flag) != 0)
        return false;
    if (i + 1 >= argc)
        cllm_fatal(flag, " needs a mode (", operands, ")");
    mode = parse(argv[++i]);
    return true;
}

/**
 * The operand of the numeric flag at argv[i] (advancing `i` past it),
 * parsed strictly as a T in [lo, hi]: junk, trailing characters and
 * out-of-range values are fatal.
 */
template <typename T>
inline T
numericArg(int argc, char **argv, int &i, T lo,
           T hi = std::numeric_limits<T>::max())
{
    const char *flag = argv[i];
    if (i + 1 >= argc)
        cllm_fatal(flag, " needs a value");
    return parseNumber<T>(flag, argv[++i], lo, hi);
}

/**
 * Consume `--kv <reserved|paged>` at argv[i]; false otherwise. The
 * flag is strictly additive: without it the binaries run reserved and
 * their stdout stays byte-identical.
 */
inline bool
parseKvArg(serve::KvMode &mode, int argc, char **argv, int &i)
{
    return parseModeArg("--kv", serve::parseKvMode, mode, argc, argv,
                        i, "reserved|paged");
}

/**
 * Prefix-caching options shared by `serve_slo` and `fleet_capacity`
 * — one parser instead of two copies.
 * Defaults leave caching off and the workload unannotated, so a
 * binary that never sees the flags stays byte-identical.
 */
struct PrefixOptions
{
    serve::PrefixMode mode = serve::PrefixMode::Off;
    serve::SharedPrefixMix mix{};
};

/** Usage text for the shared prefix-caching flags. */
inline const char *
prefixUsage()
{
    return "  --prefix <off|per_tenant|global>\n"
           "                      enable radix-tree prefix KV caching "
           "with the given\n"
           "                      sharing scope (requires --kv "
           "paged)\n"
           "  --prefix-tenants N  tenants in the shared-prompt mix "
           "(default 4)\n"
           "  --prefix-len N      shared system-prompt length in "
           "tokens (default 256)\n"
           "  --prefix-share F    fraction of requests opening with a "
           "shared prompt\n"
           "                      (default 0.85)\n";
}

/**
 * Consume argv[i] (advancing `i` past any operand) when it is one of
 * the shared prefix-caching flags; false otherwise.
 */
inline bool
parsePrefixArg(PrefixOptions &opt, int argc, char **argv, int &i)
{
    if (parseModeArg("--prefix", serve::parsePrefixMode, opt.mode,
                     argc, argv, i, "off|per_tenant|global"))
        return true;
    if (std::strcmp(argv[i], "--prefix-tenants") == 0) {
        opt.mix.tenants = numericArg(argc, argv, i, 1u);
        return true;
    }
    if (std::strcmp(argv[i], "--prefix-len") == 0) {
        opt.mix.prefixLen = numericArg(argc, argv, i, 0u);
        return true;
    }
    if (std::strcmp(argv[i], "--prefix-share") == 0) {
        opt.mix.sharedFraction = numericArg(argc, argv, i, 0.0, 1.0);
        return true;
    }
    return false;
}

/** The shared-system-prompt arrival mix the prefix studies replay. */
inline serve::SharedPrefixMix
sharedPromptMix()
{
    return serve::SharedPrefixMix{};
}

/** Apply parsed prefix options to a server config. */
inline void
applyPrefixCache(serve::ServerConfig &cfg, const PrefixOptions &opt)
{
    cfg.prefixMode = opt.mode;
}

/**
 * Chunked-prefill options shared by `serve_slo` and
 * `fleet_capacity`. Defaults leave chunking off, so a
 * binary that never sees the flags stays byte-identical.
 */
struct ChunkOptions
{
    serve::ChunkMode mode = serve::ChunkMode::Off;
    unsigned chunkTokens = 256;
    unsigned stepTokenBudget = 0; //!< 0 = chunkTokens + maxBatch
};

/** Usage text for the shared chunked-prefill flags. */
inline const char *
chunkUsage()
{
    return "  --chunk <off|decode|prefill>\n"
           "                      enable chunked prefill with mixed "
           "prefill/decode\n"
           "                      steps under the given scheduling "
           "priority\n"
           "  --chunk-tokens N    max prompt tokens per prefill slice "
           "(default 256)\n"
           "  --chunk-budget N    per-step token budget (default: "
           "chunk + batch)\n";
}

/**
 * Consume argv[i] (advancing `i` past any operand) when it is one of
 * the shared chunked-prefill flags; false otherwise.
 */
inline bool
parseChunkArg(ChunkOptions &opt, int argc, char **argv, int &i)
{
    if (parseModeArg("--chunk", serve::parseChunkMode, opt.mode,
                     argc, argv, i, "off|decode|prefill"))
        return true;
    if (std::strcmp(argv[i], "--chunk-tokens") == 0) {
        opt.chunkTokens = numericArg(argc, argv, i, 1u);
        return true;
    }
    if (std::strcmp(argv[i], "--chunk-budget") == 0) {
        opt.stepTokenBudget = numericArg(argc, argv, i, 0u);
        return true;
    }
    return false;
}

/** Apply parsed chunked-prefill options to a server config. */
inline void
applyChunkedPrefill(serve::ServerConfig &cfg, const ChunkOptions &opt)
{
    cfg.chunkedPrefill.mode = opt.mode;
    cfg.chunkedPrefill.chunkTokens = opt.chunkTokens;
    cfg.chunkedPrefill.stepTokenBudget = opt.stepTokenBudget;
}

/**
 * Speculative-decoding options shared by `serve_slo` and
 * `fleet_capacity`. Defaults leave speculation off, so a binary that
 * never sees the flags stays byte-identical.
 */
struct SpecOptions
{
    bool enabled = false;
    unsigned draftTokens = 4;
    double draftCostRatio = 0.15;
    double acceptProb = 0.7;
};

/** Usage text for the shared speculative-decoding flags. */
inline const char *
specUsage()
{
    return "  --spec              enable speculative decoding "
           "(draft + fused verify\n"
           "                      steps; amortizes per-step TEE "
           "overheads)\n"
           "  --spec-k N          draft tokens per verify cycle "
           "(default 4)\n"
           "  --spec-ratio F      draft-model cost as a fraction of "
           "the target's\n"
           "                      decode step, in (0, 1) (default "
           "0.15)\n"
           "  --spec-accept F     per-position draft acceptance "
           "probability, in\n"
           "                      [0, 1] (default 0.7)\n";
}

/**
 * Consume argv[i] (advancing `i` past any operand) when it is one of
 * the shared speculative-decoding flags; false otherwise.
 */
inline bool
parseSpecArg(SpecOptions &opt, int argc, char **argv, int &i)
{
    if (std::strcmp(argv[i], "--spec") == 0) {
        opt.enabled = true;
        return true;
    }
    if (std::strcmp(argv[i], "--spec-k") == 0) {
        opt.draftTokens = numericArg(argc, argv, i, 1u);
        return true;
    }
    if (std::strcmp(argv[i], "--spec-ratio") == 0) {
        opt.draftCostRatio = numericArg(argc, argv, i, 0.0, 1.0);
        if (opt.draftCostRatio == 0.0 || opt.draftCostRatio == 1.0)
            cllm_fatal("--spec-ratio outside (0, 1)");
        return true;
    }
    if (std::strcmp(argv[i], "--spec-accept") == 0) {
        opt.acceptProb = numericArg(argc, argv, i, 0.0, 1.0);
        return true;
    }
    return false;
}

/** Apply parsed speculative-decoding options to a server config. */
inline void
applySpecDecode(serve::ServerConfig &cfg, const SpecOptions &opt)
{
    cfg.specDecode.enabled = opt.enabled;
    cfg.specDecode.draftTokens = opt.draftTokens;
    cfg.specDecode.draftCostRatio = opt.draftCostRatio;
    cfg.specDecode.acceptProb = opt.acceptProb;
}

/** Shared-ownership wrapper around a freshly built TEE backend. */
inline std::shared_ptr<const tee::TeeBackend>
sharedBackend(std::unique_ptr<tee::TeeBackend> p)
{
    return std::shared_ptr<const tee::TeeBackend>(std::move(p));
}

/** Deployment shape of the serving studies: 1024 in / 256 out,
 *  batch 32, one socket. */
inline llm::RunParams
serveDeployParams(const hw::CpuSpec &cpu)
{
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return p;
}

/** The seed-99 trace replayed by the serving and fleet studies:
 *  Poisson 0.45 req/s, 250 requests, 512 in / 128 out tokens. */
inline serve::WorkloadConfig
serveSeedWorkload()
{
    serve::WorkloadConfig load;
    load.arrivalRate = 0.45;
    load.numRequests = 250;
    load.meanInLen = 512;
    load.meanOutLen = 128;
    load.seed = 99;
    return load;
}

/** Scale-out request shape (Section V-D4): batch 4, 512 in /
 *  128 out. */
inline llm::ClusterRunParams
scaleoutClusterParams()
{
    llm::ClusterRunParams p;
    p.batch = 4;
    p.inLen = 512;
    p.outLen = 128;
    return p;
}

/** The CPU counterpart of the scale-out shape: two sockets, all
 *  cores. */
inline llm::RunParams
scaleoutCpuParams(const hw::CpuSpec &cpu)
{
    llm::RunParams p;
    p.batch = 4;
    p.inLen = 512;
    p.outLen = 128;
    p.sockets = 2;
    p.cores = cpu.totalCores();
    return p;
}

} // namespace cllm::bench

#endif // CLLM_BENCH_BENCH_UTIL_HH
