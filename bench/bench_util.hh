/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 */

#ifndef CLLM_BENCH_BENCH_UTIL_HH
#define CLLM_BENCH_BENCH_UTIL_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "fault/schedule.hh"
#include "llm/perf_cluster.hh"
#include "obs/metrics.hh"
#include "par/pool.hh"
#include "serve/serving.hh"
#include "util/flags.hh"
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

/** The shared observability flags. */
inline Flags
obsFlags(ObsOptions &opt)
{
    return {
        {"--trace", "[path]",
         "record a sim-time trace and write Chrome trace-event JSON "
         "(chrome://tracing / Perfetto); path defaults to "
         "$CLLM_TRACE_OUT, then to <bench>.trace.json",
         [&opt](const char *v) {
             opt.trace = true;
             if (v)
                 opt.tracePath = v;
         }},
        {"--metrics-out", "path",
         "write the metrics-registry snapshot (counters and gauges) "
         "as JSON to path",
         [&opt](const char *v) { opt.metricsOut = v; }},
    };
}

/** The shared-system-prompt mix flags. */
inline Flags
prefixMixFlags(serve::SharedPrefixMix &mix)
{
    return {
        numberFlag("--prefix-tenants", mix.tenants,
                   "tenants in the shared-prompt mix", 1),
        numberFlag("--prefix-len", mix.prefixLen,
                   "shared system-prompt length in tokens", 0),
        numberFlag("--prefix-share", mix.sharedFraction,
                   "fraction of requests opening with a shared prompt",
                   0.0, 1.0),
    };
}

/** The chunked-prefill flags. */
inline Flags
chunkFlags(serve::ChunkedPrefillPolicy &chunk)
{
    return {
        choiceFlag("--chunk", chunk.mode, serve::kChunkModeNames,
                   "chunked prefill with mixed prefill/decode steps under "
                   "the given scheduling priority"),
        numberFlag("--chunk-tokens", chunk.chunkTokens,
                   "max prompt tokens per prefill slice", 1),
        numberFlag("--chunk-budget", chunk.stepTokenBudget,
                   "per-step token budget; 0 = chunk + batch", 0),
    };
}

/** The speculative-decoding switch and draft depth. */
inline Flags
specFlags(serve::SpecDecodePolicy &spec)
{
    return {
        switchFlag("--spec", spec.enabled,
                   "enable speculative decoding (draft + fused verify "
                   "steps; amortizes per-step TEE overheads)"),
        numberFlag("--spec-k", spec.draftTokens,
                   "draft tokens per verify cycle", 1),
    };
}

/** The draft-model flags of speculative decoding. */
inline Flags
draftFlags(serve::SpecDecodePolicy &spec)
{
    return {
        numberFlag("--spec-ratio", spec.draftCostRatio,
                   "draft-model cost as a fraction of the target's "
                   "decode step",
                   0.0, 1.0, /*open=*/true),
        numberFlag("--spec-accept", spec.acceptProb,
                   "per-position draft acceptance probability", 0.0,
                   1.0),
    };
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

/**
 * serve_slo's fault study: the seeded schedule of attestation
 * failures, enclave restarts, EPC paging storms and KV exhaustion
 * over the seed trace, injected into a 4096-block TDX server running
 * the timeout/retry/shedding policy.
 */
inline serve::ServerConfig
serveFaultConfig(std::uint64_t seed, const llm::ModelConfig &model)
{
    fault::FaultScheduleConfig fs;
    fs.seed = seed;
    fs.horizon = 700.0;
    fs.attestFail = {1.0 / 120.0, 4.0, 0.0};
    fs.enclaveRestart = {1.0 / 250.0, 0.0, 0.0};
    fs.epcStorm = {1.0 / 90.0, 10.0,
                   fault::epcStormSlowdown(6ULL << 30, 4ULL << 30,
                                           0.5)};
    fs.kvExhaustion = {1.0 / 150.0, 15.0, 0.5};

    serve::ServerConfig cfg;
    cfg.kvBlocks = 4096;
    cfg.kvBlockTokens = 16;
    cfg.faults = fault::FaultSchedule::generate(fs);
    cfg.weightBytes = model.weightBytes(hw::Dtype::Bf16);
    cfg.resilience.requestTimeout = 120.0;
    cfg.resilience.maxRetries = 3;
    cfg.resilience.retryBackoff = 0.5;
    cfg.resilience.shedOnKvPressure = true;
    cfg.resilience.shedThreshold = 0.95;
    cfg.resilience.degradedMaxBatch = 8;
    return cfg;
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
