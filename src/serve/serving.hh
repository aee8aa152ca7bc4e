/**
 * @file
 * Confidential LLM serving simulator — an extension of the paper's
 * steady-state measurements to online serving: Poisson request
 * arrivals, static or continuous batching, and user-facing SLO
 * metrics (time-to-first-token, time-per-output-token), priced per
 * step by the CPU/GPU timing models under any TEE backend. This turns
 * Insight 11 ("CPU TEEs are pragmatic for small batches") into a
 * capacity question a deployment can actually answer.
 */

#ifndef CLLM_SERVE_SERVING_HH
#define CLLM_SERVE_SERVING_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "fault/schedule.hh"
#include "hw/cpu.hh"
#include "mem/epc.hh"
#include "hw/gpu.hh"
#include "llm/model_config.hh"
#include "llm/perf_cpu.hh"
#include "llm/perf_gpu.hh"
#include "mem/kv_paged.hh"
#include "serve/counters.hh"
#include "tee/backend.hh"
#include "tee/session.hh"
#include "util/names.hh"
#include "util/stats.hh"

namespace cllm::obs {
class Tracer;
}

namespace cllm::serve {

/** One inference request moving through the server. */
struct Request
{
    unsigned id = 0;
    double arrival = 0.0;      //!< seconds since epoch
    unsigned inLen = 0;
    unsigned outLen = 0;

    /** Tenant owning the request (prefix-cache sharing scope). */
    std::uint32_t tenant = 0;

    /**
     * Prompt token IDs, used only by prefix caching. Empty means "no
     * tokens known" and the request always prefills from scratch;
     * non-empty must have exactly inLen entries.
     */
    std::vector<std::int32_t> promptTokens;

    // Filled by the simulation.
    double firstToken = -1.0;  //!< completion time of the first token
    double finish = -1.0;
};

/**
 * Arrival process shaping the request trace. Poisson is the paper's
 * open-loop default; Deterministic spaces arrivals exactly 1/rate
 * apart (a pessimal-jitter-free baseline); BurstyOnOff modulates a
 * Poisson process with alternating exponential on/off phases (an
 * MMPP-2), the workload that makes autoscaling non-trivial.
 */
enum class ArrivalProcess
{
    Poisson,
    Deterministic,
    BurstyOnOff,
};

/** Open-loop workload description. */
struct WorkloadConfig
{
    ArrivalProcess process = ArrivalProcess::Poisson;
    double arrivalRate = 2.0;      //!< requests per second (mean)
    unsigned numRequests = 200;
    unsigned meanInLen = 512;
    unsigned meanOutLen = 128;
    double lengthSigma = 0.4;      //!< lognormal length spread
    std::uint64_t seed = 7;

    // BurstyOnOff knobs (ignored by the other processes): the on
    // phase arrives at burstRateFactor * arrivalRate, the off phase
    // at idleRateFactor * arrivalRate, with exponential phase
    // lengths of the given means. The trace starts in an on phase.
    double burstRateFactor = 4.0;
    double idleRateFactor = 0.25;
    double meanOnSec = 20.0;
    double meanOffSec = 40.0;
};

/**
 * Draw a reproducible request trace. The Poisson path consumes the
 * seed's RNG stream exactly as it always has (draw-for-draw), so
 * existing seeded traces are stable across the arrival-process seam.
 */
std::vector<Request> generateWorkload(const WorkloadConfig &cfg);

/**
 * Shared-system-prompt annotation for a generated trace: the RAG /
 * chat-serving shape where most requests open with one of a few long
 * tenant-wide system prompts. Assigns each request a tenant and a
 * prompt token sequence whose leading `prefixLen` tokens are drawn
 * from one of `promptsPerTenant` per-tenant prompts (with probability
 * `sharedFraction`; the rest get fully unique prompts). Tokens are
 * derived from split seeds keyed by request id, so annotation never
 * disturbs the trace's arrival/length RNG streams.
 */
struct SharedPrefixMix
{
    unsigned tenants = 4;
    unsigned promptsPerTenant = 2;
    unsigned prefixLen = 256;      //!< tokens of shared prefix
    double sharedFraction = 0.85;  //!< requests opening with one
    std::uint64_t seed = 17;
};

/** Annotate a trace in place with tenants and prompt tokens. */
void applySharedPrefixMix(std::vector<Request> &trace,
                          const SharedPrefixMix &mix);

/** Batching policies. */
enum class BatchPolicy
{
    /**
     * Fixed batches: admit only into an empty batch, and only requests
     * already queued when it opens; run it to completion, repeat.
     */
    Static,
    Continuous, //!< admit new requests at step granularity (vLLM-like)
};

/** Printable policy name. */
const char *batchPolicyName(BatchPolicy p);

/**
 * KV allocation discipline for a bounded pool.
 *
 * Reserved is the historical behaviour: admission reserves a
 * request's full inLen+outLen worth of blocks, so decode can never
 * exhaust the pool — simple, deadlock-free, and wasteful (the
 * reservation pins blocks the request will not touch for most of its
 * lifetime, capping the achievable batch).
 *
 * Paged is the vLLM-style discipline: admission allocates only the
 * prompt's blocks (plus a configurable free-block watermark) and
 * sequences grow one block at a time during decode; exhaustion is
 * resolved by deterministically preempting the most recently admitted
 * sequences (swap-to-EPC or recompute). Strictly higher concurrency
 * from the same enclave memory, at the price of preemption work —
 * exactly the paging/batching interplay the paper measures.
 */
enum class KvMode
{
    Reserved,
    Paged,
};

/** KV-mode spellings (`--kv`, sweep rows). */
inline constexpr auto kKvModeNames = nameTable<KvMode>(
    "KV mode", {{KvMode::Reserved, "reserved"}, {KvMode::Paged, "paged"}});

/** How a paged engine resolves KV exhaustion. */
enum class KvPreemptPolicy
{
    /**
     * Drop the victim's KV and re-prefill prompt + generated tokens
     * on resume (vLLM's recomputation mode). Costs step-model prefill
     * time, so the TEE backend's compute tax is charged naturally.
     */
    Recompute,

    /**
     * Page the victim's KV out of the secure region and back in on
     * resume, priced by `mem::EpcCostModel::swapSeconds` over the
     * sequence's KV bytes — the EWB/ELDU traffic an SGX enclave (or
     * the encryption sweep a TD) would pay.
     */
    SwapToEpc,
};

/** Paged-mode tuning; only read when `ServerConfig::kvMode` is
 *  Paged. */
struct PagedKvPolicy
{
    KvPreemptPolicy preempt = KvPreemptPolicy::Recompute;

    /**
     * Admission watermark: keep at least this many blocks free after
     * admitting a prompt, as growth headroom for the running batch.
     * 0 admits down to the last block (maximum batch, maximum
     * preemption churn).
     */
    std::uint64_t minFreeBlocks = 0;

    /**
     * KV bytes per token, for pricing SwapToEpc traffic (e.g.
     * `model.kvBytesPerToken(dtype)`). Required > 0 by SwapToEpc.
     */
    double kvBytesPerToken = 0.0;

    /** EPC boundary-crossing cost model for swap pricing. */
    mem::EpcCostModel epcCost{};
};

/**
 * Cross-request KV prefix sharing scope. Off is the historical
 * behaviour (and the byte-identity baseline). PerTenant — the default
 * once caching is on — only ever shares cached KV between requests
 * with the same tenant id: inside a TEE, cached KV is plaintext to
 * every request the enclave serves, so cross-tenant sharing is an
 * explicit isolation decision, not a free optimisation (a prefix-hit
 * timing channel can leak whether another tenant asked the same
 * prefix). Global opts into fleet-wide sharing for single-trust-domain
 * deployments and is the upper bound on the hit rate.
 */
enum class PrefixMode
{
    Off,
    PerTenant,
    Global,
};

/** Prefix-mode spellings (`--prefix`, sweep rows, JSON, lanes). */
inline constexpr auto kPrefixModeNames = nameTable<PrefixMode>(
    "prefix mode", {{PrefixMode::Off, "off"},
                    {PrefixMode::PerTenant, "per_tenant"},
                    {PrefixMode::Global, "global"}});

/** Prefix-cache tuning; only read when `prefixMode` is not Off. */
struct PrefixCachePolicy
{
    /**
     * Cap on blocks the cache may pin (0 = unbounded, i.e. bounded
     * only by the pool and by eviction pressure from admissions).
     */
    std::uint64_t maxBlocks = 0;
};

/**
 * Chunked-prefill scheduling mode. Off is the historical behaviour
 * (one monolithic prefill step per admission, byte-identical to a
 * build without the feature). The other two modes split each prompt's
 * prefill into `chunkTokens`-sized slices and co-schedule them with
 * decode steps under a per-iteration token budget — the Sarathi/vLLM
 * discipline that bounds the per-step TEE working set so one long
 * prompt can no longer blow past the EPC and stall every decoding
 * sequence's inter-token latency. The modes differ only in who claims
 * budget first when it is scarce.
 */
enum class ChunkMode
{
    Off,
    DecodePriority,  //!< decode claims the budget, prefill gets rest
    PrefillPriority, //!< prefill slices claim first, decode rides
};

/** Chunk-mode spellings (`--chunk`, sweep rows and JSON). */
inline constexpr auto kChunkModeNames = nameTable<ChunkMode>(
    "chunk mode", {{ChunkMode::Off, "off"},
                   {ChunkMode::DecodePriority, "decode"},
                   {ChunkMode::PrefillPriority, "prefill"}});

/** Chunked-prefill tuning; only read when `mode` is not Off. */
struct ChunkedPrefillPolicy
{
    ChunkMode mode = ChunkMode::Off;

    /** Max prompt tokens one slice may prefill. Must be > 0. */
    unsigned chunkTokens = 256;

    /**
     * Per-iteration token budget shared by decode (one token per
     * decoding sequence) and prefill slices. 0 derives
     * chunkTokens + maxBatch, which always leaves room for one full
     * slice beside a full decode batch. Must be >= chunkTokens when
     * set, or a step could never fit a slice.
     */
    unsigned stepTokenBudget = 0;

    /**
     * Starvation guard: a prefilling sequence that makes no progress
     * for this many consecutive iterations gets a forced slice
     * regardless of the budget, so every admitted request finishes
     * prefill in a bounded number of iterations. Must be > 0.
     */
    unsigned starvationIters = 8;
};

/**
 * Speculative decoding: a cheap draft model proposes `draftTokens`
 * tokens per cycle and the target model scores them all in ONE fused
 * verify step. The verify step streams the weights once and pays the
 * per-step fixed costs — SGX/TDX MEE+transition tax, CC-mode kernel
 * launch and bounce-buffer overhead — once for k+1 scored positions,
 * which is exactly the per-step TEE tax the paper measures; that is
 * what speculation amortizes. Disabled (the default) leaves every
 * output byte-identical to a build without the feature.
 *
 * Acceptance is a deterministic per-sequence model: draft token j of
 * request r is accepted iff a uniform draw keyed by
 * splitSeed(splitSeed(seed, r.id), position) falls below acceptProb,
 * so accepted-length streams are reproducible at any thread count and
 * across preemption/recompute (the draw depends only on the request
 * id and the absolute output position, never on sim time).
 */
struct SpecDecodePolicy
{
    bool enabled = false;

    /** Draft tokens proposed per verify cycle (k). Must be > 0. */
    unsigned draftTokens = 4;

    /**
     * Cost of one draft-model decode step as a fraction of the target
     * model's. Must lie in (0, 1): a draft as expensive as the target
     * can never pay for itself.
     */
    double draftCostRatio = 0.15;

    /** Probability each draft token is accepted; in [0, 1]. */
    double acceptProb = 0.7;

    /** Root seed of the per-sequence acceptance streams. */
    std::uint64_t seed = 29;
};

/**
 * How the server responds to faults and overload. Every knob defaults
 * to "off", so a default-constructed policy leaves the simulation
 * byte-identical to a server without one.
 */
struct ResiliencePolicy
{
    /**
     * Per-request deadline in seconds, measured from the original
     * arrival across every retry (0 disables). Queued requests past
     * the deadline are rejected at admission; running requests are
     * aborted after the step that overruns it.
     */
    double requestTimeout = 0.0;

    /** Retry budget for attestation failures and enclave restarts. */
    unsigned maxRetries = 2;

    /** First retry backoff in seconds; grows by backoffMultiplier. */
    double retryBackoff = 0.05;
    double backoffMultiplier = 2.0;

    /**
     * Shed (reject without retry) new admissions while KV-pool
     * occupancy is at or above shedThreshold.
     */
    bool shedOnKvPressure = false;
    double shedThreshold = 0.95;

    /**
     * Graceful degradation: while any fault window is active, cap the
     * batch at this size instead of maxBatch (0 disables).
     */
    unsigned degradedMaxBatch = 0;
};

/** Server configuration. */
struct ServerConfig
{
    BatchPolicy policy = BatchPolicy::Continuous;
    unsigned maxBatch = 32;
    double ttftSlo = 2.0;   //!< seconds to first token
    double tpotSlo = 0.200; //!< seconds per output token (paper's bar)

    /**
     * KV capacity in paged blocks (0 = unbounded). Inside a TEE the
     * pool is the encrypted enclave/TD memory the operator sized.
     * `kvMode` picks the allocation discipline: Reserved pins a
     * request's full inLen+outLen worth of blocks at admission (the
     * historical, deadlock-free default), Paged admits by free-block
     * headroom and preempts on exhaustion.
     */
    std::uint64_t kvBlocks = 0;
    unsigned kvBlockTokens = 16;
    KvMode kvMode = KvMode::Reserved;
    PagedKvPolicy paged{};

    /**
     * Automatic prefix caching (radix-tree KV reuse over the paged
     * pool). Requires `kvMode == Paged`; Off leaves every output
     * byte-identical to a build without the feature.
     */
    PrefixMode prefixMode = PrefixMode::Off;
    PrefixCachePolicy prefix{};

    /**
     * Chunked prefill + mixed prefill/decode batching. Off leaves
     * every output byte-identical to a build without the feature.
     */
    ChunkedPrefillPolicy chunkedPrefill{};

    /**
     * Speculative decoding (draft + fused verify steps). Off leaves
     * every output byte-identical to a build without the feature.
     */
    SpecDecodePolicy specDecode{};

    /** Fault/overload response; defaults are all off. */
    ResiliencePolicy resilience{};

    /** Faults to inject (empty = fault-free). */
    fault::FaultSchedule faults{};

    /** Downtime charged per enclave restart. */
    tee::ReprovisionCostModel reprovision{};

    /** Model bytes re-decrypted into secure memory per restart. */
    std::uint64_t weightBytes = 0;

    /**
     * Optional span tracer for the request lifecycle (null = off).
     * Purely observational: the engine never reads anything back
     * from it, so a traced run and an untraced run produce
     * bit-identical metrics. `traceLane` is the tid the events land
     * on (a fleet gives every node its own lane).
     */
    obs::Tracer *tracer = nullptr;
    std::uint32_t traceLane = 0;
};

/** Fatal on any inconsistent ServerConfig field. */
void validate(const ServerConfig &cfg);

/**
 * What an engine tallies over a run: the counters, plus every
 * per-token decode gap (tracked in every mode; summarized as `itl`).
 * The gaps are kept exactly, as (gap, count) runs: every sequence
 * decoding in one steady step sees the same gap, and a verify cycle's
 * tokens share one, so a run costs about one entry per engine step
 * instead of one double per token. `itlSamples.size()` is still the
 * token count, and the p50/p95/p99 summary is bit-identical to that of
 * the expanded samples.
 */
struct ServeTally : ServeCounters
{
    RunLengthSamples itlSamples; //!< per-token decode gaps [s]
};

/** Outcome of serving a trace. */
struct ServeMetrics : ServeCounters
{
    std::size_t completed = 0;
    double makespan = 0.0;            //!< seconds to drain the trace
    double kvUtilizationPeak = 0.0;   //!< peak KV-pool occupancy
    double kvUtilizationMean = 0.0;   //!< mean over engine steps
    double peakBatchOccupancy = 0.0;  //!< max sequences in one step
    double tokensPerSecond = 0.0;     //!< output tokens / makespan
    SampleSummary ttft{};             //!< time to first token
    SampleSummary tpot{};             //!< time per output token
    SampleSummary itl{};              //!< inter-token decode gaps
    double sloAttainment = 0.0;       //!< fraction meeting both SLOs
    double meanBatchOccupancy = 0.0;  //!< sequences per decode step
    std::size_t submitted = 0;        //!< requests in the trace
    std::uint64_t outputTokens = 0;   //!< tokens of completed requests
    double availability = 0.0;        //!< completed / submitted

    /** Per-event fault timeline (empty without a schedule). */
    std::vector<fault::FaultRecord> faultTimeline;
};

/** Export a ServeMetrics (including its fault timeline) as JSON. */
void writeMetrics(JsonWriter &json, const ServeMetrics &m);

/**
 * Abstract per-step cost model so CPU and GPU deployments share the
 * serving loop.
 */
class StepModel
{
  public:
    virtual ~StepModel() = default;

    /** Seconds to prefill one request of `in_len` tokens. */
    virtual double prefill(unsigned in_len) const = 0;

    /** Seconds for one decode step over `nseq` seqs at avg `pos`. */
    virtual double decodeStep(double nseq, double avg_pos) const = 0;

    /**
     * Seconds to prefill a request of `total` tokens whose leading
     * `cached` tokens already sit in KV. The default charges the
     * marginal cost prefill(total) - prefill(cached), which keeps any
     * superlinear term (attention FLOPs, the EPC/MEE pressure a large
     * working set induces) attributed to the uncached suffix.
     */
    virtual double
    prefillFrom(unsigned cached, unsigned total) const
    {
        if (cached == 0)
            return prefill(total);
        const double a = prefill(total);
        const double b = prefill(cached);
        return a > b ? a - b : 0.0;
    }

    /**
     * Seconds to prefill a `chunk`-token slice of a prompt whose
     * leading `done` tokens already sit in KV, inside a step that is
     * `shared` with other work (a decode batch or a preceding slice).
     * The default is the telescoping marginal cost
     * prefillFrom(done, done + chunk), which sums back to
     * prefill(total) exactly — time-neutral chunking. Concrete models
     * override it to price the slice on its *marginal* working set:
     * a shared step streams the weights once for everyone, so a slice
     * riding along only pays its own activations + KV traffic through
     * the TEE byte tax, while per-slice fixed op/launch costs are paid
     * in full — small chunks genuinely shrink the modeled EPC
     * pressure but buy that with per-launch overhead.
     */
    virtual double
    prefillChunk(unsigned done, unsigned chunk, bool shared) const
    {
        (void)shared;
        return prefillFrom(done, done + chunk);
    }

    /**
     * Seconds for one fused speculative-verify step: `nseq` sequences
     * at mean context depth `avg_pos`, each scoring `k` draft tokens
     * plus the bonus position in a single target pass. The identity
     * verifyStep(n, 0, pos) == decodeStep(n, pos) must hold — it is
     * what makes spec-off runs byte-identical. The default prices k+1
     * sequential decode steps (time-neutral, no amortization);
     * concrete models override it to stream the weights once and pay
     * the per-step fixed TEE costs once for all k+1 positions.
     */
    virtual double
    verifyStep(double nseq, double k, double avg_pos) const
    {
        return (k + 1.0) * decodeStep(nseq, avg_pos + k / 2.0);
    }
};

/** CPU deployment under a TEE backend. */
std::unique_ptr<StepModel>
makeCpuStepModel(const hw::CpuSpec &cpu,
                 std::shared_ptr<const tee::TeeBackend> backend,
                 const llm::ModelConfig &model,
                 const llm::RunParams &params);

/** GPU deployment (confidential or raw). */
std::unique_ptr<StepModel> makeGpuStepModel(const hw::GpuSpec &gpu,
                                            bool confidential,
                                            const llm::ModelConfig &model,
                                            hw::Dtype dtype);

/**
 * The serving simulator: replays a trace through one ContinuousEngine
 * under a batching policy and reports SLO metrics.
 */
class Server
{
  public:
    Server(std::unique_ptr<StepModel> step, ServerConfig cfg);

    /** Simulate; the trace is copied and annotated internally. */
    ServeMetrics run(std::vector<Request> trace) const;

    /**
     * Simulate and hand back the annotated per-request trace
     * (firstToken/finish filled in; finish < 0 marks a request that
     * was shed, timed out, or dropped).
     */
    ServeMetrics run(std::vector<Request> trace,
                     std::vector<Request> &annotated) const;

    const ServerConfig &config() const { return cfg_; }

  private:
    std::unique_ptr<StepModel> step_;
    ServerConfig cfg_;
};

} // namespace cllm::serve

#endif // CLLM_SERVE_SERVING_HH
