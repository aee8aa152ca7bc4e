/**
 * @file
 * CPU inference timing model: a roofline with partial compute/memory
 * overlap, fed by the op graph (ops.hh), the hardware description
 * (hw/cpu.hh), and the execution-environment taxes (tee/backend.hh).
 *
 * The model reproduces the paper's CPU methodology: it generates
 * per-token latency samples (with TEE-encryption jitter and outliers,
 * Section III-D), reports user-perceived throughput and next-token
 * latency, and can attribute decode time to individual decoder-block
 * operators (Figure 7).
 */

#ifndef CLLM_LLM_PERF_CPU_HH
#define CLLM_LLM_PERF_CPU_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/cpu.hh"
#include "llm/framework.hh"
#include "llm/model_config.hh"
#include "llm/ops.hh"
#include "tee/backend.hh"

namespace cllm::llm {

/** One inference run's operational parameters. */
struct RunParams
{
    hw::Dtype dtype = hw::Dtype::Bf16;
    unsigned batch = 1;
    unsigned beam = 1;
    unsigned inLen = 1024;
    unsigned outLen = 128;
    bool amx = true;
    unsigned sockets = 1;      //!< sockets used
    unsigned cores = 0;        //!< total cores; 0 = all in `sockets`
    bool sncEnabled = false;
    FrameworkProfile framework{};
    std::uint64_t seed = 42;

    /** Sequences materialized in the KV cache (batch x beam). */
    unsigned sequences() const { return batch * beam; }
};

/** Timing attribution for one operator (Figure 7). */
struct OpTiming
{
    std::string name;
    double seconds = 0.0;  //!< per decode step, whole batch
    double flops = 0.0;
    double bytes = 0.0;
};

/** Result of a simulated inference run. */
struct TimingResult
{
    double prefillSeconds = 0.0;
    /** Per-decode-step wall times (noisy samples, one per token). */
    std::vector<double> tokenLatencies;
    /** Mean decode-step seconds (after Z>3 outlier filtering). */
    double meanTokenLatency = 0.0;
    /** User tokens per second in steady-state decode (batch/step). */
    double decodeTput = 0.0;
    /** End-to-end tokens/s including prefill ("first token"). */
    double e2eTput = 0.0;
    double totalSeconds = 0.0;
    /** Decode-time attribution for one decoder block. */
    std::vector<OpTiming> blockBreakdown;
    double workingSetBytes = 0.0;
    /** True when the decode loop was memory-bound at the last step. */
    bool memoryBound = true;
};

/**
 * Fill a run's summary fields (mean latency after Z>3 filtering,
 * decode and end-to-end throughput, total time) from its
 * prefillSeconds and tokenLatencies.
 */
void summarizeRun(TimingResult &result, unsigned batch,
                  unsigned out_len);

/**
 * One priced pass through the model: the two roofline legs and the
 * costs serialized after them. Every backend's kernel returns one and
 * every caller turns it into seconds through the same tail.
 */
struct StepCost
{
    double compute = 0.0;  //!< seconds at the compute roof
    double memory = 0.0;   //!< seconds at the memory roof (+ byte tax)
    double fixed = 0.0;    //!< per-operator or per-launch fixed seconds
    /** Per-pass TEE-boundary seconds: enclave transitions on a CPU,
     *  host-link (bounce-buffer) transfer on a GPU. */
    double boundary = 0.0;
    /** Fraction of the shorter leg the pass fails to hide. */
    double overlap = 0.0;

    /** The roofline tail: longer leg, unhidden share of the shorter,
     *  then the fixed and boundary costs. */
    double
    seconds() const
    {
        return std::max(compute, memory) +
               overlap * std::min(compute, memory) + fixed + boundary;
    }

    bool memoryBound() const { return memory > compute; }
};

/** Global knobs of the CPU timing model. */
struct CpuPerfConfig
{
    /** Fraction of the shorter roofline leg not hidden by overlap. */
    double overlapBeta = 0.15;
    /** Per-socket core count delivering ~63% of stream bandwidth. */
    double bwSaturationCores = 14.0;
    /** Baseline VM memory-path tax (EPT maintenance, virtio). */
    double vmMemTax = 0.018;
    /** Activation-traffic multiplier when AMX is disabled. */
    double noAmxActFactor = 1.6;
};

/** Precomputed per-deployment rates the CPU step kernel prices with. */
struct DeploymentRates
{
    double bw = 0.0;            //!< effective DRAM bytes/s
    double decodeRate = 0.0;    //!< effective decode FLOP/s
    double prefillRate = 0.0;   //!< effective prefill FLOP/s
    double actFactor = 1.0;     //!< activation-traffic multiplier
    double weightBytesPerParam = 2.0;
    double workingSetBytes = 0.0; //!< weights + KV at final context
    tee::ExecTax tax{};         //!< environment taxes
};

/**
 * The CPU pricing kernel: one deployment's rates bound to a model.
 * Whole runs (CpuPerfModel::run) and the serving simulator's steps
 * (serve::makeCpuStepModel) both price through its two entry points.
 * The model's constants and its decode-totals table are bound at
 * construction, so a call evaluates only what depends on its shape.
 */
class CpuStepKernel
{
  public:
    CpuStepKernel(const DeploymentRates &rates, const ModelConfig &model,
                  hw::Dtype dtype, double overlap_beta);

    /**
     * One decode or fused speculative-verify pass: `seqs` sequences,
     * each scoring `width` positions (k drafts + 1) at mean attention
     * depth `depth`. Matmul FLOPs and activation/KV traffic scale with
     * the width, but the weight stream crosses the encrypted memory
     * path ONCE and the per-op / per-step fixed costs — enclave
     * transitions, the MEE/EPC tax — are paid once per pass, not per
     * token. That asymmetry is the amortization speculative decoding
     * buys inside a TEE; width 1 is a plain decode step.
     */
    StepCost decode(double seqs, double width, double depth) const;

    /**
     * One prefill slice: `chunk` tokens of each of `prompts` prompts
     * whose leading `done` tokens already sit in KV. It pays its own
     * attention FLOPs (the quadratic term over [done, done+chunk)),
     * its activations, the KV it writes plus the prefix KV it re-reads
     * — and the weights unless `weights_streamed` (a decode batch or a
     * preceding slice in the same step already streamed them through
     * the encrypted memory path). Per-op fixed costs are paid in full
     * by every slice. Summed over a prompt's slices the attention
     * term telescopes to the whole prompt's, so chunking never hides
     * FLOPs — it only bounds how many hit one step.
     */
    StepCost prefill(unsigned prompts, unsigned done, unsigned chunk,
                     bool weights_streamed) const;

    const DeploymentRates &rates() const { return r_; }

  private:
    DeploymentRates r_;
    StepTotalsTable totals_;
    double overlap_;
    double weightScale_;     //!< streamed bytes per op-list weight byte
    double decodeFixed_;     //!< per-op fixed seconds of a decode pass
    double weightBytes_;     //!< whole-model weight bytes
    double kvBytesPerToken_;
    double matmulParams_;
    double layers_;
    double hidden_;
};

/**
 * The CPU timing model.
 */
class CpuPerfModel
{
  public:
    explicit CpuPerfModel(CpuPerfConfig cfg = {});

    /**
     * Simulate a run of `model` on `cpu` inside `backend`.
     *
     * @param cpu machine description
     * @param backend execution environment (bare/VM/SGX/TDX)
     * @param model transformer architecture
     * @param params operational parameters
     */
    TimingResult run(const hw::CpuSpec &cpu,
                     const tee::TeeBackend &backend,
                     const ModelConfig &model,
                     const RunParams &params) const;

    /**
     * Precompute the effective rates for a deployment; `params`
     * supplies dtype/AMX/cores/sockets/framework and the *maximum*
     * expected context (inLen + outLen) and batch for working-set
     * sizing.
     */
    DeploymentRates rates(const hw::CpuSpec &cpu,
                          const tee::TeeBackend &backend,
                          const ModelConfig &model,
                          const RunParams &params) const;

    /** The pricing kernel of a deployment (see rates()). */
    CpuStepKernel kernel(const hw::CpuSpec &cpu,
                         const tee::TeeBackend &backend,
                         const ModelConfig &model,
                         const RunParams &params) const;

    const CpuPerfConfig &config() const { return cfg_; }

  private:
    /** Effective achievable DRAM bandwidth for this run. */
    double effectiveBandwidth(const hw::CpuSpec &cpu,
                              const tee::ExecTax &tax,
                              const RunParams &params,
                              double working_set_bytes,
                              double context_depth) const;

    CpuPerfConfig cfg_;
};

} // namespace cllm::llm

#endif // CLLM_LLM_PERF_CPU_HH
