/**
 * @file
 * GPU inference timing model for the paper's Section V: H100 (raw)
 * versus confidential H100 (cGPU). The cGPU costs are the encrypted
 * PCIe bounce buffer and extra kernel-launch latency; HBM itself is
 * not encrypted on H100s, so unlike CPU TEEs there is no bandwidth
 * tax on the critical decode path (Insight 10).
 */

#ifndef CLLM_LLM_PERF_GPU_HH
#define CLLM_LLM_PERF_GPU_HH

#include <cstdint>
#include <functional>

#include "hw/gpu.hh"
#include "llm/model_config.hh"
#include "llm/perf_cpu.hh"
#include "tee/backend.hh"

namespace cllm::llm {

/** Operational parameters of a GPU run (vLLM-style serving). */
struct GpuRunParams
{
    hw::Dtype dtype = hw::Dtype::Bf16;
    unsigned batch = 1;
    unsigned inLen = 128;
    unsigned outLen = 128;
    bool confidential = false;
    std::uint64_t seed = 42;
};

/** Knobs of the GPU timing model. */
struct GpuPerfConfig
{
    /** Kernel launches per decode step (CUDA-graph amortized). */
    double launchesPerStep = 32.0;
    /** Fraction of peak tensor throughput vLLM achieves. */
    double computeEff = 0.55;
    /** Fraction of HBM stream bandwidth achieved in decode. */
    double memEff = 0.80;
    /** Host<->device payload per token per sequence (ids/logits). */
    double hostBytesPerToken = 64.0;
};

/**
 * The GPU pricing kernel: one (possibly confidential) deployment bound
 * to a model, optionally tensor-parallel over `shards` GPUs (FLOPs,
 * weights and KV split evenly; all-reduces are the caller's). A pass
 * is max(t_comp, t_mem) — the GPU hides the shorter leg entirely —
 * plus its kernel launches (with the CC launch overhead) plus its
 * host-link bytes through the encrypted bounce buffer. Whole runs and
 * the serving simulator's steps (serve::makeGpuStepModel) both price
 * through its two entry points.
 */
class GpuStepKernel
{
  public:
    GpuStepKernel(const hw::GpuSpec &gpu, bool confidential,
                  const ModelConfig &model, hw::Dtype dtype,
                  unsigned shards = 1, const GpuPerfConfig &cfg = {});

    /**
     * One decode or fused speculative-verify pass: `seqs` sequences,
     * each scoring `width` positions (k drafts + 1) at mean attention
     * depth `depth`. FLOPs, KV reads and host-link bytes scale with the
     * width, but the weight stream and — decisively for CC mode — the
     * kernel launches with their encryption overhead happen once per
     * pass. Width 1 is a plain decode step.
     */
    StepCost decode(double seqs, double width, double depth) const;

    /**
     * One prefill slice: `chunk` tokens of each of `prompts` prompts
     * whose leading `done` tokens already sit in KV. It pays its own
     * attention FLOPs (the s^2 term over [done, done+chunk)), the KV it
     * writes plus the prefix KV it re-reads, its prompt upload over the
     * host link — and the weights unless `weights_streamed` by the
     * co-scheduled work. The launches are paid in full by every slice:
     * exactly the unamortized overhead that makes tiny chunks
     * expensive on a confidential GPU.
     */
    StepCost prefill(unsigned prompts, unsigned done, unsigned chunk,
                     bool weights_streamed) const;

    const tee::GpuTax &tax() const { return tax_; }

  private:
    tee::GpuTax tax_;
    double shards_;
    double rate_;       //!< effective FLOP/s per GPU
    double bw_;         //!< effective HBM bytes/s per GPU
    double launches_;   //!< launch seconds per pass
    double hostBw_;     //!< host-link bytes/s
    double hostBytesPerToken_;
    double weightBytes_;
    double kvBytesPerToken_;
    double matmulParams_;
    double layers_;
    double hidden_;
};

/**
 * Price a whole run on `kernel`: prefill `batch` prompts of `in_len`
 * tokens, then `out_len` noisy decode steps. `comm(tokens)` adds the
 * all-reduce seconds of a pass over `tokens` tokens (zero on one GPU).
 * The single-GPU and tensor-parallel models share this loop; callers
 * fill in workingSetBytes.
 */
TimingResult runGpuKernel(const GpuStepKernel &kernel, unsigned batch,
                          unsigned in_len, unsigned out_len,
                          std::uint64_t seed,
                          const std::function<double(double)> &comm);

/**
 * GPU timing model.
 */
class GpuPerfModel
{
  public:
    explicit GpuPerfModel(GpuPerfConfig cfg = {});

    /** Simulate a run; model memory must fit (checked). */
    TimingResult run(const hw::GpuSpec &gpu, const ModelConfig &model,
                     const GpuRunParams &params) const;

    const GpuPerfConfig &config() const { return cfg_; }

  private:
    GpuPerfConfig cfg_;
};

} // namespace cllm::llm

#endif // CLLM_LLM_PERF_GPU_HH
