/**
 * @file
 * Functional transformer inference runtime. Runs real (laptop-scale)
 * Llama-architecture models end to end: embedding, RMSNorm, RoPE
 * attention with a KV cache, SwiGLU MLP, greedy decoding, in fp32,
 * emulated bf16, or weight-only int8. This is the workload whose op
 * structure the timing model prices; tests use it to validate the
 * kernels and the KV cache.
 */

#ifndef CLLM_LLM_RUNTIME_HH
#define CLLM_LLM_RUNTIME_HH

#include <cstdint>
#include <vector>

#include "hw/cpu.hh"
#include "llm/kernels.hh"
#include "llm/model_config.hh"
#include "llm/tensor.hh"
#include "llm/tokenizer.hh"

namespace cllm::llm {

/**
 * Per-layer key/value cache for one sequence.
 */
class KvCache
{
  public:
    /** Create for a model's layer count and KV width. */
    KvCache(unsigned layers, unsigned kv_dim);

    /** Append one position's K and V for a layer. */
    void append(unsigned layer, const std::vector<float> &k,
                const std::vector<float> &v);

    /** Cached positions (same for every layer). */
    std::size_t length() const;

    /** Key vector of `layer` at `pos`. */
    const std::vector<float> &key(unsigned layer, std::size_t pos) const;

    /** Value vector of `layer` at `pos`. */
    const std::vector<float> &value(unsigned layer,
                                    std::size_t pos) const;

  private:
    unsigned kvDim_;
    std::vector<std::vector<std::vector<float>>> keys_;   // [layer][pos]
    std::vector<std::vector<std::vector<float>>> values_;
};

/**
 * A runnable Llama-architecture model with deterministic random
 * weights (seeded), in one of three compute modes.
 */
class TinyLlama
{
  public:
    /**
     * Build with random weights.
     *
     * @param cfg architecture (use small dims; vocab must match the
     *            tokenizer when driving text)
     * @param mode fp32 / emulated bf16 / weight-only int8
     * @param seed weight-init seed
     */
    TinyLlama(const ModelConfig &cfg, hw::Dtype mode,
              std::uint64_t seed = 1234);

    /**
     * Run one token through the model at the cache's current position,
     * appending to the cache; returns the next-token logits.
     */
    std::vector<float> forward(TokenId token, KvCache &cache) const;

    /**
     * Batched decode step: one token per independent sequence, using
     * matrix-matrix projections (a real batched GEMM path) instead of
     * per-sequence matvecs. Semantically identical to calling
     * forward() per sequence, which the tests assert.
     *
     * @param tokens one next-token per sequence
     * @param caches parallel array of per-sequence caches
     * @return per-sequence logits
     */
    std::vector<std::vector<float>>
    forwardBatch(const std::vector<TokenId> &tokens,
                 std::vector<KvCache *> &caches) const;

    /** Make an empty cache for this model. */
    KvCache makeCache() const;

    /** Greedy decoding: feed prompt, then generate `steps` tokens. */
    std::vector<TokenId> generateGreedy(const std::vector<TokenId> &prompt,
                                        unsigned steps) const;

    /**
     * Serialize the fp32 master weights (header + raw tensors). The
     * bytes round-trip through loadWeights() and are what a real
     * deployment would seal into the encrypted FS shield.
     */
    std::vector<std::uint8_t> saveWeights() const;

    /**
     * Replace this model's weights from a saveWeights() blob; the
     * architecture must match (checked), and the compute mode's
     * bf16/int8 conversions are re-applied. Returns false (leaving
     * the model untouched) on malformed or mismatched blobs.
     */
    bool loadWeights(const std::vector<std::uint8_t> &blob);

    const ModelConfig &config() const { return cfg_; }
    hw::Dtype mode() const { return mode_; }

  private:
    struct Layer
    {
        Tensor wq, wk, wv, wo;        // [out x in]
        Tensor wGate, wUp, wDown;
        QuantizedTensor qwq, qwk, qwv, qwo, qwGate, qwUp, qwDown;
        std::vector<float> inputNorm, postNorm;
    };

    /** Apply the right matvec for the compute mode. */
    void project(const Tensor &w, const QuantizedTensor &q,
                 const float *x, float *y) const;

    /** Round activations when emulating bf16. */
    void roundActs(std::vector<float> &v) const;

    /** Re-apply bf16 rounding / int8 quantization after a weight load. */
    void applyModeConversions();

    ModelConfig cfg_;
    hw::Dtype mode_;
    Tensor embedding_;                 // [vocab x d]
    Tensor lmHead_;                    // [vocab x d]
    QuantizedTensor qLmHead_;
    std::vector<float> finalNorm_;
    std::vector<Layer> layers_;
};

} // namespace cllm::llm

#endif // CLLM_LLM_RUNTIME_HH
