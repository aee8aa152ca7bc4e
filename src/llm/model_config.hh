/**
 * @file
 * Dense-transformer model descriptions. Llama2 (7B/13B/70B) is the
 * paper's primary workload; the additional models mirror its
 * Section III-C cross-check (Llama3 8B, GPT-J 6B, Falcon 7B,
 * Baichuan2 7B, Qwen 7B). Parameter counts are derived from the
 * architectural dimensions, which the unit tests check against the
 * published sizes.
 */

#ifndef CLLM_LLM_MODEL_CONFIG_HH
#define CLLM_LLM_MODEL_CONFIG_HH

#include <cstdint>
#include <string>

#include "hw/cpu.hh"
#include "util/names.hh"

namespace cllm::llm {

/** Architecture of a dense decoder-only transformer. */
struct ModelConfig
{
    std::string name;
    unsigned layers = 32;
    unsigned hidden = 4096;       //!< model dimension d
    unsigned heads = 32;
    unsigned kvHeads = 32;        //!< < heads for GQA, 1 for MQA
    unsigned ffn = 11008;         //!< MLP intermediate size
    unsigned vocab = 32000;
    bool gatedMlp = true;         //!< SwiGLU (3 matrices) vs GELU (2)
    bool tiedEmbeddings = false;  //!< lm_head shares embedding weights
    unsigned maxContext = 4096;

    // Mixture-of-experts (0 experts = dense). The paper notes newer
    // Llama generations add MoE on the same computational patterns;
    // this models routed MLPs: every token runs `expertsPerToken` of
    // `numExperts` expert MLPs plus a router.
    unsigned numExperts = 0;
    unsigned expertsPerToken = 2;

    /** Per-head dimension. */
    unsigned headDim() const { return hidden / heads; }

    /** KV projection width (hidden * kvHeads / heads). */
    unsigned kvDim() const { return headDim() * kvHeads; }

    /** Whether this is a mixture-of-experts model. */
    bool isMoe() const { return numExperts > 1; }

    /** Attention parameters per layer (Q,K,V,O projections). */
    std::uint64_t attnParamsPerLayer() const;

    /** MLP parameters per layer (ALL experts for MoE). */
    std::uint64_t mlpParamsPerLayer() const;

    /** One expert's (or the dense MLP's) parameters. */
    std::uint64_t expertParams() const;

    /** Total parameter count (embeddings + blocks + head + norms). */
    std::uint64_t numParams() const;

    /** Parameters touched by every token's matmuls (no embeddings);
     *  for MoE this counts only the routed experts (active params). */
    std::uint64_t matmulParams() const;

    /**
     * Distinct experts a decode step touches for `nseq` concurrent
     * sequences (distinctExperts; 1 for a dense model).
     */
    double expertsTouched(double nseq) const;

    /** Weight bytes at a given dtype (weight-only quantization). */
    double weightBytes(hw::Dtype dtype) const;

    /** KV-cache bytes per token per sequence (stored in bf16/fp32). */
    double kvBytesPerToken(hw::Dtype dtype) const;
};

/**
 * Expected distinct experts `nseq` tokens touch when each picks
 * `per_token` of `experts` (coupon-collector expectation, capped at
 * `experts`).
 */
double distinctExperts(double experts, double per_token, double nseq);

/** Llama2 7B (L32, d4096, MHA). */
ModelConfig llama2_7b();
/** Llama2 13B (L40, d5120, MHA). */
ModelConfig llama2_13b();
/** Llama2 70B (L80, d8192, GQA-8). */
ModelConfig llama2_70b();
/** Llama3 8B (GQA-8, 128k vocab). */
ModelConfig llama3_8b();
/** GPT-J 6B. */
ModelConfig gptj_6b();
/** Falcon 7B (multi-query attention). */
ModelConfig falcon_7b();
/** Baichuan2 7B. */
ModelConfig baichuan2_7b();
/** Qwen 7B. */
ModelConfig qwen_7b();
/** Mixtral-8x7B-style MoE (46.7B total, ~12.9B active). */
ModelConfig mixtral_8x7b();

/** A model preset's factory. */
using ModelPreset = ModelConfig (*)();

/** Model spellings (`--model`, config files). */
inline constexpr auto kModelPresets = nameTable<ModelPreset>(
    "model", {{llama2_7b, "7b"},
              {llama2_13b, "13b"},
              {llama2_70b, "70b"},
              {llama3_8b, "llama3"},
              {gptj_6b, "gptj"},
              {falcon_7b, "falcon"},
              {mixtral_8x7b, "mixtral"}});

} // namespace cllm::llm

#endif // CLLM_LLM_MODEL_CONFIG_HH
