#include "llm/model_config.hh"

#include <cmath>

namespace cllm::llm {

std::uint64_t
ModelConfig::attnParamsPerLayer() const
{
    const std::uint64_t d = hidden;
    const std::uint64_t dkv = kvDim();
    // Q and O are d x d; K and V are d x kvDim.
    return d * d * 2 + d * dkv * 2;
}

std::uint64_t
ModelConfig::expertParams() const
{
    const std::uint64_t d = hidden;
    const std::uint64_t f = ffn;
    return gatedMlp ? 3ULL * d * f : 2ULL * d * f;
}

std::uint64_t
ModelConfig::mlpParamsPerLayer() const
{
    if (!isMoe())
        return expertParams();
    // All experts plus the router matrix.
    return numExperts * expertParams() +
           static_cast<std::uint64_t>(hidden) * numExperts;
}

std::uint64_t
ModelConfig::numParams() const
{
    const std::uint64_t d = hidden;
    const std::uint64_t embed = static_cast<std::uint64_t>(vocab) * d;
    const std::uint64_t head = tiedEmbeddings ? 0 : embed;
    const std::uint64_t norms = layers * 2ULL * d + d;
    return embed + head + norms +
           layers * (attnParamsPerLayer() + mlpParamsPerLayer());
}

std::uint64_t
ModelConfig::matmulParams() const
{
    // Weights each generated token multiplies through: every block's
    // projections plus the LM head. MoE tokens only run their routed
    // experts (the "active" parameter count).
    const std::uint64_t mlp_active =
        isMoe() ? expertsPerToken * expertParams() +
                      static_cast<std::uint64_t>(hidden) * numExperts
                : mlpParamsPerLayer();
    return layers * (attnParamsPerLayer() + mlp_active) +
           static_cast<std::uint64_t>(vocab) * hidden;
}

double
ModelConfig::expertsTouched(double nseq) const
{
    if (!isMoe())
        return 1.0;
    return distinctExperts(numExperts, expertsPerToken, nseq);
}

double
distinctExperts(double experts, double per_token, double nseq)
{
    // Each of nseq tokens picks per_token of the experts
    // (approximately uniformly); the expected number of distinct
    // experts is E * (1 - (1 - k/E)^n).
    const double miss = std::pow(1.0 - per_token / experts, nseq);
    return experts * (1.0 - miss);
}

double
ModelConfig::weightBytes(hw::Dtype dtype) const
{
    return static_cast<double>(numParams()) * hw::dtypeBytes(dtype);
}

double
ModelConfig::kvBytesPerToken(hw::Dtype dtype) const
{
    // KV cache stays in activation precision under weight-only
    // quantization: bf16 for bf16/int8 runs, fp32 for fp32 runs.
    const double act_bytes = dtype == hw::Dtype::Fp32 ? 4.0 : 2.0;
    return 2.0 * layers * static_cast<double>(kvDim()) * act_bytes;
}

ModelConfig
llama2_7b()
{
    ModelConfig m;
    m.name = "Llama2-7B";
    m.layers = 32;
    m.hidden = 4096;
    m.heads = 32;
    m.kvHeads = 32;
    m.ffn = 11008;
    m.vocab = 32000;
    return m;
}

ModelConfig
llama2_13b()
{
    ModelConfig m;
    m.name = "Llama2-13B";
    m.layers = 40;
    m.hidden = 5120;
    m.heads = 40;
    m.kvHeads = 40;
    m.ffn = 13824;
    m.vocab = 32000;
    return m;
}

ModelConfig
llama2_70b()
{
    ModelConfig m;
    m.name = "Llama2-70B";
    m.layers = 80;
    m.hidden = 8192;
    m.heads = 64;
    m.kvHeads = 8;
    m.ffn = 28672;
    m.vocab = 32000;
    return m;
}

ModelConfig
llama3_8b()
{
    ModelConfig m;
    m.name = "Llama3-8B";
    m.layers = 32;
    m.hidden = 4096;
    m.heads = 32;
    m.kvHeads = 8;
    m.ffn = 14336;
    m.vocab = 128256;
    m.maxContext = 8192;
    return m;
}

ModelConfig
gptj_6b()
{
    ModelConfig m;
    m.name = "GPT-J-6B";
    m.layers = 28;
    m.hidden = 4096;
    m.heads = 16;
    m.kvHeads = 16;
    m.ffn = 16384;
    m.vocab = 50400;
    m.gatedMlp = false;
    return m;
}

ModelConfig
falcon_7b()
{
    ModelConfig m;
    m.name = "Falcon-7B";
    m.layers = 32;
    m.hidden = 4544;
    m.heads = 71;
    m.kvHeads = 1; // multi-query attention
    m.ffn = 18176;
    m.vocab = 65024;
    m.gatedMlp = false;
    return m;
}

ModelConfig
baichuan2_7b()
{
    ModelConfig m;
    m.name = "Baichuan2-7B";
    m.layers = 32;
    m.hidden = 4096;
    m.heads = 32;
    m.kvHeads = 32;
    m.ffn = 11008;
    m.vocab = 125696;
    return m;
}

ModelConfig
qwen_7b()
{
    ModelConfig m;
    m.name = "Qwen-7B";
    m.layers = 32;
    m.hidden = 4096;
    m.heads = 32;
    m.kvHeads = 32;
    m.ffn = 11008;
    m.vocab = 151936;
    return m;
}

ModelConfig
mixtral_8x7b()
{
    ModelConfig m;
    m.name = "Mixtral-8x7B";
    m.layers = 32;
    m.hidden = 4096;
    m.heads = 32;
    m.kvHeads = 8;
    m.ffn = 14336;
    m.vocab = 32000;
    m.maxContext = 32768;
    m.numExperts = 8;
    m.expertsPerToken = 2;
    return m;
}

} // namespace cllm::llm
