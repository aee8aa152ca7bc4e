#include "llm/ops.hh"

namespace cllm::llm {

const char *
opName(OpKind k)
{
    switch (k) {
      case OpKind::InputNorm:
        return "input_norm";
      case OpKind::QkvProj:
        return "qkv_proj";
      case OpKind::Rope:
        return "rope";
      case OpKind::Attention:
        return "self_attention";
      case OpKind::OutProj:
        return "out_proj";
      case OpKind::PostNorm:
        return "post_attn_norm";
      case OpKind::Router:
        return "router";
      case OpKind::GateUpProj:
        return "linear_silu";
      case OpKind::SiluMul:
        return "silu_mul";
      case OpKind::DownProj:
        return "down_proj";
      case OpKind::Embed:
        return "embed";
      case OpKind::FinalNorm:
        return "final_norm";
      case OpKind::LmHead:
        return "lm_head";
    }
    return "?";
}

OpList
blockDecodeOps(const ModelConfig &m, hw::Dtype dtype, double pos,
               double nseq)
{
    const double d = m.hidden;
    const double dkv = m.kvDim();
    const double f = m.ffn;
    const double wb = hw::dtypeBytes(dtype);
    const double ab = dtype == hw::Dtype::Fp32 ? 4.0 : 2.0;

    OpList ops;

    ops.push_back({OpKind::InputNorm, 5.0 * d, d * ab, 3.0 * d * ab, 0.0});
    ops.push_back({OpKind::QkvProj, 2.0 * d * (d + 2.0 * dkv),
                   (d * d + 2.0 * d * dkv) * wb,
                   (2.0 * d + 2.0 * dkv) * ab, 0.0});
    ops.push_back({OpKind::Rope, 6.0 * (d + dkv),
                   0.0, 2.0 * (d + dkv) * ab, 0.0});
    // Scores (QK^T) and context (AV) over `pos` cached positions.
    ops.push_back({OpKind::Attention, 4.0 * d * pos, 0.0, 4.0 * d * ab,
                   (2.0 * dkv * pos + 2.0 * dkv) * ab});
    ops.push_back({OpKind::OutProj, 2.0 * d * d, d * d * wb,
                   2.0 * d * ab, 0.0});
    ops.push_back({OpKind::PostNorm, 5.0 * d, d * ab, 3.0 * d * ab, 0.0});
    if (m.isMoe()) {
        // Router + the routed experts. Per sequence, expertsPerToken
        // experts compute; per step, expertsTouched(nseq) experts'
        // weights stream from memory (batch-shared).
        const double e = m.numExperts;
        const double k = m.expertsPerToken;
        const double touched = m.expertsTouched(nseq);
        const double expert_w =
            static_cast<double>(m.expertParams()) * wb;
        ops.push_back({OpKind::Router, 2.0 * d * e + 6.0 * e,
                       d * e * wb, (d + e) * ab, 0.0});
        if (m.gatedMlp) {
            ops.push_back({OpKind::GateUpProj, k * 2.0 * d * 2.0 * f,
                           touched * expert_w * (2.0 / 3.0),
                           k * (d + 2.0 * f) * ab, 0.0});
            ops.push_back({OpKind::SiluMul, k * 8.0 * f, 0.0,
                           k * 3.0 * f * ab, 0.0});
        } else {
            ops.push_back({OpKind::GateUpProj, k * 2.0 * d * f,
                           touched * expert_w * 0.5,
                           k * (d + f) * ab, 0.0});
            ops.push_back({OpKind::SiluMul, k * 6.0 * f, 0.0,
                           k * 2.0 * f * ab, 0.0});
        }
        ops.push_back({OpKind::DownProj, k * 2.0 * f * d,
                       touched * expert_w * (m.gatedMlp ? 1.0 / 3.0
                                                        : 0.5),
                       k * (f + d) * ab, 0.0});
        return ops;
    }
    if (m.gatedMlp) {
        ops.push_back({OpKind::GateUpProj, 2.0 * d * 2.0 * f,
                       2.0 * d * f * wb, (d + 2.0 * f) * ab, 0.0});
        ops.push_back({OpKind::SiluMul, 8.0 * f, 0.0, 3.0 * f * ab, 0.0});
    } else {
        ops.push_back({OpKind::GateUpProj, 2.0 * d * f, d * f * wb,
                       (d + f) * ab, 0.0});
        ops.push_back({OpKind::SiluMul, 6.0 * f, 0.0, 2.0 * f * ab, 0.0});
    }
    ops.push_back({OpKind::DownProj, 2.0 * f * d, d * f * wb,
                   (f + d) * ab, 0.0});
    return ops;
}

OpList
topLevelDecodeOps(const ModelConfig &m, hw::Dtype dtype)
{
    const double d = m.hidden;
    const double v = m.vocab;
    const double wb = hw::dtypeBytes(dtype);
    const double ab = dtype == hw::Dtype::Fp32 ? 4.0 : 2.0;

    OpList ops;
    ops.push_back({OpKind::Embed, 0.0, d * ab, d * ab, 0.0});
    ops.push_back({OpKind::FinalNorm, 5.0 * d, d * ab, 3.0 * d * ab, 0.0});
    ops.push_back({OpKind::LmHead, 2.0 * d * v, d * v * wb,
                   (d + v) * ab, 0.0});
    return ops;
}

StepTotals
stepTotals(const ModelConfig &m, hw::Dtype dtype, double pos,
           double nseq)
{
    StepTotals t;
    const auto block = blockDecodeOps(m, dtype, pos, nseq);
    for (const auto &op : block) {
        t.flopsPerSeq += op.flopsPerSeq * m.layers;
        t.weightBytes += op.weightBytes * m.layers;
        t.actBytesPerSeq += op.actBytesPerSeq * m.layers;
        t.kvBytesPerSeq += op.kvBytesPerSeq * m.layers;
        t.opCount += m.layers;
    }
    for (const auto &op : topLevelDecodeOps(m, dtype)) {
        t.flopsPerSeq += op.flopsPerSeq;
        t.weightBytes += op.weightBytes;
        t.actBytesPerSeq += op.actBytesPerSeq;
        t.kvBytesPerSeq += op.kvBytesPerSeq;
        ++t.opCount;
    }
    return t;
}

} // namespace cllm::llm
