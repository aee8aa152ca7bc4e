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

BlockShape::BlockShape(const ModelConfig &m, hw::Dtype dtype)
    : d(m.hidden), dkv(m.kvDim()), f(m.ffn), wb(hw::dtypeBytes(dtype)),
      ab(dtype == hw::Dtype::Fp32 ? 4.0 : 2.0), experts(m.numExperts),
      perToken(m.expertsPerToken),
      expertW(static_cast<double>(m.expertParams()) * wb),
      gated(m.gatedMlp), moe(m.isMoe())
{
}

namespace {

/** Scores (QK^T) and context (AV) over `pos` cached positions. */
OpProfile
attentionOp(const BlockShape &s, double pos)
{
    return {OpKind::Attention, 4.0 * s.d * pos, 0.0, 4.0 * s.d * s.ab,
            (2.0 * s.dkv * pos + 2.0 * s.dkv) * s.ab};
}

/**
 * A MoE block's routed experts: gate/up, SiLU-mul and down. Per
 * sequence, perToken experts compute; per step, the distinct experts
 * `nseq` sequences touch stream their weights (batch-shared).
 */
std::array<OpProfile, 3>
expertOps(const BlockShape &s, double nseq)
{
    const double d = s.d;
    const double f = s.f;
    const double ab = s.ab;
    const double k = s.perToken;
    const double touched = distinctExperts(s.experts, k, nseq);
    const double expert_w = s.expertW;
    if (s.gated) {
        return {{{OpKind::GateUpProj, k * 2.0 * d * 2.0 * f,
                  touched * expert_w * (2.0 / 3.0),
                  k * (d + 2.0 * f) * ab, 0.0},
                 {OpKind::SiluMul, k * 8.0 * f, 0.0, k * 3.0 * f * ab,
                  0.0},
                 {OpKind::DownProj, k * 2.0 * f * d,
                  touched * expert_w * (1.0 / 3.0), k * (f + d) * ab,
                  0.0}}};
    }
    return {{{OpKind::GateUpProj, k * 2.0 * d * f,
              touched * expert_w * 0.5, k * (d + f) * ab, 0.0},
             {OpKind::SiluMul, k * 6.0 * f, 0.0, k * 2.0 * f * ab, 0.0},
             {OpKind::DownProj, k * 2.0 * f * d, touched * expert_w * 0.5,
              k * (f + d) * ab, 0.0}}};
}

} // namespace

OpList
blockDecodeOps(const ModelConfig &m, hw::Dtype dtype, double pos,
               double nseq)
{
    const BlockShape s(m, dtype);
    const double d = s.d;
    const double dkv = s.dkv;
    const double f = s.f;
    const double wb = s.wb;
    const double ab = s.ab;

    OpList ops;

    ops.push_back({OpKind::InputNorm, 5.0 * d, d * ab, 3.0 * d * ab, 0.0});
    ops.push_back({OpKind::QkvProj, 2.0 * d * (d + 2.0 * dkv),
                   (d * d + 2.0 * d * dkv) * wb,
                   (2.0 * d + 2.0 * dkv) * ab, 0.0});
    ops.push_back({OpKind::Rope, 6.0 * (d + dkv),
                   0.0, 2.0 * (d + dkv) * ab, 0.0});
    ops.push_back(attentionOp(s, pos));
    ops.push_back({OpKind::OutProj, 2.0 * d * d, d * d * wb,
                   2.0 * d * ab, 0.0});
    ops.push_back({OpKind::PostNorm, 5.0 * d, d * ab, 3.0 * d * ab, 0.0});
    if (s.moe) {
        const double e = s.experts;
        ops.push_back({OpKind::Router, 2.0 * d * e + 6.0 * e,
                       d * e * wb, (d + e) * ab, 0.0});
        for (const OpProfile &op : expertOps(s, nseq))
            ops.push_back(op);
        return ops;
    }
    if (s.gated) {
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

void
StepTotalsTable::Sum::add(double x, Term t)
{
    if (t == Fixed && n == 0) {
        head += x;
        return;
    }
    // The running sum starts at +0.0, so it is never -0.0, and adding
    // a zero leaves it unchanged: a stored zero is skipped.
    if (t == Fixed && x == 0.0)
        return;
    addend[n] = x;
    term[n] = t;
    ++n;
}

double
StepTotalsTable::Sum::eval(const Terms &v) const
{
    double sum = head;
    for (std::size_t i = 0; i < n; ++i)
        sum += term[i] == Fixed ? addend[i] : v[term[i]];
    return sum;
}

StepTotalsTable::Term
StepTotalsTable::expertTerm(OpKind kind) const
{
    if (!shape_.moe)
        return Fixed;
    switch (kind) {
      case OpKind::GateUpProj:
        return GateUpWeight;
      case OpKind::DownProj:
        return DownWeight;
      default:
        return Fixed;
    }
}

StepTotalsTable::StepTotalsTable(const ModelConfig &m, hw::Dtype dtype)
    : shape_(m, dtype), layers_(m.layers)
{
    // The stored addends depend on neither pos nor nseq; the varying
    // ones are only marked here.
    for (const OpProfile &op : blockDecodeOps(m, dtype, 0.0)) {
        const bool attn = op.kind == OpKind::Attention;
        flops_.add(op.flopsPerSeq * layers_, attn ? AttnFlops : Fixed);
        weight_.add(op.weightBytes * layers_, expertTerm(op.kind));
        act_ += op.actBytesPerSeq * layers_;
        kv_.add(op.kvBytesPerSeq * layers_, attn ? AttnKv : Fixed);
        opCount_ += m.layers;
    }
    for (const OpProfile &op : topLevelDecodeOps(m, dtype)) {
        flops_.add(op.flopsPerSeq, Fixed);
        weight_.add(op.weightBytes, Fixed);
        act_ += op.actBytesPerSeq;
        kv_.add(op.kvBytesPerSeq, Fixed);
        ++opCount_;
    }
}

StepTotals
StepTotalsTable::at(double pos, double nseq) const
{
    Terms v{};
    const OpProfile attn = attentionOp(shape_, pos);
    v[AttnFlops] = attn.flopsPerSeq * layers_;
    v[AttnKv] = attn.kvBytesPerSeq * layers_;
    if (shape_.moe) {
        const auto experts = expertOps(shape_, nseq);
        v[GateUpWeight] = experts[0].weightBytes * layers_;
        v[DownWeight] = experts[2].weightBytes * layers_;
    }
    StepTotals t;
    t.flopsPerSeq = flops_.eval(v);
    t.weightBytes = weight_.eval(v);
    t.actBytesPerSeq = act_;
    t.kvBytesPerSeq = kv_.eval(v);
    t.opCount = opCount_;
    return t;
}

} // namespace cllm::llm
