/**
 * @file
 * Per-operator FLOP/byte profiles of a decoder block, powering both
 * the roofline timing and the paper's Figure 7 per-block breakdown.
 * Counts follow the standard dense-transformer accounting (2 FLOPs
 * per multiply-accumulate); bytes separate weight traffic (shared
 * across a batch) from per-sequence activation and KV-cache traffic.
 */

#ifndef CLLM_LLM_OPS_HH
#define CLLM_LLM_OPS_HH

#include <array>
#include <cstddef>

#include "hw/cpu.hh"
#include "llm/model_config.hh"
#include "util/logging.hh"

namespace cllm::llm {

/** Operator kinds inside one decoder block (plus model-level ops). */
enum class OpKind
{
    InputNorm,
    QkvProj,
    Rope,
    Attention,
    OutProj,
    PostNorm,
    Router,     //!< MoE gating projection
    GateUpProj, //!< the paper's "linear SiLU multiplication" input
    SiluMul,
    DownProj,
    Embed,
    FinalNorm,
    LmHead,
};

/** Printable operator name. */
const char *opName(OpKind k);

/** FLOPs and traffic of one operator for ONE new token. */
struct OpProfile
{
    OpKind kind{};
    double flopsPerSeq = 0.0;   //!< per sequence in the batch
    double weightBytes = 0.0;   //!< read once per step, batch-shared
    double actBytesPerSeq = 0.0;//!< activations read+written
    double kvBytesPerSeq = 0.0; //!< KV cache read+appended
};

/** Most ops an op list holds: a MoE block's ten. */
inline constexpr std::size_t kMaxOps = 10;

/**
 * A fixed-capacity list of op profiles, held by value. Building one
 * touches no heap, so pricing a step (`stepTotals`, which every
 * serving step calls) allocates nothing. Appending past `kMaxOps`
 * panics: a block that grows an op must raise the constant.
 */
class OpList
{
  public:
    void
    push_back(const OpProfile &op)
    {
        if (n_ == kMaxOps)
            cllm_panic("OpList: more than ", kMaxOps, " ops");
        ops_[n_++] = op;
    }

    std::size_t size() const { return n_; }
    const OpProfile &front() const { return ops_[0]; }
    const OpProfile &back() const { return ops_[n_ - 1]; }
    const OpProfile *begin() const { return ops_.data(); }
    const OpProfile *end() const { return ops_.data() + n_; }

  private:
    std::array<OpProfile, kMaxOps> ops_;
    std::size_t n_ = 0;
};

/**
 * Operator profiles for ONE decoder block during decode at context
 * position `pos` (0-based length of the attended prefix), in
 * execution order. For MoE models, `nseq` (concurrent sequences)
 * determines how many distinct experts the step streams from memory.
 */
OpList blockDecodeOps(const ModelConfig &m, hw::Dtype dtype, double pos,
                      double nseq = 1.0);

/** Model-level ops outside the blocks (embed, final norm, LM head). */
OpList topLevelDecodeOps(const ModelConfig &m, hw::Dtype dtype);

/** Aggregate totals for one decode step of the whole model. */
struct StepTotals
{
    double flopsPerSeq = 0.0;
    double weightBytes = 0.0;
    double actBytesPerSeq = 0.0;
    double kvBytesPerSeq = 0.0;
    unsigned opCount = 0;       //!< kernel launches per step
};

/** Sum block ops over all layers plus top-level ops. */
StepTotals stepTotals(const ModelConfig &m, hw::Dtype dtype, double pos,
                      double nseq = 1.0);

} // namespace cllm::llm

#endif // CLLM_LLM_OPS_HH
