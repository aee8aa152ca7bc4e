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
 * touches no heap, so neither a StepTotalsTable nor the Figure 7
 * breakdown allocates for its op lists. Appending past `kMaxOps`
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
 * A decoder block's dimensions at one dtype, as the plain doubles its
 * op profiles are computed from.
 */
struct BlockShape
{
    BlockShape(const ModelConfig &m, hw::Dtype dtype);

    double d;        //!< model dimension
    double dkv;      //!< KV projection width
    double f;        //!< MLP intermediate size
    double wb;       //!< weight bytes per parameter
    double ab;       //!< activation bytes per element
    double experts;  //!< MoE expert count
    double perToken; //!< experts each token runs
    double expertW;  //!< one expert's weight bytes
    bool gated;      //!< SwiGLU (3 matrices) vs GELU (2)
    bool moe;        //!< routed experts instead of a dense MLP
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

/**
 * One deployment's decode-step totals, built once from (model, dtype)
 * and evaluated per step. The totals sum the block ops (each scaled
 * by `layers`) and then the top-level ops, field by field in op
 * order. Only the attention op's FLOPs and KV bytes depend on the
 * depth, and only a MoE block's expert weights on `nseq`: at()
 * recomputes those terms and adds the stored addends around them one
 * at a time. Floating-point addition is not associative, so the
 * addends after a varying term are not folded into one constant;
 * every total is bit-identical to summing the op lists. A field with
 * no varying term (activations; weights of a dense model; the op
 * count) is one stored constant.
 */
class StepTotalsTable
{
  public:
    StepTotalsTable(const ModelConfig &m, hw::Dtype dtype);

    /** Totals at context position `pos` for `nseq` sequences. */
    StepTotals at(double pos, double nseq = 1.0) const;

    /** Depth- and batch-free totals. */
    double actBytesPerSeq() const { return act_; }
    unsigned opCount() const { return opCount_; }

  private:
    /** The addends at() recomputes; `Fixed` marks a stored one. */
    enum Term : signed char
    {
        Fixed = -1,
        AttnFlops,
        AttnKv,
        GateUpWeight,
        DownWeight,
        kTerms,
    };
    using Terms = std::array<double, kTerms>;

    /** One field: the running sum before its first varying addend,
     *  then the remaining addends in op order. */
    struct Sum
    {
        double head = 0.0;
        // Block and top-level lists each hold at most kMaxOps ops.
        std::array<double, 2 * kMaxOps> addend{};
        std::array<Term, 2 * kMaxOps> term{};
        std::size_t n = 0;

        void add(double x, Term t);
        double eval(const Terms &v) const;
    };

    Term expertTerm(OpKind kind) const;

    BlockShape shape_;
    double layers_;
    Sum flops_;
    Sum weight_;
    Sum kv_;
    double act_ = 0.0;
    unsigned opCount_ = 0;
};

} // namespace cllm::llm

#endif // CLLM_LLM_OPS_HH
