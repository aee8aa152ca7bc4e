/**
 * @file
 * The reference decode-step totals the pricing oracles compare
 * against: every op of blockDecodeOps (scaled by `layers`) and then of
 * topLevelDecodeOps, each field summed one op at a time in op order.
 */

#ifndef CLLM_TESTS_STEP_TOTALS_REF_HH
#define CLLM_TESTS_STEP_TOTALS_REF_HH

#include <bit>
#include <cstdint>

#include "llm/model_config.hh"
#include "llm/ops.hh"

namespace cllm::testing {

inline llm::StepTotals
perOpSum(const llm::ModelConfig &m, hw::Dtype dtype, double pos,
         double nseq = 1.0)
{
    llm::StepTotals t;
    for (const llm::OpProfile &op :
         llm::blockDecodeOps(m, dtype, pos, nseq)) {
        t.flopsPerSeq += op.flopsPerSeq * m.layers;
        t.weightBytes += op.weightBytes * m.layers;
        t.actBytesPerSeq += op.actBytesPerSeq * m.layers;
        t.kvBytesPerSeq += op.kvBytesPerSeq * m.layers;
        t.opCount += m.layers;
    }
    for (const llm::OpProfile &op : llm::topLevelDecodeOps(m, dtype)) {
        t.flopsPerSeq += op.flopsPerSeq;
        t.weightBytes += op.weightBytes;
        t.actBytesPerSeq += op.actBytesPerSeq;
        t.kvBytesPerSeq += op.kvBytesPerSeq;
        ++t.opCount;
    }
    return t;
}

/** A double's bit pattern, so +0.0 and -0.0 compare unequal. */
inline std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

} // namespace cllm::testing

#endif // CLLM_TESTS_STEP_TOTALS_REF_HH
