/**
 * @file
 * Table I generator: the paper's summary matrix comparing SGX, TDX,
 * and cGPU across security, performance, and cost dimensions, built
 * from the backends' SecurityProfile and measured overhead runs.
 */

#ifndef CLLM_CORE_SUMMARY_HH
#define CLLM_CORE_SUMMARY_HH

#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace cllm::core {

/** One row of the summary matrix. */
struct SummaryRow
{
    std::string dimension;
    std::string sgx;
    std::string tdx;
    std::string cgpu;
};

/**
 * Build the Table I rows; the single-resource overhead row runs the
 * timing model.
 */
std::vector<SummaryRow> buildSummaryMatrix();

/** Render the matrix to a stream as an aligned table. */
void printSummaryMatrix(std::ostream &os,
                        const std::vector<SummaryRow> &rows);

} // namespace cllm::core

#endif // CLLM_CORE_SUMMARY_HH
