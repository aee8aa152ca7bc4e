/**
 * @file
 * Table I: the summary matrix comparing Intel SGX, Intel TDX, and
 * H100 cGPUs across security, performance, and cost dimensions, with
 * the single-resource overhead row measured by the timing model.
 */

#include <iostream>

#include "core/summary.hh"

int
main()
{
    std::cout << "=== Table I: system summary (measured) ===\n\n";
    cllm::core::printSummaryMatrix(
        std::cout, cllm::core::buildSummaryMatrix());
    return 0;
}
