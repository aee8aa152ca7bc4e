/**
 * @file
 * The calibration report: every row of the calibration table
 * (calibration.hh) as one markdown line with its test, paper band,
 * bound and measured values. It takes no flags and its output is
 * deterministic; EXPERIMENTS.md carries it verbatim.
 */

#include <iostream>

#include "calibration.hh"

int
main(int argc, char **)
{
    if (argc > 1) {
        std::cerr << "usage: calibration (takes no flags)\n";
        return 2;
    }
    cllm::bench::calibration::printReport(std::cout);
    return 0;
}
