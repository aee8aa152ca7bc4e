#include "hw/cpu.hh"

#include "util/logging.hh"

namespace cllm::hw {

double
CpuSpec::peakOps(Dtype dtype, bool amx, unsigned cores) const
{
    if (cores == 0 || cores > totalCores())
        cllm_fatal("peakOps: invalid core count ", cores);
    double per_core_cycle = 0.0;
    switch (dtype) {
      case Dtype::Fp32:
        per_core_cycle = tput.fp32Avx; // AMX has no fp32 tiles
        break;
      case Dtype::Bf16:
        per_core_cycle = amx ? tput.bf16Amx : tput.bf16Avx;
        break;
      case Dtype::Int8:
        per_core_cycle = amx ? tput.int8Amx : tput.int8Avx;
        break;
    }
    return per_core_cycle * freqGhz * 1e9 * static_cast<double>(cores);
}

CpuSpec
emr1()
{
    CpuSpec s;
    s.name = "EMR1 (2x Xeon Gold 6530)";
    s.sockets = 2;
    s.coresPerSocket = 32;
    s.freqGhz = 2.1;
    s.dramBwPerSocket = 307e9;
    s.cpuPriceUsd = 2130.0;
    s.numa.nodes = 2;
    s.numa.localBwBytes = s.dramBwPerSocket;
    s.numa.upiBwBytes = 62e9;
    s.epcBytesPerSocket = 256ULL << 30;
    return s;
}

CpuSpec
emr2()
{
    CpuSpec s;
    s.name = "EMR2 (2x Xeon Platinum 8580)";
    s.sockets = 2;
    s.coresPerSocket = 60;
    s.freqGhz = 2.0;
    s.dramBwPerSocket = 307e9;
    s.cpuPriceUsd = 10710.0;
    s.numa.nodes = 2;
    s.numa.localBwBytes = s.dramBwPerSocket;
    s.numa.upiBwBytes = 62e9;
    s.epcBytesPerSocket = 256ULL << 30;
    return s;
}

CpuSpec
spr()
{
    CpuSpec s = emr2();
    s.name = "SPR (2x Xeon Platinum 8480+)";
    s.coresPerSocket = 56;
    s.freqGhz = 2.0;
    // "performing up to 40% worse" (Section V-D) via lower effective
    // kernel efficiency and memory bandwidth.
    s.kernelEfficiency = 0.45 * 0.72;
    s.dramBwPerSocket = 250e9;
    s.cpuPriceUsd = 10710.0 * 0.55;
    s.numa.localBwBytes = s.dramBwPerSocket;
    return s;
}

} // namespace cllm::hw
