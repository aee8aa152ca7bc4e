/**
 * @file
 * CPU hardware descriptions for the timing model: per-dtype compute
 * throughput with and without AMX, memory system parameters, and the
 * machine presets used in the paper (EMR1 = 2x Xeon Gold 6530,
 * EMR2 = 2x Xeon Platinum 8580, plus the cheaper Sapphire Rapids
 * alternative mentioned in Section V-D).
 */

#ifndef CLLM_HW_CPU_HH
#define CLLM_HW_CPU_HH

#include <cstdint>
#include <string>

#include "mem/numa.hh"
#include "mem/tlb.hh"
#include "util/names.hh"

namespace cllm::hw {

/** Numeric formats the inference stack runs in. */
enum class Dtype { Fp32, Bf16, Int8 };

/** Bytes per element of a dtype. */
constexpr double
dtypeBytes(Dtype t)
{
    switch (t) {
      case Dtype::Fp32:
        return 4.0;
      case Dtype::Bf16:
        return 2.0;
      case Dtype::Int8:
        return 1.0;
    }
    return 4.0;
}

/** Dtype spellings (`--dtype`, config files, table headers). */
inline constexpr auto kDtypeNames = nameTable<Dtype>(
    "dtype",
    {{Dtype::Fp32, "fp32"}, {Dtype::Bf16, "bf16"}, {Dtype::Int8, "int8"}});

/** Per-core matrix-math throughput in ops per cycle. */
struct CoreThroughput
{
    double fp32Avx = 64.0;     //!< AVX-512 FMA fp32
    double bf16Avx = 128.0;    //!< AVX512-BF16 dot product
    double int8Avx = 2.5;      //!< no VNNI kernel path (scalar fallback)
    double bf16Amx = 512.0;    //!< AMX TMUL bf16
    double int8Amx = 1024.0;   //!< AMX TMUL int8
};

/** One CPU machine (possibly multi-socket). */
struct CpuSpec
{
    std::string name;
    unsigned sockets = 2;
    unsigned coresPerSocket = 32;
    double freqGhz = 2.1;
    CoreThroughput tput{};
    double kernelEfficiency = 0.45; //!< achievable fraction of peak

    double dramBwPerSocket = 307e9; //!< 8ch DDR5-4800
    mem::NumaConfig numa{};
    mem::TlbConfig tlb{};

    std::uint64_t epcBytesPerSocket = 256ULL << 30; //!< SGX EPC per socket

    double cpuPriceUsd = 0.0;      //!< list price per CPU (context only)

    /** Peak FLOP/s (or int-op/s) for a dtype over `cores` cores. */
    double peakOps(Dtype dtype, bool amx, unsigned cores) const;

    /** Cores across all sockets. */
    unsigned totalCores() const { return sockets * coresPerSocket; }
};

/** EMR1: dual Intel Xeon Gold 6530 (32 cores, 2.1 GHz, $2130). */
CpuSpec emr1();

/** EMR2: dual Intel Xeon Platinum 8580 (60 cores, 2.0 GHz, $10710). */
CpuSpec emr2();

/** Cheaper Sapphire Rapids machine, ~40% slower (Section V-D). */
CpuSpec spr();

/** A machine preset's factory. */
using CpuPreset = CpuSpec (*)();

/** Machine spellings (`--machine`, config files). */
inline constexpr auto kCpuPresets = nameTable<CpuPreset>(
    "machine", {{emr1, "emr1"}, {emr2, "emr2"}, {spr, "spr"}});

} // namespace cllm::hw

#endif // CLLM_HW_CPU_HH
