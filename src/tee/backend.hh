/**
 * @file
 * TEE backend models. Each backend turns a workload/hardware request
 * into an ExecTax: the set of multiplicative and additive costs the
 * execution environment imposes on the roofline timing model. The
 * implemented backends mirror the paper's four CPU configurations
 * (bare metal, raw VM, Gramine-SGX, TDX) plus NVIDIA H100
 * confidential GPUs.
 *
 * Every overhead here is mechanistic: memory-encryption bandwidth
 * taxes, nested-page-walk translation costs, NUMA placement fidelity,
 * enclave transition costs, and launch/bounce-buffer costs for cGPUs.
 * The magnitudes are calibrated against the paper's measurements (see
 * DESIGN.md Section 5) but the *shapes* across batch size, input
 * length, data type, and socket count emerge from the mechanisms.
 */

#ifndef CLLM_TEE_BACKEND_HH
#define CLLM_TEE_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>

#include "hw/cpu.hh"
#include "hw/gpu.hh"
#include "mem/epc.hh"
#include "mem/numa.hh"
#include "mem/tlb.hh"

namespace cllm::tee {

/** Workload/hardware context a backend needs to compute its taxes. */
struct TeeRequest
{
    unsigned sockets = 1;              //!< active sockets
    std::uint64_t workingSetBytes = 0; //!< per decode pass
    mem::PageSize requestedPage = mem::PageSize::Page1G;
    bool numaBindRequested = true;
    bool sncEnabled = false;           //!< sub-NUMA clustering on
    double syscallsPerToken = 4.0;     //!< IO/futex per generated token
};

/** Costs an execution environment imposes on the timing model. */
struct ExecTax
{
    /** Multiplier on achievable compute throughput (<= 1). */
    double computeFactor = 1.0;
    /** Multiplier on DRAM bandwidth due to link/memory encryption. */
    double encBwFactor = 1.0;
    /** Additive seconds per byte (EPC paging and similar). */
    double extraSecPerByte = 0.0;
    /** Fixed seconds per executed kernel/operator. */
    double perOpFixedSec = 0.0;
    /** Fixed seconds per generated token (syscalls, transitions). */
    double perTokenFixedSec = 0.0;

    /** Page size actually used by the environment. */
    mem::PageSize effectivePage = mem::PageSize::Page1G;
    /** Translation regime (native / nested / nested+TDX checks). */
    mem::TranslationMode xlate = mem::TranslationMode::Native;
    /** NUMA placement that actually happens. */
    mem::NumaPlacement placement = mem::NumaPlacement::Local;
    /** Whether the socket interconnect runs encrypted. */
    bool upiEncrypted = false;

    /** Per-token lognormal jitter scale. */
    double noiseSigma = 0.008;
    /** Probability of an encryption-stall outlier token. */
    double outlierProb = 0.0;
    /** Latency multiplier for outlier tokens. */
    double outlierScale = 1.0;
};

/** Security properties for the paper's Table I comparison. */
struct SecurityProfile
{
    bool memoryEncrypted = false;      //!< DRAM/HBM ciphertext
    bool memoryIntegrity = false;      //!< replay/integrity protected
    bool interconnectProtected = false;//!< UPI / NVLINK / PCIe links
    bool protectsFromHost = false;     //!< hypervisor/admin excluded
    std::string trustBoundary;         //!< "app" / "app+libOS" / "VM"
};

/**
 * Abstract execution environment.
 */
class TeeBackend
{
  public:
    virtual ~TeeBackend() = default;

    /** Short display name ("TDX", "SGX", "VM", "bare", "cGPU"). */
    virtual std::string name() const = 0;

    /** Security properties (Table I). */
    virtual SecurityProfile security() const = 0;

    /** Compute the taxes for a workload on a CPU. */
    virtual ExecTax tax(const hw::CpuSpec &cpu,
                        const TeeRequest &req) const = 0;
};

/** Tunable knobs of the VM virtualization layer. */
struct VmConfig
{
    /** True: 1 GiB preallocated hugepages; false: 2 MiB THP. */
    bool hugepages1G = true;
    /** Whether QEMU NUMA bindings are applied. */
    bool numaBound = true;
    double virtComputeTax = 0.012;  //!< steal/vmexit compute share
    double perOpFixedUs = 0.6;      //!< timer/IPI virtualization
};

/** Tunable knobs of the TDX model, layered on the VM model. */
struct TdxConfig
{
    VmConfig vm{};
    double tmeBwTax = 0.028;        //!< TME-MK AES on the DRAM path
    double perOpFixedUs = 2.6;      //!< TDX-module transitions, timers
    double outlierProb = 0.0064;    //!< paper: ~0.64% Z>3 outliers
    double outlierScale = 3.5;
    double noiseSigma = 0.020;
};

/** Tunable knobs of the Gramine-SGX model. */
struct SgxConfig
{
    std::uint64_t epcBytes = 512ULL << 30;
    double meeBwTax = 0.042;        //!< MEE crypto+tree on DRAM path
    double enclaveTransitionUs = 3.8; //!< EENTER/EEXIT + cache flush
    double inEnclaveSyscallFrac = 0.85; //!< Gramine emulates in place
    double perOpFixedUs = 0.8;      //!< libOS bookkeeping
    double outlierProb = 0.0064;
    double outlierScale = 3.0;
    double noiseSigma = 0.016;
};

/** Bare-metal baseline (no tax). */
std::unique_ptr<TeeBackend> makeBareMetal();

/** Raw VM without TEE protections. */
std::unique_ptr<TeeBackend> makeVm(const VmConfig &cfg = {});

/** TDX-enabled VM. */
std::unique_ptr<TeeBackend> makeTdx(const TdxConfig &cfg = {});

/** Gramine-SGX process enclave. */
std::unique_ptr<TeeBackend> makeSgx(const SgxConfig &cfg = {});

/**
 * GPU-side taxes for confidential H100s; consumed by the GPU timing
 * model rather than the CPU roofline.
 */
struct GpuTax
{
    double launchExtraSec = 0.0;   //!< added per kernel launch
    double hostLinkBwBytes = 0.0;  //!< encrypted bounce-buffer rate
    double hbmBwFactor = 1.0;      //!< 1.0: H100 HBM not encrypted
    double noiseSigma = 0.006;
};

/** Taxes for running confidentially on a given GPU. */
GpuTax cgpuTax(const hw::GpuSpec &gpu);

/** Security profile of an H100-class confidential GPU (Table I). */
SecurityProfile cgpuSecurity();

} // namespace cllm::tee

#endif // CLLM_TEE_BACKEND_HH
