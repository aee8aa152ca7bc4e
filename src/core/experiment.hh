/**
 * @file
 * The library's high-level public API: configure a (machine, execution
 * environment, model, run parameters) tuple, run the timing model, and
 * compare against a baseline — the loop every figure in the paper
 * executes. Downstream users who just want "what does TDX cost me for
 * this model at this batch size" start here.
 */

#ifndef CLLM_CORE_EXPERIMENT_HH
#define CLLM_CORE_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "cost/pricing.hh"
#include "hw/cpu.hh"
#include "hw/gpu.hh"
#include "llm/model_config.hh"
#include "llm/perf_cpu.hh"
#include "llm/perf_gpu.hh"
#include "tee/backend.hh"
#include "util/names.hh"

namespace cllm::core {

/** The execution environments the paper evaluates. */
enum class Backend
{
    Bare,    //!< bare metal
    Vm,      //!< raw VM, 1 GiB hugepages, bound
    VmTh,    //!< raw VM, 2 MiB transparent hugepages
    VmNb,    //!< raw VM, hugepages but no NUMA binding
    Sgx,     //!< Gramine-SGX
    Tdx,     //!< TDX VM
};

/** Printable backend name. */
const char *backendName(Backend b);

/** Backend spellings on the command line and in config files. */
inline constexpr auto kBackendNames = nameTable<Backend>(
    "backend", {{Backend::Bare, "bare"},
                {Backend::Vm, "vm"},
                {Backend::VmTh, "vmth"},
                {Backend::VmNb, "vmnb"},
                {Backend::Sgx, "sgx"},
                {Backend::Tdx, "tdx"}});

/**
 * The paper's canonical CPU throughput run: batch 6, beam 4, 1024 in /
 * 128 out, on all cores of `sockets` sockets.
 */
inline llm::RunParams
throughputParams(const hw::CpuSpec &cpu, unsigned sockets = 1)
{
    llm::RunParams p;
    p.batch = 6;
    p.beam = 4;
    p.inLen = 1024;
    p.outLen = 128;
    p.sockets = sockets;
    p.cores = sockets * cpu.coresPerSocket;
    return p;
}

/** The paper's canonical CPU latency run: the throughput shape at
 *  batch 1, beam 1. */
inline llm::RunParams
latencyParams(const hw::CpuSpec &cpu, unsigned sockets = 1)
{
    llm::RunParams p = throughputParams(cpu, sockets);
    p.batch = 1;
    p.beam = 1;
    return p;
}

/** Construct the TeeBackend model for an enum value. */
std::unique_ptr<tee::TeeBackend> makeBackend(Backend b);

/** A run outcome paired with its configuration labels. */
struct ExperimentResult
{
    std::string backend;
    llm::TimingResult timing;
};

/** Throughput/latency overhead of a run versus a baseline run. */
struct OverheadReport
{
    std::string name;
    std::string baseline;
    double tputOverheadPct = 0.0;    //!< decode throughput loss
    double latencyOverheadPct = 0.0; //!< mean token latency increase
    double e2eOverheadPct = 0.0;     //!< end-to-end throughput loss
};

/**
 * Facade over the CPU/GPU timing models.
 */
class Experiment
{
  public:
    /** Use default model configurations. */
    Experiment();

    /** Run on a CPU under a backend. */
    ExperimentResult runCpu(const hw::CpuSpec &cpu, Backend backend,
                            const llm::ModelConfig &model,
                            const llm::RunParams &params) const;

    /** Run on a GPU (confidential or raw). */
    ExperimentResult runGpu(const hw::GpuSpec &gpu,
                            const llm::ModelConfig &model,
                            const llm::GpuRunParams &params) const;

    /** Overheads of `result` relative to `baseline`. */
    static OverheadReport compare(const ExperimentResult &result,
                                  const ExperimentResult &baseline);

    /** $/1M tokens for a CPU run on a rented slice. */
    static double cpuCostPerMTokens(const ExperimentResult &r,
                                    const cost::CpuPricing &pricing,
                                    unsigned vcpus, double mem_gb);

    /** $/1M tokens for a GPU run. */
    static double gpuCostPerMTokens(const ExperimentResult &r,
                                    const cost::GpuPricing &pricing);

    const llm::CpuPerfModel &cpuModel() const { return cpuModel_; }
    const llm::GpuPerfModel &gpuModel() const { return gpuModel_; }

  private:
    llm::CpuPerfModel cpuModel_;
    llm::GpuPerfModel gpuModel_;
};

} // namespace cllm::core

#endif // CLLM_CORE_EXPERIMENT_HH
