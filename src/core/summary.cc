#include "core/summary.hh"

#include <sstream>

#include "util/table.hh"

namespace cllm::core {

namespace {

/** Render a boolean support level like the paper's filled squares. */
std::string
mark(bool full)
{
    return full ? "[full]" : "[none]";
}

} // namespace

std::vector<SummaryRow>
buildSummaryMatrix()
{
    std::vector<SummaryRow> rows;

    const auto sgx = tee::makeSgx();
    const auto tdx = tee::makeTdx();
    const tee::SecurityProfile ps = sgx->security();
    const tee::SecurityProfile pt = tdx->security();
    const tee::SecurityProfile pg = tee::cgpuSecurity();

    rows.push_back({"memory encryption", mark(ps.memoryEncrypted),
                    mark(pt.memoryEncrypted),
                    mark(pg.memoryEncrypted) + " (HBM clear)"});
    rows.push_back({"scale-up link protection",
                    mark(ps.interconnectProtected),
                    mark(pt.interconnectProtected),
                    mark(pg.interconnectProtected) + " (NVLINK clear)"});
    rows.push_back({"trust boundary", ps.trustBoundary, pt.trustBoundary,
                    pg.trustBoundary});

    // Single-resource overhead: Llama2-7B throughput run.
    Experiment exp;
    const auto cpu = hw::emr1();
    const auto model = llm::llama2_7b();
    const auto p = throughputParams(cpu);

    const auto bare = exp.runCpu(cpu, Backend::Bare, model, p);
    const auto sgx_r = exp.runCpu(cpu, Backend::Sgx, model, p);
    const auto tdx_r = exp.runCpu(cpu, Backend::Tdx, model, p);

    const auto gpu = hw::h100Nvl();
    llm::GpuRunParams g;
    g.batch = 16;
    g.inLen = 512;
    g.outLen = 128;
    const auto gpu_raw = exp.runGpu(gpu, model, g);
    g.confidential = true;
    const auto gpu_cc = exp.runGpu(gpu, model, g);

    auto pct = [](const ExperimentResult &r, const ExperimentResult &b) {
        std::ostringstream os;
        os.precision(1);
        os << std::fixed << Experiment::compare(r, b).tputOverheadPct
           << "%";
        return os.str();
    };
    rows.push_back({"single-resource overhead (measured)",
                    pct(sgx_r, bare), pct(tdx_r, bare),
                    pct(gpu_cc, gpu_raw)});

    rows.push_back({"batch size up -> overhead", "down", "down", "down"});
    rows.push_back({"input size up -> overhead", "down, then up",
                    "down, then up", "down"});
    rows.push_back({"AMX benefit", "yes", "yes", "n/a"});
    rows.push_back({"scale-up (2nd socket / 2nd GPU)", "very costly",
                    "costly", "very costly (no RDMA/GPUdirect)"});
    rows.push_back({"main overhead sources",
                    "EPC paging, enclave exits, memory, NUMA",
                    "virtualization tax, hugepages, memory, NUMA",
                    "PCIe bounce buffer, kernel launch"});
    rows.push_back({"development effort", "high (libOS, manifest)",
                    "low (standard VM)", "low (unchanged CUDA)"});
    rows.push_back({"cost: small inputs/batches", "best", "good",
                    "poor (idle accelerator)"});
    rows.push_back({"cost: large inputs/batches", "poor", "poor",
                    "best"});
    return rows;
}

void
printSummaryMatrix(std::ostream &os, const std::vector<SummaryRow> &rows)
{
    Table t({"dimension", "Intel SGX (process TEE)",
             "Intel TDX (VM TEE)", "H100 cGPU (GPU TEE)"});
    for (const auto &r : rows)
        t.addRow({r.dimension, r.sgx, r.tdx, r.cgpu});
    t.print(os);
}

} // namespace cllm::core
