#include "mem/epc.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace cllm::mem {

double
EpcCostModel::scanMissRatio(std::uint64_t working_set_bytes,
                            std::uint64_t epc_bytes) const
{
    if (epc_bytes == 0)
        cllm_fatal("EpcCostModel: zero EPC size");
    if (working_set_bytes <= epc_bytes)
        return 0.0;
    // Cyclic scan through WS > EPC under LRU misses on (WS - EPC) of
    // each pass plus the churn of reloading; model the classic sharp
    // cliff with a smooth shoulder.
    const double ws = static_cast<double>(working_set_bytes);
    const double epc = static_cast<double>(epc_bytes);
    return std::min(1.0, (ws - epc) / ws + 0.1);
}

double
EpcCostModel::extraSecondsPerByte(std::uint64_t working_set_bytes,
                                  std::uint64_t epc_bytes) const
{
    const double miss = scanMissRatio(working_set_bytes, epc_bytes);
    if (miss > 0.0) {
        // Attribute EPC-paging pressure: evaluations that priced a
        // working set spilling out of the EPC, and the spilled bytes.
        static obs::Counter &paging_evals =
            obs::Registry::global().counter("mem.epc.paging_evals");
        static obs::Counter &spill_bytes =
            obs::Registry::global().counter("mem.epc.spill_bytes");
        paging_evals.inc();
        spill_bytes.add(working_set_bytes - epc_bytes);
    }
    constexpr double page = 4096.0;
    return miss * (pageFaultUs * 1e-6) / page;
}

double
EpcCostModel::passSeconds(std::uint64_t working_set_bytes,
                          std::uint64_t epc_bytes) const
{
    return extraSecondsPerByte(working_set_bytes, epc_bytes) *
           static_cast<double>(working_set_bytes);
}

double
EpcCostModel::swapSeconds(std::uint64_t bytes) const
{
    const std::uint64_t pages = (bytes + 4095) / 4096;
    return static_cast<double>(pages) * (pageFaultUs * 1e-6) * 0.5;
}

} // namespace cllm::mem
