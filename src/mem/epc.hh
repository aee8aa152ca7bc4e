/**
 * @file
 * SGX Enclave Page Cache (EPC) model. The EPC is a limited secure
 * region; enclave pages beyond it are paged out to regular memory with
 * encryption + verification on the way back in, which the paper
 * identifies as a major SGX cost when working sets exceed the EPC
 * (Section IV-A). EpcCostModel turns a working set's spill past the
 * EPC into extra seconds per byte for the roofline, and into swap and
 * paging-storm seconds for the serving and fault layers. Its
 * pageFaultUs and the miss-ratio shoulder are fitted to the paper's
 * bands, not derived from a page-level replay.
 */

#ifndef CLLM_MEM_EPC_HH
#define CLLM_MEM_EPC_HH

#include <cstdint>

namespace cllm::mem {

/**
 * Analytic EPC paging cost.
 */
struct EpcCostModel
{
    double pageFaultUs = 7.0;   //!< EWB/ELDU pair: encrypt+evict+reload

    /**
     * Steady-state miss ratio for a working set cycled through an EPC
     * of the given size (classic LRU-over-scan behaviour: ~0 when it
     * fits, approaching 1 for cyclic scans that exceed capacity).
     */
    double scanMissRatio(std::uint64_t working_set_bytes,
                         std::uint64_t epc_bytes) const;

    /** Extra seconds per byte of enclave traffic due to paging. */
    double extraSecondsPerByte(std::uint64_t working_set_bytes,
                               std::uint64_t epc_bytes) const;

    /**
     * Total extra seconds for one pass over the working set — the
     * per-pass penalty of a paging storm, used by the fault layer to
     * turn an EPC squeeze into a step-time slowdown.
     */
    double passSeconds(std::uint64_t working_set_bytes,
                       std::uint64_t epc_bytes) const;

    /**
     * Seconds to move `bytes` of enclave state across the EPC
     * boundary in one direction (an EWB *or* ELDU sweep, half the
     * round-trip pageFaultUs per 4 KiB page). The paged-KV scheduler
     * charges this for preemption swap-out and resume swap-in.
     */
    double swapSeconds(std::uint64_t bytes) const;
};

} // namespace cllm::mem

#endif // CLLM_MEM_EPC_HH
