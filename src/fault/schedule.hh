/**
 * @file
 * Deterministic fault schedules for confidential serving. A schedule
 * is a time-sorted list of fault events — attestation failures,
 * enclave/TD restarts, EPC paging storms, KV-capacity losses — drawn
 * reproducibly from a seed, so a resilience experiment can be replayed
 * bit-for-bit. The failure classes mirror what confidential-serving
 * studies report as the dominant operational pain points: attestation
 * flakiness at admission, enclave restarts that wipe in-TEE state
 * (weights, KV cache) and force re-provisioning, and secure-memory
 * pressure that manifests as paging storms or shrunken KV pools.
 */

#ifndef CLLM_FAULT_SCHEDULE_HH
#define CLLM_FAULT_SCHEDULE_HH

#include <cstdint>
#include <vector>

namespace cllm {
class Config;
}

namespace cllm::fault {

/** Classes of injected faults. */
enum class FaultKind
{
    AttestFail,     //!< admission handshakes fail for a window
    EnclaveRestart, //!< enclave/TD dies; all in-TEE state is lost
    EpcStorm,       //!< secure-memory paging storm slows every step
    KvExhaustion,   //!< part of the KV pool becomes unusable
};

/** Printable fault-kind name. */
const char *faultKindName(FaultKind k);

/** One scheduled fault. */
struct FaultEvent
{
    FaultKind kind = FaultKind::EpcStorm;
    double time = 0.0;     //!< seconds into the run
    double duration = 0.0; //!< window length (0 for point events)
    /**
     * Kind-specific intensity: EpcStorm — step-time multiplier (>= 1);
     * KvExhaustion — fraction of the pool lost in [0, 1]; unused for
     * AttestFail and EnclaveRestart.
     */
    double magnitude = 0.0;
};

/** Per-kind generation knobs: a Poisson process of windows. */
struct FaultProcess
{
    double rate = 0.0;         //!< events per second (0 disables)
    double meanDuration = 0.0; //!< exponential window length
    double magnitude = 0.0;    //!< passed through to the events
};

/** Seed-driven schedule generation parameters. */
struct FaultScheduleConfig
{
    std::uint64_t seed = 1;
    double horizon = 600.0; //!< generate events in [0, horizon)

    FaultProcess attestFail{};
    FaultProcess enclaveRestart{};
    FaultProcess epcStorm{};
    FaultProcess kvExhaustion{};
};

/**
 * A time-sorted fault schedule.
 */
class FaultSchedule
{
  public:
    FaultSchedule() = default;

    /** Draw a reproducible schedule from the config's seed. */
    static FaultSchedule generate(const FaultScheduleConfig &cfg);

    /** Insert one event, keeping time order. */
    void add(const FaultEvent &e);

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }
    const std::vector<FaultEvent> &events() const { return events_; }

  private:
    std::vector<FaultEvent> events_;
};

/**
 * Slowdown factor of an EPC paging storm, derived from the mem::epc
 * cost model: the ratio of a decode pass that pages its working set
 * through a shrunken secure region versus one whose baseline step
 * takes `baseline_step_sec`. Always >= 1.
 */
double epcStormSlowdown(std::uint64_t working_set_bytes,
                        std::uint64_t epc_bytes,
                        double baseline_step_sec);

} // namespace cllm::fault

#endif // CLLM_FAULT_SCHEDULE_HH
