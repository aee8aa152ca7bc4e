#include "fault/schedule.hh"

#include <algorithm>
#include <cmath>

#include "mem/epc.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cllm::fault {

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::AttestFail:
        return "attest_fail";
      case FaultKind::EnclaveRestart:
        return "enclave_restart";
      case FaultKind::EpcStorm:
        return "epc_storm";
      case FaultKind::KvExhaustion:
        return "kv_exhaustion";
    }
    return "?";
}

namespace {

/** Draw one Poisson window process into the schedule. */
void
drawProcess(FaultSchedule &sched, Rng &rng, FaultKind kind,
            const FaultProcess &proc, double horizon)
{
    if (proc.rate <= 0.0)
        return;
    if (proc.magnitude < 0.0)
        cllm_fatal("fault process ", faultKindName(kind),
                   ": negative magnitude");
    if (kind == FaultKind::KvExhaustion && proc.magnitude > 1.0)
        cllm_fatal("kv_exhaustion magnitude must be a fraction in "
                   "[0, 1], got ",
                   proc.magnitude);
    double clock = 0.0;
    for (;;) {
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        clock += -std::log(u) / proc.rate;
        if (clock >= horizon)
            break;
        FaultEvent e;
        e.kind = kind;
        e.time = clock;
        if (proc.meanDuration > 0.0) {
            double v = 0.0;
            while (v == 0.0)
                v = rng.uniform();
            e.duration = -std::log(v) * proc.meanDuration;
        }
        e.magnitude = proc.magnitude;
        sched.add(e);
    }
}

} // namespace

FaultSchedule
FaultSchedule::generate(const FaultScheduleConfig &cfg)
{
    if (cfg.horizon <= 0.0)
        cllm_fatal("FaultSchedule::generate: non-positive horizon");
    FaultSchedule sched;
    // One Rng per process, split from the master seed, so enabling a
    // new fault class never perturbs the draws of the others.
    std::uint64_t s = cfg.seed;
    const std::uint64_t seeds[4] = {splitmix64(s), splitmix64(s),
                                    splitmix64(s), splitmix64(s)};
    Rng r0(seeds[0]), r1(seeds[1]), r2(seeds[2]), r3(seeds[3]);
    drawProcess(sched, r0, FaultKind::AttestFail, cfg.attestFail,
                cfg.horizon);
    drawProcess(sched, r1, FaultKind::EnclaveRestart,
                cfg.enclaveRestart, cfg.horizon);
    drawProcess(sched, r2, FaultKind::EpcStorm, cfg.epcStorm,
                cfg.horizon);
    drawProcess(sched, r3, FaultKind::KvExhaustion, cfg.kvExhaustion,
                cfg.horizon);
    return sched;
}

void
FaultSchedule::add(const FaultEvent &e)
{
    if (e.time < 0.0 || e.duration < 0.0)
        cllm_fatal("FaultEvent with negative time or duration");
    auto it = std::upper_bound(
        events_.begin(), events_.end(), e,
        [](const FaultEvent &a, const FaultEvent &b) {
            return a.time < b.time;
        });
    events_.insert(it, e);
}

double
epcStormSlowdown(std::uint64_t working_set_bytes,
                 std::uint64_t epc_bytes, double baseline_step_sec)
{
    if (baseline_step_sec <= 0.0)
        cllm_fatal("epcStormSlowdown: non-positive baseline step");
    const mem::EpcCostModel model;
    return 1.0 + model.passSeconds(working_set_bytes, epc_bytes) /
                     baseline_step_sec;
}

} // namespace cllm::fault
