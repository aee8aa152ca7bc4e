/**
 * @file
 * Tests for the fault-injection subsystem: seed-driven schedule
 * generation, injector window semantics, and — the property the whole
 * layer hangs on — that a seeded fault run through serve::Server is
 * bit-for-bit reproducible, while different seeds produce different
 * timelines.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "bench/bench_util.hh"
#include "fault/injector.hh"
#include "fault/schedule.hh"
#include "serve/serving.hh"
#include "util/config.hh"
#include "util/json.hh"

using namespace cllm;
using namespace cllm::fault;
using namespace cllm::serve;

namespace {

FaultScheduleConfig
busyConfig(std::uint64_t seed)
{
    FaultScheduleConfig fs;
    fs.seed = seed;
    fs.horizon = 400.0;
    fs.attestFail = {1.0 / 60.0, 4.0, 0.0};
    fs.enclaveRestart = {1.0 / 120.0, 0.0, 0.0};
    fs.epcStorm = {1.0 / 50.0, 8.0, 6.0};
    fs.kvExhaustion = {1.0 / 80.0, 10.0, 0.5};
    return fs;
}

std::shared_ptr<const tee::TeeBackend>
shared(std::unique_ptr<tee::TeeBackend> p)
{
    return std::shared_ptr<const tee::TeeBackend>(std::move(p));
}

std::unique_ptr<StepModel>
tdxModel()
{
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return makeCpuStepModel(cpu, shared(tee::makeTdx()),
                            llm::llama2_7b(), p);
}

WorkloadConfig
faultLoad()
{
    WorkloadConfig w;
    w.arrivalRate = 1.0;
    w.numRequests = 120;
    w.meanInLen = 256;
    w.meanOutLen = 64;
    w.seed = 5;
    return w;
}

ServerConfig
resilientConfig(const FaultSchedule &sched)
{
    ServerConfig cfg;
    cfg.policy = BatchPolicy::Continuous;
    cfg.kvBlocks = 2048;
    cfg.kvBlockTokens = 16;
    cfg.faults = sched;
    cfg.weightBytes = 1ULL << 30;
    cfg.resilience.requestTimeout = 60.0;
    cfg.resilience.maxRetries = 3;
    cfg.resilience.retryBackoff = 0.25;
    cfg.resilience.shedOnKvPressure = true;
    cfg.resilience.shedThreshold = 0.95;
    cfg.resilience.degradedMaxBatch = 8;
    return cfg;
}

bool
timelinesEqual(const std::vector<FaultRecord> &a,
               const std::vector<FaultRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].event.kind != b[i].event.kind ||
            a[i].event.time != b[i].event.time ||
            a[i].event.duration != b[i].event.duration ||
            a[i].event.magnitude != b[i].event.magnitude ||
            a[i].applied != b[i].applied ||
            a[i].affected != b[i].affected)
            return false;
    }
    return true;
}

} // namespace

// ---- Schedule generation ----------------------------------------------

TEST(FaultSchedule, GenerationIsDeterministic)
{
    const auto a = FaultSchedule::generate(busyConfig(3));
    const auto b = FaultSchedule::generate(busyConfig(3));
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 0u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].time, b.events()[i].time);
        EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
    }
}

TEST(FaultSchedule, DifferentSeedsDifferentSchedules)
{
    const auto a = FaultSchedule::generate(busyConfig(3));
    const auto b = FaultSchedule::generate(busyConfig(4));
    bool differ = a.size() != b.size();
    for (std::size_t i = 0; !differ && i < a.size(); ++i)
        differ = a.events()[i].time != b.events()[i].time;
    EXPECT_TRUE(differ);
}

TEST(FaultSchedule, SortedAndWithinHorizon)
{
    const auto s = FaultSchedule::generate(busyConfig(11));
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_GE(s.events()[i].time, 0.0);
        EXPECT_LT(s.events()[i].time, 400.0);
        if (i) {
            EXPECT_GE(s.events()[i].time, s.events()[i - 1].time);
        }
    }
}

TEST(FaultSchedule, ZeroRatesYieldEmptySchedule)
{
    FaultScheduleConfig fs;
    fs.seed = 1;
    const auto s = FaultSchedule::generate(fs);
    EXPECT_TRUE(s.empty());
}

TEST(FaultSchedule, EnablingOneProcessDoesNotPerturbOthers)
{
    // Restart draws are split from the master seed, so switching the
    // attestation process on must not move the restart times.
    FaultScheduleConfig only_restart;
    only_restart.seed = 9;
    only_restart.enclaveRestart = {1.0 / 50.0, 0.0, 0.0};
    FaultScheduleConfig both = only_restart;
    both.attestFail = {1.0 / 30.0, 2.0, 0.0};

    // Named schedules: a range-for over generate(...).events() would
    // iterate a vector owned by an already-destroyed temporary.
    const FaultSchedule a = FaultSchedule::generate(only_restart);
    const FaultSchedule b = FaultSchedule::generate(both);
    std::vector<double> restarts_a, restarts_b;
    for (const auto &e : a.events())
        if (e.kind == FaultKind::EnclaveRestart)
            restarts_a.push_back(e.time);
    for (const auto &e : b.events())
        if (e.kind == FaultKind::EnclaveRestart)
            restarts_b.push_back(e.time);
    EXPECT_EQ(restarts_a, restarts_b);
}

TEST(FaultSchedule, AddKeepsTimeOrder)
{
    FaultSchedule s;
    s.add({FaultKind::EpcStorm, 5.0, 1.0, 2.0});
    s.add({FaultKind::EnclaveRestart, 1.0, 0.0, 0.0});
    s.add({FaultKind::AttestFail, 3.0, 2.0, 0.0});
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.events()[0].kind, FaultKind::EnclaveRestart);
    EXPECT_EQ(s.events()[1].kind, FaultKind::AttestFail);
    EXPECT_EQ(s.events()[2].kind, FaultKind::EpcStorm);
}

TEST(FaultScheduleDeath, BadInputsFatal)
{
    FaultScheduleConfig fs;
    fs.horizon = 0.0;
    EXPECT_DEATH(FaultSchedule::generate(fs), "horizon");

    FaultScheduleConfig frac = busyConfig(1);
    frac.kvExhaustion.magnitude = 1.5;
    EXPECT_DEATH(FaultSchedule::generate(frac), "fraction");

    FaultSchedule s;
    EXPECT_DEATH(s.add({FaultKind::EpcStorm, -1.0, 0.0, 1.0}),
                 "negative");
}

// ---- EPC storm magnitude helper ---------------------------------------

TEST(FaultSchedule, EpcStormSlowdownShape)
{
    // Working set within the secure region: no storm.
    EXPECT_DOUBLE_EQ(
        epcStormSlowdown(1ULL << 30, 4ULL << 30, 0.5), 1.0);
    // Beyond it: a real slowdown that grows with the overshoot.
    const double mild = epcStormSlowdown(5ULL << 30, 4ULL << 30, 0.5);
    const double bad = epcStormSlowdown(16ULL << 30, 4ULL << 30, 0.5);
    EXPECT_GT(mild, 1.0);
    EXPECT_GT(bad, mild);
}

// ---- Injector window semantics ----------------------------------------

TEST(FaultInjector, WindowQueries)
{
    FaultSchedule s;
    s.add({FaultKind::EpcStorm, 10.0, 5.0, 3.0});
    s.add({FaultKind::AttestFail, 20.0, 2.0, 0.0});
    s.add({FaultKind::KvExhaustion, 30.0, 4.0, 0.25});
    FaultInjector inj(s);

    EXPECT_TRUE(inj.enabled());
    EXPECT_DOUBLE_EQ(inj.slowdown(5.0), 1.0);
    EXPECT_DOUBLE_EQ(inj.slowdown(12.0), 3.0);
    EXPECT_DOUBLE_EQ(inj.slowdown(15.0), 1.0); // end exclusive

    EXPECT_FALSE(inj.attestationFails(19.0));
    EXPECT_TRUE(inj.attestationFails(21.0));

    EXPECT_DOUBLE_EQ(inj.kvCapacityFactor(29.0), 1.0);
    EXPECT_DOUBLE_EQ(inj.kvCapacityFactor(31.0), 0.75);

    EXPECT_TRUE(inj.anyWindowActive(12.0));
    EXPECT_FALSE(inj.anyWindowActive(40.0));
    EXPECT_DOUBLE_EQ(inj.nextWindowEnd(31.0), 34.0);
    EXPECT_DOUBLE_EQ(inj.nextWindowEnd(40.0), 40.0);
}

TEST(FaultInjector, OverlappingStormsMultiply)
{
    FaultSchedule s;
    s.add({FaultKind::EpcStorm, 0.0, 10.0, 2.0});
    s.add({FaultKind::EpcStorm, 5.0, 10.0, 3.0});
    FaultInjector inj(s);
    EXPECT_DOUBLE_EQ(inj.slowdown(1.0), 2.0);
    EXPECT_DOUBLE_EQ(inj.slowdown(7.0), 6.0);
    EXPECT_DOUBLE_EQ(inj.slowdown(12.0), 3.0);
}

TEST(FaultInjector, RestartsConsumedOnceInOrder)
{
    FaultSchedule s;
    s.add({FaultKind::EnclaveRestart, 5.0, 0.0, 0.0});
    s.add({FaultKind::EnclaveRestart, 15.0, 0.0, 0.0});
    FaultInjector inj(s);
    EXPECT_EQ(inj.consumeRestarts(1.0, 4), 0u);
    EXPECT_EQ(inj.consumeRestarts(10.0, 4), 1u);
    EXPECT_EQ(inj.consumeRestarts(10.0, 4), 0u); // no double fire
    EXPECT_EQ(inj.consumeRestarts(20.0, 2), 1u);
    EXPECT_EQ(inj.timeline()[0].affected, 4u);
    EXPECT_EQ(inj.timeline()[1].affected, 2u);
}

TEST(FaultInjector, TimelineRecordsImpact)
{
    FaultSchedule s;
    s.add({FaultKind::AttestFail, 1.0, 2.0, 0.0});
    s.add({FaultKind::AttestFail, 100.0, 2.0, 0.0});
    FaultInjector inj(s);
    EXPECT_TRUE(inj.attestationFails(1.5));
    EXPECT_TRUE(inj.attestationFails(2.5));
    ASSERT_EQ(inj.timeline().size(), 2u);
    EXPECT_DOUBLE_EQ(inj.timeline()[0].applied, 1.5);
    EXPECT_EQ(inj.timeline()[0].affected, 2u);
    EXPECT_LT(inj.timeline()[1].applied, 0.0); // never fired
}

TEST(FaultInjector, EmptyInjectorIsInert)
{
    FaultInjector inj;
    EXPECT_FALSE(inj.enabled());
    EXPECT_DOUBLE_EQ(inj.slowdown(1.0), 1.0);
    EXPECT_FALSE(inj.attestationFails(1.0));
    EXPECT_DOUBLE_EQ(inj.kvCapacityFactor(1.0), 1.0);
    EXPECT_EQ(inj.consumeRestarts(1e9, 10), 0u);
    EXPECT_TRUE(inj.timeline().empty());
}

TEST(FaultInjector, TimelineJsonExport)
{
    FaultSchedule s;
    s.add({FaultKind::EpcStorm, 1.0, 2.0, 3.0});
    FaultInjector inj(s);
    inj.slowdown(1.5);
    std::ostringstream os;
    {
        JsonWriter json(os);
        writeTimeline(json, inj.timeline());
    }
    const std::string out = os.str();
    EXPECT_NE(out.find("\"kind\":\"epc_storm\""), std::string::npos);
    EXPECT_NE(out.find("\"fired\":true"), std::string::npos);
    EXPECT_NE(out.find("\"affected\":1"), std::string::npos);
}

// ---- End-to-end determinism through the server ------------------------

TEST(FaultServing, SameSeedBitIdenticalMetricsAndTimeline)
{
    const auto sched = FaultSchedule::generate(busyConfig(13));
    const auto cfg = resilientConfig(sched);
    Server a(tdxModel(), cfg);
    Server b(tdxModel(), cfg);
    const auto ma = a.run(generateWorkload(faultLoad()));
    const auto mb = b.run(generateWorkload(faultLoad()));

    EXPECT_EQ(ma.completed, mb.completed);
    EXPECT_EQ(ma.makespan, mb.makespan);
    EXPECT_EQ(ma.tokensPerSecond, mb.tokensPerSecond);
    EXPECT_EQ(ma.ttft.mean, mb.ttft.mean);
    EXPECT_EQ(ma.tpot.p95, mb.tpot.p95);
    EXPECT_EQ(ma.availability, mb.availability);
    EXPECT_EQ(ma.retries, mb.retries);
    EXPECT_EQ(ma.shed, mb.shed);
    EXPECT_EQ(ma.timedOut, mb.timedOut);
    EXPECT_EQ(ma.failed, mb.failed);
    EXPECT_EQ(ma.restarts, mb.restarts);
    EXPECT_EQ(ma.attestRejections, mb.attestRejections);
    EXPECT_EQ(ma.faultDowntime, mb.faultDowntime);
    EXPECT_TRUE(timelinesEqual(ma.faultTimeline, mb.faultTimeline));
}

TEST(FaultServing, DifferentSeedsDistinctTimelines)
{
    Server a(tdxModel(),
             resilientConfig(FaultSchedule::generate(busyConfig(13))));
    Server b(tdxModel(),
             resilientConfig(FaultSchedule::generate(busyConfig(14))));
    const auto ma = a.run(generateWorkload(faultLoad()));
    const auto mb = b.run(generateWorkload(faultLoad()));
    EXPECT_FALSE(timelinesEqual(ma.faultTimeline, mb.faultTimeline));
}

TEST(FaultServing, FaultFreeRunHasCleanCounters)
{
    ServerConfig cfg;
    Server s(tdxModel(), cfg);
    const auto m = s.run(generateWorkload(faultLoad()));
    EXPECT_EQ(m.submitted, 120u);
    EXPECT_EQ(m.completed, 120u);
    EXPECT_DOUBLE_EQ(m.availability, 1.0);
    EXPECT_EQ(m.retries, 0u);
    EXPECT_EQ(m.shed, 0u);
    EXPECT_EQ(m.timedOut, 0u);
    EXPECT_EQ(m.failed, 0u);
    EXPECT_EQ(m.restarts, 0u);
    EXPECT_EQ(m.attestRejections, 0u);
    EXPECT_DOUBLE_EQ(m.faultDowntime, 0.0);
    EXPECT_TRUE(m.faultTimeline.empty());
}

TEST(FaultServing, RestartsChargeReprovisioningDowntime)
{
    FaultSchedule s;
    s.add({FaultKind::EnclaveRestart, 10.0, 0.0, 0.0});
    ServerConfig cfg = resilientConfig(s);
    Server server(tdxModel(), cfg);
    const auto m = server.run(generateWorkload(faultLoad()));
    EXPECT_EQ(m.restarts, 1u);
    EXPECT_DOUBLE_EQ(m.faultDowntime,
                     cfg.reprovision.seconds(cfg.weightBytes));
    EXPECT_GT(m.faultDowntime, 0.2); // 1 GiB of weights is not free
}

TEST(FaultServing, AttestationWindowCausesRetriesOrDrops)
{
    FaultSchedule s;
    s.add({FaultKind::AttestFail, 0.0, 30.0, 0.0});
    const auto m = Server(tdxModel(), resilientConfig(s))
                       .run(generateWorkload(faultLoad()));
    EXPECT_GT(m.attestRejections, 0u);
    EXPECT_GT(m.retries, 0u);
    EXPECT_LE(m.availability, 1.0);
}

TEST(FaultServing, EpcStormStretchesMakespan)
{
    FaultSchedule storm;
    storm.add({FaultKind::EpcStorm, 0.0, 500.0, 8.0});
    ServerConfig with = resilientConfig(storm);
    ServerConfig without = resilientConfig(FaultSchedule{});
    // Only the storm differs; no deadline aborts muddying makespan.
    with.resilience.requestTimeout = 0.0;
    without.resilience.requestTimeout = 0.0;
    const auto mw =
        Server(tdxModel(), with).run(generateWorkload(faultLoad()));
    const auto mo =
        Server(tdxModel(), without).run(generateWorkload(faultLoad()));
    EXPECT_GT(mw.makespan, mo.makespan * 1.5);
}

// A static batch rides the same engine as a continuous one: a restart
// wipes the running batch, its requests retry in a later batch, and
// every request still completes.
TEST(FaultServing, StaticBatchRetriesThroughEnclaveRestart)
{
    FaultSchedule s;
    s.add({FaultKind::EnclaveRestart, 10.0, 0.0, 0.0});
    ServerConfig cfg;
    cfg.policy = BatchPolicy::Static;
    cfg.faults = s;
    cfg.weightBytes = 1ULL << 30;
    const auto m =
        Server(tdxModel(), cfg).run(generateWorkload(faultLoad()));
    EXPECT_EQ(m.restarts, 1u);
    EXPECT_GT(m.retries, 0u);
    EXPECT_EQ(m.completed, m.submitted);
    EXPECT_EQ(m.failed, 0u);
    EXPECT_DOUBLE_EQ(m.faultDowntime,
                     cfg.reprovision.seconds(cfg.weightBytes));
}

// serve_slo --faults replays one seeded schedule with and without its
// resilience policy. The policy does not always buy availability
// back: its 120 s deadline times out requests the no-policy run
// finishes late (seed 1: 64.8% vs 68.4% available; seed 42: 95.6% vs
// 89.2%). What holds on both is that the deadline is the policy's only
// loss: every request the no-policy run completes, the policy run
// completes or times out, and the schedule alone sets the restarts
// and downtime.
TEST(FaultServing, PolicyLosesOnlyToItsDeadline)
{
    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const auto run = [&](const ServerConfig &cfg) {
        return Server(makeCpuStepModel(cpu, shared(tee::makeTdx()), model,
                                       bench::serveDeployParams(cpu)),
                      cfg)
            .run(generateWorkload(bench::serveSeedWorkload()));
    };
    for (std::uint64_t seed : {1u, 42u}) {
        const ServerConfig policy = bench::serveFaultConfig(seed, model);
        ServerConfig none = policy;
        none.resilience = {};
        const ServeMetrics p = run(policy);
        const ServeMetrics n = run(none);
        EXPECT_EQ(n.timedOut, 0u) << "seed " << seed;
        EXPECT_EQ(n.shed, 0u) << "seed " << seed;
        EXPECT_GE(p.completed + p.timedOut, n.completed)
            << "seed " << seed;
        EXPECT_EQ(p.restarts, n.restarts) << "seed " << seed;
        EXPECT_DOUBLE_EQ(p.faultDowntime, n.faultDowntime)
            << "seed " << seed;
    }
}

TEST(FaultServingDeath, FaultsRequirePositiveBackoff)
{
    FaultSchedule s;
    s.add({FaultKind::AttestFail, 1.0, 2.0, 0.0});
    ServerConfig cfg;
    cfg.faults = s;
    cfg.resilience.retryBackoff = 0.0;
    EXPECT_DEATH(Server(tdxModel(), cfg), "backoff");
}
