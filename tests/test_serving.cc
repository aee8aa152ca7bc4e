/**
 * @file
 * Tests for the confidential-serving simulator: workload generation,
 * batching policies, SLO accounting, TEE-induced capacity loss, and
 * the per-request timeline invariants that must hold for every
 * (batching policy x deployment backend) combination.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/engine.hh"
#include "serve/serving.hh"
#include "util/json.hh"

using namespace cllm;
using namespace cllm::serve;

namespace {

std::shared_ptr<const tee::TeeBackend>
shared(std::unique_ptr<tee::TeeBackend> p)
{
    return std::shared_ptr<const tee::TeeBackend>(std::move(p));
}

llm::RunParams
deployParams(const hw::CpuSpec &cpu)
{
    llm::RunParams p;
    p.inLen = 1024;  // sizing context for the working set
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return p;
}

std::unique_ptr<StepModel>
cpuModel(std::unique_ptr<tee::TeeBackend> be)
{
    const hw::CpuSpec cpu = hw::emr2();
    return makeCpuStepModel(cpu, shared(std::move(be)),
                            llm::llama2_7b(), deployParams(cpu));
}

WorkloadConfig
lightLoad()
{
    WorkloadConfig w;
    w.arrivalRate = 0.5;
    w.numRequests = 60;
    w.meanInLen = 256;
    w.meanOutLen = 64;
    w.seed = 11;
    return w;
}

} // namespace

TEST(Workload, DeterministicAndOrdered)
{
    const auto a = generateWorkload(lightLoad());
    const auto b = generateWorkload(lightLoad());
    ASSERT_EQ(a.size(), 60u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].inLen, b[i].inLen);
        if (i) {
            EXPECT_GE(a[i].arrival, a[i - 1].arrival);
        }
    }
}

// Pins the exact doubles the seed-99 Poisson generator produced
// before the arrival-process seam existed. Any change to the draw
// order (an extra uniform, a reordered rejection loop) shifts every
// seeded trace in the repo and breaks this first.
TEST(Workload, PoissonDrawsPinnedAcrossSeam)
{
    WorkloadConfig w;
    w.arrivalRate = 0.45;
    w.numRequests = 250;
    w.meanInLen = 512;
    w.meanOutLen = 128;
    w.seed = 99;
    const auto t = generateWorkload(w);
    ASSERT_EQ(t.size(), 250u);
    EXPECT_DOUBLE_EQ(t[0].arrival, 2.3411828131693633);
    EXPECT_DOUBLE_EQ(t[1].arrival, 2.6876707034671834);
    EXPECT_DOUBLE_EQ(t[2].arrival, 5.533455224026782);
    EXPECT_DOUBLE_EQ(t[3].arrival, 6.7281300946823768);
    EXPECT_EQ(t[0].inLen, 375u);
    EXPECT_EQ(t[0].outLen, 172u);
    EXPECT_EQ(t[1].inLen, 552u);
    EXPECT_EQ(t[2].outLen, 58u);
    EXPECT_DOUBLE_EQ(t.back().arrival, 578.42735198247067);
}

TEST(Workload, DeterministicSpacingIsExact)
{
    WorkloadConfig w = lightLoad();
    w.process = ArrivalProcess::Deterministic;
    w.arrivalRate = 1.25;
    const auto t = generateWorkload(w);
    double expected = 0.0;
    for (const auto &r : t) {
        expected += 1.0 / w.arrivalRate;
        EXPECT_DOUBLE_EQ(r.arrival, expected);
    }
    // Lengths still come off the seeded RNG stream.
    const auto again = generateWorkload(w);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t[i].inLen, again[i].inLen);
        EXPECT_EQ(t[i].outLen, again[i].outLen);
    }
}

TEST(Workload, BurstyIsDeterministicAndDistinctFromPoisson)
{
    WorkloadConfig w = lightLoad();
    w.process = ArrivalProcess::BurstyOnOff;
    w.numRequests = 400;
    const auto a = generateWorkload(w);
    const auto b = generateWorkload(w);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        if (i) {
            EXPECT_GE(a[i].arrival, a[i - 1].arrival);
        }
    }
    WorkloadConfig p = w;
    p.process = ArrivalProcess::Poisson;
    const auto pois = generateWorkload(p);
    EXPECT_NE(a[0].arrival, pois[0].arrival);
    // The on phase runs burstRateFactor times hotter than the mean,
    // so the shortest gaps are far tighter than Poisson's and the
    // off phase stretches the longest ones; compare spreads.
    auto gap_spread = [](const std::vector<Request> &t) {
        double lo = 1e300, hi = 0.0;
        for (std::size_t i = 1; i < t.size(); ++i) {
            const double g = t[i].arrival - t[i - 1].arrival;
            lo = std::min(lo, g);
            hi = std::max(hi, g);
        }
        return hi / std::max(lo, 1e-12);
    };
    EXPECT_GT(gap_spread(a), gap_spread(pois));
}

TEST(Workload, MeanInterArrivalMatchesRate)
{
    WorkloadConfig w = lightLoad();
    w.arrivalRate = 4.0;
    w.numRequests = 4000;
    const auto trace = generateWorkload(w);
    const double span = trace.back().arrival - trace.front().arrival;
    const double mean_gap = span / (trace.size() - 1);
    EXPECT_NEAR(mean_gap, 0.25, 0.03);
}

TEST(Workload, LengthsHaveSensibleScale)
{
    const auto trace = generateWorkload(lightLoad());
    double in_sum = 0.0;
    for (const auto &r : trace) {
        EXPECT_GE(r.inLen, 8u);
        EXPECT_GE(r.outLen, 4u);
        in_sum += r.inLen;
    }
    const double mean_in = in_sum / trace.size();
    EXPECT_GT(mean_in, 150.0);
    EXPECT_LT(mean_in, 450.0);
}

TEST(WorkloadDeath, DegenerateConfigFatal)
{
    WorkloadConfig w;
    w.arrivalRate = 0.0;
    EXPECT_DEATH(generateWorkload(w), "degenerate");
}

TEST(Server, CompletesAllRequests)
{
    Server server(cpuModel(tee::makeTdx()), ServerConfig{});
    const auto m = server.run(generateWorkload(lightLoad()));
    EXPECT_EQ(m.completed, 60u);
    EXPECT_GT(m.makespan, 0.0);
    EXPECT_GT(m.tokensPerSecond, 0.0);
}

TEST(Server, Deterministic)
{
    Server server(cpuModel(tee::makeTdx()), ServerConfig{});
    const auto a = server.run(generateWorkload(lightLoad()));
    const auto b = server.run(generateWorkload(lightLoad()));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.ttft.mean, b.ttft.mean);
}

TEST(Server, TimelineInvariantsHold)
{
    // For every request: arrival <= firstToken <= finish; occupancy
    // is within batch capacity.
    ServerConfig cfg;
    cfg.maxBatch = 8;
    Server server(cpuModel(tee::makeBareMetal()), cfg);
    auto trace = generateWorkload(lightLoad());
    const auto m = server.run(trace);
    EXPECT_LE(m.meanBatchOccupancy, 8.0);
    EXPECT_GT(m.meanBatchOccupancy, 0.0);
    EXPECT_GE(m.ttft.min, 0.0);
    EXPECT_GE(m.tpot.min, 0.0);
}

TEST(Server, TdxServesFewerTokensPerSecondUnderLoad)
{
    WorkloadConfig heavy = lightLoad();
    heavy.arrivalRate = 50.0; // saturating: makespan is service-bound
    heavy.numRequests = 120;

    Server bare(cpuModel(tee::makeBareMetal()), ServerConfig{});
    Server tdx(cpuModel(tee::makeTdx()), ServerConfig{});
    const auto mb = bare.run(generateWorkload(heavy));
    const auto mt = tdx.run(generateWorkload(heavy));
    EXPECT_GT(mb.tokensPerSecond, mt.tokensPerSecond);
    // The capacity loss should be TEE-sized (a few %), not 2x.
    EXPECT_LT(mb.tokensPerSecond / mt.tokensPerSecond, 1.3);
}

TEST(Server, ContinuousBeatsStaticOnTtft)
{
    // Static batching holds early arrivals hostage to the whole
    // batch; continuous batching admits at step granularity.
    WorkloadConfig w = lightLoad();
    w.arrivalRate = 8.0;
    w.numRequests = 100;

    ServerConfig cont;
    cont.policy = BatchPolicy::Continuous;
    ServerConfig stat;
    stat.policy = BatchPolicy::Static;

    Server s_cont(cpuModel(tee::makeTdx()), cont);
    Server s_stat(cpuModel(tee::makeTdx()), stat);
    const auto mc = s_cont.run(generateWorkload(w));
    const auto ms = s_stat.run(generateWorkload(w));
    EXPECT_LT(mc.tpot.p95, ms.tpot.p95 + 1.0);
    EXPECT_GE(mc.sloAttainment, ms.sloAttainment - 0.05);
}

namespace {

/** Exact binary costs: 1/128 s per prompt token, 1/8 s per decode. */
class FixedStepModel : public StepModel
{
  public:
    double prefill(unsigned in_len) const override
    {
        return in_len / 128.0;
    }
    double decodeStep(double, double) const override { return 0.125; }
};

} // namespace

// The static admission rule, by hand. r0 and r1 open the first batch
// at t=0 and prefill over [0,1] and [1,2]; r2 arrives at 1.5, while
// that batch is still prefilling. It must wait for the next batch
// (which opens when the first drains at 2.375) instead of joining the
// one whose admission loop is still running, as continuous batching
// lets it.
TEST(Server, StaticBatchAdmitsOnlyWhatWasReadyWhenItOpened)
{
    std::vector<Request> trace(3);
    for (unsigned i = 0; i < 3; ++i) {
        trace[i].id = i;
        trace[i].inLen = 128;
        trace[i].outLen = 3;
    }
    trace[2].arrival = 1.5;

    ServerConfig cfg;
    cfg.policy = BatchPolicy::Static;
    std::vector<Request> out;
    const ServeMetrics m =
        Server(std::make_unique<FixedStepModel>(), cfg).run(trace, out);
    EXPECT_DOUBLE_EQ(out[0].firstToken, 1.0);
    EXPECT_DOUBLE_EQ(out[1].firstToken, 2.0);
    EXPECT_DOUBLE_EQ(out[1].finish, 2.375);
    EXPECT_DOUBLE_EQ(out[2].firstToken, 3.375);
    EXPECT_DOUBLE_EQ(out[2].finish, 3.75);
    EXPECT_DOUBLE_EQ(m.makespan, 3.75);

    // Static runs carry the engine's per-token accounting.
    EXPECT_EQ(m.completed, 3u);
    EXPECT_EQ(m.prefills, m.completed);
    EXPECT_EQ(m.decodeSteps, 6u);
    EXPECT_EQ(m.emittedTokens, 9u);
    EXPECT_DOUBLE_EQ(m.itl.p50, 0.125);
    EXPECT_DOUBLE_EQ(m.peakBatchOccupancy, 2.0);

    // Continuous batching admits r2 at t=2, behind r1's prefill.
    cfg.policy = BatchPolicy::Continuous;
    Server(std::make_unique<FixedStepModel>(), cfg).run(trace, out);
    EXPECT_DOUBLE_EQ(out[2].firstToken, 3.0);
}

TEST(Server, OverloadDegradesSloAttainment)
{
    WorkloadConfig light = lightLoad();
    WorkloadConfig heavy = lightLoad();
    heavy.arrivalRate = 100.0;
    heavy.numRequests = 150;

    Server server(cpuModel(tee::makeTdx()), ServerConfig{});
    const auto ml = server.run(generateWorkload(light));
    const auto mh = server.run(generateWorkload(heavy));
    EXPECT_GT(ml.sloAttainment, mh.sloAttainment);
    EXPECT_GT(ml.ttft.p50, 0.0);
    EXPECT_GT(mh.ttft.p95, ml.ttft.p95);
}

TEST(Server, GpuStepModelServesFasterThanCpu)
{
    WorkloadConfig w = lightLoad();
    w.arrivalRate = 50.0;
    w.numRequests = 100;

    Server cpu_server(cpuModel(tee::makeTdx()), ServerConfig{});
    Server gpu_server(makeGpuStepModel(hw::h100Nvl(), true,
                                       llm::llama2_7b(),
                                       hw::Dtype::Bf16),
                      ServerConfig{});
    const auto mc = cpu_server.run(generateWorkload(w));
    const auto mg = gpu_server.run(generateWorkload(w));
    EXPECT_GT(mg.tokensPerSecond, mc.tokensPerSecond * 3.0);
}

TEST(Server, ConfidentialGpuSlowerThanRaw)
{
    WorkloadConfig w = lightLoad();
    w.arrivalRate = 200.0;
    w.numRequests = 150;
    Server raw(makeGpuStepModel(hw::h100Nvl(), false, llm::llama2_7b(),
                                hw::Dtype::Bf16),
               ServerConfig{});
    Server cc(makeGpuStepModel(hw::h100Nvl(), true, llm::llama2_7b(),
                               hw::Dtype::Bf16),
              ServerConfig{});
    const auto mr = raw.run(generateWorkload(w));
    const auto mcc = cc.run(generateWorkload(w));
    EXPECT_GT(mr.tokensPerSecond, mcc.tokensPerSecond);
    // cGPU serving tax stays in the paper's single-digit band.
    EXPECT_LT(mr.tokensPerSecond / mcc.tokensPerSecond, 1.12);
}

// The figure models (run()) and the serving step models price through
// one kernel per backend, so the calibration bands the figure tests
// check are the formulas serving runs. Exact equality on the bits.

TEST(KernelParity, CpuRunPrefillIsServingPrefill)
{
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p = deployParams(cpu);
    p.batch = 1;
    std::vector<std::unique_ptr<tee::TeeBackend>> backends;
    backends.push_back(tee::makeBareMetal());
    backends.push_back(tee::makeVm());
    backends.push_back(tee::makeSgx());
    backends.push_back(tee::makeTdx());
    for (auto &be : backends) {
        const std::string name = be->name();
        const double run =
            llm::CpuPerfModel().run(cpu, *be, llm::llama2_7b(), p)
                .prefillSeconds;
        const auto step = makeCpuStepModel(cpu, shared(std::move(be)),
                                           llm::llama2_7b(), p);
        EXPECT_EQ(run, step->prefill(p.inLen)) << name;
    }
}

TEST(KernelParity, GpuRunPrefillIsServingPrefill)
{
    for (bool cc : {false, true}) {
        llm::GpuRunParams p;
        p.inLen = 1024;
        p.confidential = cc;
        const double run =
            llm::GpuPerfModel().run(hw::h100Nvl(), llm::llama2_7b(), p)
                .prefillSeconds;
        const auto step = makeGpuStepModel(hw::h100Nvl(), cc,
                                           llm::llama2_7b(),
                                           hw::Dtype::Bf16);
        EXPECT_EQ(run, step->prefill(p.inLen)) << "cc=" << cc;
    }
}

TEST(Server, BatchPolicyNames)
{
    EXPECT_STREQ(batchPolicyName(BatchPolicy::Static), "static");
    EXPECT_STREQ(batchPolicyName(BatchPolicy::Continuous),
                 "continuous");
}

TEST(ServerDeath, EmptyTraceFatal)
{
    Server server(cpuModel(tee::makeBareMetal()), ServerConfig{});
    EXPECT_DEATH(server.run({}), "empty trace");
}

TEST(ServerDeath, ZeroBatchFatal)
{
    ServerConfig cfg;
    cfg.maxBatch = 0;
    EXPECT_DEATH(Server(cpuModel(tee::makeBareMetal()), cfg),
                 "batch");
}

TEST(ServerDeath, ZeroOutputLengthFatal)
{
    Request r;
    r.inLen = 64;
    r.outLen = 0;
    Server server(cpuModel(tee::makeBareMetal()), ServerConfig{});
    EXPECT_DEATH(server.run({r}), "zero output length");
}

TEST(ServerKv, ConstrainedPoolLimitsOccupancy)
{
    WorkloadConfig w = lightLoad();
    w.arrivalRate = 30.0; // everyone arrives quickly
    w.numRequests = 80;

    ServerConfig unbounded;
    ServerConfig tight;
    tight.kvBlocks = 64; // 64 blocks x 16 tokens = 1024 tokens of KV
    tight.kvBlockTokens = 16;

    Server su(cpuModel(tee::makeTdx()), unbounded);
    Server st(cpuModel(tee::makeTdx()), tight);
    const auto mu = su.run(generateWorkload(w));
    const auto mt = st.run(generateWorkload(w));

    EXPECT_LT(mt.meanBatchOccupancy, mu.meanBatchOccupancy);
    EXPECT_GT(mt.kvUtilizationPeak, 0.5);
    EXPECT_LE(mt.kvUtilizationPeak, 1.0);
    EXPECT_EQ(mu.kvUtilizationPeak, 0.0); // unbounded: not tracked
}

TEST(ServerKv, AllRequestsStillCompleteWhenConstrained)
{
    WorkloadConfig w = lightLoad();
    w.numRequests = 40;
    ServerConfig tight;
    tight.kvBlocks = 128;
    Server st(cpuModel(tee::makeTdx()), tight);
    const auto m = st.run(generateWorkload(w));
    EXPECT_EQ(m.completed, 40u);
}

TEST(ServerKv, OversizedRequestIsDroppedNotDeadlocked)
{
    ServerConfig tiny;
    tiny.kvBlocks = 4;
    tiny.kvBlockTokens = 16; // pool holds 64 tokens
    Server s(cpuModel(tee::makeTdx()), tiny);

    std::vector<Request> trace;
    Request big;
    big.id = 0;
    big.arrival = 0.0;
    big.inLen = 512; // cannot ever fit
    big.outLen = 64;
    trace.push_back(big);
    Request small;
    small.id = 1;
    small.arrival = 0.1;
    small.inLen = 16;
    small.outLen = 8;
    trace.push_back(small);

    const auto m = s.run(trace);
    EXPECT_EQ(m.completed, 1u); // the small one; no deadlock
}

// ---- Invariants across every (policy x backend) combination -----------

namespace {

/** Deployment backends the serving loop must behave under. */
enum class DeployKind
{
    CpuBare,
    CpuTdx,
    GpuRaw,
    GpuConfidential,
};

const char *
deployName(DeployKind k)
{
    switch (k) {
      case DeployKind::CpuBare:
        return "CpuBare";
      case DeployKind::CpuTdx:
        return "CpuTdx";
      case DeployKind::GpuRaw:
        return "GpuRaw";
      case DeployKind::GpuConfidential:
        return "GpuCc";
    }
    return "?";
}

std::unique_ptr<StepModel>
makeDeploy(DeployKind k)
{
    switch (k) {
      case DeployKind::CpuBare:
        return cpuModel(tee::makeBareMetal());
      case DeployKind::CpuTdx:
        return cpuModel(tee::makeTdx());
      case DeployKind::GpuRaw:
        return makeGpuStepModel(hw::h100Nvl(), false, llm::llama2_7b(),
                                hw::Dtype::Bf16);
      case DeployKind::GpuConfidential:
        return makeGpuStepModel(hw::h100Nvl(), true, llm::llama2_7b(),
                                hw::Dtype::Bf16);
    }
    return nullptr;
}

} // namespace

class ServingInvariants
    : public ::testing::TestWithParam<
          std::tuple<BatchPolicy, DeployKind>>
{
};

TEST_P(ServingInvariants, TimelineAndAccountingHold)
{
    const auto [policy, deploy] = GetParam();
    ServerConfig cfg;
    cfg.policy = policy;
    cfg.maxBatch = 16;
    Server server(makeDeploy(deploy), cfg);

    std::vector<Request> annotated;
    const auto m =
        server.run(generateWorkload(lightLoad()), annotated);

    // Per-request timeline: arrival <= firstToken <= finish.
    ASSERT_EQ(annotated.size(), 60u);
    std::uint64_t tokens = 0;
    for (const Request &r : annotated) {
        ASSERT_GE(r.finish, 0.0) << "request " << r.id << " dropped "
                                 << "in a fault-free run";
        EXPECT_GE(r.firstToken, r.arrival) << "request " << r.id;
        EXPECT_GE(r.finish, r.firstToken) << "request " << r.id;
        EXPECT_LE(r.finish, m.makespan) << "request " << r.id;
        tokens += r.outLen;
    }

    // Aggregate accounting.
    EXPECT_EQ(m.submitted, 60u);
    EXPECT_LE(m.completed, m.submitted);
    EXPECT_EQ(m.completed, 60u);
    EXPECT_EQ(m.outputTokens, tokens);
    EXPECT_GE(m.sloAttainment, 0.0);
    EXPECT_LE(m.sloAttainment, 1.0);
    EXPECT_GE(m.availability, 0.0);
    EXPECT_LE(m.availability, 1.0);
    EXPECT_GE(m.ttft.min, 0.0);
    EXPECT_LE(m.ttft.p50, m.ttft.p95);
    EXPECT_GT(m.meanBatchOccupancy, 0.0);
    EXPECT_LE(m.meanBatchOccupancy, 16.0);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByBackend, ServingInvariants,
    ::testing::Combine(::testing::Values(BatchPolicy::Static,
                                         BatchPolicy::Continuous),
                       ::testing::Values(DeployKind::CpuBare,
                                         DeployKind::CpuTdx,
                                         DeployKind::GpuRaw,
                                         DeployKind::GpuConfidential)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ==
                                   BatchPolicy::Static
                               ? "Static"
                               : "Continuous") +
               deployName(std::get<1>(info.param));
    });

TEST(ServingInvariants, StaticAndContinuousAgreeOnTotalTokens)
{
    // Batching policy changes latency, never the work: with unbounded
    // KV both policies complete every request, so the total output
    // token count must agree exactly.
    for (DeployKind deploy :
         {DeployKind::CpuTdx, DeployKind::GpuConfidential}) {
        ServerConfig stat;
        stat.policy = BatchPolicy::Static;
        ServerConfig cont;
        cont.policy = BatchPolicy::Continuous;
        const auto ms = Server(makeDeploy(deploy), stat)
                            .run(generateWorkload(lightLoad()));
        const auto mc = Server(makeDeploy(deploy), cont)
                            .run(generateWorkload(lightLoad()));
        EXPECT_EQ(ms.outputTokens, mc.outputTokens)
            << deployName(deploy);
        EXPECT_EQ(ms.completed, mc.completed) << deployName(deploy);
    }
}

// ---- Resilience policy without faults ---------------------------------

TEST(ServerResilience, TimeoutDropsLateRequestsUnderOverload)
{
    WorkloadConfig w = lightLoad();
    w.arrivalRate = 50.0; // a burst far beyond capacity
    w.numRequests = 120;

    ServerConfig cfg;
    cfg.resilience.requestTimeout = 30.0;
    Server server(cpuModel(tee::makeTdx()), cfg);
    std::vector<Request> annotated;
    const auto m = server.run(generateWorkload(w), annotated);

    EXPECT_GT(m.timedOut, 0u);
    EXPECT_LT(m.completed, m.submitted);
    EXPECT_EQ(m.completed + m.timedOut, m.submitted);
    EXPECT_LT(m.availability, 1.0);
    // Every completed request met its deadline at admission time.
    for (const Request &r : annotated) {
        if (r.finish >= 0.0) {
            EXPECT_LE(r.firstToken - r.arrival, 30.0 + 60.0)
                << "request " << r.id;
        }
    }
}

TEST(ServerResilience, SheddingKicksInUnderKvPressure)
{
    WorkloadConfig w = lightLoad();
    w.arrivalRate = 30.0;
    w.numRequests = 80;

    ServerConfig cfg;
    cfg.kvBlocks = 64; // 1024 tokens of KV: heavily contended
    cfg.kvBlockTokens = 16;
    cfg.resilience.shedOnKvPressure = true;
    cfg.resilience.shedThreshold = 0.5;
    Server server(cpuModel(tee::makeTdx()), cfg);
    const auto m = server.run(generateWorkload(w));

    EXPECT_GT(m.shed, 0u);
    EXPECT_EQ(m.completed + m.shed, m.submitted);
    EXPECT_DOUBLE_EQ(
        m.availability,
        static_cast<double>(m.completed) /
            static_cast<double>(m.submitted));
}

TEST(ServerResilienceDeath, BadPolicyFatal)
{
    ServerConfig cfg;
    cfg.resilience.backoffMultiplier = 0.5;
    EXPECT_DEATH(Server(cpuModel(tee::makeTdx()), cfg), "multiplier");

    ServerConfig shed;
    shed.resilience.shedOnKvPressure = true;
    shed.resilience.shedThreshold = 1.5;
    EXPECT_DEATH(Server(cpuModel(tee::makeTdx()), shed), "threshold");
}

// Tracing must be purely observational: attaching a tracer (or not)
// cannot perturb a single simulated double. Byte-compares the full
// metrics JSON of traced vs untraced runs over the same trace.
TEST(ServerTracing, AttachedTracerDoesNotPerturbMetrics)
{
    WorkloadConfig w = lightLoad();
    w.arrivalRate = 4.0; // enough pressure for retries/shed paths
    const auto trace = generateWorkload(w);

    auto runJson = [&](obs::Tracer *tr) {
        ServerConfig cfg;
        cfg.kvBlocks = 256;
        cfg.kvBlockTokens = 16;
        cfg.resilience.shedOnKvPressure = true;
        cfg.resilience.shedThreshold = 0.9;
        cfg.tracer = tr;
        Server server(cpuModel(tee::makeTdx()), cfg);
        const ServeMetrics m = server.run(trace);
        std::ostringstream os;
        JsonWriter json(os);
        writeMetrics(json, m);
        return os.str();
    };

    obs::Tracer tracer(obs::TraceMode::Sim);
    const std::string untraced = runJson(nullptr);
    const std::string traced = runJson(&tracer);
    EXPECT_EQ(untraced, traced);
    EXPECT_FALSE(tracer.simEvents().empty());

    // An attached tracer whose mode is Off records nothing and also
    // leaves the output untouched.
    obs::Tracer off(obs::TraceMode::Off);
    EXPECT_EQ(runJson(&off), untraced);
    EXPECT_TRUE(off.simEvents().empty());
}

// ITL gaps are stored as (gap, count) runs. On a decode-heavy engine
// (serve_decode's shape in miniature: reserved KV, Poisson arrivals,
// prefix/chunk/spec/faults off) every steady decoder of a step shares
// the step's gap, so storage stays within one run per decode step plus
// two per prefill (a new decoder's first gap can split the step's
// shared run in two), while size() still counts every token.
TEST(ServerItl, RunLengthStorageStaysNearOneRunPerStep)
{
    WorkloadConfig w;
    w.process = ArrivalProcess::Poisson;
    w.arrivalRate = 0.35;
    w.numRequests = 120;
    w.meanInLen = 128;
    w.meanOutLen = 512;
    w.seed = 5;
    auto trace = generateWorkload(w);
    ServerConfig cfg;
    cfg.kvMode = KvMode::Reserved;
    const auto step = cpuModel(tee::makeTdx());
    ContinuousEngine eng(*step, cfg);
    for (Request &r : trace)
        eng.submit(&r, r.arrival);
    while (!eng.idle())
        eng.iterate();

    std::vector<const Request *> reqs;
    for (const Request &r : trace)
        reqs.push_back(&r);
    const ServeTally &t = eng.tally();
    const ServeMetrics m =
        finalizeRequests(reqs, eng.clock(), eng.occupancySum(),
                         eng.steps(), t, cfg.ttftSlo, cfg.tpotSlo);
    ASSERT_EQ(m.completed, trace.size());
    EXPECT_EQ(t.itlSamples.size(), m.outputTokens);
    EXPECT_LE(t.itlSamples.runs().size(), t.decodeSteps + 2 * t.prefills);
    EXPECT_GT(m.meanBatchOccupancy, 4.0); // the bound is a real saving
}

namespace {

/** A row's name for failure messages: its JSON key or obs name. */
std::string
rowName(const CounterDef &d, std::size_t i)
{
    return d.json ? d.json : d.obs ? d.obs : "row " + std::to_string(i);
}

std::string
countersJson(const ServeMetrics &m)
{
    std::ostringstream os;
    {
        JsonWriter json(os);
        writeMetrics(json, m);
    }
    return os.str();
}

} // namespace

TEST(CounterTable, KeysAndObsNamesAreUniqueAndRowsFollowTheStruct)
{
    std::set<std::string> json, obs;
    const ServeCounters c{};
    const auto *base = reinterpret_cast<const char *>(&c);
    std::ptrdiff_t prev = -1;
    for (std::size_t i = 0; i < kServeCounters.size(); ++i) {
        const CounterDef &d = kServeCounters[i];
        if (d.json) {
            EXPECT_TRUE(json.insert(d.json).second) << d.json;
        }
        if (d.obs) {
            EXPECT_TRUE(obs.insert(d.obs).second) << d.obs;
        }
        // Only integer counters can feed an obs counter.
        if (d.obs) {
            EXPECT_TRUE(std::holds_alternative<
                        std::uint64_t ServeCounters::*>(d.member))
                << d.obs;
        }
        const std::ptrdiff_t offset = std::visit(
            [&](auto m) {
                return reinterpret_cast<const char *>(&(c.*m)) - base;
            },
            d.member);
        EXPECT_LT(prev, offset) << rowName(d, i) << " out of struct order";
        prev = offset;
    }
    EXPECT_FALSE(json.count("itl_p50_s"));
    EXPECT_FALSE(json.count("spec_mean_accepted_len"));
}

TEST(CounterTable, MergeFollowsEachRowsRollupRule)
{
    // Distinct per-row values; the larger side alternates, so a Max
    // row taking either side's value, or a Sum row taking the max,
    // shows up.
    ServeCounters a{}, b{};
    for (std::size_t i = 0; i < kServeCounters.size(); ++i) {
        std::visit(
            [&](auto m) {
                using T = std::remove_reference_t<decltype(a.*m)>;
                if constexpr (std::is_same_v<T, bool>) {
                    a.*m = i % 2 == 0;
                    b.*m = i % 2 == 1;
                } else {
                    a.*m = static_cast<T>(i % 2 ? 3 * i + 1 : 5 * i + 40);
                    b.*m = static_cast<T>(i % 2 ? 4 * i + 20 : 2 * i + 3);
                }
            },
            kServeCounters[i].member);
    }
    ServeCounters merged = a;
    mergeCounters(merged, b);
    for (std::size_t i = 0; i < kServeCounters.size(); ++i) {
        const CounterDef &d = kServeCounters[i];
        std::visit(
            [&](auto m) {
                switch (d.rollup) {
                  case Rollup::Sum:
                    EXPECT_EQ(merged.*m, a.*m + b.*m) << rowName(d, i);
                    break;
                  case Rollup::Max:
                    EXPECT_EQ(merged.*m, std::max(a.*m, b.*m))
                        << rowName(d, i);
                    break;
                  case Rollup::Any:
                    EXPECT_EQ(merged.*m, a.*m || b.*m) << rowName(d, i);
                    break;
                }
            },
            d.member);
    }
    ServeCounters off{};
    mergeCounters(off, ServeCounters{});
    EXPECT_FALSE(off.prefixEnabled || off.chunkedEnabled ||
                 off.specEnabled);
}

TEST(CounterTable, GatedKeysAppearExactlyWhenTheirFlagIsSet)
{
    for (const CounterDef &flag : kServeCounters) {
        if (flag.rollup != Rollup::Any)
            continue;
        const auto on = std::get<bool ServeCounters::*>(flag.member);
        for (const bool set : {false, true}) {
            ServeMetrics m;
            m.*on = set;
            const std::string js = countersJson(m);
            for (std::size_t i = 0; i < kServeCounters.size(); ++i) {
                const CounterDef &d = kServeCounters[i];
                if (!d.json)
                    continue;
                const bool shown = d.group != flag.group
                                       ? groupEnabled(m, d.group)
                                       : set;
                EXPECT_EQ(js.find('"' + std::string(d.json) + "\":") !=
                              std::string::npos,
                          shown)
                    << rowName(d, i) << " with flag " << set;
            }
        }
    }
    // Ungated groups always emit.
    const std::string js = countersJson(ServeMetrics{});
    for (const CounterDef &d : kServeCounters)
        if (d.json && (d.group == CounterGroup::Kv ||
                       d.group == CounterGroup::Resilience)) {
            EXPECT_NE(js.find('"' + std::string(d.json) + "\":"),
                      std::string::npos)
                << d.json;
        }
}

// The engine publishes its obs counters when an iteration leaves it
// idle, not after every step. One engine with every feature on runs
// two busy periods with an idle gap between them; after each, every
// obs row's registry total equals its tally field. A publish that is
// skipped, runs only once, or counts a delta twice fails one of the
// two checks.
TEST(ServeCounters, ObsTotalsEqualTallyWhenIdle)
{
    WorkloadConfig w = lightLoad();
    w.arrivalRate = 4.0;
    w.numRequests = 80;
    auto trace = generateWorkload(w);
    SharedPrefixMix mix;
    mix.tenants = 4;
    mix.prefixLen = 128;
    applySharedPrefixMix(trace, mix);

    ServerConfig cfg;
    cfg.maxBatch = 12;
    cfg.kvMode = KvMode::Paged;
    cfg.kvBlocks = 96;
    cfg.kvBlockTokens = 16;
    cfg.paged.kvBytesPerToken =
        llm::llama2_7b().kvBytesPerToken(hw::Dtype::Bf16);
    cfg.prefixMode = PrefixMode::PerTenant;
    cfg.chunkedPrefill.mode = ChunkMode::DecodePriority;
    cfg.chunkedPrefill.chunkTokens = 64;
    cfg.specDecode.enabled = true;
    const auto step = cpuModel(tee::makeTdx());
    ContinuousEngine eng(*step, cfg);

    // The registry is process-wide: compare what this engine adds.
    std::vector<std::uint64_t> before;
    for (const CounterDef &d : kServeCounters)
        if (d.obs)
            before.push_back(obs::Registry::global().counter(d.obs).total());
    const auto expectPublished = [&](const char *period) {
        std::size_t i = 0;
        for (const CounterDef &d : kServeCounters) {
            if (!d.obs)
                continue;
            const auto f =
                std::get<std::uint64_t ServeCounters::*>(d.member);
            EXPECT_EQ(obs::Registry::global().counter(d.obs).total() -
                          before[i++],
                      eng.tally().*f)
                << period << ": " << d.obs;
        }
    };

    const std::size_t half = trace.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        eng.submit(&trace[i], trace[i].arrival);
    while (!eng.idle())
        eng.iterate();
    const ServeTally first = eng.tally();
    EXPECT_GT(first.prefixHits, 0u);
    EXPECT_GT(first.chunkSlices, 0u);
    EXPECT_GT(first.specVerifySteps, 0u);
    expectPublished("first busy period");

    const double reopen = eng.clock() + 10.0;
    for (std::size_t i = half; i < trace.size(); ++i)
        eng.submit(&trace[i], std::max(trace[i].arrival, reopen));
    while (!eng.idle())
        eng.iterate();
    EXPECT_GT(eng.tally().decodeSteps, first.decodeSteps);
    EXPECT_GT(eng.tally().prefixHits, first.prefixHits);
    expectPublished("second busy period");
}

TEST(CounterTable, DerivedRatios)
{
    ServeCounters c{};
    EXPECT_EQ(specMeanAcceptedLen(c), 0.0);
    EXPECT_EQ(prefixHitRate(c), 0.0);
    c.specAccepted = 9;
    c.specBonus = 1;
    c.specRejected = 3;
    EXPECT_DOUBLE_EQ(specMeanAcceptedLen(c), 9.0 / 4.0);
    c.prefixHits = 3;
    c.prefixMisses = 1;
    EXPECT_DOUBLE_EQ(prefixHitRate(c), 0.75);
}
