/**
 * @file
 * Step pricing runs once or more per engine step, millions of times
 * per serving replay, so it must not touch the heap. This binary
 * replaces the global operator new with a counting one; it is its own
 * executable so the replacement affects no other test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "hw/cpu.hh"
#include "hw/gpu.hh"
#include "llm/model_config.hh"
#include "llm/ops.hh"
#include "llm/perf_cpu.hh"
#include "llm/perf_gpu.hh"
#include "serve/serving.hh"
#include "tee/backend.hh"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::size_t> gAllocs{0};

void *
countedAlloc(std::size_t n)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace cllm;
using namespace cllm::llm;

namespace {

/** Heap allocations made while `f` runs (this thread or any other). */
template <typename F>
std::size_t
allocationsIn(F &&f)
{
    gAllocs.store(0);
    gCounting.store(true);
    f();
    gCounting.store(false);
    return gAllocs.load();
}

volatile double gSink = 0.0;

const hw::Dtype kDtypes[] = {hw::Dtype::Bf16, hw::Dtype::Int8};

std::vector<ModelConfig>
models()
{
    return {llama2_7b(), mixtral_8x7b()};
}

RunParams
deployParams(const hw::CpuSpec &cpu, hw::Dtype dtype)
{
    RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    p.dtype = dtype;
    return p;
}

/** Decode and prefill calls over a spread of batch shapes. */
template <typename Kernel>
void
priceSteps(const Kernel &k)
{
    for (double seqs : {1.0, 8.0, 64.0})
        for (double width : {1.0, 5.0})
            gSink = gSink + k.decode(seqs, width, 700.0).seconds();
    for (unsigned done : {0u, 512u})
        for (bool streamed : {false, true})
            gSink = gSink + k.prefill(2, done, 256, streamed).seconds();
}

} // namespace

// Guards the guard: the counting operator new must see an allocation,
// or every zero below would hold vacuously.
TEST(PricingAlloc, CounterSeesAHeapAllocation)
{
    EXPECT_GE(allocationsIn([] {
                  std::vector<double> v(16);
                  gSink = gSink + v[3];
              }),
              1u);
}

TEST(PricingAlloc, StepTotalsAllocateNothing)
{
    for (const ModelConfig &m : models())
        for (hw::Dtype dt : kDtypes)
            EXPECT_EQ(allocationsIn([&] {
                          for (double nseq : {1.0, 4.0, 256.0}) {
                              const StepTotals t =
                                  StepTotalsTable(m, dt).at(333.0, nseq);
                              gSink = gSink + t.flopsPerSeq;
                          }
                      }),
                      0u)
                << m.name;
}

TEST(PricingAlloc, CpuKernelAllocatesNothing)
{
    const hw::CpuSpec cpu = hw::emr2();
    const auto tdx = tee::makeTdx();
    for (const ModelConfig &m : models())
        for (hw::Dtype dt : kDtypes) {
            const CpuStepKernel k = CpuPerfModel().kernel(
                cpu, *tdx, m, deployParams(cpu, dt));
            EXPECT_EQ(allocationsIn([&] { priceSteps(k); }), 0u)
                << m.name;
        }
}

TEST(PricingAlloc, GpuKernelAllocatesNothing)
{
    for (const ModelConfig &m : models())
        for (bool cc : {false, true}) {
            const GpuStepKernel k(hw::h100Nvl(), cc, m, hw::Dtype::Bf16);
            EXPECT_EQ(allocationsIn([&] { priceSteps(k); }), 0u)
                << m.name;
        }
}

// The serving engine prices through StepModel; its adapters add no
// allocation on top of the kernels.
TEST(PricingAlloc, ServingStepModelsAllocateNothing)
{
    const hw::CpuSpec cpu = hw::emr2();
    for (const ModelConfig &m : models()) {
        const std::unique_ptr<serve::StepModel> steps[] = {
            serve::makeCpuStepModel(cpu, tee::makeTdx(), m,
                                    deployParams(cpu, hw::Dtype::Bf16)),
            serve::makeGpuStepModel(hw::h100Nvl(), true, m,
                                    hw::Dtype::Bf16)};
        for (const auto &s : steps)
            EXPECT_EQ(allocationsIn([&] {
                          gSink = gSink + s->prefill(300) +
                                  s->decodeStep(12.0, 400.0) +
                                  s->prefillFrom(128, 300) +
                                  s->prefillChunk(128, 64, true) +
                                  s->verifyStep(12.0, 4.0, 400.0);
                      }),
                      0u)
                << m.name;
    }
}

TEST(PricingAllocDeath, OpListOverflowPanics)
{
    EXPECT_DEATH(
        {
            OpList ops;
            for (std::size_t i = 0; i <= kMaxOps; ++i)
                ops.push_back(OpProfile{});
        },
        "more than 10 ops");
}
