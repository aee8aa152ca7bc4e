/**
 * @file
 * Tests for cllm::obs: registry merge determinism under
 * `par::parallelFor` (1 vs 8 threads), sim event ordering, async
 * lifecycle tracks, wall-clock ring buffers, and a byte-golden over
 * the Chrome trace exporter (`CLLM_REGEN_GOLDEN=1` regenerates
 * `tests/golden/trace_small.json`).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "par/pool.hh"
#include "util/json.hh"

using namespace cllm;
using namespace cllm::obs;

namespace {

/** RAII thread-count override (mirrors the test_par idiom). */
struct ThreadGuard
{
    unsigned saved;
    explicit ThreadGuard(unsigned n) : saved(par::threadCount())
    {
        par::setThreadCount(n);
    }
    ~ThreadGuard() { par::setThreadCount(saved); }
};

std::string
snapshotJson(const Registry &reg)
{
    std::ostringstream os;
    JsonWriter json(os);
    reg.snapshot(json);
    return os.str();
}

/** Drive `iters` counter adds over the pool. */
void
hammer(Registry &reg, std::size_t iters)
{
    Counter &c = reg.counter("test.hits");
    Counter &bytes = reg.counter("test.bytes");
    par::parallelFor(0, iters, 16, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
            c.inc();
            bytes.add(i);
        }
    });
}

} // namespace

TEST(Counter, ExactTotalAcrossThreads)
{
    for (unsigned threads : {1u, 8u}) {
        ThreadGuard g(threads);
        Registry reg;
        hammer(reg, 10000);
        EXPECT_EQ(reg.counter("test.hits").total(), 10000u)
            << "threads=" << threads;
        // sum 0..9999
        EXPECT_EQ(reg.counter("test.bytes").total(),
                  10000u * 9999u / 2)
            << "threads=" << threads;
    }
}

TEST(Registry, SnapshotBitIdentical1v8Threads)
{
    std::string one, eight;
    {
        ThreadGuard g(1);
        Registry reg;
        hammer(reg, 20000);
        one = snapshotJson(reg);
    }
    {
        ThreadGuard g(8);
        Registry reg;
        hammer(reg, 20000);
        eight = snapshotJson(reg);
    }
    EXPECT_EQ(one, eight);
}

TEST(Registry, SameNameSameInstrument)
{
    Registry reg;
    Counter &a = reg.counter("x");
    Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.total(), 1u);
}

TEST(Registry, SnapshotSortedAndStable)
{
    Registry reg;
    reg.counter("zeta").add(1);
    reg.counter("alpha").add(2);
    reg.gauge("mid").set(3.0);
    const std::string a = snapshotJson(reg);
    const std::string b = snapshotJson(reg);
    EXPECT_EQ(a, b);
    EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
}

TEST(TraceMode, Parse)
{
    EXPECT_EQ(parseTraceMode(nullptr), TraceMode::Off);
    EXPECT_EQ(parseTraceMode(""), TraceMode::Off);
    EXPECT_EQ(parseTraceMode("off"), TraceMode::Off);
    EXPECT_EQ(parseTraceMode("0"), TraceMode::Off);
    EXPECT_EQ(parseTraceMode("sim"), TraceMode::Sim);
    EXPECT_EQ(parseTraceMode("1"), TraceMode::Sim);
    EXPECT_EQ(parseTraceMode("all"), TraceMode::All);
    EXPECT_EQ(parseTraceMode("wall"), TraceMode::All);
    EXPECT_EQ(parseTraceMode("2"), TraceMode::All);
    EXPECT_EQ(parseTraceMode("garbage"), TraceMode::Off);
}

TEST(Tracer, OffRecordsNothing)
{
    Tracer tr(TraceMode::Off);
    tr.complete(0, "a", 0.0, 1.0);
    tr.instant(0, "b", 0.5);
    tr.counterValue(0, "c", 0.5, 1.0);
    EXPECT_TRUE(tr.simEvents().empty());
}

TEST(Tracer, AsyncLifecycleTrack)
{
    Tracer tr(TraceMode::Sim);
    tr.asyncBegin(1, "request", 7, "req", 0.0);
    tr.asyncInstant(1, "request", 7, "admit", 0.5);
    tr.asyncEnd(1, "request", 7, "complete", 2.0);
    ASSERT_EQ(tr.simEvents().size(), 3u);
    for (const SimEvent &e : tr.simEvents()) {
        EXPECT_EQ(e.cat, "request");
        EXPECT_EQ(e.id, 7u);
        EXPECT_EQ(e.lane, 1u);
    }
    EXPECT_EQ(tr.simEvents()[0].ph, SimEvent::Ph::AsyncBegin);
    EXPECT_EQ(tr.simEvents()[2].ph, SimEvent::Ph::AsyncEnd);
}

TEST(WallSpans, RecordOnGlobalTracerWhenEnabled)
{
    Tracer &g = Tracer::global();
    const TraceMode saved = g.mode();
    g.setMode(TraceMode::All);
    {
        WallSpan outer("test.outer");
        WallSpan inner("test.inner");
    }
    g.setMode(saved);
    const auto events = g.collectWall();
    ASSERT_GE(events.size(), 2u);
    bool saw_outer = false, saw_inner = false;
    for (const WallEvent &e : events) {
        EXPECT_LE(e.t0Ns, e.t1Ns);
        if (std::string(e.name) == "test.outer")
            saw_outer = true;
        if (std::string(e.name) == "test.inner")
            saw_inner = true;
    }
    EXPECT_TRUE(saw_outer);
    EXPECT_TRUE(saw_inner);
    EXPECT_EQ(g.wallDropped(), 0u);
}

TEST(WallSpans, NoOpWhenGlobalOff)
{
    Tracer &g = Tracer::global();
    ASSERT_EQ(g.mode(), TraceMode::Off)
        << "test suite expects CLLM_TRACE unset";
    const std::size_t before = g.collectWall().size();
    {
        WallSpan s("test.noop");
    }
    EXPECT_EQ(g.collectWall().size(), before);
}

namespace {

/** The small synthetic trace pinned by the exporter golden. */
std::string
exportSmallTrace()
{
    Tracer tr(TraceMode::Sim);
    tr.laneName(0, "fleet");
    tr.laneName(1, "tdx #0");
    tr.complete(0, "provision", 0.0, 0.5, {{"node", 0.0}});
    tr.asyncBegin(1, "request", 7, "req", 0.25);
    tr.complete(1, "prefill", 0.25, 0.375,
                {{"req", 7.0}, {"in_len", 512.0}});
    tr.instant(1, "fault:epc_storm", 0.3, {{"duration", 10.0}},
               {{"cause", "epc_storm"}});
    tr.counterValue(1, "kv_util", 0.4, 0.53125);
    tr.asyncEnd(1, "request", 7, "complete", 0.5);
    std::ostringstream os;
    writeChromeTrace(os, tr);
    return os.str();
}

} // namespace

TEST(ChromeExport, GoldenByteCompare)
{
    const std::string got = exportSmallTrace();
    const std::string path =
        std::string(CLLM_GOLDEN_DIR) + "/trace_small.json";
    const char *regen = std::getenv("CLLM_REGEN_GOLDEN");
    if (regen && *regen && std::string(regen) != "0") {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        os << got;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << "missing " << path
        << " (run with CLLM_REGEN_GOLDEN=1 to create)";
    std::ostringstream want;
    want << is.rdbuf();
    EXPECT_EQ(got, want.str());
}

TEST(ChromeExport, DeterministicAcrossCalls)
{
    EXPECT_EQ(exportSmallTrace(), exportSmallTrace());
}

TEST(ChromeExport, MetricsSnapshotRidesAlong)
{
    Registry reg;
    reg.counter("serve.prefills").add(3);
    Tracer tr(TraceMode::Sim);
    tr.instant(0, "x", 0.0);
    std::ostringstream os;
    writeChromeTrace(os, tr, &reg);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"metrics\""), std::string::npos);
    EXPECT_NE(s.find("\"serve.prefills\""), std::string::npos);
}

TEST(ChromeExport, OutputPathPrecedence)
{
    ::setenv("CLLM_TRACE_OUT", "/tmp/env.trace.json", 1);
    EXPECT_EQ(traceOutputPath("explicit.json", "fallback.json"),
              "explicit.json");
    EXPECT_EQ(traceOutputPath("", "fallback.json"),
              "/tmp/env.trace.json");
    ::unsetenv("CLLM_TRACE_OUT");
    EXPECT_EQ(traceOutputPath("", "fallback.json"), "fallback.json");
}
