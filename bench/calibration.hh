/**
 * @file
 * The calibration table: every paper band the timing model is checked
 * against, written once. A row names the ctest that checks it, the
 * paper artefact and quantity, the paper's band as text, the test
 * bound and a probe that measures the quantity. A sweep probe returns
 * one value per point; an ordering or trend probe returns signed
 * margins, bounded by (0, +inf). tests/test_calibration.cc registers
 * one gtest per suite.name, and bench/calibration prints the table as
 * the markdown block EXPERIMENTS.md carries verbatim.
 */

#ifndef CLLM_BENCH_CALIBRATION_HH
#define CLLM_BENCH_CALIBRATION_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/summary.hh"
#include "rag/rag_pipeline.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace cllm::bench::calibration {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/** An interval whose ends are strict (EXPECT_GT/LT) or inclusive
 *  (EXPECT_GE/LE). A missing end is an inclusive infinity. */
struct Bound
{
    double lo;
    double hi;
    bool loClosed = false;
    bool hiClosed = false;

    bool
    contains(double v) const
    {
        return (loClosed ? v >= lo : v > lo) &&
               (hiClosed ? v <= hi : v < hi);
    }
};

constexpr Bound open(double lo, double hi) { return {lo, hi}; }
constexpr Bound above(double lo) { return {lo, kInf, false, true}; }
constexpr Bound below(double hi) { return {-kInf, hi, true, false}; }

/** Measured values: one per point of the row's sweep. */
using Values = std::vector<double>;

/** One checked quantity. Rows sharing suite.name run as one test. */
struct Row
{
    const char *suite;
    const char *name;
    const char *figure;   //!< paper artefact
    const char *quantity; //!< what the probe measures, with its unit
    const char *paper;    //!< the paper's band, as text
    Bound bound;          //!< every probed value must lie inside
    Values (*probe)();
};

// The Fig. 4 and Fig. 11 bands also bound the serving step models.
inline constexpr Bound kFig4Sgx = open(3.5, 7.5);
inline constexpr Bound kFig4Tdx = open(5.0, 11.5);
inline constexpr Bound kFig4Vm = open(1.0, 5.5);
inline constexpr Bound kFig11Cgpu = open(2.0, 9.0);

using enum core::Backend;
using core::Experiment;

/** A run's timing; EMR2 and Llama2-7B unless given. */
inline llm::TimingResult
run(core::Backend b, const llm::RunParams &p,
    const hw::CpuSpec &cpu = hw::emr2(),
    const llm::ModelConfig &model = llm::llama2_7b())
{
    return Experiment().runCpu(cpu, b, model, p).timing;
}

/** Overheads of `b` over `base` on the same run. */
inline core::OverheadReport
overhead(core::Backend b, core::Backend base, const llm::RunParams &p,
         const hw::CpuSpec &cpu = hw::emr2(),
         const llm::ModelConfig &model = llm::llama2_7b())
{
    Experiment exp;
    return Experiment::compare(exp.runCpu(cpu, b, model, p),
                               exp.runCpu(cpu, base, model, p));
}

/** Decode-throughput overhead (%) of `b` over `base` at the paper's
 *  EMR1 throughput shape. */
inline double
tputOverheadPct(core::Backend b, core::Backend base = Bare,
                unsigned sockets = 1,
                const llm::ModelConfig &model = llm::llama2_7b(),
                bool snc = false)
{
    auto p = core::throughputParams(hw::emr1(), sockets);
    p.sncEnabled = snc;
    return overhead(b, base, p, hw::emr1(), model).tputOverheadPct;
}

/** A Llama2-7B run at the paper's EMR1 latency shape. */
inline llm::TimingResult
emr1Latency(core::Backend b, hw::Dtype dtype = hw::Dtype::Bf16)
{
    auto p = core::latencyParams(hw::emr1());
    p.dtype = dtype;
    return run(b, p, hw::emr1());
}

/** A one-socket EMR2 run of `batch` sequences, `in` / `out` tokens. */
inline llm::RunParams
emr2Run(unsigned batch, unsigned in, unsigned out)
{
    return {.batch = batch, .inLen = in, .outLen = out, .sockets = 1,
            .cores = hw::emr2().coresPerSocket};
}

/** Successive differences of `v`, the first one taken from zero. */
inline Values
steps(Values v)
{
    for (std::size_t i = v.size(); i-- > 1;)
        v[i] -= v[i - 1];
    return v;
}

/** Fig. 7: {largest norm overhead minus self-attention's, norm share
 *  of TDX block time}, EMR2 batch 4. */
inline Values
normsVsAttention()
{
    const auto p = emr2Run(4, 128, 128);
    const auto tdx = run(Tdx, p).blockBreakdown;
    const auto bare = run(Bare, p).blockBreakdown;
    double norm_ov = 0.0, attn_ov = 0.0, norm_share = 0.0, total = 0.0;
    for (std::size_t i = 0; i < tdx.size(); ++i) {
        const double ov = tdx[i].seconds / bare[i].seconds - 1.0;
        total += tdx[i].seconds;
        if (tdx[i].name == "input_norm" ||
            tdx[i].name == "post_attn_norm") {
            norm_ov = std::max(norm_ov, ov);
            norm_share += tdx[i].seconds;
        }
        if (tdx[i].name == "self_attention")
            attn_ov = ov;
    }
    return {norm_ov - attn_ov, norm_share / total};
}

/** Fig. 8: VM decode speedup of AMX at `batch`. */
inline double
amxSpeedup(unsigned batch)
{
    auto p = emr2Run(batch, 128, 128);
    p.amx = true;
    const double on = run(Vm, p).decodeTput;
    p.amx = false;
    return on / run(Vm, p).decodeTput;
}

/** Fig. 9: first batch at which a bare EMR2 run is compute-bound. */
inline double
computeBoundBatch(hw::Dtype dtype)
{
    for (unsigned b : {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
        auto p = emr2Run(b, 128, 64);
        p.dtype = dtype;
        if (!run(Bare, p).memoryBound)
            return b;
    }
    return 2048;
}

/** H100 NVL decode tok/s of Llama2-7B; raw unless `cc`. */
inline double
gpuTput(unsigned batch, unsigned in = 128, unsigned out = 64,
        bool cc = false)
{
    const llm::GpuRunParams p{.batch = batch, .inLen = in, .outLen = out,
                              .confidential = cc};
    return llm::GpuPerfModel().run(hw::h100Nvl(), llm::llama2_7b(), p)
        .decodeTput;
}

/** Fig. 11: cGPU generation-throughput overhead (%), 128 out. */
inline double
ccOverheadPct(unsigned batch, unsigned in)
{
    return overheadPct(gpuTput(batch, in, 128),
                       gpuTput(batch, in, 128, true));
}

/** Fig. 11's grid, batch {1, 4, 16} x input {128, 512, 2048}. */
template <typename Fn>
Values
fig11Grid(Fn &&overhead_pct)
{
    Values v;
    for (unsigned batch : {1u, 4u, 16u})
        for (unsigned in : {128u, 512u, 2048u})
            v.push_back(overhead_pct(batch, in));
    return v;
}

/** Fig. 14: TDX per-query overhead (%) of BM25, reranked BM25 and
 *  SBERT, priced against a 20 GiB production index. */
inline Values
ragTdxOverheadPct()
{
    rag::BeirConfig cfg;
    cfg.numDocs = 800;
    cfg.numQueries = 30;
    cfg.seed = 77;
    const auto ds = rag::generateBeir(cfg);
    const rag::RagPipeline pipeline(ds);
    const auto bare = tee::makeBareMetal();
    const auto tdx = tee::makeTdx();
    Values v;
    for (auto m : {rag::RagMethod::Bm25, rag::RagMethod::RerankedBm25,
                   rag::RagMethod::Sbert}) {
        const auto eval = pipeline.evaluate(m);
        auto query = [&](const tee::TeeBackend &be) {
            return rag::priceRagRun(hw::emr2(), be, eval, 20ULL * GiB, 16)
                .meanQuerySeconds;
        };
        v.push_back(100.0 * (query(*tdx) / query(*bare) - 1.0));
    }
    return v;
}

/** Table I: the measured overhead cell of one summary-matrix column
 *  (none if the matrix has no measured row). */
inline Values
summaryOverhead(std::string core::SummaryRow::*column)
{
    for (const auto &r : core::buildSummaryMatrix())
        if (r.dimension.find("measured") != std::string::npos)
            return {std::stod(r.*column)};
    return {};
}

/** Serving: the CPU step model's decode-step overhead (%) of `b` over
 *  bare, on EMR1 at the latency shape, mid-generation depth. */
inline double
stepOverheadPct(core::Backend b)
{
    const auto cpu = hw::emr1();
    const auto p = core::latencyParams(cpu);
    auto step = [&](core::Backend be) {
        return serve::makeCpuStepModel(
                   cpu, sharedBackend(core::makeBackend(be)),
                   llm::llama2_7b(), p)
            ->decodeStep(p.batch, p.inLen + p.outLen / 2);
    };
    return 100.0 * (step(b) / step(Bare) - 1.0);
}

/** Serving: the GPU step model's confidential decode-step overhead
 *  (%) at `batch`, mid-generation after an `in`-token prompt. */
inline double
gpuStepOverheadPct(unsigned batch, unsigned in)
{
    auto step = [&](bool cc) {
        return serve::makeGpuStepModel(hw::h100Nvl(), cc, llm::llama2_7b(),
                                       hw::Dtype::Bf16)
            ->decodeStep(batch, in + 64);
    };
    return 100.0 * (step(true) / step(false) - 1.0);
}

/** The table, in report order. */
inline constexpr Row kRows[] = {
    // ---- Figure 4: single socket, Llama2-7B, EMR1 -------------------
    {"PerfCpuFig4", "SgxThroughputOverheadInBand", "Fig. 4",
     "SGX tput overhead vs bare, %", "4.80-6.15%", kFig4Sgx,
     [] { return Values{tputOverheadPct(Sgx)}; }},
    {"PerfCpuFig4", "TdxThroughputOverheadInBand", "Fig. 4",
     "TDX tput overhead vs bare, %", "5.51-10.68%", kFig4Tdx,
     [] { return Values{tputOverheadPct(Tdx)}; }},
    {"PerfCpuFig4", "VmVirtualizationTaxInBand", "Fig. 4",
     "VM tput overhead vs bare, %", "1.82-5.38%", kFig4Vm,
     [] { return Values{tputOverheadPct(Vm)}; }},
    {"PerfCpuFig4", "TdxOverVmInBand", "Fig. 4",
     "TDX tput overhead vs VM, %", "3.02-7.01%", open(2.5, 8.0),
     [] { return Values{tputOverheadPct(Tdx, Vm)}; }},
    {"PerfCpuFig4", "SgxBetweenVmAndTdx", "Fig. 4",
     "tput overhead margins SGX-VM, TDX-SGX, pts", "VM < SGX < TDX",
     above(0),
     [] {
         const double sgx = tputOverheadPct(Sgx);
         return Values{sgx - tputOverheadPct(Vm),
                       tputOverheadPct(Tdx) - sgx};
     }},
    {"PerfCpuFig4", "Int8HalvesLatency", "Fig. 4",
     "int8 / bf16 bare token latency", "almost half", open(0.40, 0.65),
     [] {
         return Values{emr1Latency(Bare, hw::Dtype::Int8).meanTokenLatency /
                       emr1Latency(Bare).meanTokenLatency};
     }},
    {"PerfCpuFig4", "LatencyBelowReadingSpeed", "Fig. 4",
     "token latency bare, VM, SGX, TDX, s", "below 200 ms/token",
     below(0.200),
     [] {
         Values v;
         for (auto b : {Bare, Vm, Sgx, Tdx})
             v.push_back(emr1Latency(b).meanTokenLatency);
         return v;
     }},
    {"PerfCpuFig4", "Int8TdxLatencyOverheadExceedsBf16", "Fig. 4",
     "TDX latency overhead int8 minus bf16, pts", "int8 worse", above(0),
     [] {
         auto ov = [](hw::Dtype dt) {
             return overheadPct(emr1Latency(Tdx, dt).meanTokenLatency,
                                emr1Latency(Bare, dt).meanTokenLatency);
         };
         return Values{ov(hw::Dtype::Int8) - ov(hw::Dtype::Bf16)};
     }},
    {"PerfCpu", "NoisyTokenLatenciesHaveOutliers", "Fig. 4",
     "TDX token latencies beyond Z>3, fraction", "~0.64%",
     open(0.0005, 0.03),
     [] {
         auto p = core::latencyParams(hw::emr1());
         p.outLen = 2000;
         const auto lat = run(Tdx, p, hw::emr1()).tokenLatencies;
         return Values{static_cast<double>(summarize(lat, 3.0).outliers) /
                       lat.size()};
     }},

    // ---- Figures 5-6 and SNC: EMR1 ----------------------------------
    {"PerfCpuFig5", "TdxTwoSocketOverheadInBand", "Fig. 5",
     "70B TDX tput overhead vs VM, 2 sockets, %", "12.11-23.81%",
     open(10.0, 30.0),
     [] { return Values{tputOverheadPct(Tdx, Vm, 2, llm::llama2_70b())}; }},
    {"PerfCpuFig5", "SgxTwoSocketsCatastrophic", "Fig. 5",
     "70B SGX tput overhead vs bare, 2 sockets, %", "up to ~230%",
     open(100.0, 330.0),
     [] { return Values{tputOverheadPct(Sgx, Bare, 2, llm::llama2_70b())}; }},
    {"PerfCpuFig5", "TdxBetweenBoundAndUnboundVm", "Fig. 5",
     "70B tput margins VM-TDX, TDX-VM NB, tok/s", "VM B > TDX > VM NB",
     above(0),
     [] {
         auto tput = [](core::Backend b) {
             return run(b, core::throughputParams(hw::emr1(), 2),
                        hw::emr1(), llm::llama2_70b())
                 .decodeTput;
         };
         const double tdx = tput(Tdx);
         return Values{tput(Vm) - tdx, tdx - tput(VmNb)};
     }},
    {"PerfCpu", "SeventyBMissesReadingSpeedOnTdx", "Fig. 5",
     "70B TDX token latency, batch 1, 2 sockets, s",
     "above 200 ms/token", above(0.200),
     [] {
         auto p = core::latencyParams(hw::emr1(), 2);
         p.outLen = 32;
         return Values{run(Tdx, p, hw::emr1(), llm::llama2_70b())
                           .meanTokenLatency};
     }},
    {"PerfCpuFig6", "TransparentHugepageTaxInBand", "Fig. 6",
     "13B VM TH tput overhead vs VM FH, 2 sockets, %", "3.19-5.20%",
     open(1.5, 7.0),
     [] { return Values{tputOverheadPct(VmTh, Vm, 2, llm::llama2_13b())}; }},
    {"PerfCpuFig6", "TdxOverVmThStaysSingleSocketMagnitude", "Fig. 6",
     "13B TDX tput overhead vs VM TH, 2 sockets, %", "4-10%",
     open(2.0, 13.0),
     [] { return Values{tputOverheadPct(Tdx, VmTh, 2, llm::llama2_13b())}; }},
    {"PerfCpuSnc", "SubNumaClusteringExplodesOverhead", "§IV-A",
     "TDX tput overhead SNC on / SNC off", "~5% -> ~42%", above(4.0),
     [] {
         return Values{
             tputOverheadPct(Tdx, Bare, 1, llm::llama2_7b(), true) /
             tputOverheadPct(Tdx)};
     }},
    {"PerfCpuSnc", "SubNumaClusteringExplodesOverhead", "§IV-A",
     "TDX tput overhead with SNC, %", "~42%", open(30.0, 60.0),
     [] {
         return Values{
             tputOverheadPct(Tdx, Bare, 1, llm::llama2_7b(), true)};
     }},
    {"PerfCpuModels", "SevenBClassOverheadsInBand", "§III-C",
     "TDX tput overhead Llama3-8B, GPT-J, Falcon, Baichuan2, Qwen, %",
     "3.1-13.1%", open(2.5, 14.0),
     [] {
         Values v;
         for (const auto &model :
              {llm::llama3_8b(), llm::gptj_6b(), llm::falcon_7b(),
               llm::baichuan2_7b(), llm::qwen_7b()})
             v.push_back(tputOverheadPct(Tdx, Bare, 1, model));
         return v;
     }},

    // ---- Figures 7-10: EMR2 -----------------------------------------
    {"PerfCpuFig7", "DecodeDominatedByAttentionAndSilu", "Fig. 7",
     "attention + SiLU + qkv + down-proj share of TDX block time",
     "self-attention + linear SiLU dominate", above(0.75),
     [] {
         double total = 0.0, big = 0.0;
         for (const auto &op : run(Tdx, emr2Run(4, 128, 128)).blockBreakdown) {
             total += op.seconds;
             if (op.name == "self_attention" || op.name == "linear_silu" ||
                 op.name == "qkv_proj" || op.name == "down_proj")
                 big += op.seconds;
         }
         return Values{total > 0.0 ? big / total : NAN};
     }},
    {"PerfCpuFig7", "NormsHaveHighRelativeOverheadButTinyShare", "Fig. 7",
     "norm minus self-attention relative TDX overhead", "norms largest",
     above(0), [] { return Values{normsVsAttention()[0]}; }},
    {"PerfCpuFig7", "NormsHaveHighRelativeOverheadButTinyShare", "Fig. 7",
     "norm share of TDX block time", "~3%", below(0.08),
     [] { return Values{normsVsAttention()[1]}; }},
    {"PerfCpuFig8", "AmxSpeedupGrowsWithBatch", "Fig. 8",
     "VM AMX speedup at batch 1", "1-4%", open(1.0, 1.25),
     [] { return Values{amxSpeedup(1)}; }},
    {"PerfCpuFig8", "AmxSpeedupGrowsWithBatch", "Fig. 8",
     "VM AMX speedup at batch 256", "2-6x", open(2.0, 6.0),
     [] { return Values{amxSpeedup(256)}; }},
    {"PerfCpuFig8", "AmxSpeedupGrowsWithBatch", "Fig. 8",
     "AMX speedup batch 256 minus batch 1", "grows with batch", above(0),
     [] { return Values{amxSpeedup(256) - amxSpeedup(1)}; }},
    {"PerfCpuFig8", "AmxReducesTdxOverheadVsVmAmxBaseline", "Fig. 8",
     "TDX noAMX minus TDX+AMX tput overhead vs VM+AMX, batch 256, pts",
     "AMX lowers TEE overheads", above(50.0),
     [] {
         Experiment exp;
         auto p = emr2Run(256, 128, 128);
         auto tdx = [&](bool amx) {
             p.amx = amx;
             return exp.runCpu(hw::emr2(), Tdx, llm::llama2_7b(), p);
         };
         const auto on = tdx(true);
         const auto vm = exp.runCpu(hw::emr2(), Vm, llm::llama2_7b(), p);
         return Values{Experiment::compare(tdx(false), vm).tputOverheadPct -
                       Experiment::compare(on, vm).tputOverheadPct};
     }},
    {"PerfCpuFig8", "Int8WithoutAmxCatastrophic", "Fig. 8",
     "int8 VM latency noAMX / AMX - 1, batch 1", "1700% latency overhead",
     open(5.0, 40.0),
     [] {
         auto p = emr2Run(1, 128, 64);
         p.dtype = hw::Dtype::Int8;
         p.amx = true;
         const double on = run(Vm, p).meanTokenLatency;
         p.amx = false;
         return Values{run(Vm, p).meanTokenLatency / on - 1.0};
     }},
    {"PerfCpuFig9", "ThroughputMonotoneInBatch", "Fig. 9",
     "bare tput step at batch 1, 4, 16, 64, 256, tok/s",
     "grows with batch", above(0),
     [] {
         auto tput = [](unsigned b) {
             return run(Bare, emr2Run(b, 128, 128)).decodeTput;
         };
         return steps({tput(1), tput(4), tput(16), tput(64), tput(256)});
     }},
    {"PerfCpuFig9", "LatencyGrowsWithBatch", "Fig. 9",
     "bare token latency batch 64 minus batch 1, s", "grows with batch",
     above(0),
     [] {
         return Values{run(Bare, emr2Run(64, 128, 64)).meanTokenLatency -
                       run(Bare, emr2Run(1, 128, 64)).meanTokenLatency};
     }},
    {"PerfCpuFig9", "Bf16SaturatesLaterThanInt8", "Fig. 9",
     "int8 compute-bound from batch, 64 out", "~64",
     {-kInf, 128.0, true, true},
     [] { return Values{computeBoundBatch(hw::Dtype::Int8)}; }},
    {"PerfCpuFig9", "Bf16SaturatesLaterThanInt8", "Fig. 9",
     "bf16 compute-bound from batch, 64 out", "~512",
     {256.0, kInf, true, true},
     [] { return Values{computeBoundBatch(hw::Dtype::Bf16)}; }},
    {"PerfCpuFig9", "Bf16SaturatesLaterThanInt8", "Fig. 9",
     "bf16 minus int8 compute-bound batch", "bf16 later", above(0),
     [] {
         return Values{computeBoundBatch(hw::Dtype::Bf16) -
                       computeBoundBatch(hw::Dtype::Int8)};
     }},
    {"PerfCpuFig9", "TdxOverheadShrinksWhenComputeBound", "Fig. 9",
     "TDX tput overhead batch 4 minus batch 1024, pts",
     "lowest when compute-bound", above(0),
     [] {
         return Values{
             overhead(Tdx, Bare, emr2Run(4, 128, 64)).tputOverheadPct -
             overhead(Tdx, Bare, emr2Run(1024, 128, 64)).tputOverheadPct};
     }},
    {"PerfCpuFig9", "TdxOverheadShrinksWhenComputeBound", "Fig. 9",
     "TDX tput overhead at batch 1024, %", "2-7%", below(7.0),
     [] {
         return Values{
             overhead(Tdx, Bare, emr2Run(1024, 128, 64)).tputOverheadPct};
     }},
    {"PerfCpuFig10", "EndToEndOverheadDipsWithInput", "Fig. 10",
     "TDX e2e overhead input 128 minus 2048, pts", "falls until ~2048",
     above(0),
     [] {
         return Values{
             overhead(Tdx, Bare, emr2Run(64, 128, 128)).e2eOverheadPct -
             overhead(Tdx, Bare, emr2Run(64, 2048, 128)).e2eOverheadPct};
     }},
    {"PerfCpuFig10", "DecodeOverheadRisesAtLargeInput", "Fig. 10",
     "TDX decode overhead margins 8192-2048, 2048-128, pts",
     "rises past ~2048", above(0),
     [] {
         auto ov = [](unsigned in) {
             return overhead(Tdx, Bare, emr2Run(64, in, 128))
                 .tputOverheadPct;
         };
         return Values{ov(8192) - ov(2048), ov(2048) - ov(128)};
     }},
    {"PerfCpuFig10", "ThroughputFallsWithInput", "Fig. 10",
     "bare e2e tput input 128 minus 4096, tok/s", "falls with input",
     above(0),
     [] {
         return Values{run(Bare, emr2Run(64, 128, 64)).e2eTput -
                       run(Bare, emr2Run(64, 4096, 64)).e2eTput};
     }},

    // ---- Figure 11 and Section V: H100 NVL --------------------------
    {"PerfGpuFig11", "OverheadInPaperBand", "Fig. 11",
     "cGPU tput overhead, batch {1,4,16} x input {128,512,2048}, %",
     "7.5% -> 4.4%", kFig11Cgpu, [] { return fig11Grid(ccOverheadPct); }},
    {"PerfGpuFig11", "OverheadShrinksWithBatch", "Fig. 11",
     "cGPU overhead batch 1 minus batch 32, input 128, pts",
     "falls with batch", above(0),
     [] { return Values{ccOverheadPct(1, 128) - ccOverheadPct(32, 128)}; }},
    {"PerfGpuFig11", "OverheadShrinksWithInput", "Fig. 11",
     "cGPU overhead input 128 minus 4096, batch 4, pts",
     "falls with input", above(0),
     [] { return Values{ccOverheadPct(4, 128) - ccOverheadPct(4, 4096)}; }},
    {"PerfGpuFig11", "ThroughputGrowsWithBatch", "Fig. 11",
     "GPU tput step at batch 1, 8, 64, tok/s", "grows with batch",
     above(0),
     [] { return steps({gpuTput(1), gpuTput(8), gpuTput(64)}); }},
    {"PerfGpu", "RawGpuFarFasterThanPaperCpuNumbers", "§V",
     "GPU decode tok/s, 7B bf16, batch 1", "hundreds of tok/s",
     open(100.0, 1000.0), [] { return Values{gpuTput(1)}; }},

    // ---- Figure 14 and Table I --------------------------------------
    {"RagTiming", "TdxOverheadInPaperBand", "Fig. 14",
     "TDX query overhead BM25, reranked BM25, SBERT, 20 GiB index, %",
     "~6-7%", open(2.0, 9.5), ragTdxOverheadPct},
    {"Summary", "MeasuredOverheadsPlausible", "Table I",
     "SGX single-resource overhead, %", "~4-5%", open(2.0, 9.0),
     [] { return summaryOverhead(&core::SummaryRow::sgx); }},
    {"Summary", "MeasuredOverheadsPlausible", "Table I",
     "TDX single-resource overhead, %", "~5-10%", open(4.0, 12.0),
     [] { return summaryOverhead(&core::SummaryRow::tdx); }},
    {"Summary", "MeasuredOverheadsPlausible", "Table I",
     "cGPU single-resource overhead, %", "~4-8%", open(2.0, 9.0),
     [] { return summaryOverhead(&core::SummaryRow::cgpu); }},

    // ---- Serving: the step models meet the same bands ---------------
    {"StepModelFig4", "TdxDecodeStepOverheadInBand", "Fig. 4",
     "TDX decode-step overhead vs bare, batch 1, depth 1088, %",
     "5.51-10.68%", kFig4Tdx, [] { return Values{stepOverheadPct(Tdx)}; }},
    {"StepModelFig4", "SgxDecodeStepOverheadInBand", "Fig. 4",
     "SGX decode-step overhead vs bare, batch 1, depth 1088, %",
     "4.80-6.15%", kFig4Sgx, [] { return Values{stepOverheadPct(Sgx)}; }},
    {"StepModelFig4", "VmDecodeStepOverheadInBand", "Fig. 4",
     "VM decode-step overhead vs bare, batch 1, depth 1088, %",
     "1.82-5.38%", kFig4Vm, [] { return Values{stepOverheadPct(Vm)}; }},
    {"StepModelFig11", "CgpuDecodeStepOverheadInBand", "Fig. 11",
     "cGPU decode-step overhead, batch {1,4,16} x depth in+64, %",
     "7.5% -> 4.4%", kFig11Cgpu,
     [] { return fig11Grid(gpuStepOverheadPct); }},
};

/** A measured value or bound end, as the report prints it. */
inline std::string
formatValue(double v)
{
    if (std::isinf(v))
        return v > 0 ? "+inf" : "-inf";
    char buf[32];
    std::snprintf(buf, sizeof buf, std::fabs(v) >= 1000 ? "%.0f" : "%.4g",
                  v);
    return buf;
}

/** "(lo, hi]" and the like. */
inline std::string
formatBound(const Bound &b)
{
    std::string s = b.loClosed && !std::isinf(b.lo) ? "[" : "(";
    s += formatValue(b.lo) + ", " + formatValue(b.hi);
    s += b.hiClosed && !std::isinf(b.hi) ? "]" : ")";
    return s;
}

/**
 * Print the table as markdown: one line per row with its test, paper
 * band, bound, measured values and whether all of them lie inside the
 * bound. The probes run on the par pool; the output is the same at
 * any thread count.
 */
inline void
printReport(std::ostream &os)
{
    const auto values = runGrid<Values>(
        std::size(kRows), [](std::size_t i) { return kRows[i].probe(); });
    os << "| test | figure | quantity | paper | bound | measured | ok |\n"
       << "|---|---|---|---|---|---|---|\n";
    for (std::size_t i = 0; i < std::size(kRows); ++i) {
        const Row &r = kRows[i];
        bool ok = !values[i].empty();
        std::string measured;
        for (double v : values[i]) {
            ok = ok && r.bound.contains(v);
            measured += (measured.empty() ? "" : ", ") + formatValue(v);
        }
        os << "| " << r.suite << "." << r.name << " | " << r.figure
           << " | " << r.quantity << " | " << r.paper << " | "
           << formatBound(r.bound) << " | " << measured << " | "
           << (ok ? "✓" : "✗") << " |\n";
    }
}

} // namespace cllm::bench::calibration

#endif // CLLM_BENCH_CALIBRATION_HH
