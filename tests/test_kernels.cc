/**
 * @file
 * Tests for the functional compute kernels: reference comparisons,
 * mathematical properties, and quantization error bounds. Shape sweeps
 * use parameterized tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "llm/kernels.hh"
#include "par/pool.hh"
#include "util/rng.hh"

using namespace cllm;
using namespace cllm::llm;

namespace {

Tensor
randomTensor(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Tensor t(r, c);
    Rng rng(seed);
    for (std::size_t i = 0; i < r; ++i)
        for (std::size_t j = 0; j < c; ++j)
            t.at(i, j) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return t;
}

void
naiveGemm(const Tensor &a, const Tensor &b, Tensor &c)
{
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
            c.at(i, j) = static_cast<float>(acc);
        }
    }
}

} // namespace

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapes, MatchesNaiveReference)
{
    const auto [m, k, n] = GetParam();
    const Tensor a = randomTensor(m, k, 1);
    const Tensor b = randomTensor(k, n, 2);
    Tensor c(m, n), ref(m, n);
    gemm(a, b, c);
    naiveGemm(a, b, ref);
    for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j)
            EXPECT_NEAR(c.at(i, j), ref.at(i, j),
                        1e-3 * (1.0 + std::abs(ref.at(i, j))));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 63, 66),
                      std::make_tuple(128, 17, 40),
                      std::make_tuple(1, 256, 1)));

TEST(Gemm, ZeroTimesAnythingIsZero)
{
    Tensor a(4, 8);
    const Tensor b = randomTensor(8, 4, 3);
    Tensor c(4, 4);
    c.fill(99.0f);
    gemm(a, b, c);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_EQ(c.at(i, j), 0.0f);
}

TEST(GemmDeath, ShapeMismatchPanics)
{
    Tensor a(2, 3), b(4, 2), c(2, 2);
    EXPECT_DEATH(gemm(a, b, c), "shape mismatch");
}

TEST(Matvec, MatchesGemmColumn)
{
    const Tensor w = randomTensor(32, 48, 4);
    const Tensor x = randomTensor(48, 1, 5);
    std::vector<float> y(32);
    matvec(w, x.data(), y.data());
    Tensor ref(32, 1);
    naiveGemm(w, x, ref);
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_NEAR(y[i], ref.at(i, 0), 1e-3);
}

namespace {

/** Lengths that end on, just past and just short of a 16-lane block. */
constexpr std::size_t kRaggedLengths[] = {0, 1, 15, 16, 17, 33, 255, 257};

/** Σ w_i x_i in double, and Σ |w_i x_i| for the rounding bound. */
template <typename W>
std::pair<double, double>
referenceDot(const W *w, const float *x, std::size_t n)
{
    double sum = 0.0, abs_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double p = static_cast<double>(w[i]) * x[i];
        sum += p;
        abs_sum += std::abs(p);
    }
    return {sum, abs_sum};
}

/** A float sum of n rounded products is within
 *  γ_n · Σ |w_i x_i| < (n + 1) · 2^-24 · Σ |w_i x_i| of the exact
 *  value, in any summation order. */
double
dotErrorBound(std::size_t n, double abs_sum)
{
    return static_cast<double>(n + 1) * 0x1p-24 * abs_sum;
}

std::vector<float>
randomVector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian(0.0, 1.0));
    return v;
}

} // namespace

TEST(Dot, RaggedLengthsMatchDoubleReference)
{
    for (std::size_t n : kRaggedLengths) {
        const std::vector<float> w = randomVector(n, 100 + n);
        const std::vector<float> x = randomVector(n, 200 + n);
        std::vector<std::int8_t> q(n);
        for (std::size_t i = 0; i < n; ++i)
            q[i] = static_cast<std::int8_t>(
                std::clamp(std::round(w[i] * 40.0f), -127.0f, 127.0f));

        const auto [ref, abs_sum] = referenceDot(w.data(), x.data(), n);
        EXPECT_NEAR(dot(w.data(), x.data(), n), ref,
                    dotErrorBound(n, abs_sum)) << "n=" << n;
        const auto [qref, qabs_sum] = referenceDot(q.data(), x.data(), n);
        EXPECT_NEAR(dot(q.data(), x.data(), n), qref,
                    dotErrorBound(n, qabs_sum)) << "int8 n=" << n;
    }
}

TEST(Dot, FollowsFixedLaneOrder)
{
    // The contract spelled out one scalar step at a time: lane i % 16
    // takes element i of the whole blocks, the lanes fold at distance
    // 8, 4, 2, 1, and the tail adds on in order.
    for (std::size_t n : kRaggedLengths) {
        const std::vector<float> w = randomVector(n, 300 + n);
        const std::vector<float> x = randomVector(n, 400 + n);
        const std::size_t whole = n / 16 * 16;
        float lane[16] = {};
        for (std::size_t i = 0; i < whole; ++i)
            lane[i % 16] += w[i] * x[i];
        for (std::size_t h = 8; h >= 1; h /= 2)
            for (std::size_t l = 0; l < h; ++l)
                lane[l] += lane[l + h];
        float expect = lane[0];
        for (std::size_t i = whole; i < n; ++i)
            expect += w[i] * x[i];
        EXPECT_EQ(dot(w.data(), x.data(), n), expect) << "n=" << n;
    }
}

TEST(Matvec, RaggedColsMatchNaive)
{
    for (std::size_t cols : kRaggedLengths) {
        const Tensor w = randomTensor(37, cols, 30 + cols);
        const Tensor x = randomTensor(cols, 1, 31 + cols);
        std::vector<float> y(37);
        matvec(w, x.data(), y.data());
        for (std::size_t r = 0; r < 37; ++r) {
            const auto [ref, abs_sum] =
                referenceDot(w.row(r), x.data(), cols);
            EXPECT_NEAR(y[r], ref, dotErrorBound(cols, abs_sum))
                << "cols=" << cols << " row " << r;
        }
    }
}

TEST(GemmTransB, MatchesMatvecPerRowAtRaggedCols)
{
    // gemmTransB(A, W) row i equals matvec(W, A.row(i)) bit for bit,
    // tail elements included.
    for (std::size_t k : {1, 17, 33, 257}) {
        const Tensor a = randomTensor(5, k, 40 + k);
        const Tensor w = randomTensor(70, k, 41 + k);
        Tensor c(5, 70);
        gemmTransB(a, w, c);
        std::vector<float> y(70);
        for (std::size_t r = 0; r < 5; ++r) {
            matvec(w, a.row(r), y.data());
            for (std::size_t j = 0; j < 70; ++j)
                ASSERT_EQ(c.at(r, j), y[j])
                    << "k=" << k << " at (" << r << ", " << j << ")";
        }
    }
}

TEST(RmsNorm, ProducesUnitRms)
{
    Rng rng(6);
    std::vector<float> x(256), w(256, 1.0f), y(256);
    for (auto &v : x)
        v = static_cast<float>(rng.gaussian(0.0, 3.0));
    rmsnorm(x.data(), w.data(), y.data(), x.size());
    double sum_sq = 0.0;
    for (float v : y)
        sum_sq += static_cast<double>(v) * v;
    EXPECT_NEAR(std::sqrt(sum_sq / 256.0), 1.0, 1e-3);
}

TEST(RmsNorm, WeightScalesOutput)
{
    std::vector<float> x = {1.0f, 2.0f, 3.0f, 4.0f};
    std::vector<float> w = {2.0f, 2.0f, 2.0f, 2.0f};
    std::vector<float> y1(4), y2(4);
    std::vector<float> ones(4, 1.0f);
    rmsnorm(x.data(), ones.data(), y1.data(), 4);
    rmsnorm(x.data(), w.data(), y2.data(), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(y2[i], 2.0f * y1[i], 1e-6);
}

TEST(RmsNorm, ScaleInvariantDirection)
{
    std::vector<float> x = {1.0f, -2.0f, 0.5f, 3.0f};
    std::vector<float> x10 = x;
    for (auto &v : x10)
        v *= 10.0f;
    std::vector<float> w(4, 1.0f), y1(4), y2(4);
    rmsnorm(x.data(), w.data(), y1.data(), 4);
    rmsnorm(x10.data(), w.data(), y2.data(), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(y1[i], y2[i], 1e-4);
}

TEST(Softmax, SumsToOne)
{
    std::vector<float> x = {1.0f, 2.0f, 3.0f, -1.0f, 0.0f};
    softmaxInPlace(x.data(), x.size());
    double sum = 0.0;
    for (float v : x) {
        EXPECT_GT(v, 0.0f);
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Softmax, PreservesOrdering)
{
    std::vector<float> x = {0.5f, 3.0f, -2.0f};
    softmaxInPlace(x.data(), x.size());
    EXPECT_GT(x[1], x[0]);
    EXPECT_GT(x[0], x[2]);
}

TEST(Softmax, NumericallyStableForLargeInputs)
{
    std::vector<float> x = {10000.0f, 10001.0f};
    softmaxInPlace(x.data(), x.size());
    EXPECT_FALSE(std::isnan(x[0]));
    EXPECT_NEAR(x[0] + x[1], 1.0, 1e-6);
    EXPECT_GT(x[1], x[0]);
}

TEST(Softmax, EmptyIsNoop)
{
    softmaxInPlace(nullptr, 0); // must not crash
}

TEST(Rope, PreservesNorm)
{
    Rng rng(9);
    std::vector<float> v(64);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian(0.0, 1.0));
    double before = 0.0;
    for (float x : v)
        before += static_cast<double>(x) * x;
    applyRope(v.data(), v.size(), 1234);
    double after = 0.0;
    for (float x : v)
        after += static_cast<double>(x) * x;
    EXPECT_NEAR(before, after, 1e-3 * before);
}

TEST(Rope, PositionZeroIsIdentity)
{
    std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
    auto orig = v;
    applyRope(v.data(), v.size(), 0);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_NEAR(v[i], orig[i], 1e-6);
}

TEST(Rope, DotDependsOnlyOnDistance)
{
    // The defining RoPE property: <R_m q, R_n k> == <R_{m+d} q,
    // R_{n+d} k> for any shift d.
    Rng rng(10);
    std::vector<float> q(32), k(32);
    for (std::size_t i = 0; i < 32; ++i) {
        q[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
        k[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    }
    auto dot_at = [&](std::size_t pq, std::size_t pk) {
        auto qq = q, kk = k;
        applyRope(qq.data(), qq.size(), pq);
        applyRope(kk.data(), kk.size(), pk);
        double d = 0.0;
        for (std::size_t i = 0; i < qq.size(); ++i)
            d += static_cast<double>(qq[i]) * kk[i];
        return d;
    };
    EXPECT_NEAR(dot_at(10, 3), dot_at(110, 103), 1e-3);
    EXPECT_NEAR(dot_at(5, 5), dot_at(900, 900), 1e-3);
}

TEST(RopeDeath, OddHeadDimPanics)
{
    std::vector<float> v(3);
    EXPECT_DEATH(applyRope(v.data(), 3, 1), "odd");
}

TEST(Silu, KnownValues)
{
    std::vector<float> x = {0.0f, 100.0f, -100.0f};
    siluInPlace(x.data(), x.size());
    EXPECT_NEAR(x[0], 0.0f, 1e-6);
    EXPECT_NEAR(x[1], 100.0f, 1e-3); // ~identity for large positive
    EXPECT_NEAR(x[2], 0.0f, 1e-3);   // ~zero for large negative
}

TEST(Bf16, RoundtripErrorBounded)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const float x = static_cast<float>(rng.gaussian(0.0, 100.0));
        const float r = toBf16(x);
        // bf16 has 8 mantissa bits -> relative error < 2^-8.
        EXPECT_LE(std::abs(r - x), std::abs(x) * (1.0f / 256.0f) + 1e-30f);
    }
}

TEST(Bf16, ExactForSmallIntegers)
{
    for (float v : {0.0f, 1.0f, -2.0f, 64.0f, 128.0f})
        EXPECT_EQ(toBf16(v), v);
}

TEST(Bf16, QuantizeTensorAppliesEverywhere)
{
    Tensor t = randomTensor(8, 8, 12);
    quantizeBf16(t);
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j)
            EXPECT_EQ(t.at(i, j), toBf16(t.at(i, j)));
}

TEST(Int8Quant, DequantizeErrorBounded)
{
    const Tensor w = randomTensor(16, 64, 13);
    const QuantizedTensor q = QuantizedTensor::quantize(w);
    const Tensor d = q.dequantize();
    for (std::size_t r = 0; r < 16; ++r) {
        float max_abs = 0.0f;
        for (std::size_t c = 0; c < 64; ++c)
            max_abs = std::max(max_abs, std::abs(w.at(r, c)));
        for (std::size_t c = 0; c < 64; ++c) {
            // Error at most half a quantization step per element.
            EXPECT_LE(std::abs(d.at(r, c) - w.at(r, c)),
                      max_abs / 127.0f * 0.51f + 1e-6f);
        }
    }
}

TEST(Int8Quant, MatvecCloseToFloat)
{
    const Tensor w = randomTensor(32, 128, 14);
    const QuantizedTensor q = QuantizedTensor::quantize(w);
    Rng rng(15);
    std::vector<float> x(128), yf(32), yq(32);
    for (auto &v : x)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));
    matvec(w, x.data(), yf.data());
    matvecQuantized(q, x.data(), yq.data());
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_NEAR(yq[i], yf[i], 0.15 * (std::abs(yf[i]) + 1.0));
}

TEST(Int8Quant, MatvecRaggedColsMatchesReference)
{
    // Row r is scale_r * Σ q_rc x_c over the widened int8 weights.
    for (std::size_t cols : {17, 33, 257}) {
        const QuantizedTensor q =
            QuantizedTensor::quantize(randomTensor(45, cols, 50 + cols));
        const std::vector<float> x = randomVector(cols, 51 + cols);
        std::vector<float> y(45);
        matvecQuantized(q, x.data(), y.data());
        for (std::size_t r = 0; r < 45; ++r) {
            const auto [ref, abs_sum] = referenceDot(
                q.data.data() + r * cols, x.data(), cols);
            EXPECT_NEAR(y[r], ref * q.scales[r],
                        dotErrorBound(cols + 1, abs_sum) * q.scales[r])
                << "cols=" << cols << " row " << r;
        }
    }
}

TEST(Int8Quant, ZeroRowHandled)
{
    Tensor w(2, 4); // all zeros
    const QuantizedTensor q = QuantizedTensor::quantize(w);
    std::vector<float> x(4, 1.0f), y(2, 99.0f);
    matvecQuantized(q, x.data(), y.data());
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.0f);
}

TEST(Tensor, AccessorsAndFill)
{
    Tensor t(2, 3);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 3u);
    EXPECT_EQ(t.size(), 6u);
    t.fill(7.0f);
    EXPECT_EQ(t.at(1, 2), 7.0f);
    t.at(0, 0) = 1.0f;
    EXPECT_EQ(t.row(0)[0], 1.0f);
}

TEST(TensorDeath, OutOfRangePanics)
{
    Tensor t(2, 2);
    EXPECT_DEATH(t.at(2, 0), "out of range");
    EXPECT_DEATH(t.row(5), "out of range");
}

// ------------------------------------------------- thread determinism

namespace {

/** Run `fn` under each thread count and require bit-identical float
 *  output — the cllm::par contract the golden files rely on. */
template <typename Fn>
void
expectBitIdenticalAcrossThreads(Fn &&fn)
{
    par::setThreadCount(1);
    const std::vector<float> serial = fn();
    for (unsigned threads : {2u, 4u, 8u}) {
        par::setThreadCount(threads);
        const std::vector<float> parallel = fn();
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(serial[i], parallel[i])
                << "index " << i << " at " << threads << " threads";
    }
    par::setThreadCount(0);
}

} // namespace

TEST(ThreadDeterminism, GemmBitIdentical)
{
    const Tensor a = randomTensor(97, 65, 21);
    const Tensor b = randomTensor(65, 83, 22);
    expectBitIdenticalAcrossThreads([&] {
        Tensor c(97, 83);
        gemm(a, b, c);
        return std::vector<float>(c.data(), c.data() + c.size());
    });
}

TEST(ThreadDeterminism, GemmTransBBitIdentical)
{
    const Tensor a = randomTensor(8, 128, 23);
    const Tensor w = randomTensor(200, 128, 24);
    expectBitIdenticalAcrossThreads([&] {
        Tensor c(8, 200);
        gemmTransB(a, w, c);
        return std::vector<float>(c.data(), c.data() + c.size());
    });
}

TEST(ThreadDeterminism, MatvecBitIdentical)
{
    const Tensor w = randomTensor(301, 128, 25);
    const Tensor x = randomTensor(128, 1, 26);
    expectBitIdenticalAcrossThreads([&] {
        std::vector<float> y(301);
        matvec(w, x.data(), y.data());
        return y;
    });
}

TEST(ThreadDeterminism, MatvecQuantizedBitIdentical)
{
    const QuantizedTensor q =
        QuantizedTensor::quantize(randomTensor(301, 128, 27));
    const Tensor x = randomTensor(128, 1, 28);
    expectBitIdenticalAcrossThreads([&] {
        std::vector<float> y(301);
        matvecQuantized(q, x.data(), y.data());
        return y;
    });
}
