#include "llm/kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "par/pool.hh"
#include "util/logging.hh"

namespace cllm::llm {

void
gemm(const Tensor &a, const Tensor &b, Tensor &c)
{
    if (a.cols() != b.rows() || c.rows() != a.rows() ||
        c.cols() != b.cols()) {
        cllm_panic("gemm shape mismatch: (", a.rows(), "x", a.cols(),
                   ") * (", b.rows(), "x", b.cols(), ") -> (", c.rows(),
                   "x", c.cols(), ")");
    }
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    c.fill(0.0f);

    // Row blocks are the parallel unit: each owns a disjoint slice of
    // C, and the (p0, j0, i, p, j) accumulation order within a row is
    // exactly the serial blocked loop's, so results are bit-identical
    // at any thread count.
    constexpr std::size_t kBlock = 64;
    par::parallelFor(0, m, kBlock, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
            for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
                const std::size_t p1 = std::min(p0 + kBlock, k);
                const std::size_t j1 = std::min(j0 + kBlock, n);
                for (std::size_t i = i0; i < i1; ++i) {
                    float *crow = c.row(i);
                    const float *arow = a.row(i);
                    for (std::size_t p = p0; p < p1; ++p) {
                        const float av = arow[p];
                        const float *brow = b.row(p);
                        for (std::size_t j = j0; j < j1; ++j)
                            crow[j] += av * brow[j];
                    }
                }
            }
        }
    });
}

void
gemmTransB(const Tensor &a, const Tensor &b, Tensor &c)
{
    if (a.cols() != b.cols() || c.rows() != a.rows() ||
        c.cols() != b.rows()) {
        cllm_panic("gemmTransB shape mismatch: (", a.rows(), "x",
                   a.cols(), ") * (", b.rows(), "x", b.cols(),
                   ")^T -> (", c.rows(), "x", c.cols(), ")");
    }
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    // Partition the (large) output-feature axis, not the (small)
    // batch axis: each chunk owns columns [j0, j1) of every row of C.
    // Every C(i, j) is an independent dot product, so the split
    // cannot change any value.
    constexpr std::size_t kColGrain = 32;
    par::parallelFor(0, n, kColGrain, [&](std::size_t j0,
                                          std::size_t j1) {
        for (std::size_t i = 0; i < m; ++i) {
            const float *arow = a.row(i);
            float *crow = c.row(i);
            for (std::size_t j = j0; j < j1; ++j)
                crow[j] = dot(b.row(j), arow, k);
        }
    });
}

void
matvec(const Tensor &w, const float *x, float *y)
{
    const std::size_t rows = w.rows(), cols = w.cols();
    // Each output row is an independent dot product.
    constexpr std::size_t kRowGrain = 32;
    par::parallelFor(0, rows, kRowGrain, [&](std::size_t r0,
                                             std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r)
            y[r] = dot(w.row(r), x, cols);
    });
}

void
rmsnorm(const float *x, const float *weight, float *y, std::size_t n,
        float eps)
{
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum_sq += static_cast<double>(x[i]) * x[i];
    const float inv_rms = 1.0f / std::sqrt(
        static_cast<float>(sum_sq / static_cast<double>(n)) + eps);
    for (std::size_t i = 0; i < n; ++i)
        y[i] = x[i] * inv_rms * weight[i];
}

void
softmaxInPlace(float *x, std::size_t n)
{
    if (n == 0)
        return;
    float max_v = x[0];
    for (std::size_t i = 1; i < n; ++i)
        max_v = std::max(max_v, x[i]);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = std::exp(x[i] - max_v);
        sum += x[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::size_t i = 0; i < n; ++i)
        x[i] *= inv;
}

void
applyRope(float *vec, std::size_t head_dim, std::size_t pos, float theta)
{
    if (head_dim % 2 != 0)
        cllm_panic("applyRope: odd head_dim ", head_dim);
    for (std::size_t i = 0; i < head_dim; i += 2) {
        const float freq =
            std::pow(theta, -static_cast<float>(i) /
                                static_cast<float>(head_dim));
        const float angle = static_cast<float>(pos) * freq;
        const float c = std::cos(angle), s = std::sin(angle);
        const float x0 = vec[i], x1 = vec[i + 1];
        vec[i] = x0 * c - x1 * s;
        vec[i + 1] = x0 * s + x1 * c;
    }
}

void
siluInPlace(float *x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float v = x[i];
        x[i] = v / (1.0f + std::exp(-v));
    }
}

float
toBf16(float x)
{
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    // Round-to-nearest-even on the truncated 16 bits.
    const std::uint32_t lsb = (bits >> 16) & 1u;
    bits += 0x7fffu + lsb;
    bits &= 0xffff0000u;
    float out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

void
quantizeBf16(Tensor &t)
{
    float *p = t.data();
    for (std::size_t i = 0; i < t.size(); ++i)
        p[i] = toBf16(p[i]);
}

QuantizedTensor
QuantizedTensor::quantize(const Tensor &w)
{
    QuantizedTensor q;
    q.rows = w.rows();
    q.cols = w.cols();
    q.data.resize(q.rows * q.cols);
    q.scales.resize(q.rows);
    for (std::size_t r = 0; r < q.rows; ++r) {
        const float *row = w.row(r);
        float max_abs = 0.0f;
        for (std::size_t c = 0; c < q.cols; ++c)
            max_abs = std::max(max_abs, std::abs(row[c]));
        const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
        q.scales[r] = scale;
        for (std::size_t c = 0; c < q.cols; ++c) {
            const float v = std::round(row[c] / scale);
            q.data[r * q.cols + c] = static_cast<std::int8_t>(
                std::clamp(v, -127.0f, 127.0f));
        }
    }
    return q;
}

Tensor
QuantizedTensor::dequantize() const
{
    Tensor t(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        float *row = t.row(r);
        for (std::size_t c = 0; c < cols; ++c)
            row[c] = data[r * cols + c] * scales[r];
    }
    return t;
}

void
matvecQuantized(const QuantizedTensor &w, const float *x, float *y)
{
    constexpr std::size_t kRowGrain = 32;
    par::parallelFor(0, w.rows, kRowGrain, [&](std::size_t r0,
                                               std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r)
            y[r] = dot(w.data.data() + r * w.cols, x, w.cols) *
                   w.scales[r];
    });
}

} // namespace cllm::llm
