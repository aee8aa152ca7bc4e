/**
 * @file
 * Functional compute kernels of the inference runtime: blocked GEMM,
 * RMSNorm, softmax, rotary position embeddings, SiLU, bfloat16
 * emulation, and weight-only int8 quantization. These are the real
 * numerics behind the op graph the timing model prices; the unit
 * tests validate them against naive references and the quantization
 * error bounds.
 *
 * Every dot product of the decode path (matvec, gemmTransB,
 * matvecQuantized and the attention scores) is dot() below, whose
 * summation order is fixed by the length alone. The matrix kernels
 * (gemm, gemmTransB, matvec, matvecQuantized) run on the cllm::par
 * pool, partitioned so every parallel chunk owns a disjoint slice of
 * the output; a chunk computes each output element exactly as one
 * thread would, so results are bit-identical at any CLLM_THREADS.
 */

#ifndef CLLM_LLM_KERNELS_HH
#define CLLM_LLM_KERNELS_HH

#include <cstdint>
#include <cstddef>
#include <vector>

#include "llm/tensor.hh"

namespace cllm::llm {

/**
 * Dot product of w[0, n) and x[0, n) in a fixed lane order. Sixteen
 * partial sums run over the whole 16-element blocks, lane l taking
 * the elements i with i mod 16 == l; they fold pairwise (lane l adds
 * lane l + 8, then l + 4, l + 2, l + 1), and then the tail elements
 * are added one by one. The order depends only on n, so a value
 * never depends on thread count, chunking or instruction set, and the
 * independent lanes let the compiler vectorise the loop without
 * reassociating it. W is float, or int8_t widened to float for the
 * quantized path.
 */
template <typename W>
inline float
dot(const W *w, const float *x, std::size_t n)
{
    constexpr std::size_t kLanes = 16;
    float lane[kLanes] = {};
    const std::size_t whole = n - n % kLanes;
    for (std::size_t i = 0; i < whole; i += kLanes)
        for (std::size_t l = 0; l < kLanes; ++l)
            lane[l] += static_cast<float>(w[i + l]) * x[i + l];
    for (std::size_t l = 0; l < 8; ++l)
        lane[l] += lane[l + 8];
    for (std::size_t l = 0; l < 4; ++l)
        lane[l] += lane[l + 4];
    for (std::size_t l = 0; l < 2; ++l)
        lane[l] += lane[l + 2];
    float acc = lane[0] + lane[1];
    for (std::size_t i = whole; i < n; ++i)
        acc += static_cast<float>(w[i]) * x[i];
    return acc;
}

/**
 * C = A (m x k) * B (k x n), cache-blocked and row-parallel.
 * C is overwritten.
 */
void gemm(const Tensor &a, const Tensor &b, Tensor &c);

/**
 * y = W (rows x cols) * x (cols), the decode-path workhorse.
 * y must have `rows` elements.
 */
void matvec(const Tensor &w, const float *x, float *y);

/**
 * C = A (m x k) * B^T where B is (n x k) — the batched-decode path:
 * activations row-major times a weight matrix stored [out x in].
 */
void gemmTransB(const Tensor &a, const Tensor &b, Tensor &c);

/** RMSNorm: y_i = x_i / rms(x) * w_i. */
void rmsnorm(const float *x, const float *weight, float *y,
             std::size_t n, float eps = 1e-5f);

/** In-place numerically-stable softmax over n elements. */
void softmaxInPlace(float *x, std::size_t n);

/**
 * Apply rotary position embeddings to one head vector of even size
 * `head_dim` at position `pos` (Llama convention, theta = 10000).
 */
void applyRope(float *vec, std::size_t head_dim, std::size_t pos,
               float theta = 10000.0f);

/** SiLU activation x * sigmoid(x), elementwise. */
void siluInPlace(float *x, std::size_t n);

/** Round a float to bfloat16 precision (round-to-nearest-even). */
float toBf16(float x);

/** Round every element of a tensor to bfloat16 precision. */
void quantizeBf16(Tensor &t);

/**
 * Weight-only int8 quantization with per-row scales (symmetric).
 */
struct QuantizedTensor
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<std::int8_t> data;  //!< row-major quantized weights
    std::vector<float> scales;      //!< one scale per row

    /** Quantize from float. */
    static QuantizedTensor quantize(const Tensor &w);

    /** Dequantize back to float (for error analysis). */
    Tensor dequantize() const;
};

/**
 * y = Wq * x with on-the-fly dequantization: each row's dot() over
 * the widened int8 weights, times the row scale.
 */
void matvecQuantized(const QuantizedTensor &w, const float *x, float *y);

} // namespace cllm::llm

#endif // CLLM_LLM_KERNELS_HH
