/**
 * @file
 * Minimal row-major float tensor used by the functional inference
 * runtime. This is deliberately simple: contiguous storage, 1-D/2-D
 * views, bounds-checked element access in debug paths.
 */

#ifndef CLLM_LLM_TENSOR_HH
#define CLLM_LLM_TENSOR_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace cllm::llm {

/**
 * A 2-D row-major matrix of floats (rows x cols). 1-D vectors are
 * represented as 1 x n.
 */
class Tensor
{
  public:
    /** Empty tensor. */
    Tensor() = default;

    /** rows x cols, zero-initialized. */
    Tensor(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    /** Element access (bounds-checked). */
    const float &at(std::size_t r, std::size_t c) const;
    float &
    at(std::size_t r, std::size_t c)
    {
        return const_cast<float &>(std::as_const(*this).at(r, c));
    }

    /** Raw row pointer. */
    float *row(std::size_t r);
    const float *row(std::size_t r) const;

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Fill with a constant. */
    void fill(float v);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

} // namespace cllm::llm

#endif // CLLM_LLM_TENSOR_HH
