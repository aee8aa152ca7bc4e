#include "llm/tensor.hh"

#include "util/logging.hh"

namespace cllm::llm {

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

const float &
Tensor::at(std::size_t r, std::size_t c) const
{
    if (r >= rows_ || c >= cols_)
        cllm_panic("Tensor::at out of range (", r, ",", c, ")");
    return data_[r * cols_ + c];
}

float *
Tensor::row(std::size_t r)
{
    if (r >= rows_)
        cllm_panic("Tensor::row out of range ", r);
    return data_.data() + r * cols_;
}

const float *
Tensor::row(std::size_t r) const
{
    if (r >= rows_)
        cllm_panic("Tensor::row out of range ", r);
    return data_.data() + r * cols_;
}

void
Tensor::fill(float v)
{
    for (auto &x : data_)
        x = v;
}

} // namespace cllm::llm
