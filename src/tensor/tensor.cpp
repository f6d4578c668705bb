#include "tensor/tensor.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "obs/memory.h"

namespace fp8q {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t s : shape) {
    if (s < 0) throw std::invalid_argument("negative axis in shape");
    n *= s;
  }
  return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(static_cast<size_t>(shape_numel(shape_)), 0.0f) {
  alloc_counter_add(data_.size() * sizeof(float));
}

Tensor Tensor::unfilled(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.resize(static_cast<size_t>(shape_numel(t.shape_)));
#if defined(__SANITIZE_ADDRESS__)
  std::fill(t.data_.begin(), t.data_.end(), std::bit_cast<float>(0x7fc0dead));
#endif
  alloc_counter_add(t.data_.size() * sizeof(float));
  return t;
}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)), data_(static_cast<size_t>(shape_numel(shape_)), value) {
  alloc_counter_add(data_.size() * sizeof(float));
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(data.begin(), data.end()) {
  if (static_cast<std::int64_t>(data_.size()) != shape_numel(shape_)) {
    throw std::invalid_argument("data size does not match shape");
  }
  alloc_counter_add(data_.size() * sizeof(float));
}

// Copies duplicate the payload, so they count as allocations.
Tensor::Tensor(const Tensor& other) : shape_(other.shape_), data_(other.data_) {
  alloc_counter_add(data_.size() * sizeof(float));
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  data_ = other.data_;
  alloc_counter_add(data_.size() * sizeof(float));
  return *this;
}

std::int64_t Tensor::size(int axis) const {
  if (axis < 0) axis += dim();
  if (axis < 0 || axis >= dim()) throw std::out_of_range("axis out of range");
  return shape_[static_cast<size_t>(axis)];
}

std::vector<std::int64_t> Tensor::strides() const {
  std::vector<std::int64_t> st(shape_.size(), 1);
  for (int i = dim() - 2; i >= 0; --i) {
    st[static_cast<size_t>(i)] = st[static_cast<size_t>(i) + 1] * shape_[static_cast<size_t>(i) + 1];
  }
  return st;
}

namespace {
std::int64_t flatten_index(const Shape& shape, std::initializer_list<std::int64_t> idx) {
  if (idx.size() != shape.size()) throw std::out_of_range("index rank mismatch");
  std::int64_t flat = 0;
  size_t i = 0;
  for (std::int64_t v : idx) {
    assert(v >= 0 && v < shape[i]);
    flat = flat * shape[i] + v;
    ++i;
  }
  return flat;
}
}  // namespace

float& Tensor::at(std::initializer_list<std::int64_t> idx) {
  return data_[static_cast<size_t>(flatten_index(shape_, idx))];
}

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  return data_[static_cast<size_t>(flatten_index(shape_, idx))];
}

Tensor Tensor::reshape(Shape new_shape) const& {
  return Tensor(*this).reshape(std::move(new_shape));
}

Tensor Tensor::reshape(Shape new_shape) && {
  std::int64_t known = 1;
  int infer_axis = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      if (infer_axis >= 0) throw std::invalid_argument("multiple -1 axes in reshape");
      infer_axis = static_cast<int>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer_axis >= 0) {
    if (known == 0 || numel() % known != 0) {
      throw std::invalid_argument("cannot infer reshape axis");
    }
    new_shape[static_cast<size_t>(infer_axis)] = numel() / known;
  }
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("reshape changes element count");
  }
  shape_ = std::move(new_shape);
  return std::move(*this);
}

Tensor& Tensor::fill(float v) {
  std::fill(data_.begin(), data_.end(), v);
  return *this;
}

Tensor& Tensor::scale(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

Tensor& Tensor::add_scalar(float s) {
  for (float& v : data_) v += s;
  return *this;
}

Tensor& Tensor::add(const Tensor& other) {
  if (!same_shape(other)) throw std::invalid_argument("add: shape mismatch");
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::mul(const Tensor& other) {
  if (!same_shape(other)) throw std::invalid_argument("mul: shape mismatch");
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

std::string Tensor::descriptor() const {
  std::ostringstream os;
  os << "f32[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace fp8q
