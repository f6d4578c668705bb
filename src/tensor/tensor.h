// A minimal dense float32 tensor: row-major, contiguous, owning.
//
// The emulation framework runs every kernel in FP32 (as the paper's setup
// does on FP32 hardware), so a single-dtype tensor is sufficient; FP8/INT8
// participation happens by snapping values onto the quantization grid.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace fp8q {

using Shape = std::vector<std::int64_t>;

class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Allocates and fills with `value`.
  Tensor(Shape shape, float value);

  /// Wraps existing data (copied) into the given shape. `data.size()` must
  /// equal the shape's element count.
  Tensor(Shape shape, std::vector<float> data);

  // Every constructor that materializes a payload -- including copies --
  // reports its bytes to the obs allocation tally (obs/memory.h), so run
  // reports can account per-stage tensor-allocation traffic. Moves
  // transfer ownership without allocating and are not counted.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept = default;
  ~Tensor() = default;

  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  [[nodiscard]] static Tensor full(Shape shape, float v) { return {std::move(shape), v}; }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] int dim() const { return static_cast<int>(shape_.size()); }
  [[nodiscard]] std::int64_t size(int axis) const;
  [[nodiscard]] std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] std::span<float> flat() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const float> flat() const { return {data_.data(), data_.size()}; }
  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  /// Row-major strides (in elements).
  [[nodiscard]] std::vector<std::int64_t> strides() const;

  /// Element access by multi-index; bounds-checked in debug builds.
  [[nodiscard]] float& at(std::initializer_list<std::int64_t> idx);
  [[nodiscard]] float at(std::initializer_list<std::int64_t> idx) const;

  [[nodiscard]] float& operator[](std::int64_t i) { return data_[static_cast<size_t>(i)]; }
  [[nodiscard]] float operator[](std::int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// Returns the tensor with a new shape covering the same number of
  /// elements: a copy, or this tensor relabelled when called on an rvalue.
  /// One axis may be -1 (inferred).
  [[nodiscard]] Tensor reshape(Shape new_shape) const&;
  [[nodiscard]] Tensor reshape(Shape new_shape) &&;

  /// In-place scalar ops.
  Tensor& fill(float v);
  Tensor& scale(float s);
  Tensor& add_scalar(float s);

  /// In-place elementwise ops with a same-shaped tensor.
  Tensor& add(const Tensor& other);
  Tensor& mul(const Tensor& other);

  /// Human-readable "f32[2, 3, 4]" string.
  [[nodiscard]] std::string descriptor() const;

  [[nodiscard]] bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  Shape shape_;
  std::vector<float> data_;
};

/// Total element count of a shape; throws on negative axes.
[[nodiscard]] std::int64_t shape_numel(const Shape& shape);

}  // namespace fp8q
