// A minimal dense float32 tensor: row-major, contiguous, owning.
//
// The emulation framework runs every kernel in FP32 (as the paper's setup
// does on FP32 hardware), so a single-dtype tensor is sufficient; FP8/INT8
// participation happens by snapping values onto the quantization grid.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace fp8q {

using Shape = std::vector<std::int64_t>;

/// std::allocator, except that a value-initializing construct (what
/// vector(n) and resize(n) call) leaves the element default-initialized:
/// for a float, unwritten. Tensor's payload uses it, so only the
/// constructors that ask for a fill pay for one.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

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

  /// Allocates a tensor whose elements are left unwritten, counted as
  /// Tensor(Shape) is. For outputs the caller then writes in full. In an
  /// AddressSanitizer build every element starts as a NaN instead, so a
  /// test run there shows an element left unwritten.
  [[nodiscard]] static Tensor unfilled(Shape shape);

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
  std::vector<float, DefaultInitAllocator<float>> data_;
};

/// Total element count of a shape; throws on negative axes.
[[nodiscard]] std::int64_t shape_numel(const Shape& shape);

}  // namespace fp8q
