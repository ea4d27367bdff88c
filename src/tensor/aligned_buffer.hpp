// Cache-line / SIMD aligned owning byte buffer.
//
// All activation and weight storage in BitFlow lives in 64-byte aligned
// allocations so that AVX-512 loads of packed words never split cache lines
// and so the float baselines can use aligned vector loads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>

#include "core/failpoint.hpp"

namespace bitflow {

/// Allocation alignment used for every tensor buffer (one cache line, and
/// exactly the width of one AVX-512 register).
inline constexpr std::size_t kBufferAlignment = 64;

/// Owning, 64-byte aligned byte buffer, zero-initialized unless made by
/// uninitialized().
///
/// Zero-initialization gives every fresh tensor defined contents (all-zero
/// bits decode to -1), which standalone kernel callers rely on for padded
/// outputs.  It is not what keeps the engine's padding margins zero: the
/// activation arenas are uninitialized and reused by several layers, so
/// BinaryNetwork::infer_batch zeroes each margin ring before use
/// (kernels::zero_margin).
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t bytes) {
    allocate(bytes);
    if (data_ != nullptr) std::memset(data_, 0, bytes);
  }

  /// A buffer whose bytes are left indeterminate: no memset, so each page is
  /// first touched by whoever first writes it.  Only for a caller that
  /// writes every byte before anything reads one:
  ///   * the model loader's streamed weight banks (graph/weights.hpp), whose
  ///     load workers fault the pages in where they write them;
  ///   * an inference context's activation arenas (graph/network.cpp), whose
  ///     pages the first inference that writes them faults in — a producer
  ///     assigns whole words and each margin ring is zeroed before its
  ///     producer runs, so no word is read before it is written.
  [[nodiscard]] static AlignedBuffer uninitialized(std::size_t bytes) {
    AlignedBuffer b;
    b.allocate(bytes);
    return b;
  }

  AlignedBuffer(const AlignedBuffer& other) : AlignedBuffer(other.size_) {
    if (size_ > 0) std::memcpy(data_, other.data_, size_);
  }

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      AlignedBuffer tmp(other);
      swap(tmp);
    }
    return *this;
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept { swap(other); }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    swap(other);
    return *this;
  }

  ~AlignedBuffer() {
    if (data_ != nullptr) {
      ::operator delete[](data_, std::align_val_t{kBufferAlignment});
    }
  }

  void swap(AlignedBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Reset every byte to zero (used to re-arm padded margins between runs).
  void zero() noexcept {
    if (data_ != nullptr) std::memset(data_, 0, size_);
  }

 private:
  void allocate(std::size_t bytes) {
    if (bytes > 0) {
      BF_FAILPOINT("alloc.buffer");  // simulated bad_alloc lands here
      data_ = static_cast<std::byte*>(
          ::operator new[](bytes, std::align_val_t{kBufferAlignment}));
    }
    size_ = bytes;
  }

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace bitflow
