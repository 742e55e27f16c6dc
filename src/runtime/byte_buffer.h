#pragma once

#include <cstdint>
#include <cstring>
#include <memory>

#include "runtime/status.h"

/// \file byte_buffer.h
/// A growable byte array used for intermediate window-fragment results
/// (§5.1 "object pooling ... byte arrays for storing intermediate window
/// fragment results"). Instances are pooled per worker thread, so Clear()
/// keeps the allocation and only resets the length.

namespace saber {

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(size_t initial_capacity) { Reserve(initial_capacity); }

  ByteBuffer(const ByteBuffer&) = delete;
  ByteBuffer& operator=(const ByteBuffer&) = delete;
  ByteBuffer(ByteBuffer&&) = default;
  ByteBuffer& operator=(ByteBuffer&&) = default;

  const uint8_t* data() const { return data_.get(); }
  uint8_t* data() { return data_.get(); }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  void Clear() { size_ = 0; }

  void Reserve(size_t n) {
    if (n <= capacity_) return;
    size_t cap = capacity_ == 0 ? 256 : capacity_;
    while (cap < n) cap *= 2;
    std::unique_ptr<uint8_t[]> grown(new uint8_t[cap]);
    if (size_ > 0) std::memcpy(grown.get(), data_.get(), size_);
    data_ = std::move(grown);
    capacity_ = cap;
  }

  void Resize(size_t n) {
    Reserve(n);
    size_ = n;
  }

  /// Appends `n` bytes, growing if needed. The n == 0 guard matters: callers
  /// routinely append empty results, and memcpy(null, null, 0) is UB.
  void Append(const void* bytes, size_t n) {
    if (n == 0) return;
    Reserve(size_ + n);
    std::memcpy(data_.get() + size_, bytes, n);
    size_ += n;
  }

  /// Appends `n` zero-initialized bytes and returns a pointer to them.
  uint8_t* AppendZeros(size_t n) {
    Reserve(size_ + n);
    uint8_t* out = data_.get() + size_;
    if (n > 0) std::memset(out, 0, n);
    size_ += n;
    return out;
  }

  /// Appends `n` uninitialized bytes and returns a pointer for the caller to
  /// fill (used by operators writing fixed-size result tuples).
  uint8_t* AppendUninitialized(size_t n) {
    Reserve(size_ + n);
    uint8_t* out = data_.get() + size_;
    size_ += n;
    return out;
  }

  template <typename T>
  void AppendValue(const T& v) {
    Append(&v, sizeof(T));
  }

 private:
  std::unique_ptr<uint8_t[]> data_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace saber
