#pragma once
/// \file bytes.hpp
/// \brief Serialization of trivially copyable values into byte payloads.
///
/// Messages on the simulated interconnect are opaque byte vectors, like
/// MPI buffers. These helpers pack/unpack PODs and vectors of PODs; all
/// "ranks" live in one process and one architecture, so raw memcpy is a
/// faithful stand-in for MPI datatypes.

#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace pkifmm::comm {

using Bytes = std::vector<std::byte>;

template <typename T>
concept Pod = std::is_trivially_copyable_v<T>;

/// Appends the raw bytes of v.
template <Pod T>
void pack(Bytes& out, const T& v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

/// Appends a length-prefixed vector.
template <Pod T>
void pack(Bytes& out, const std::vector<T>& v) {
  pack(out, static_cast<std::uint64_t>(v.size()));
  const auto* p = reinterpret_cast<const std::byte*>(v.data());
  out.insert(out.end(), p, p + v.size() * sizeof(T));
}

/// Cursor-based reader matching the pack() layout.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  template <Pod T>
  T read() {
    PKIFMM_CHECK_MSG(pos_ + sizeof(T) <= data_.size(), "payload underrun");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <Pod T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint64_t>();
    PKIFMM_CHECK_MSG(pos_ + n * sizeof(T) <= data_.size(), "payload underrun");
    std::vector<T> v(n);
    // An empty vector's data() may be null, which memcpy must not see.
    if (n > 0) std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Packs a bare vector (no length prefix) as the whole payload.
template <Pod T>
Bytes to_bytes(std::span<const T> v) {
  Bytes out(v.size() * sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

/// Inverse of to_bytes.
template <Pod T>
std::vector<T> from_bytes(std::span<const std::byte> b) {
  PKIFMM_CHECK(b.size() % sizeof(T) == 0);
  std::vector<T> v(b.size() / sizeof(T));
  if (!v.empty()) std::memcpy(v.data(), b.data(), b.size());
  return v;
}

}  // namespace pkifmm::comm
