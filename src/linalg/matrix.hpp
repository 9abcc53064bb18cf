// Dense row-major matrix container and element-wise utilities.
//
// This is the local (per-rank) building block: distributed matrices in this
// library are collections of Matrix blocks placed by a layout (see
// layout/block_layout.hpp).
#pragma once

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/partition.hpp"
#include "common/rng.hpp"

namespace ca3dmm {

/// Owning row-major matrix.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(i64 rows, i64 cols) { resize(rows, cols); }

  void resize(i64 rows, i64 cols) {
    CA_REQUIRE(rows >= 0 && cols >= 0, "bad matrix shape %lld x %lld",
               static_cast<long long>(rows), static_cast<long long>(cols));
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows * cols), T{});
  }

  i64 rows() const { return rows_; }
  i64 cols() const { return cols_; }
  i64 size() const { return rows_ * cols_; }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator()(i64 i, i64 j) { return data_[static_cast<size_t>(i * cols_ + j)]; }
  const T& operator()(i64 i, i64 j) const {
    return data_[static_cast<size_t>(i * cols_ + j)];
  }

  /// Fills with the deterministic virtual random matrix `seed`, reading the
  /// global coordinates (row0 + i, col0 + j): distributed blocks filled this
  /// way agree with a serially filled global matrix.
  void fill_random(std::uint64_t seed, i64 row0 = 0, i64 col0 = 0) {
    for (i64 i = 0; i < rows_; ++i)
      for (i64 j = 0; j < cols_; ++j)
        (*this)(i, j) = matrix_entry<T>(seed, row0 + i, col0 + j);
  }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  i64 rows_ = 0, cols_ = 0;
  std::vector<T> data_;
};

/// max |a - b| over all entries; matrices must have equal shape.
template <typename T>
double max_abs_diff(const Matrix<T>& a, const Matrix<T>& b) {
  CA_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
             "shape mismatch in max_abs_diff");
  double m = 0;
  for (i64 i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a.data()[i]) -
                               static_cast<double>(b.data()[i]));
    if (d > m) m = d;
  }
  return m;
}

/// Copies a rectangular block of `src` (top-left at (sr, sc)) into `dst` at
/// (dr, dc); `r` x `c` elements. An empty block copies nothing (and never
/// indexes an empty matrix).
template <typename T>
void copy_block(const Matrix<T>& src, i64 sr, i64 sc, Matrix<T>& dst, i64 dr,
                i64 dc, i64 r, i64 c) {
  CA_ASSERT(sr + r <= src.rows() && sc + c <= src.cols());
  CA_ASSERT(dr + r <= dst.rows() && dc + c <= dst.cols());
  if (r == 0 || c == 0) return;
  for (i64 i = 0; i < r; ++i)
    std::memcpy(&dst(dr + i, dc), &src(sr + i, sc),
                static_cast<size_t>(c) * sizeof(T));
}

}  // namespace ca3dmm
