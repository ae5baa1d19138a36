// Minimal dense row-major matrix used by the neural-network substrate and by
// small analytic computations. Deliberately not a general linear-algebra
// framework: only the kernels the repository needs, each with checked
// dimensions (throws std::invalid_argument on mismatch).
//
// Kernel design (fabric-scale hot paths): the three matmul variants run
// cache-blocked tiled kernels with branch-free, explicitly vectorizable
// microkernels — 16 independent accumulator chains per reduction so the
// compiler can keep FMA pipelines full without -ffast-math reassociation.
// Every reduction (dot, matvec, matmul_t element) sums in the *same* fixed
// order, so the batched NN forward is bit-identical to the per-sample path.
// The pre-optimization kernels live with the tests
// (tests/support/reference_kernels.h): they are the differential-test
// oracles and the bench baselines, and no library code calls them.
// Callers with a mostly-zero vector operand use matvec_sparse_into, which
// reads only the nonzero columns and still matches matvec_into bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace figret::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);
  /// Builds from row-major data; requires data.size() == rows*cols.
  static Matrix from_rows(std::size_t rows, std::size_t cols,
                          std::vector<double> data);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<double> flat() noexcept { return data_; }
  std::span<const double> flat() const noexcept { return data_; }

  Matrix transposed() const;

  /// this * other. Requires cols() == other.rows().
  Matrix matmul(const Matrix& other) const;
  /// transpose(this) * other. Requires rows() == other.rows().
  Matrix t_matmul(const Matrix& other) const;
  /// this * transpose(other). Requires cols() == other.cols().
  Matrix matmul_t(const Matrix& other) const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  /// Element-wise (Hadamard) product in place.
  Matrix& hadamard(const Matrix& other);

  double frobenius_norm() const noexcept;
  double max_abs() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);

/// y = A x for a row-major matrix and dense vector (checked dimensions).
std::vector<double> matvec(const Matrix& a, std::span<const double> x);

/// Allocation-free matvec: y is resized to a.rows(). Each y[i] reduces in the
/// same order as dot(a.row(i), x).
void matvec_into(const Matrix& a, std::span<const double> x,
                 std::vector<double>& y);

/// matvec_into for a sparse x given as ascending column indices `idx` and
/// their values `val`: reads only those columns of each row. With finite
/// entries in `a`, y is bit-identical to matvec_into on the densified x —
/// each product goes to the same lane in the same order, and the skipped
/// terms are +-0. An Inf/NaN in a skipped column is the one difference (the
/// dense product would be NaN). Throws std::invalid_argument on unsorted,
/// duplicate or out-of-range indices.
void matvec_sparse_into(const Matrix& a, std::span<const std::size_t> idx,
                        std::span<const double> val, std::vector<double>& y);

/// Dot product over the common prefix of the two spans. Sixteen independent
/// accumulator chains (lanes k%16), combined by a fixed pairwise tree — the
/// reduction order every matrix kernel shares.
double dot(std::span<const double> a, std::span<const double> b) noexcept;

/// y += alpha * x over the common prefix.
void axpy(double alpha, std::span<const double> x, std::span<double> y) noexcept;

}  // namespace figret::linalg
