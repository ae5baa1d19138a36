// Compressed-sparse-column (CSC) storage for the revised simplex.
//
// The TE LPs are very sparse: each structural column (one candidate path)
// touches only its pair's conservation row and the capacity rows of the edges
// it crosses, and every logical column is a unit vector. The revised simplex
// prices and FTRANs by column, so CSC is the natural layout — the dense
// tableau's O(rows * cols) pivot cost becomes O(nnz) pricing plus O(rows)
// eta updates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace figret::lp {

/// One nonzero for building a SparseMatrix.
struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

/// Immutable CSC matrix. Duplicate (row, col) triplets are summed in their
/// input order at build time; explicit zeros and sums that cancel to zero are
/// dropped.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds the CSC matrix in O(nnz + rows + cols), rows ascending within
  /// each column. Throws std::out_of_range for a triplet outside the shape.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    const std::vector<Triplet>& triplets);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return values_.size(); }

  std::span<const std::uint32_t> col_rows(std::size_t j) const {
    return {row_index_.data() + col_ptr_[j], col_ptr_[j + 1] - col_ptr_[j]};
  }
  std::span<const double> col_values(std::size_t j) const {
    return {values_.data() + col_ptr_[j], col_ptr_[j + 1] - col_ptr_[j]};
  }

  /// dense += scale * column j.
  void add_col_times(std::size_t j, double scale,
                     std::vector<double>& dense) const;

  /// Returns column j scattered into a zeroed dense vector of size rows().
  void scatter_col(std::size_t j, std::vector<double>& dense) const;

  /// Sparse dot product: sum_i A(i, j) * y[i].
  double dot_col(std::size_t j, const std::vector<double>& y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> col_ptr_;     // size cols_ + 1
  std::vector<std::uint32_t> row_index_;  // size nnz
  std::vector<double> values_;            // size nnz
};

}  // namespace figret::lp
