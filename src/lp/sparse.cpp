#include "lp/sparse.h"

#include <stdexcept>

namespace figret::lp {

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         const std::vector<Triplet>& triplets) {
  for (const Triplet& t : triplets)
    if (t.row >= rows || t.col >= cols)
      throw std::out_of_range("SparseMatrix: triplet outside matrix shape");

  // Two stable counting-sort passes, by row and then by column, order the
  // triplets by (col, row) in O(nnz + rows + cols); duplicates keep their
  // insertion order.
  std::vector<std::size_t> start(rows + 1, 0);
  for (const Triplet& t : triplets) ++start[t.row + 1];
  for (std::size_t r = 0; r < rows; ++r) start[r + 1] += start[r];
  std::vector<std::size_t> by_row(triplets.size());
  for (std::size_t k = 0; k < triplets.size(); ++k)
    by_row[start[triplets[k].row]++] = k;

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_ptr_.assign(cols + 1, 0);
  for (const Triplet& t : triplets) ++m.col_ptr_[t.col + 1];
  for (std::size_t j = 0; j < cols; ++j) m.col_ptr_[j + 1] += m.col_ptr_[j];
  m.row_index_.resize(triplets.size());
  m.values_.resize(triplets.size());
  std::vector<std::size_t> next(m.col_ptr_.begin(), m.col_ptr_.end() - 1);
  for (const std::size_t k : by_row) {
    const Triplet& t = triplets[k];
    const std::size_t at = next[t.col]++;
    m.row_index_[at] = t.row;
    m.values_[at] = t.value;
  }

  // Accumulate duplicates left to right and drop zeros, compacting in place.
  std::size_t out = 0;
  std::size_t i = 0;
  for (std::size_t j = 0; j < cols; ++j) {
    const std::size_t end = m.col_ptr_[j + 1];
    while (i < end) {
      const std::uint32_t r = m.row_index_[i];
      double v = m.values_[i++];
      while (i < end && m.row_index_[i] == r) v += m.values_[i++];
      if (v != 0.0) {
        m.row_index_[out] = r;
        m.values_[out++] = v;
      }
    }
    m.col_ptr_[j + 1] = out;
  }
  m.row_index_.resize(out);
  m.values_.resize(out);
  return m;
}

void SparseMatrix::add_col_times(std::size_t j, double scale,
                                 std::vector<double>& dense) const {
  const auto rows = col_rows(j);
  const auto vals = col_values(j);
  for (std::size_t k = 0; k < rows.size(); ++k)
    dense[rows[k]] += scale * vals[k];
}

void SparseMatrix::scatter_col(std::size_t j,
                               std::vector<double>& dense) const {
  dense.assign(rows_, 0.0);
  const auto rows = col_rows(j);
  const auto vals = col_values(j);
  for (std::size_t k = 0; k < rows.size(); ++k) dense[rows[k]] = vals[k];
}

double SparseMatrix::dot_col(std::size_t j, const std::vector<double>& y)
    const {
  const auto rows = col_rows(j);
  const auto vals = col_values(j);
  double acc = 0.0;
  for (std::size_t k = 0; k < rows.size(); ++k) acc += vals[k] * y[rows[k]];
  return acc;
}

}  // namespace figret::lp
