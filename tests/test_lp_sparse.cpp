// SparseMatrix::from_triplets, the one CSC assembly path of the revised
// simplex: order of the input, duplicate accumulation, zero drops, empty
// columns and shape checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "lp/sparse.h"

namespace figret::lp {
namespace {

struct Entry {
  std::uint32_t row;
  double value;
};

std::vector<Entry> column(const SparseMatrix& A, std::size_t j) {
  std::vector<Entry> out;
  const auto rows = A.col_rows(j);
  const auto vals = A.col_values(j);
  for (std::size_t k = 0; k < rows.size(); ++k) out.push_back({rows[k], vals[k]});
  return out;
}

void expect_column(const SparseMatrix& A, std::size_t j,
                   const std::vector<Entry>& want) {
  const std::vector<Entry> got = column(A, j);
  ASSERT_EQ(got.size(), want.size()) << "column " << j;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].row, want[k].row) << "column " << j << " entry " << k;
    EXPECT_EQ(got[k].value, want[k].value) << "column " << j << " entry " << k;
  }
}

TEST(LpSparse, UnsortedInputGivesRowsAscendingPerColumn) {
  const SparseMatrix A = SparseMatrix::from_triplets(
      4, 3,
      {{3, 2, 7.0}, {1, 0, 2.0}, {0, 2, 5.0}, {2, 1, 4.0}, {0, 0, 1.0},
       {3, 0, 3.0}, {1, 2, 6.0}});
  EXPECT_EQ(A.rows(), 4u);
  EXPECT_EQ(A.cols(), 3u);
  EXPECT_EQ(A.nnz(), 7u);
  expect_column(A, 0, {{0, 1.0}, {1, 2.0}, {3, 3.0}});
  expect_column(A, 1, {{2, 4.0}});
  expect_column(A, 2, {{0, 5.0}, {1, 6.0}, {3, 7.0}});
}

TEST(LpSparse, DuplicatesAccumulateInInsertionOrder) {
  // 1e16 + 1 - 1e16 is 0 in double arithmetic, while 1e16 - 1e16 + 1 is 1:
  // the sum is only reproducible if duplicates add up left to right.
  const SparseMatrix A = SparseMatrix::from_triplets(
      2, 2, {{1, 1, 1e16}, {0, 0, 1.0}, {1, 1, 1.0}, {1, 1, -1e16}});
  expect_column(A, 0, {{0, 1.0}});
  expect_column(A, 1, {});
  const SparseMatrix B = SparseMatrix::from_triplets(
      2, 2, {{1, 1, 1e16}, {1, 1, -1e16}, {0, 0, 1.0}, {1, 1, 1.0}});
  expect_column(B, 1, {{1, 1.0}});
  // A three-way duplicate among other entries of the same column.
  const SparseMatrix C = SparseMatrix::from_triplets(
      3, 1, {{2, 0, 0.1}, {1, 0, 9.0}, {2, 0, 0.2}, {0, 0, 8.0}, {2, 0, 0.3}});
  expect_column(C, 0, {{0, 8.0}, {1, 9.0}, {2, (0.1 + 0.2) + 0.3}});
}

TEST(LpSparse, ExplicitZerosAndCancellingDuplicatesAreDropped) {
  const SparseMatrix A = SparseMatrix::from_triplets(
      3, 2,
      {{0, 0, 0.0}, {1, 0, 2.5}, {2, 0, -4.0}, {2, 0, 4.0}, {0, 1, -0.0},
       {1, 1, 3.0}});
  EXPECT_EQ(A.nnz(), 2u);
  expect_column(A, 0, {{1, 2.5}});
  expect_column(A, 1, {{1, 3.0}});
}

TEST(LpSparse, EmptyColumnsKeepColumnPointersConsistent) {
  // Columns 0, 2, 3 and 5 are empty, and the last column is non-empty.
  const SparseMatrix A = SparseMatrix::from_triplets(
      3, 7, {{2, 6, 1.0}, {0, 1, 2.0}, {1, 4, 3.0}, {0, 6, 4.0}});
  EXPECT_EQ(A.nnz(), 4u);
  for (const std::size_t j : {0u, 2u, 3u, 5u}) {
    EXPECT_TRUE(A.col_rows(j).empty()) << "column " << j;
    EXPECT_TRUE(A.col_values(j).empty()) << "column " << j;
  }
  expect_column(A, 1, {{0, 2.0}});
  expect_column(A, 4, {{1, 3.0}});
  expect_column(A, 6, {{0, 4.0}, {2, 1.0}});
  // A column made empty by a cancelling duplicate, and a matrix with none.
  const SparseMatrix B =
      SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 0, -1.0}});
  EXPECT_EQ(B.nnz(), 0u);
  EXPECT_TRUE(B.col_rows(0).empty());
  EXPECT_TRUE(B.col_rows(1).empty());
  const SparseMatrix E = SparseMatrix::from_triplets(0, 3, {});
  EXPECT_EQ(E.nnz(), 0u);
  EXPECT_TRUE(E.col_rows(2).empty());
}

TEST(LpSparse, OutOfRangeTripletThrows) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::out_of_range);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 2, 1.0}}),
               std::out_of_range);
  EXPECT_THROW(SparseMatrix::from_triplets(0, 0, {{0, 0, 1.0}}),
               std::out_of_range);
}

TEST(LpSparse, ColumnKernelsReadTheAssembledMatrix) {
  const SparseMatrix A = SparseMatrix::from_triplets(
      3, 2, {{2, 0, 3.0}, {0, 0, 1.0}, {1, 1, -2.0}});
  std::vector<double> d;
  A.scatter_col(0, d);
  EXPECT_EQ(d, (std::vector<double>{1.0, 0.0, 3.0}));
  A.add_col_times(1, 0.5, d);
  EXPECT_EQ(d, (std::vector<double>{1.0, -1.0, 3.0}));
  EXPECT_EQ(A.dot_col(0, {2.0, 5.0, 1.0}), 5.0);
}

}  // namespace
}  // namespace figret::lp
