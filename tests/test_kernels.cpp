// Differential tests for the tiled/SIMD linalg kernels against the
// pre-optimization reference kernels, over random shapes including ragged
// tiles (dimensions that are not multiples of the unroll widths).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "nn/mlp.h"
#include "support/reference_kernels.h"
#include "util/rng.h"

namespace figret {
namespace {

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             util::Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.uniform(-1.0, 1.0);
  return m;
}

// Reordered reductions are tolerance-bounded, not bit-equal: |err| is
// O(k * eps * max|products|), far below this bound for k <= 200, |v| <= 1.
constexpr double kTol = 1e-11;

void expect_near(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      EXPECT_NEAR(a(r, c), b(r, c), kTol) << "at (" << r << ", " << c << ")";
}

struct Shape {
  std::size_t m, k, n;
};

// Ragged shapes straddle every tail case of the 4-wide k-unroll and the
// 2-wide j-unroll; the larger ones cross cache-line and register-block sizes.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 4, 1},   {3, 5, 7},    {4, 4, 4},    {5, 4, 3},
    {2, 7, 2},   {17, 23, 9}, {32, 32, 32}, {33, 31, 30}, {8, 129, 5},
    {64, 3, 64}, {7, 1, 13},  {12, 100, 1}, {1, 64, 47},
};

TEST(TiledKernels, MatmulMatchesReferenceOnRaggedShapes) {
  util::Rng rng(101);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m, s.k, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    expect_near(a.matmul(b), linalg::matmul_reference(a, b));
  }
}

TEST(TiledKernels, TMatmulMatchesReferenceOnRaggedShapes) {
  util::Rng rng(102);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.k, s.m, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    expect_near(a.t_matmul(b), linalg::t_matmul_reference(a, b));
  }
}

TEST(TiledKernels, MatmulTMatchesReferenceOnRaggedShapes) {
  util::Rng rng(103);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m, s.k, rng);
    const auto b = random_matrix(s.n, s.k, rng);
    expect_near(a.matmul_t(b), linalg::matmul_t_reference(a, b));
  }
}

TEST(TiledKernels, ZeroHeavyOperandsStillMatch) {
  // The reference kernels skip zero entries; the dense kernels must produce
  // the same values without the branch.
  util::Rng rng(104);
  for (const Shape& s : kShapes) {
    auto a = random_matrix(s.m, s.k, rng);
    auto b = random_matrix(s.k, s.n, rng);
    for (double& v : a.flat())
      if (rng.bernoulli(0.7)) v = 0.0;
    for (double& v : b.flat())
      if (rng.bernoulli(0.4)) v = 0.0;
    expect_near(a.matmul(b), linalg::matmul_reference(a, b));
    const auto at = a.transposed();
    expect_near(at.t_matmul(b), linalg::t_matmul_reference(at, b));
  }
}

TEST(TiledKernels, DotMatvecAndMatmulTShareReductionOrder) {
  // The contract behind Mlp::forward_batch bit-identity: a 1-row matmul_t,
  // matvec_into, and dot all reduce in the same fixed lane order.
  util::Rng rng(106);
  for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 31u, 64u, 129u}) {
    const auto a = random_matrix(1, k, rng);
    const auto b = random_matrix(1, k, rng);
    const double via_dot = linalg::dot(a.row(0), b.row(0));
    const auto via_mm = a.matmul_t(b);
    std::vector<double> y;
    linalg::matvec_into(a, b.row(0), y);
    EXPECT_EQ(via_dot, via_mm(0, 0)) << "k=" << k;
    ASSERT_EQ(y.size(), 1u);
    EXPECT_EQ(via_dot, y[0]) << "k=" << k;
  }
}

TEST(TiledKernels, KTiledMatmulTMatchesSinglePassBitExactly) {
  // Reduction dimensions beyond the k-tile width (2048) take the chunked
  // accumulation path with carried lane accumulators; lane k % 16 is
  // preserved across chunk boundaries, so every element must equal the
  // single-pass dot bit for bit (and the reference within tolerance).
  util::Rng rng(108);
  for (std::size_t k : {2049u, 4096u, 5003u}) {
    const auto a = random_matrix(3, k, rng);
    const auto b = random_matrix(5, k, rng);
    const auto tiled = a.matmul_t(b);
    expect_near(tiled, linalg::matmul_t_reference(a, b));
    for (std::size_t i = 0; i < a.rows(); ++i)
      for (std::size_t j = 0; j < b.rows(); ++j)
        EXPECT_EQ(tiled(i, j), linalg::dot(a.row(i), b.row(j)))
            << "k=" << k << " at (" << i << ", " << j << ")";
  }
}

TEST(TiledKernels, RandomizedShapesSweep) {
  util::Rng rng(107);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = 1 + rng.uniform_index(40);
    const std::size_t k = 1 + rng.uniform_index(40);
    const std::size_t n = 1 + rng.uniform_index(40);
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    const auto bt = b.transposed();
    expect_near(a.matmul(b), linalg::matmul_reference(a, b));
    expect_near(a.matmul_t(bt), linalg::matmul_t_reference(a, bt));
    const auto at = a.transposed();
    expect_near(at.t_matmul(b), linalg::t_matmul_reference(at, b));
  }
}

TEST(TiledKernels, MlpForwardBatchMatchesReference) {
  // The reference forward is what the fabric-scale bench's MLP speedup gate
  // divides by: it must compute the same function as forward_batch.
  util::Rng rng(109);
  for (const nn::OutputActivation head :
       {nn::OutputActivation::kSigmoid, nn::OutputActivation::kIdentity}) {
    nn::MlpConfig cfg;
    cfg.layer_sizes = {37, 24, 19, 11};
    cfg.output = head;
    cfg.seed = 5;
    nn::Mlp mlp(cfg);
    for (auto& b : mlp.biases())
      for (double& v : b) v = rng.uniform(-0.5, 0.5);
    auto x = random_matrix(6, 37, rng);
    for (double& v : x.flat())
      if (rng.bernoulli(0.5)) v = 0.0;
    nn::MlpBatchWorkspace ws;
    const linalg::Matrix& got = mlp.forward_batch(x, ws);
    const linalg::Matrix want = nn::mlp_forward_batch_reference(mlp, x);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(got.flat()[i], want.flat()[i],
                  1e-12 * std::max(1.0, std::abs(want.flat()[i])))
          << "element " << i << " head " << static_cast<int>(head);
  }
}

// --- matvec_sparse_into -------------------------------------------------

// x with `val` at `idx` and `fill` (+0 or -0) everywhere else.
std::vector<double> densify(std::size_t n, const std::vector<std::size_t>& idx,
                            const std::vector<double>& val, double fill) {
  std::vector<double> x(n, fill);
  for (std::size_t i = 0; i < idx.size(); ++i) x[idx[i]] = val[i];
  return x;
}

// The sparse kernel must equal the dense one on the densified vector bit for
// bit — including the sign of zero — whether the skipped entries are +0 or
// -0 (Mlp::forward skips both).
void expect_sparse_matches_dense(const linalg::Matrix& a,
                                 const std::vector<std::size_t>& idx,
                                 const std::vector<double>& val) {
  std::vector<double> sparse;
  linalg::matvec_sparse_into(a, idx, val, sparse);
  ASSERT_EQ(sparse.size(), a.rows());
  for (const double fill : {0.0, -0.0}) {
    std::vector<double> dense;
    linalg::matvec_into(a, densify(a.cols(), idx, val, fill), dense);
    for (std::size_t i = 0; i < a.rows(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sparse[i]),
                std::bit_cast<std::uint64_t>(dense[i]))
          << a.rows() << "x" << a.cols() << " nnz=" << idx.size()
          << " fill=" << fill << " row " << i << ": " << sparse[i]
          << " vs " << dense[i];
  }
}

std::vector<double> random_values(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// Ragged rows and columns: below one 16-lane block, exactly one, one past,
// several with a tail, and past the 2048 k-tile width.
const std::pair<std::size_t, std::size_t> kSparseShapes[] = {
    {1, 1}, {3, 5}, {7, 16}, {5, 17}, {13, 33}, {4, 129}, {9, 2049},
};

TEST(SparseMatvec, NnzZeroOneAndAllMatchDense) {
  util::Rng rng(201);
  for (const auto& [rows, cols] : kSparseShapes) {
    const auto a = random_matrix(rows, cols, rng);
    expect_sparse_matches_dense(a, {}, {});
    // Every single column, each on its own lane/block position.
    const std::size_t step = cols > 200 ? 97 : 1;
    for (std::size_t k = 0; k < cols; k += step)
      expect_sparse_matches_dense(a, {k}, {rng.uniform(-1.0, 1.0)});
    std::vector<std::size_t> all(cols);
    for (std::size_t k = 0; k < cols; ++k) all[k] = k;
    expect_sparse_matches_dense(a, all, random_values(cols, rng));
  }
}

TEST(SparseMatvec, EveryLaneAndTheTail) {
  // 5 full 16-blocks plus a 7-wide tail. One index on each lane k % 16,
  // spread over different blocks, then three in the tail.
  util::Rng rng(202);
  const auto a = random_matrix(11, 16 * 5 + 7, rng);
  std::vector<std::size_t> idx;
  for (std::size_t lane = 0; lane < 16; ++lane)
    idx.push_back(lane + 16 * (lane % 5));
  for (const std::size_t k : {80u, 83u, 86u}) idx.push_back(k);
  std::sort(idx.begin(), idx.end());
  expect_sparse_matches_dense(a, idx, random_values(idx.size(), rng));
  // Several entries on one lane: the chain must keep ascending order.
  expect_sparse_matches_dense(a, {3, 19, 35, 51, 67, 83},
                              random_values(6, rng));
}

TEST(SparseMatvec, NegativeSubnormalAndSignedZeroValues) {
  util::Rng rng(203);
  const double tiny = std::numeric_limits<double>::denorm_min();
  auto a = random_matrix(6, 53, rng);
  for (double& v : a.flat()) v = -std::abs(v);
  a(0, 4) = 1000 * tiny;
  a(1, 20) = -3 * tiny;
  a(2, 36) = std::numeric_limits<double>::min();  // smallest normal
  // Exact cancellation on one lane: +w then -w leaves the chain at +0.
  a(3, 4) = 0.5;
  a(3, 20) = -0.5;
  const std::vector<std::size_t> idx = {4, 20, 36, 40, 52};
  expect_sparse_matches_dense(a, idx, {1.0, 1.0, tiny, -0.0, -7 * tiny});
  expect_sparse_matches_dense(a, idx, {-0.0, -0.0, -0.0, -0.0, -0.0});
  expect_sparse_matches_dense(a, idx, {0.25, -2.0, -tiny, 1e-300, 3.0});
}

TEST(SparseMatvec, RandomizedRaggedShapes) {
  util::Rng rng(204);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t rows = 1 + rng.uniform_index(40);
    const std::size_t cols = 1 + rng.uniform_index(300);
    const double density = rng.uniform(0.0, 0.3);
    const auto a = random_matrix(rows, cols, rng);
    std::vector<std::size_t> idx;
    for (std::size_t k = 0; k < cols; ++k)
      if (rng.bernoulli(density)) idx.push_back(k);
    expect_sparse_matches_dense(a, idx, random_values(idx.size(), rng));
  }
}

TEST(SparseMatvec, RejectsBadIndexLists) {
  util::Rng rng(205);
  const auto a = random_matrix(3, 10, rng);
  std::vector<double> y;
  EXPECT_THROW(linalg::matvec_sparse_into(a, std::vector<std::size_t>{1, 2},
                                          std::vector<double>{1.0}, y),
               std::invalid_argument);
  EXPECT_THROW(linalg::matvec_sparse_into(a, std::vector<std::size_t>{10},
                                          std::vector<double>{1.0}, y),
               std::invalid_argument);
  EXPECT_THROW(linalg::matvec_sparse_into(a, std::vector<std::size_t>{4, 2},
                                          std::vector<double>{1.0, 1.0}, y),
               std::invalid_argument);
  EXPECT_THROW(linalg::matvec_sparse_into(a, std::vector<std::size_t>{4, 4},
                                          std::vector<double>{1.0, 1.0}, y),
               std::invalid_argument);
}

}  // namespace
}  // namespace figret
