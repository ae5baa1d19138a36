// Pre-optimization kernels, kept as differential-test oracles and bench
// baselines for the library's fast paths:
//  * the three matmul variants against linalg::Matrix's tiled/SIMD kernels
//    (plain loops with a zero-skip branch on the left operand, one
//    accumulator per output element — equal to the tiled kernels within
//    rounding, not bit for bit);
//  * the path-major edge-load loop against te::edge_loads_into (bit for bit);
//  * a batched MLP forward built on the reference matmul_t, against
//    nn::Mlp::forward_batch (within rounding).
// No library code calls these; they exist so tests and benches compare the
// fast kernels with an independent computation of the same quantity.
#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "nn/mlp.h"
#include "te/pathset.h"
#include "traffic/demand.h"

namespace figret::linalg {

/// a * b. Requires a.cols() == b.rows().
Matrix matmul_reference(const Matrix& a, const Matrix& b);
/// transpose(a) * b. Requires a.rows() == b.rows().
Matrix t_matmul_reference(const Matrix& a, const Matrix& b);
/// a * transpose(b). Requires a.cols() == b.cols().
Matrix matmul_t_reference(const Matrix& a, const Matrix& b);

}  // namespace figret::linalg

namespace figret::te {

/// Per-edge loads by a loop over every global path id. Bit-identical to
/// edge_loads_into.
void edge_loads_reference_into(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config,
                               std::vector<double>& out);

}  // namespace figret::te

namespace figret::nn {

/// Mlp::forward_batch on the reference matmul_t: per layer x * W^T, plus
/// bias, then ReLU on hidden layers and the configured output head.
linalg::Matrix mlp_forward_batch_reference(const Mlp& mlp,
                                           const linalg::Matrix& x);

}  // namespace figret::nn
